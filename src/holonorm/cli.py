"""Command-line front end.

One subcommand per certifier, each declared once in ``COMMANDS``.  Reports
are JSON by default (canonical: the same configuration and seed reproduce
the same bytes; timing goes to stderr only) or a flattened CSV.  Exit codes:
0 success, 2 for input errors (syntax, bad file, bad flag, a non-finite
``--at`` coordinate or float flag, a negative ``--seed``), 3 for numeric
failures (pole storms, no admissible disc, running out of memory).
RuntimeWarnings are counted, not printed raw.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings

import numpy as np

from . import __version__
from . import expr as ex
from . import linescan as ls
from . import normality as nr
from . import reports as rp
from . import sampling as sp
from . import series as se
from .errors import HolonormError, InputError, ParseError


def _parse_ladder(text: str) -> list:
    try:
        vals = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as e:
        raise InputError(f"bad ladder {text!r}: {e}") from e
    return list(sp.check_ladder(vals))


def _parse_point(text: str, arity: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise InputError(f"point {text!r} needs {arity} comma-separated coordinates")
    try:
        z = np.array([complex(p.replace(" ", "")) for p in parts])
    except ValueError as e:
        raise InputError(f"bad point {text!r}: {e}") from e
    if not np.isfinite(z).all():
        raise InputError(f"point {text!r} has a non-finite coordinate")
    return z


def _grid_for(arity: int, radius: float, seed: int):
    if arity == 1:
        return sp.disc_grid(radius, 32, 64)
    return sp.ball_grid(arity, radius, 48, 10, seed)


def _sup_results(quantity: str, fields: dict, ladder=None, **lead) -> dict:
    """Results of a supremum: ``lead`` keys, then ``fields`` (a
    SupEstimate's dict), then the ladder and no classification."""
    return {"quantity": quantity, **lead, **fields, "ladder": ladder,
            "classification": None}


def _ladder_verdict(quantity: str, v: nr.Verdict) -> dict:
    return {"quantity": quantity, **v.to_dict(),
            "ladder": [[e, s] for e, s in v.estimate.growth_series]}


# Runners take the parsed input and the report's config.  They look
# certifiers up as module attributes at call time, so that patching
# ``nr``/``ls`` (as tests and the benchmark tracer do) reaches them.

def _point_or_grid(f, c):
    cmd = c["command"]
    if cmd == "mu" and c["arity"] != 1:
        raise InputError("mu requires --arity 1")
    if c["at"] is not None:
        z = _parse_point(c["at"], c["arity"])
        val = nr.mu(f, z) if cmd == "mu" else nr.sharp(f, z)
        return _sup_results(cmd, {"sup": None}, value=val)
    grid = _grid_for(c["arity"], c["radius"], c["seed"])
    est = nr.mu_local_boundedness([f], grid) if cmd == "mu" else nr.marty_sup([f], grid)
    return _sup_results(cmd, est.to_dict(), value=None)


def _marty(fam, c):
    est = nr.marty_sup(fam, _grid_for(c["arity"], c["radius"], c["seed"]))
    return _sup_results("sharp-sup", est.to_dict())


def _yosida(f, c):
    if c["arity"] != 1:
        raise InputError("yosida requires --arity 1")
    v = nr.yosida_bound(f, c["ladder"], c["radii"], c["angles"])
    return _ladder_verdict("(1-|z|^2)*sharp", v)


def _ball_ratio(f, c):
    Z = sp.uniform_ball_points(c["arity"], c["samples"], c["radius"], c["seed"])
    V = sp.unit_sphere_points(c["arity"], c["vectors"], c["seed"] + 1)
    return _sup_results("levi/bergman", nr.ball_normal_ratio(f, Z, V).to_dict())


def _kobayashi(f, c):
    v = nr.kobayashi_normality_check(
        f, ladder=c["ladder"], directions=c["directions"], radii=c["radii"],
        v_count=c["vectors"], seed=c["seed"])
    return _ladder_verdict("levi/kobayashi^2", v)


def _disc_probe(f, c):
    est = nr.disc_family_probe(f, count=c["count"], degree=c["degree"],
                               seed=c["seed"], ladder=c["ladder"])
    return _sup_results("(1-|l|^2)*slice-sharp", est.to_dict(),
                        ladder=[[e, s] for e, s in est.growth_series])


def _linescan(fam, c):
    D = ls.direction_set(c["arity"], c["directions"], c["seed"])
    sweep = (D, c["ladder"], c["radii"], c["angles"])
    if len(fam) == 1:
        (verdict, lines), ball = ls.alexander_function_test(fam[0], *sweep), None
    else:
        verdict, lines, ball = ls.alexander_family_test(fam, *sweep, seed=c["seed"])
    results = {"quantity": "line-slice trend", **verdict.to_dict(),
               "lines": [r.to_dict() for r in lines]}
    if ball is not None:
        results["ball_sup"] = ball.to_dict()
    return results


def _hartogs(F, c):
    D = ls.direction_set(F.arity, c["directions"], c["seed"])
    verdict, lines, partial = ls.hartogs_test(F, D, c["rmin"], c["window"],
                                              seed=c["seed"])
    results = {"quantity": "line radius", **verdict.to_dict(),
               "min_radius": verdict.estimate.sup_value,
               "lines": [r.to_dict() for r in lines]}
    if partial is not None:
        results["partial_sum_sup"] = partial.to_dict()
    return results


def _orbit(f, c):
    n, seed = c["arity"], c["seed"]
    if n == 1:
        orbit = nr.translate_orbit(f, nr.random_disc_params(c["count"], seed))
    else:
        orbit = nr.ball_orbit(f, nr.random_ball_params(n, c["count"], seed))
    est = nr.marty_sup(orbit, _grid_for(n, c["radius"], seed))
    return _sup_results("orbit sharp-sup", est.to_dict(), orbit_size=len(orbit))


AT = ("at", None, "evaluate at one point, e.g. '0.3+0.1j,0'")
LADDER = ("ladder", "0.2,0.1,0.05,0.02,0.01", "comma-separated shrinking boundary gaps")

#: subcommand -> (help, input, own flags, runner).  The input is one --expr
#: ("expr"), a repeatable --expr ("family") or a --series file ("series").
#: A flag is (name, default[, help]) and takes its default's type (str when
#: None); the report's config lists the flags in this order.
COMMANDS = {
    "sharp": ("gradient spherical derivative", "expr",
              [AT, ("radius", 0.5, "grid radius when --at is absent")], _point_or_grid),
    "mu": ("spherical derivative (one variable)", "expr",
           [AT, ("radius", 0.5)], _point_or_grid),
    "marty": ("family supremum of sharp on a compact", "family",
              [("radius", 0.5)], _marty),
    "yosida": ("boundary-weighted trend on the disc", "expr",
               [LADDER, ("radii", 64), ("angles", 128)], _yosida),
    "ball-ratio": ("Levi form over Bergman length, sampled", "expr",
                   [("samples", 400), ("vectors", 32), ("radius", 0.95)], _ball_ratio),
    "kobayashi": ("Levi over Kobayashi trend on the ball", "expr",
                  [LADDER, ("directions", 64), ("radii", 16), ("vectors", 32)], _kobayashi),
    "disc-probe": ("weighted slice sup over random analytic discs", "expr",
                   [("count", 100), ("degree", 2), LADDER], _disc_probe),
    "linescan": ("line-slice trends through the origin", "family",
                 [("directions", ls.DEFAULT_DIRECTIONS), LADDER, ("radii", 48),
                  ("angles", 64)], _linescan),
    "hartogs": ("directional series convergence verdict", "series",
                [("directions", ls.DEFAULT_DIRECTIONS), ("rmin", ls.DEFAULT_RMIN),
                 ("window", se.DEFAULT_WINDOW)], _hartogs),
    "orbit": ("automorphism orbit, then a Marty supremum", "expr",
              [("count", 20), ("radius", 0.5)], _orbit),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holonorm",
        description="certifiers for normal functions and families on disc and ball",
    )
    ap.add_argument("--version", action="version", version=f"holonorm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, kind, flags, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if kind == "series":
            p.add_argument("--series", required=True, metavar="PATH",
                           help="power series JSON file")
        else:
            family = kind == "family"
            p.add_argument("--expr", required=True, metavar="TEXT",
                           action="append" if family else None,
                           help="expression in the z1..zn language"
                                + (" (repeatable)" if family else ""))
            p.add_argument("--arity", type=int, default=1, metavar="N",
                           help="number of complex variables (default 1)")
        p.add_argument("--seed", type=int, default=0, metavar="S")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the report here instead of stdout")
        for name, default, *text in flags:
            p.add_argument(f"--{name}", type=str if default is None else type(default),
                           default=default, help=text[0] if text else None)
    return ap


def _run(args) -> dict:
    _, kind, flags, runner = COMMANDS[args.command]
    config: dict = {"command": args.command, "seed": args.seed}
    if kind == "series":
        inp = se.load_series(args.series)
        config.update(series=args.series, arity=inp.arity, max_degree=inp.max_degree)
    else:
        fam = [ex.parse(t, args.arity)
               for t in (args.expr if kind == "family" else [args.expr])]
        inp = fam if kind == "family" else fam[0]
        config.update(expr=args.expr, arity=args.arity)
    if args.seed < 0:
        raise InputError(f"--seed {args.seed} is negative")
    for name, *_ in flags:
        value = getattr(args, name)
        if isinstance(value, float) and not math.isfinite(value):
            raise InputError(f"--{name} {value!r} is not finite")
        config[name] = _parse_ladder(value) if name == "ladder" else value
    return {"tool": "holonorm", "version": __version__,
            "config": config, "results": runner(inp, config)}


def _run_counting_warnings(args) -> dict:
    """``_run``, with its RuntimeWarnings counted on one stderr line (before
    any error message) in place of numpy's raw ones."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            return _run(args)
    finally:
        for w in caught:
            if not issubclass(w.category, RuntimeWarning):  # shown as usual
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)
        if count := sum(issubclass(w.category, RuntimeWarning) for w in caught):
            print(f"holonorm {args.command}: {count} numpy RuntimeWarning(s) "
                  "(overflow or invalid values) recorded", file=sys.stderr)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        report = _run_counting_warnings(args)
    except (ParseError, InputError, OSError) as e:
        print(f"holonorm: input error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, HolonormError) as e:
        print(f"holonorm: numeric failure: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:
        detail = f": {e}" if str(e) else ""
        print(f"holonorm: numeric failure: out of memory{detail}", file=sys.stderr)
        return 3
    dt = time.perf_counter() - t0
    if args.format == "json":
        payload = rp.canonical_json(report) + "\n"
    else:
        payload = rp.report_csv(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    print(f"holonorm {args.command}: wall-clock {dt:.3f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
