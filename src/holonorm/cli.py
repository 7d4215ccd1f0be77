"""Command-line front end.

One subcommand per certifier.  Reports are JSON by default (canonical: the
same configuration and seed reproduce the same bytes; timing goes to stderr
only) or a flattened CSV.  Exit codes: 0 success, 2 for input errors
(syntax, bad file, bad flag), 3 for numeric failures (pole storms, no
admissible disc).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from . import __version__
from . import expr as ex
from . import linescan as ls
from . import metrics as mt
from . import normality as nr
from . import reports as rp
from . import sampling as sp
from . import series as se
from .errors import HolonormError, InputError, ParseError


def _parse_ladder(text: str) -> tuple:
    try:
        vals = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as e:
        raise InputError(f"bad ladder {text!r}: {e}") from e
    return sp.check_ladder(vals)


def _parse_point(text: str, arity: int) -> np.ndarray:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != arity:
        raise InputError(f"point {text!r} needs {arity} comma-separated coordinates")
    try:
        return np.array([complex(p.replace(" ", "")) for p in parts])
    except ValueError as e:
        raise InputError(f"bad point {text!r}: {e}") from e


def _common_flags(p: argparse.ArgumentParser, *, series_input: bool = False,
                  family: bool = False):
    if series_input:
        p.add_argument("--series", required=True, metavar="PATH",
                       help="power series JSON file")
    else:
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


def _ladder_flags(p: argparse.ArgumentParser, radii=64, angles=128):
    p.add_argument("--ladder", type=str, default="0.2,0.1,0.05,0.02,0.01",
                   help="comma-separated shrinking boundary gaps")
    p.add_argument("--radii", type=int, default=radii)
    p.add_argument("--angles", type=int, default=angles)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="holonorm",
        description="certifiers for normal functions and families on disc and ball",
    )
    ap.add_argument("--version", action="version", version=f"holonorm {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sharp", help="gradient spherical derivative")
    _common_flags(p)
    p.add_argument("--at", metavar="POINT", default=None,
                   help="evaluate at one point, e.g. '0.3+0.1j,0'")
    p.add_argument("--radius", type=float, default=0.5,
                   help="grid radius when --at is absent")

    p = sub.add_parser("mu", help="spherical derivative (one variable)")
    _common_flags(p)
    p.add_argument("--at", metavar="POINT", default=None)
    p.add_argument("--radius", type=float, default=0.5)

    p = sub.add_parser("marty", help="family supremum of sharp on a compact")
    _common_flags(p, family=True)
    p.add_argument("--radius", type=float, default=0.5)

    p = sub.add_parser("yosida", help="boundary-weighted trend on the disc")
    _common_flags(p)
    _ladder_flags(p)

    p = sub.add_parser("ball-ratio", help="Levi form over Bergman length, sampled")
    _common_flags(p)
    p.add_argument("--samples", type=int, default=400)
    p.add_argument("--vectors", type=int, default=32)
    p.add_argument("--radius", type=float, default=0.95)

    p = sub.add_parser("kobayashi", help="Levi over Kobayashi trend on the ball")
    _common_flags(p)
    p.add_argument("--ladder", type=str, default="0.2,0.1,0.05,0.02,0.01")
    p.add_argument("--directions", type=int, default=64)
    p.add_argument("--radii", type=int, default=16)
    p.add_argument("--vectors", type=int, default=32)

    p = sub.add_parser("disc-probe", help="weighted slice sup over random analytic discs")
    _common_flags(p)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--degree", type=int, default=2)
    p.add_argument("--ladder", type=str, default="0.2,0.1,0.05,0.02,0.01")

    p = sub.add_parser("linescan", help="line-slice trends through the origin")
    _common_flags(p, family=True)
    p.add_argument("--directions", type=int, default=ls.DEFAULT_DIRECTIONS)
    p.add_argument("--ladder", type=str, default="0.2,0.1,0.05,0.02,0.01")
    p.add_argument("--radii", type=int, default=48)
    p.add_argument("--angles", type=int, default=64)

    p = sub.add_parser("hartogs", help="directional series convergence verdict")
    _common_flags(p, series_input=True)
    p.add_argument("--directions", type=int, default=ls.DEFAULT_DIRECTIONS)
    p.add_argument("--rmin", type=float, default=ls.DEFAULT_RMIN)
    p.add_argument("--window", type=float, default=se.DEFAULT_WINDOW)

    p = sub.add_parser("orbit", help="automorphism orbit, then a Marty supremum")
    _common_flags(p)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--radius", type=float, default=0.5)
    return ap


def _parse_exprs(texts, arity: int) -> list[ex.HoloExpr]:
    if isinstance(texts, str):
        texts = [texts]
    return [ex.parse(t, arity) for t in texts]


def _grid_for(arity: int, radius: float, seed: int):
    if arity == 1:
        return sp.disc_grid(radius, 32, 64)
    return sp.ball_grid(arity, radius, 48, 10, seed)


def _run(args) -> dict:
    cmd = args.command
    config: dict = {"command": cmd, "seed": args.seed}
    results: dict

    if cmd in ("sharp", "mu"):
        f = _parse_exprs(args.expr, args.arity)[0]
        config.update(expr=args.expr, arity=args.arity, at=args.at,
                      radius=args.radius)
        if cmd == "mu" and args.arity != 1:
            raise InputError("mu requires --arity 1")
        if args.at is not None:
            z = _parse_point(args.at, args.arity)
            val = nr.mu(f, z) if cmd == "mu" else nr.sharp(f, z)
            results = {"quantity": cmd, "value": val, "sup": None,
                       "ladder": None, "classification": None}
        else:
            grid = _grid_for(args.arity, args.radius, args.seed)
            est = (nr.mu_local_boundedness([f], grid) if cmd == "mu"
                   else nr.marty_sup([f], grid))
            results = {"quantity": cmd, "value": None, **est.to_dict(),
                       "ladder": None, "classification": None}

    elif cmd == "marty":
        fam = _parse_exprs(args.expr, args.arity)
        config.update(expr=list(args.expr), arity=args.arity, radius=args.radius)
        grid = _grid_for(args.arity, args.radius, args.seed)
        est = nr.marty_sup(fam, grid)
        results = {"quantity": "sharp-sup", **est.to_dict(),
                   "ladder": None, "classification": None}

    elif cmd == "yosida":
        if args.arity != 1:
            raise InputError("yosida requires --arity 1")
        f = _parse_exprs(args.expr, 1)[0]
        lad = _parse_ladder(args.ladder)
        config.update(expr=args.expr, arity=1, ladder=list(lad),
                      radii=args.radii, angles=args.angles)
        v = nr.yosida_bound(f, lad, args.radii, args.angles)
        results = {"quantity": "(1-|z|^2)*sharp", **v.to_dict(),
                   "ladder": [[e, s] for e, s in v.estimate.growth_series]}

    elif cmd == "ball-ratio":
        f = _parse_exprs(args.expr, args.arity)[0]
        config.update(expr=args.expr, arity=args.arity, samples=args.samples,
                      vectors=args.vectors, radius=args.radius)
        Z = sp.uniform_ball_points(args.arity, args.samples, args.radius, args.seed)
        V = sp.unit_sphere_points(args.arity, args.vectors, args.seed + 1)
        est = nr.ball_normal_ratio(f, Z, V)
        results = {"quantity": "levi/bergman", **est.to_dict(),
                   "ladder": None, "classification": None}

    elif cmd == "kobayashi":
        f = _parse_exprs(args.expr, args.arity)[0]
        lad = _parse_ladder(args.ladder)
        config.update(expr=args.expr, arity=args.arity, ladder=list(lad),
                      directions=args.directions, radii=args.radii,
                      vectors=args.vectors)
        v = nr.kobayashi_normality_check(
            f, ladder=lad, directions=args.directions, radii=args.radii,
            v_count=args.vectors, seed=args.seed)
        results = {"quantity": "levi/kobayashi^2", **v.to_dict(),
                   "ladder": [[e, s] for e, s in v.estimate.growth_series]}

    elif cmd == "disc-probe":
        f = _parse_exprs(args.expr, args.arity)[0]
        lad = _parse_ladder(args.ladder)
        config.update(expr=args.expr, arity=args.arity, count=args.count,
                      degree=args.degree, ladder=list(lad))
        est = nr.disc_family_probe(f, count=args.count, degree=args.degree,
                                   seed=args.seed, ladder=lad)
        results = {"quantity": "(1-|l|^2)*slice-sharp", **est.to_dict(),
                   "ladder": [[e, s] for e, s in est.growth_series],
                   "classification": None}

    elif cmd == "linescan":
        fam = _parse_exprs(args.expr, args.arity)
        lad = _parse_ladder(args.ladder)
        config.update(expr=list(args.expr), arity=args.arity,
                      directions=args.directions, ladder=list(lad),
                      radii=args.radii, angles=args.angles)
        D = ls.direction_set(args.arity, args.directions, args.seed)
        if len(fam) == 1:
            verdict, lines = ls.alexander_function_test(
                fam[0], D, lad, args.radii, args.angles)
            ball = None
        else:
            verdict, lines, ball = ls.alexander_family_test(
                fam, D, lad, args.radii, args.angles, seed=args.seed)
        results = {"quantity": "line-slice trend", **verdict.to_dict(),
                   "lines": [r.to_dict() for r in lines]}
        if ball is not None:
            results["ball_sup"] = ball.to_dict()

    elif cmd == "hartogs":
        F = se.load_series(args.series)
        config.update(series=args.series, arity=F.arity,
                      max_degree=F.max_degree, directions=args.directions,
                      rmin=args.rmin, window=args.window)
        D = ls.direction_set(F.arity, args.directions, args.seed)
        verdict, lines, partial = ls.hartogs_test(
            F, D, args.rmin, args.window, seed=args.seed)
        results = {"quantity": "line radius", **verdict.to_dict(),
                   "min_radius": verdict.estimate.sup_value,
                   "lines": [r.to_dict() for r in lines]}
        if partial is not None:
            results["partial_sum_sup"] = partial.to_dict()

    elif cmd == "orbit":
        f = _parse_exprs(args.expr, args.arity)[0]
        config.update(expr=args.expr, arity=args.arity, count=args.count,
                      radius=args.radius)
        if args.arity == 1:
            params = nr.random_disc_params(args.count, args.seed)
            orbit = nr.translate_orbit(f, params)
        else:
            params = nr.random_ball_params(args.arity, args.count, args.seed)
            orbit = nr.ball_orbit(f, params)
        grid = _grid_for(args.arity, args.radius, args.seed)
        est = nr.marty_sup(orbit, grid)
        results = {"quantity": "orbit sharp-sup", "orbit_size": len(orbit),
                   **est.to_dict(), "ladder": None, "classification": None}

    else:  # pragma: no cover - argparse guards this
        raise InputError(f"unknown command {cmd!r}")

    return {"tool": "holonorm", "version": __version__,
            "config": config, "results": results}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on bad flags, 0 on --help; pass both through
        return int(e.code or 0)
    t0 = time.perf_counter()
    try:
        report = _run(args)
    except (ParseError, InputError, OSError) as e:
        print(f"holonorm: input error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, HolonormError) as e:
        print(f"holonorm: numeric failure: {e}", file=sys.stderr)
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
