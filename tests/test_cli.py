"""Command-line behaviour: exit codes, canonical output, file handling."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import holonorm
from holonorm import cli
from holonorm import expr as ex
from holonorm import normality as nr
from holonorm import series as se


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def series_file(tmp_path, F: se.PowerSeries, name: str = "series.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(se.series_to_dict(F)))
    return str(path)


def geometric(degree: int = 20) -> se.PowerSeries:
    return se.PowerSeries(2, degree, {(k, 0): 1.0 for k in range(degree + 1)})


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("holonorm ")


def test_sharp_at_point(capsys):
    code, out, err = run(capsys, "sharp", "--expr", "z1", "--at", "0.3,0",
                         "--arity", "2")
    assert code == 0
    report = json.loads(out)
    assert report["tool"] == "holonorm"
    assert set(report) == {"tool", "version", "config", "results"}
    assert report["results"]["value"] == pytest.approx(1 / 1.09, rel=1e-12)
    assert "wall-clock" in err


def test_mu_continues_through_pole(capsys):
    code, out, _ = run(capsys, "mu", "--expr", "1/z1", "--at", "0")
    assert code == 0
    assert json.loads(out)["results"]["value"] == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("text", [
    "z1+*", "\u00e9",
    # longer than Python's 4,300-digit limit of int()
    pytest.param("z" + "1" * 5000, id="z-5000-digit-index"),
    pytest.param("z1^" + "1" * 5000, id="z1^-5000-digit-exponent"),
])
def test_parse_error_exits_2(capsys, text):
    code, out, err = run(capsys, "sharp", "--expr", text)
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_mu_arity_guard_exits_2(capsys):
    code, _, err = run(capsys, "mu", "--expr", "z1*z2", "--arity", "2")
    assert code == 2
    assert "input error" in err


def test_bad_ladder_exits_2(capsys):
    code, _, err = run(capsys, "yosida", "--expr", "z1",
                       "--ladder", "0.2,0.5")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("command", ["yosida", "kobayashi", "disc-probe", "linescan"])
def test_ladder_rung_without_new_radii_exits_2(capsys, command):
    # 1 - 1e-17 rounds to 1: the second rung would sample |z| = 1 and add
    # nothing inside the disc
    code, out, err = run(capsys, command, "--expr", "1/(1-z1)", "--ladder", "0.1,1e-17")
    assert code == 2
    assert out == ""
    assert "input error: ladder radii 1 - e must increase" in err


def test_overflowing_constant_is_a_constant(capsys):
    # 1/(1e300*1e300) is the constant 0, so f is z1: the zero gradient of
    # the constant is exact and adds no NaN
    code, out, err = run(capsys, "yosida", "--expr", "z1+1/(1e300*1e300)")
    assert code == 0
    assert json.loads(out)["results"]["estimate"]["sup"] == 1
    assert "RuntimeWarning" not in err
    code, out, _ = run(capsys, "sharp", "--expr", "z1+1/(1e300*1e300)", "--at", "0.5")
    assert code == 0
    assert json.loads(out)["results"]["value"] == 0.8
    # an infinite constant has sharp 0, as 1e300*1e300 does in yosida
    code, out, _ = run(capsys, "sharp", "--expr", "exp(1e300)", "--arity", "2")
    assert code == 0
    assert json.loads(out)["results"]["sup"] == 0
    code, out, _ = run(capsys, "yosida", "--expr", "1e300*1e300")
    assert code == 0
    assert json.loads(out)["results"]["estimate"]["sup"] == 0
    # a NaN constant still fails to evaluate
    code, out, err = run(capsys, "yosida", "--expr", "0*(1e300*1e300)")
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


def test_numeric_failure_exits_3(capsys):
    code, out, err = run(capsys, "sharp", "--expr", "exp(1/z1)", "--at", "0")
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


def test_missing_series_file_exits_2(capsys):
    code, _, err = run(capsys, "hartogs", "--series", "/no/such/file.json")
    assert code == 2
    assert "input error" in err


def test_hartogs_rejects_arity_flag(capsys, tmp_path):
    # a series file carries its own arity; the flag used to be accepted and ignored
    path = series_file(tmp_path, geometric())
    code, out, err = run(capsys, "hartogs", "--series", path, "--arity", "5")
    assert code == 2
    assert out == ""
    assert "--arity" in err


def test_non_finite_series_coefficient_exits_2(capsys, tmp_path):
    terms = [{"alpha": [k, 0], "re": 1.0} for k in range(20)]
    terms[3]["re"], terms[7]["im"] = math.inf, math.nan
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"arity": 2, "max_degree": 20, "terms": terms}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "hartogs", "--series", str(path))
    assert code == 2
    assert out == ""
    assert "not finite" in err and "Warning" not in err
    assert caught == []


@pytest.mark.parametrize("body", [
    '{"arity": %d, "max_degree": 3, "terms": []}' % 10 ** 20,
    '{"arity": 1, "max_degree": %d, "terms": []}' % 10 ** 20,
    '{"arity": 1, "max_degree": 9223372036854775807, "terms": []}',
    '{"arity": 2, "max_degree": %d, "terms": [{"alpha": [%d, 0], "re": 1.0}]}'
    % (10 ** 19, 10 ** 19),
    '{"arity": 1, "max_degree": 3, "terms": [{"alpha": [1], "re": %d}]}' % 10 ** 400,
    '{"arity": 1, "max_degree": 3, "terms": [{"alpha": [1], "re": 1%s}]}' % ("0" * 5000),
], ids=["arity", "max_degree", "max_degree-intp-max", "exponent-and-max_degree",
        "re-401-digits", "re-5001-digits"])
def test_oversized_series_fields_exit_2(capsys, tmp_path, body):
    path = tmp_path / "series.json"
    path.write_text(body)
    code, out, err = run(capsys, "hartogs", "--series", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("holonorm: input error:") and err.count("\n") == 1


def test_malformed_exponent_error_names_its_term(capsys, tmp_path):
    terms = [{"alpha": [k, 0], "re": 1.0} for k in range(5)]
    terms[3]["alpha"] = [1.5, 0]
    path = tmp_path / "series.json"
    path.write_text(json.dumps({"arity": 2, "max_degree": 5, "terms": terms}))
    code, out, err = run(capsys, "hartogs", "--series", str(path))
    assert code == 2
    assert out == ""
    assert "multi-index (1.5, 0): exponent must be an integer" in err


def test_kobayashi_without_boundary_radii_exits_2(capsys):
    # one radius per rung is the least ladder whose rungs differ
    code, out, err = run(capsys, "kobayashi", "--expr", "sin(1/(1-z1))", "--arity", "2",
                         "--radii", "0")
    assert code == 2
    assert out == ""
    assert "radius" in err


def test_non_utf8_series_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"arity": 1, "name": "\xe9"}')
    code, out, err = run(capsys, "hartogs", "--series", str(path))
    assert code == 2
    assert out == ""
    assert "not UTF-8" in err


@pytest.mark.parametrize("argv", [
    ["yosida", "--expr", "z1", "--radii", "1"],
    ["ball-ratio", "--expr", "z1*z2", "--arity", "2", "--samples", "0"],
    ["orbit", "--expr", "z1", "--count", "-1"],
    ["sharp", "--expr", "z1", "--arity", "0"],
], ids=["radii", "samples", "count", "arity"])
def test_out_of_range_counts_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_deeply_nested_parentheses_exit_2(capsys):
    text = "(" * 400 + "0.5*z1" + ")" * 400
    code, out, err = run(capsys, "sharp", "--expr", text, "--at", "0.1")
    assert code == 2
    assert out == ""
    assert "nested deeper" in err


def test_twelve_hundred_summands_exit_0(capsys):
    text = " + ".join(f"{(k % 9 + 1) / 10}*z1" for k in range(1200))
    code, out, _ = run(capsys, "sharp", "--expr", text, "--at", "0.1")
    assert code == 0
    # sharp(c z) = |c| / (1 + |c z|^2) with c the sum of the coefficients
    c = sum((k % 9 + 1) / 10 for k in range(1200))
    value = json.loads(out)["results"]["value"]
    assert value == pytest.approx(c / (1 + (0.1 * c) ** 2), rel=1e-9)


def test_hartogs_on_a_1035_term_series_exit_0(capsys, tmp_path):
    # dense arity 2, degree 44: (45 * 46) / 2 = 1,035 terms of exp(z1/2 + z2/3)
    terms = {(j, d - j): 0.5 ** j / math.factorial(j) * (1 / 3) ** (d - j)
             / math.factorial(d - j) for d in range(45) for j in range(d + 1)}
    F = se.PowerSeries(2, 44, terms)
    assert len(F) == 1035
    path = series_file(tmp_path, F)
    code, out, _ = run(capsys, "hartogs", "--series", path, "--directions", "8")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["classification"] == "CONVERGENT"
    assert results["partial_sum_sup"]["samples"] > 0


def test_hartogs_on_a_series_with_no_terms_at_degree_2_40_exit_0(capsys, tmp_path):
    # no array runs up to max_degree, so a degree of 2^40 with no terms is cheap
    path = tmp_path / "empty.json"
    path.write_text('{"arity": 2, "max_degree": 1099511627776, "terms": []}')
    code, out, _ = run(capsys, "hartogs", "--series", str(path))
    assert code == 0
    results = json.loads(out)["results"]
    assert results["classification"] == "CONVERGENT"
    assert results["min_radius"] == "inf"
    assert "partial_sum_sup" not in results


# each subcommand with the certifier it calls, looked up through cli's modules
CERTIFIERS = [
    ("sharp", "nr", "sharp", ["--at", "0.1"]),
    ("mu", "nr", "mu_local_boundedness", []),
    ("marty", "nr", "marty_sup", []),
    ("yosida", "nr", "yosida_bound", []),
    ("ball-ratio", "nr", "ball_normal_ratio", []),
    ("kobayashi", "nr", "kobayashi_normality_check", []),
    ("disc-probe", "nr", "disc_family_probe", []),
    ("linescan", "ls", "alexander_function_test", []),
    ("hartogs", "ls", "hartogs_test", []),
    ("orbit", "nr", "translate_orbit", []),
]


@pytest.mark.parametrize("command,module,name,extra", CERTIFIERS,
                         ids=[c[0] for c in CERTIFIERS])
def test_internal_value_error_is_not_an_input_error(monkeypatch, tmp_path, command,
                                                    module, name, extra):
    def broken(*args, **kwargs):
        raise ValueError("internal bug")

    monkeypatch.setattr(getattr(cli, module), name, broken)
    source = (["--series", series_file(tmp_path, geometric())] if command == "hartogs"
              else ["--expr", "z1"])
    with pytest.raises(ValueError, match="internal bug"):
        cli.main([command, *source, *extra])


def test_out_of_memory_exits_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 5.96 GiB")

    monkeypatch.setattr(cli.nr, "yosida_bound", exhausted)
    code, out, err = run(capsys, "yosida", "--expr", "z1")
    assert code == 3
    assert out == ""
    assert err == "holonorm: numeric failure: out of memory: Unable to allocate 5.96 GiB\n"


def test_out_of_memory_without_text_exits_3(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "_run", exhausted)
    code, out, err = run(capsys, "yosida", "--expr", "z1")
    assert code == 3
    assert out == ""
    assert err == "holonorm: numeric failure: out of memory\n"


@pytest.mark.parametrize("command", ["sharp", "mu"])
@pytest.mark.parametrize("at", ["nan", "inf", "1e400", "0.1+nanj"])
def test_non_finite_point_exits_2(capsys, command, at):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--expr", "1/z1", "--at", at)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ["sharp", "--expr", "z1", "--radius", "inf"],
    ["sharp", "--expr", "z1", "--radius", "nan"],
    ["mu", "--expr", "z1", "--radius", "inf"],
    ["marty", "--expr", "z1", "--radius", "1e400"],
    ["ball-ratio", "--expr", "z1", "--radius", "nan"],
    ["orbit", "--expr", "z1", "--radius", "inf"],
    ["hartogs", "--series", "SERIES", "--rmin", "nan"],
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_non_finite_float_flag_exits_2(capsys, tmp_path, argv):
    argv = [series_file(tmp_path, geometric()) if a == "SERIES" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"holonorm: input error: {argv[-2]} {float(argv[-1])!r} is not finite\n"


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_negative_seed_exits_2(capsys, tmp_path, command):
    # numpy's generators reject a negative seed with a ValueError traceback
    source = (["--series", series_file(tmp_path, geometric())] if command == "hartogs"
              else ["--expr", "z1", "--arity", "1" if command in ("mu", "yosida") else "2"])
    code, out, err = run(capsys, command, *source, "--seed", "-1")
    assert code == 2
    assert out == ""
    assert err == "holonorm: input error: --seed -1 is negative\n"


FAST_COMMANDS = [
    ("sharp", ["sharp", "--expr", "z1*z2", "--arity", "2", "--radius", "0.4"]),
    ("marty", ["marty", "--expr", "z1", "--expr", "2*z1", "--radius", "0.5"]),
    ("yosida", ["yosida", "--expr", "sin(1/(1-z1))", "--ladder", "0.2,0.1,0.05",
                "--radii", "16", "--angles", "24"]),
    ("ball-ratio", ["ball-ratio", "--expr", "exp(z1+z2)", "--arity", "2",
                    "--samples", "50", "--vectors", "8"]),
    ("kobayashi", ["kobayashi", "--expr", "z1*z2", "--arity", "2",
                   "--ladder", "0.2,0.1", "--directions", "8", "--radii", "6",
                   "--vectors", "4"]),
    ("disc-probe", ["disc-probe", "--expr", "z1+z2", "--arity", "2",
                    "--count", "10", "--ladder", "0.2,0.1"]),
    ("linescan", ["linescan", "--expr", "z1^2", "--arity", "2",
                  "--directions", "4", "--radii", "8", "--angles", "8"]),
    ("linescan-family", ["linescan", "--expr", "z1", "--expr", "z1^2",
                         "--arity", "2", "--directions", "4",
                         "--radii", "8", "--angles", "8"]),
    ("orbit", ["orbit", "--expr", "z1", "--count", "5", "--radius", "0.4"]),
]


@pytest.mark.parametrize("name,argv", FAST_COMMANDS, ids=[n for n, _ in FAST_COMMANDS])
def test_json_reports_replay_byte_for_byte(capsys, name, argv):
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    report = json.loads(out1)
    assert report["config"]["command"] == argv[0]
    assert "results" in report


def test_hartogs_command_replay_and_verdict(capsys, tmp_path):
    path = series_file(tmp_path, geometric())
    argv = ["hartogs", "--series", path, "--directions", "8"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["classification"] == "CONVERGENT"
    assert report["results"]["min_radius"] == pytest.approx(1.0, abs=1e-9)
    assert len(report["results"]["lines"]) == 10


def test_timing_never_enters_payload(capsys):
    code, out, err = run(capsys, "mu", "--expr", "z1", "--at", "0.2")
    assert code == 0
    assert "wall" not in out
    assert "wall-clock" in err


def test_csv_format(capsys):
    code, out, _ = run(capsys, "yosida", "--expr", "z1",
                       "--ladder", "0.2,0.1", "--radii", "8", "--angles", "8",
                       "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value,extra"
    keys = {ln.split(",")[0] for ln in lines[1:]}
    assert "results.classification" in keys
    assert "config.command" in keys


def test_csv_quotes_a_cell_with_a_line_break(capsys):
    code, out, _ = run(capsys, "sharp", "--expr", "z1\n+ z2", "--arity", "2",
                       "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out, newline="")))
    assert all(len(row) == 3 for row in rows)
    assert ["config.expr", "z1\n+ z2", ""] in rows


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, err = run(capsys, "sharp", "--expr", "z1", "--at", "0.1",
                         "--out", str(target))
    assert code == 0
    assert out == ""
    assert "wall-clock" in err
    report = json.loads(target.read_text())
    assert report["results"]["value"] == pytest.approx(1 / 1.01, rel=1e-12)


def test_console_entry_point_matches_module():
    cmd = ["holonorm", "mu", "--expr", "z1", "--at", "0.5"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    assert proc.returncode == 0
    inproc = subprocess.run(
        [sys.executable, "-m", "holonorm.cli", "mu", "--expr", "z1",
         "--at", "0.5"],
        capture_output=True, text=True)
    assert proc.stdout == inproc.stdout
    assert json.loads(proc.stdout)["results"]["value"] == pytest.approx(
        1.6, rel=1e-12)


def test_runtime_warnings_are_counted_on_one_line(capsys):
    # exp(10/(1-z1)) overflows near z1 = 1, where numpy warns six times:
    # one stderr line counts them, and no raw warning or source line shows
    argv = ["yosida", "--expr", "exp(10/(1-z1))"]
    root = str(Path(holonorm.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=root + (os.pathsep + path if path else ""))
    proc = subprocess.run([sys.executable, "-m", "holonorm.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    count, clock = proc.stderr.splitlines()
    assert count == ("holonorm yosida: 6 numpy RuntimeWarning(s) "
                     "(overflow or invalid values) recorded")
    assert clock.startswith("holonorm yosida: wall-clock ")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out == proc.stdout
    # library calls keep numpy's warnings
    with pytest.warns(RuntimeWarning):
        nr.yosida_bound(ex.parse("exp(10/(1-z1))", 1))


def test_disc_probe_with_many_failed_samples_exits_3(capsys):
    # |exp(3000 z1)|^2 overflows on about 30% of the probe's samples, which
    # used to drop whole discs from the rungs and exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code, out, err = run(capsys, "disc-probe", "--expr", "exp(3000*z1)", "--arity", "2",
                             "--count", "20", "--seed", "0")
    assert code == 3
    assert out == ""
    assert "numeric failure: disc probe" in err
