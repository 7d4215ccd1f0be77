"""Command-line behaviour: exit codes, canonical output, file handling."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from holonorm import cli
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


def test_parse_error_exits_2(capsys):
    code, out, err = run(capsys, "sharp", "--expr", "z1+*")
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


def test_numeric_failure_exits_3(capsys):
    code, out, err = run(capsys, "sharp", "--expr", "exp(1/z1)", "--at", "0")
    assert code == 3
    assert out == ""
    assert "numeric failure" in err


def test_missing_series_file_exits_2(capsys):
    code, _, err = run(capsys, "hartogs", "--series", "/no/such/file.json")
    assert code == 2
    assert "input error" in err


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


@pytest.mark.parametrize("command", ["sharp", "mu"])
@pytest.mark.parametrize("at", ["nan", "inf", "1e400", "0.1+nanj"])
def test_non_finite_point_exits_2(capsys, command, at):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, command, "--expr", "1/z1", "--at", at)
    assert code == 2
    assert out == ""
    assert "non-finite" in err


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
