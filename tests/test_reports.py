"""Canonical serialization: the JSON string escape and the encoder."""

import csv
import importlib.util
import io
import json
import math
import re
import sys
from pathlib import Path
from typing import Any

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holonorm import reports

GOLDEN = Path(__file__).resolve().parent / "golden"
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def escape_loop(s: str) -> str:
    """The character loop ``reports._escape`` replaced, kept as its oracle."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


@given(st.one_of(st.text(), st.text(st.sampled_from('"\\\x00\x1f\x20\x7faé '))))
def test_escape_matches_the_loop(s):
    assert reports._escape(s) == escape_loop(s)


def test_escape_matches_the_loop_on_every_golden():
    paths = sorted(GOLDEN.glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert reports._escape(text) == escape_loop(text)


def format_float_isnan(x: float) -> str:
    """The float format ``reports.format_float`` replaced, kept as its oracle."""
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


def canonical_json_isinstance(obj: Any, indent: int = 0) -> str:
    """The recursive isinstance chain ``reports.canonical_json`` replaced,
    kept as its oracle."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float_isnan(float(obj))
    if isinstance(obj, complex):
        return canonical_json_isinstance({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return f'"{escape_loop(obj)}"'
    if isinstance(obj, np.ndarray):
        return canonical_json_isinstance(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [canonical_json_isinstance(v, indent + 1) for v in obj]
        if all("\n" not in it and len(it) < 24 for it in items) and len(items) <= 8:
            return "[" + ", ".join(items) + "]"
        body = ",\n".join(pad2 + it for it in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            parts.append(f'{pad2}"{escape_loop(str(k))}": {canonical_json_isinstance(v, indent + 1)}')
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def test_canonical_json_matches_the_isinstance_chain_on_every_golden():
    paths = sorted(GOLDEN.glob("*.json"))
    assert paths
    for path in paths:
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert reports.canonical_json(obj) == canonical_json_isinstance(obj), path.name


# text of 19-23 characters prints as 21-25 or more, around the 24-character
# limit of an inline list item
_text = st.one_of(st.text(st.sampled_from('"\\\x00\x1f az\u00e9'), max_size=6),
                  st.text(min_size=19, max_size=23))
# np.complex128 is what list(z) of a complex array yields, as in the discs
# payloads
_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.floats(), st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.complex_numbers(), st.complex_numbers().map(np.complex128), _text)
# neither a complex nor a bool to the isinstance chain, so both are rejected
_rejected = st.one_of(st.complex_numbers(width=64).map(np.complex64), st.booleans().map(np.bool_))
# 1, True and 1.0 are one dict key and print as "1", "True" and "1.0", so
# one report holds dicts keyed by each of them
_keys = st.one_of(_text, st.integers(-3, 3), st.booleans(), st.floats())


def _containers(children):
    items = st.lists(children, max_size=10)
    return st.one_of(items, items.map(tuple), st.dictionaries(_keys, children, max_size=5),
                     st.lists(st.floats(), max_size=10).map(np.array))


_reports = st.recursive(_scalars, _containers, max_leaves=40)


@given(_reports, st.integers(0, 3))
def test_canonical_json_matches_the_isinstance_chain(obj, indent):
    assert reports.canonical_json(obj, indent) == canonical_json_isinstance(obj, indent)


def _outcome(encode, obj):
    try:
        return encode(obj)
    except TypeError as e:
        return TypeError, str(e)


@given(st.recursive(st.one_of(_scalars, _rejected), _containers, max_leaves=20))
def test_canonical_json_accepts_and_rejects_as_the_isinstance_chain(obj):
    assert _outcome(reports.canonical_json, obj) == _outcome(canonical_json_isinstance, obj)


def test_equal_keys_of_other_types_keep_their_own_text():
    obj = [{1: 0}, {True: 0}, {1.0: 0}, {"1": 0}, {1: {True: {1.0: 0}}}]
    text = reports.canonical_json(obj)
    assert text == canonical_json_isinstance(obj)
    assert [k for d in json.loads(text)[:4] for k in d] == ["1", "True", "1.0", "1"]


@given(st.integers(7, 10).flatmap(lambda n: st.lists(
    st.one_of(st.floats(), st.integers(-10**22, 10**22), st.text(min_size=19, max_size=23)),
    min_size=n, max_size=n)))
def test_canonical_json_breaks_lists_as_the_isinstance_chain(items):
    assert reports.canonical_json(items) == canonical_json_isinstance(items)


@pytest.mark.parametrize("obj", [object(), {1, 2}, b"x", [1, {"a": object()}],
                                 np.complex64(1 + 2j), np.bool_(True), {"a": [np.bool_(False)]}])
def test_canonical_json_rejects_what_the_chain_rejects(obj):
    with pytest.raises(TypeError) as want:
        canonical_json_isinstance(obj)
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        reports.canonical_json(obj)


def _load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [7, 23])
@pytest.mark.parametrize("build", ["build_slices", "build_discs"])
def test_bench_payloads_match_the_isinstance_chain(build, seed, monkeypatch):
    # every op of the benchmark's slices and discs cycles, run in process
    wl = _load_workloads(monkeypatch)
    seen = []
    payload = wl._payload
    monkeypatch.setattr(wl, "_payload", lambda report: seen.append(report) or payload(report))
    ops = getattr(wl, build)(seed).ops
    assert ops
    for op in ops:
        seen.clear()
        _, got = op.call()
        assert len(seen) == 1, op.name
        assert got == canonical_json_isinstance(seen[0]).encode(), op.name


def _csv_rows_match_the_flattened_report(report):
    rows = list(csv.reader(io.StringIO(reports.report_csv(report), newline="")))
    flat = []
    reports._flatten("", report, flat)
    assert rows[0] == ["key", "value", "extra"]
    assert all(len(row) == 3 for row in rows[1:])
    assert rows[1:] == flat


def test_report_csv_parses_back_on_every_golden():
    paths = sorted(GOLDEN.glob("*.json"))
    assert paths
    for path in paths:
        _csv_rows_match_the_flattened_report(json.loads(path.read_text(encoding="utf-8")))


@given(st.dictionaries(_keys, _reports, max_size=5))
def test_report_csv_parses_back(report):
    _csv_rows_match_the_flattened_report(report)
