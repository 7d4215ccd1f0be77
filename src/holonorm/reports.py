"""Canonical serialization for report objects.

Reports must replay byte for byte under a fixed configuration and seed, so
everything here is deterministic: dict keys are emitted in insertion order,
floats are printed with 17 significant digits, and non-finite floats become
the strings "inf", "-inf", "nan" (valid JSON, unlike bare Infinity).
Wall-clock timing never enters the serialized payload for the same reason.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def format_float(x: float) -> str:
    if -math.inf < x < math.inf:
        return "%.17g" % x
    if x != x:
        return '"nan"'
    return '"inf"' if x > 0 else '"-inf"'


#: JSON string escapes: the quote, the backslash and the controls U+0000-U+001F
_ESCAPES = {0x22: '\\"', 0x5C: "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    if s.isprintable() and '"' not in s and "\\" not in s:
        return s  # nothing to escape: U+0000-U+001F are not printable
    return s.translate(_ESCAPES)


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Lists of at most 8 items, each under 24 characters on one line, print
    inline; other lists and dicts print one item per line, indented by two
    spaces a level.  A complex prints as the dict {"re", "im"}.  The exact
    types of reports are tested first; any other type, such as np.float64
    or np.int64, is encoded by the first isinstance test below it passes.
    """
    t = type(obj)
    if t is float:
        return format_float(obj)
    if t is dict:
        if not obj:
            return "{}"
        pad2 = "  " * (indent + 1)
        parts = [f'{pad2}"{_escape(str(k))}": {canonical_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 1) for v in obj]
        if len(items) <= 8 and max(map(len, items)) < 24 and "\n" not in "".join(items):
            return "[" + ", ".join(items) + "]"
        pad2 = "  " * (indent + 1)
        return "[\n" + pad2 + f",\n{pad2}".join(items) + "\n" + "  " * indent + "]"
    if t is int:
        return str(obj)
    if t is str:
        return f'"{_escape(obj)}"'
    if t is complex or t is np.complex128:
        pad2 = "  " * (indent + 1)
        return (f'{{\n{pad2}"re": {format_float(obj.real)},\n'
                f'{pad2}"im": {format_float(obj.imag)}\n{"  " * indent}}}')
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, complex):
        return canonical_json({"re": obj.real, "im": obj.imag}, indent)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        return canonical_json(list(obj), indent)
    if isinstance(obj, dict):
        return canonical_json(dict(obj.items()), indent)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(prefix: str, obj: Any, rows: list):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, rows)
    elif isinstance(obj, (list, tuple)):
        # ladder-style pair lists print one row per rung
        if obj and all(isinstance(it, (list, tuple)) and len(it) == 2
                       and all(isinstance(x, (int, float, np.floating)) for x in it)
                       for it in obj):
            for a, b in obj:
                rows.append([prefix, _cell(a), _cell(b)])
        else:
            for i, v in enumerate(obj):
                _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append([prefix, _cell(obj), ""])


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        s = format_float(float(v))
        return s.strip('"')
    return str(v)


def report_csv(report: dict) -> str:
    """Flat key,value(,value) view of a report; ladder lists become rows.
    A cell holding a comma, a quote or a line break is quoted (RFC 4180)."""
    rows: list = []
    _flatten("", report, rows)
    lines = ["key,value,extra"]
    for r in rows:
        cells = [str(c).replace('"', '""') for c in r]
        cells = [f'"{c}"' if ("," in c or '"' in c or "\n" in c or "\r" in c) else c
                 for c in cells]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
