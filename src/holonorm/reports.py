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
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return f"{x:.17g}"


#: JSON string escapes: the quote, the backslash and the controls U+0000-U+001F
_ESCAPES = {0x22: '\\"', 0x5C: "\\\\", **{c: f"\\u{c:04x}" for c in range(0x20)}}


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


def canonical_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Lists of at most 8 items, each under 24 characters on one line, print
    inline; other lists and dicts print one item per line, indented by two
    spaces a level.  The encoder is looked up by exact type; any other
    type, such as np.float64 or np.int64, takes the first entry of
    ``_ENCODERS`` that it is an instance of.
    """
    encode = _BY_TYPE.get(type(obj))
    if encode is None:
        encode = next((e for types, e in _ENCODERS if isinstance(obj, types)), None)
        if encode is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return encode(obj, indent)


def _list(obj, indent: int) -> str:
    if not obj:
        return "[]"
    items = [canonical_json(v, indent + 1) for v in obj]
    if len(items) <= 8 and all("\n" not in it and len(it) < 24 for it in items):
        return "[" + ", ".join(items) + "]"
    pad2 = "  " * (indent + 1)
    return "[\n" + ",\n".join(pad2 + it for it in items) + "\n" + "  " * indent + "]"


def _dict(obj, indent: int) -> str:
    if not obj:
        return "{}"
    pad2 = "  " * (indent + 1)
    parts = [f'{pad2}"{_escape(str(k))}": {canonical_json(v, indent + 1)}'
             for k, v in obj.items()]
    return "{\n" + ",\n".join(parts) + "\n" + "  " * indent + "}"


#: (types, encoder) in the order an isinstance test tries them: bool before
#: int, since bool is an int
_ENCODERS = (
    ((type(None),), lambda obj, indent: "null"),
    ((bool,), lambda obj, indent: "true" if obj else "false"),
    ((int, np.integer), lambda obj, indent: str(int(obj))),
    ((float, np.floating), lambda obj, indent: format_float(float(obj))),
    ((complex,), lambda obj, indent: _dict({"re": obj.real, "im": obj.imag}, indent)),
    ((str,), lambda obj, indent: f'"{_escape(obj)}"'),
    ((np.ndarray,), lambda obj, indent: canonical_json(obj.tolist(), indent)),
    ((list, tuple), _list),
    ((dict,), _dict),
)
_BY_TYPE = {t: e for types, e in _ENCODERS for t in types}


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
    """Flat key,value(,value) view of a report; ladder lists become rows."""
    rows: list = []
    _flatten("", report, rows)
    lines = ["key,value,extra"]
    for r in rows:
        cells = [str(c).replace('"', '""') for c in r]
        cells = [f'"{c}"' if ("," in c or '"' in c) else c for c in cells]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
