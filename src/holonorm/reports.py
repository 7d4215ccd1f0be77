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
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
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
        if not obj:
            return "[]"
        items = [canonical_json(v, indent + 1) for v in obj]
        if all("\n" not in it and len(it) < 24 for it in items) and len(items) <= 8:
            return "[" + ", ".join(items) + "]"
        body = ",\n".join(pad2 + it for it in items)
        return "[\n" + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k, v in obj.items():
            parts.append(f'{pad2}"{_escape(str(k))}": {canonical_json(v, indent + 1)}')
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
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
    """Flat key,value(,value) view of a report; ladder lists become rows."""
    rows: list = []
    _flatten("", report, rows)
    lines = ["key,value,extra"]
    for r in rows:
        cells = [str(c).replace('"', '""') for c in r]
        cells = [f'"{c}"' if ("," in c or '"' in c) else c for c in cells]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
