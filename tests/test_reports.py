"""Canonical serialization: the JSON string escape."""

from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from holonorm import reports

GOLDEN = Path(__file__).resolve().parent / "golden"


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
