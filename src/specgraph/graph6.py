"""graph6 codec and DOT emission.

The packed bit layout of Graph is already the graph6 bit order, so encoding
is a straight 6-bit regrouping of ``Graph.bits``.  The order is one byte up
to 62, and from 63 on the long form: ``~`` and the order in 18 bits, three
6-bit groups (orders above 258047 need a 36-bit form, which is not read or
written here).
"""

from __future__ import annotations

from .errors import Graph6Error, ParameterError
from .graphs import Graph, pair_count

_HEADER = ">>graph6<<"
GRAPH6_MAX_ORDER = 258047  # the largest 18-bit order whose first byte is not "~"


def _groups(value: int, count: int) -> list[str]:
    """value as count 6-bit groups, most significant first, each plus 63."""
    return [chr(((value >> (6 * k)) & 0x3F) + 63) for k in range(count - 1, -1, -1)]


def graph6_encode(g: Graph) -> str:
    if g.order > GRAPH6_MAX_ORDER:
        raise ParameterError(f"graph6 encodes order <= {GRAPH6_MAX_ORDER} here")
    m = pair_count(g.order)
    width = -(-m // 6) * 6  # the bits padded to whole groups
    # cut from one binary string (a shift per group is quadratic)
    digits = bin(1 << width | g.bits << (width - m))[3:]
    head = [chr(g.order + 63)] if g.order < 63 else ["~"] + _groups(g.order, 3)
    return "".join(head + [chr(int(digits[k:k + 6], 2) + 63) for k in range(0, width, 6)])


def graph6_decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):].strip()
    if not s:
        raise Graph6Error("empty graph6 string")
    try:
        raw = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise Graph6Error("graph6 must be printable ASCII") from exc
    for byte in raw:
        if not 63 <= byte <= 126:
            raise Graph6Error(f"byte {byte} outside printable graph6 range 63..126")
    if raw[0] == 126:
        if len(raw) < 4:
            raise Graph6Error("long-form graph6 needs 3 order bytes")
        if raw[1] == 126:
            raise Graph6Error(f"graph6 of order > {GRAPH6_MAX_ORDER} not supported")
        n, raw = _value(raw[1:4]), raw[3:]
        if n < 63:
            raise Graph6Error(f"long-form graph6 holds order >= 63, got {n}")
    else:
        n = raw[0] - 63
    if n < 1:
        raise Graph6Error("graph6 order must be >= 1")
    m = pair_count(n)
    groups = -(-m // 6)
    if len(raw) - 1 != groups:
        raise Graph6Error(
            f"bad length: order {n} needs {groups} data bytes, got {len(raw) - 1}")
    padded = _value(raw[1:])
    pad_bits = 6 * groups - m
    if padded & ((1 << pad_bits) - 1):
        raise Graph6Error("nonzero padding bits")
    return Graph(n, padded >> pad_bits)


_SIX_BITS = {byte: format(byte - 63, "06b") for byte in range(63, 127)}


def _value(raw: bytes) -> int:
    """The bytes, each in 63..126, as 6-bit groups, most significant first."""
    # one binary string parsed once (a shift per group is quadratic)
    return int("".join([_SIX_BITS[byte] for byte in raw]) or "0", 2)


def to_dot(g: Graph) -> str:
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.order)]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"
