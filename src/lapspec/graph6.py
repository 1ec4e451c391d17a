"""graph6 encoding and decoding (header-free, printable bytes 63..126).

The format packs the upper triangle of the adjacency matrix in column order
(x01, x02, x12, x03, ...) into 6-bit groups, each offset by 63.  Vertex
counts up to 62 use a single leading byte n+63; counts up to 258047 use a
'~' prefix and three 6-bit digits.  Encodings here are canonical: zero
padding, shortest size form.

Decoding is strict: every byte must be in range, the size header complete,
the body exactly as long as n requires and its padding bits zero, and each
fault raises ``Graph6Error`` with the offending byte offset.  The body is
then read once, as 6-bit groups into one integer, and the edges are taken
from the set bits of each column.  Such edges are valid by construction, so
the graph is built by the unchecked ``Graph._trusted``, not re-validated by
``Graph(n, edges)``; its bitmask rows are left to be built on first use.
"""

from __future__ import annotations

from .graphs import Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def graph6_pack(n: int, columns: list[int]) -> bytes:
    """graph6 bytes from the columns of the upper triangle: columns[j] holds
    x0j .. x(j-1)j as a j-bit int, x0j most significant (columns[0] is 0)."""
    if n <= 62:
        head = bytes([n + 63])
    elif n <= 258047:
        head = bytes([126, 63 + ((n >> 12) & 63), 63 + ((n >> 6) & 63), 63 + (n & 63)])
    else:
        raise ValueError(f"graph6 size form for n={n} not supported")
    bits = 0
    for j in range(1, n):
        bits = (bits << j) | columns[j]
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    bits <<= pad
    return head + bytes(63 + (bits >> shift & 63)
                        for shift in range(nbits + pad - 6, -1, -6))


def graph6_encode(g: Graph) -> bytes:
    columns = [0] * g.n
    for i, j in g.edges:
        columns[j] |= 1 << (j - 1 - i)
    return graph6_pack(g.n, columns)


def graph6_decode(data: bytes | str) -> Graph:
    if isinstance(data, str):
        try:
            raw = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error("non-ASCII character", exc.start) from None
    else:
        raw = bytes(data)
    if not raw:
        raise Graph6Error("empty input", 0)
    if min(raw) < 63 or max(raw) > 126:
        for pos, byte in enumerate(raw):
            if not 63 <= byte <= 126:
                raise Graph6Error(f"byte 0x{byte:02x} outside graph6 range 63..126", pos)

    if raw[0] != 126:
        n = raw[0] - 63
        body_start = 1
    else:
        if len(raw) >= 2 and raw[1] == 126:
            raise Graph6Error("size form for n >= 258048 not supported", 1)
        if len(raw) < 4:
            raise Graph6Error("truncated size header", len(raw))
        n = ((raw[1] - 63) << 12) | ((raw[2] - 63) << 6) | (raw[3] - 63)
        body_start = 4

    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(raw) - body_start < nbytes:
        raise Graph6Error(
            f"truncated body: need {nbytes} bytes for n={n}", len(raw)
        )
    if len(raw) - body_start > nbytes:
        raise Graph6Error("trailing data after graph body", body_start + nbytes)

    bits = 0
    for byte in raw[body_start:]:
        bits = bits << 6 | (byte - 63)
    # padding bits must be zero for a canonical encoding
    pad = -nbits % 6
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", body_start + nbytes - 1)
    bits >>= pad
    # Columns from the last: column j holds x0j .. x(j-1)j, x0j most
    # significant, so bit b of it is the edge (j - 1 - b, j).
    edges = []
    for j in range(n - 1, 0, -1):
        col = bits & ((1 << j) - 1)
        bits >>= j
        while col:
            b = col.bit_length() - 1
            edges.append((j - 1 - b, j))
            col ^= 1 << b
    edges.sort()
    return Graph._trusted(n, tuple(edges))
