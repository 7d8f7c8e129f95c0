"""Simple undirected graphs: representation, codecs, and structural queries.

Vertices are dense ids 0..n-1.  Edges are kept as a sorted tuple of (i, j)
pairs with i < j, which is the canonical representation of an edge set:
construction rejects loops, out-of-range endpoints and duplicates, so two
graphs are equal iff they have the same vertex count and edge set.

Two text formats are supported:

* graph6 (McKay): one line per graph, byte = 63 + six data bits, size header
  N(n), then the upper triangle of the adjacency matrix column by column,
  x(0,1), x(0,2), x(1,2), x(0,3), ...  The short header covers n <= 62, the
  four-byte header ('~' + 3 bytes) covers 63 <= n <= 258047.
* edge list: first line "n m", then m lines "i j", each number an optionally
  signed run of ASCII digits; lines end at "\n", numbers are separated by
  spaces and tabs.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass

GRAPH6_MAX_N = 258047  # largest order encodable with the 4-byte size header
_ASCII_INT = re.compile(r"[+-]?[0-9]+")
_BLANKS = re.compile(r"[ \t]+")


class GraphError(ValueError):
    """Invalid graph construction or violated operation precondition."""


class Graph6Error(GraphError):
    """Malformed graph6 text.  ``offset`` is the 0-based failing byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdgeListError(GraphError):
    """Malformed edge-list text.  ``line_no`` is the 1-based failing line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"{message} (line {line_no})")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph; safe to share between worker processes."""

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.n < 0:
            raise GraphError(f"vertex count must be non-negative, got {self.n}")
        prev = None
        for e in self.edges:
            i, j = e
            if i == j:
                raise GraphError(f"loop at vertex {i}")
            if not (0 <= i < j < self.n):
                raise GraphError(f"edge {e} outside canonical range for n={self.n}")
            if prev is not None and e <= prev:
                raise GraphError(f"edges not sorted/unique at {e}")
            prev = e

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from any iterable of (u, v) pairs; order-insensitive."""
        norm = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            norm.add((u, v) if u < v else (v, u))
        return cls(n, tuple(sorted(norm)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Adjacency lists indexed by vertex id, each sorted ascending."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(a) for a in adj)


@dataclass(frozen=True)
class DegreeData:
    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int


@dataclass(frozen=True)
class Bipartition:
    """Two-coloring of the vertices; every edge joins side 0 (U) to side 1 (W)."""

    side_of: tuple[int, ...]

    @property
    def u(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.side_of) if s == 0)

    @property
    def w(self) -> tuple[int, ...]:
        return tuple(v for v, s in enumerate(self.side_of) if s == 1)


def degrees(g: Graph) -> list[int]:
    """Per-vertex degrees, indexed by vertex id."""
    deg = [0] * g.n
    for i, j in g.edges:
        deg[i] += 1
        deg[j] += 1
    return deg


def degree_pair_counts(g: Graph, deg=None) -> dict[tuple[int, int], int]:
    """Edge count per endpoint degree pair (a, b), a >= b.

    Keys come in the order of each pair's first edge in ``g.edges``; ``deg``
    is ``degrees(g)`` when the caller already has it.
    """
    if deg is None:
        deg = degrees(g)
    pc: dict[tuple[int, int], int] = {}
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        key = (a, b) if a >= b else (b, a)
        pc[key] = pc.get(key, 0) + 1
    return pc


def degree_data(g: Graph) -> DegreeData:
    """Per-vertex degrees plus the maximum and minimum degree."""
    if g.n == 0:
        raise GraphError("degree data undefined for the empty vertex set")
    deg = degrees(g)
    return DegreeData(tuple(deg), max(deg), min(deg))


def is_connected(g: Graph) -> bool:
    """True iff a traversal from vertex 0 reaches every vertex."""
    if g.n == 0:
        raise GraphError("connectivity undefined for the empty vertex set")
    if g.n == 1:
        return True
    adj = g.neighbors()
    seen = bytearray(g.n)
    seen[0] = 1
    queue = deque([0])
    count = 1
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = 1
                count += 1
                queue.append(w)
    return count == g.n


def bipartition(g: Graph) -> Bipartition | None:
    """Deterministic two-coloring, or None if an odd cycle exists.

    The smallest-id vertex of each connected component goes to side U.
    """
    adj = g.neighbors()
    side = [-1] * g.n
    for start in range(g.n):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if side[w] < 0:
                    side[w] = 1 - side[v]
                    queue.append(w)
                elif side[w] == side[v]:
                    return None
    return Bipartition(tuple(side))


def count_degree_pair_edges(g: Graph, a: int, b: int) -> int:
    """Number of edges whose endpoint degrees equal {a, b} as an unordered
    pair: one entry of :func:`degree_pair_counts`."""
    return degree_pair_counts(g).get((a, b) if a >= b else (b, a), 0)


def parse_graph6(text: str) -> Graph:
    """Decode one line of graph6 text; errors carry the 0-based byte offset."""
    s = text.rstrip("\r\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    vals = []
    for off, ch in enumerate(s):
        b = ord(ch)
        if b < 63 or b > 126:
            raise Graph6Error(f"character {ch!r} outside printable range 63..126", off)
        vals.append(b - 63)
    if vals[0] < 63:
        n = vals[0]
        pos = 1
    else:
        # '~' introduces the 4-byte header; '~~' would be the unsupported 8-byte form
        if len(vals) >= 2 and vals[1] == 63:
            raise Graph6Error(f"order above {GRAPH6_MAX_N} is not supported", 1)
        if len(vals) < 4:
            raise Graph6Error("truncated long size header", len(s))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        if n < 63:
            raise Graph6Error("non-canonical long size header for n < 63", 1)
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = vals[pos:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, found {len(body)}",
            pos + min(len(body), nbytes),
        )
    edges = []
    t = 0
    i, j = 0, 1
    for k, v in enumerate(body):
        for shift in (5, 4, 3, 2, 1, 0):
            if t < nbits:
                if (v >> shift) & 1:
                    edges.append((i, j))
                i += 1
                if i == j:
                    i = 0
                    j += 1
            elif (v >> shift) & 1:
                raise Graph6Error("trailing padding bits not zero", pos + k)
            t += 1
    return Graph(n, tuple(sorted(edges)))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; inverse of :func:`parse_graph6`."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise GraphError(f"order {n} exceeds the supported graph6 range {GRAPH6_MAX_N}")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    eset = set(g.edges)
    out = []
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in eset)
            filled += 1
            if filled == 6:
                out.append(chr(63 + acc))
                acc = 0
                filled = 0
    if filled:
        out.append(chr(63 + (acc << (6 - filled))))
    return header + "".join(out)


def _ascii_int(token: str) -> int:
    """``int(token)`` for an optionally signed run of ASCII digits only.

    ``int`` alone also takes any Unicode decimal digit and ``_`` separators.
    """
    if not _ASCII_INT.fullmatch(token):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" + m x "i j" edge-list format; strict about counts.

    Lines end at "\n" (a "\r" just before it is dropped) and the numbers of a
    line are separated by runs of spaces and tabs; any other character fails
    its line.
    """
    rows = []
    for line_no, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1):
        line = raw.strip(" \t")
        if not line:
            continue
        what, shape = ("edge line", "'i j'") if rows else ("header", "'n m'")
        parts = _BLANKS.split(line)
        if len(parts) != 2:
            raise EdgeListError(f"{what} must be {shape}, got {line!r}", line_no)
        try:
            rows.append((line_no, line, _ascii_int(parts[0]), _ascii_int(parts[1])))
        except ValueError:
            raise EdgeListError(f"{what} must be two integers, got {line!r}", line_no) from None
    if not rows:
        raise EdgeListError("missing 'n m' header line", 1)
    head_no, _, n, m = rows[0]
    if n < 0 or m < 0:
        raise EdgeListError("n and m must be non-negative", head_no)
    if len(rows) - 1 != m:
        raise EdgeListError(f"expected {m} edge lines, found {len(rows) - 1}", head_no)
    seen: set[tuple[int, int]] = set()
    for line_no, line, u, v in rows[1:]:
        if not (0 <= u < n and 0 <= v < n):
            raise EdgeListError(f"vertex id out of range 0..{n - 1} in {line!r}", line_no)
        if u == v:
            raise EdgeListError(f"loop at vertex {u}", line_no)
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise EdgeListError(f"duplicate edge {u} {v}", line_no)
        seen.add(e)
    return Graph(n, tuple(sorted(seen)))
