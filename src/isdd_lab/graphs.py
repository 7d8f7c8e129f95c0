"""Simple undirected graphs: representation, codecs, and structural queries.

Vertices are dense ids 0..n-1.  Edges are kept as a sorted tuple of (i, j)
pairs with i < j, which is the canonical representation of an edge set:
construction rejects loops, out-of-range endpoints and duplicates, so two
graphs are equal iff they have the same vertex count and edge set.

Two text formats are supported; both read lines by one rule
(:func:`input_lines`): a line ends at "\n", one "\r" just before it is
dropped, spaces and tabs at either end are trimmed and blank lines are
skipped.

* graph6 (McKay): one line per graph, byte = 63 + six data bits, size header
  N(n), then the upper triangle of the adjacency matrix column by column,
  x(0,1), x(0,2), x(1,2), x(0,3), ...  The short header covers n <= 62, the
  four-byte header ('~' + 3 bytes) covers 63 <= n <= 258047.
* edge list: first line "n m", then m lines "i j", each number an optionally
  signed run of ASCII digits, separated by spaces and tabs.
"""

from __future__ import annotations

import io
import re
from collections import deque, namedtuple
from functools import lru_cache, partial, wraps
from itertools import compress, repeat
from operator import itemgetter

GRAPH6_MAX_N = 258047  # largest order encodable with the 4-byte size header
# Orders whose slot tables are kept, so that memory stays bounded however
# many orders a stream mixes.
TABLE_ORDERS = 16
# Largest order parse_graph6 decodes through a slot table, which grows with
# n^2: about 180 kB at n = 62 (2.9 MB for TABLE_ORDERS such orders), 1.9 MB
# at n = 200.
SLOT_TABLE_MAX_N = 62
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


class Graph(namedtuple("Graph", "n edges")):
    """Immutable simple graph.

    ``Graph(n, edges)`` validates; :data:`unchecked_graph` ``((n, edges))``
    does not, for callers whose edge tuple is canonical by construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: tuple[tuple[int, int], ...] = ()):
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        prev = None
        for e in edges:
            i, j = e
            if i == j:
                raise GraphError(f"loop at vertex {i}")
            if not (0 <= i < j < n):
                raise GraphError(f"edge {e} outside canonical range for n={n}")
            if prev is not None and e <= prev:
                raise GraphError(f"edges not sorted/unique at {e}")
            prev = e
        return tuple.__new__(cls, (n, edges))

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


# A Graph built without the checks of ``Graph(n, edges)``, nor namedtuple
# ``_make``'s length check: ``unchecked_graph((n, edges))``, for an edge tuple
# that is canonical by construction
unchecked_graph = partial(tuple.__new__, Graph)


class Bipartition(namedtuple("Bipartition", "side_of")):
    """Two-coloring of the vertices; every edge joins side 0 (U) to side 1 (W)."""

    __slots__ = ()

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
    is ``degrees(g)`` when the caller already has it.  Up to
    ``SLOT_TABLE_MAX_N`` vertices an edge reads its key, ready made, from the
    order's rows (:func:`_pair_key_rows`); larger orders build and order a
    tuple per edge.
    """
    if deg is None:
        deg = degrees(g)
    pc: dict[tuple[int, int], int] = {}
    if g.n <= SLOT_TABLE_MAX_N:
        rows = _pair_key_rows(g.n)
        for i, j in g.edges:
            key = rows[deg[i]][deg[j]]
            pc[key] = pc.get(key, 0) + 1
        return pc
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        key = (a, b) if a >= b else (b, a)
        pc[key] = pc.get(key, 0) + 1
    return pc


@lru_cache(maxsize=TABLE_ORDERS)
def _pair_key_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The degree-pair keys of order n: ``rows[a][b]`` is (a, b) ordered so
    that its first degree is the larger, for degrees a, b < n.  n^2 tuples,
    about 0.2 MB at n = 62."""
    return tuple(tuple((a, b) if a >= b else (b, a) for b in range(n)) for a in range(n))


def is_connected(g: Graph) -> bool:
    """True iff the edges join all n vertices into one component.

    Union-find over ``g.edges``: each edge looks up the roots of its two
    ends, halving their paths on the way, and links the roots if they
    differ, which merges two components; the walk stops at the edge that
    leaves one.  Memory grows with n, time with m (times log n at worst),
    whatever the vertex ids.
    """
    n = g.n
    if n == 0:
        raise GraphError("connectivity undefined for the empty vertex set")
    root = list(range(n))
    components = n
    for i, j in g.edges:
        while root[i] != i:
            root[i] = i = root[root[i]]  # point i at its grandparent, step there
        while root[j] != j:
            root[j] = j = root[root[j]]
        if i != j:
            root[j] = i
            components -= 1
            if components == 1:
                return True
    return components == 1


def last_graph_memo(fn):
    """``fn(g)``, kept for the last graph object it was called with.

    A Graph is immutable and the memo holds it, so its identity is an exact
    key, one that needs no hash of the edge tuple (0.6 ms at K_300).
    ``cache_clear()`` drops it.  The value is stored before the graph, so
    an ``fn`` that raises leaves the memo as it was."""
    last_g = last_value = None

    @wraps(fn)
    def memo(g):
        nonlocal last_g, last_value
        if last_g is not g:
            last_value = fn(g)
            last_g = g
        return last_value

    def cache_clear():
        nonlocal last_g, last_value
        last_g = last_value = None

    memo.cache_clear = cache_clear
    return memo


@last_graph_memo
def graph_profile(g: Graph) -> tuple[list[int], dict[tuple[int, int], int]]:
    """(:func:`degrees`, :func:`degree_pair_counts`) of g, read-only, once per
    graph for the reference path (``indices``, ``bounds``, ``classify``,
    :func:`enumeration.check_graph_reference`); the kernel counts its own."""
    deg = degrees(g)
    return deg, degree_pair_counts(g, deg)


@last_graph_memo
def graph_connected(g: Graph) -> bool:
    """:func:`is_connected` of g (False for n = 0), once per graph for the
    sweep loop (:func:`enumeration._check_each`) and the reference path;
    apart from the profile, which ``compute`` reads alone."""
    return g.n > 0 and is_connected(g)


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
    """Decode one line of graph6 text; errors carry the 0-based byte offset.

    Trailing "\r" and "\n" are dropped.  The data bits come from one lookup
    per character in a 256-entry table of 6-byte strings
    (``_G6_CHAR_BITS``), joined so that slot k of the body is byte k.  The
    set bits are then taken in row-major pair order, so the edge tuple comes
    out sorted without a sort: up to ``SLOT_TABLE_MAX_N`` vertices through
    the order's cached slot table (:func:`_graph6_slots`), three to four
    times as fast per graph as the n x n matrix (:func:`_matrix_edges`) that
    larger orders go through, whose memory grows with the input and is
    freed with it.
    """
    s = text.rstrip("\r\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    bad = _G6_BAD_CHAR.search(s)
    if bad:
        raise Graph6Error(f"character {bad.group()!r} outside printable range 63..126",
                          bad.start())
    b = s.encode("ascii")
    n = b[0] - 63
    pos = 1
    if n == 63:
        # '~' introduces the 4-byte header; '~~' would be the unsupported 8-byte form
        if len(b) >= 2 and b[1] == 126:
            raise Graph6Error(f"order above {GRAPH6_MAX_N} is not supported", 1)
        if len(b) < 4:
            raise Graph6Error("truncated long size header", len(s))
        n = (b[1] - 63 << 12) | (b[2] - 63 << 6) | (b[3] - 63)
        if n < 63:
            raise Graph6Error("non-canonical long size header for n < 63", 1)
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    found = len(b) - pos
    if found != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, found {found}",
            pos + min(found, nbytes),
        )
    # the edge tuples below are canonical by construction: no re-validation
    if not nbits:
        return unchecked_graph((n, ()))
    bits = b"".join(map(_G6_CHAR_BITS.__getitem__, b[pos:]))
    if bits.find(1, nbits) >= 0:
        # the padding lies in the last byte
        raise Graph6Error("trailing padding bits not zero", len(b) - 1)
    if n > SLOT_TABLE_MAX_N:
        return unchecked_graph((n, tuple(_matrix_edges(n, bits))))
    select, pairs = _graph6_slots(n)
    # through a list: tuple() of an iterator grows by resizing, which is
    # slower and raised peak RSS by about 0.5 MB on a 20,000-graph stream
    return unchecked_graph((n, tuple(list(compress(pairs, select(bits))))))


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding; inverse of :func:`parse_graph6`.

    Each edge (i, j) sets the bit of body slot j(j-1)/2 + i; one
    ``translate`` turns the byte values into characters.
    """
    n = g.n
    if n > GRAPH6_MAX_N:
        raise GraphError(f"order {n} exceeds the supported graph6 range {GRAPH6_MAX_N}")
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    body = bytearray((n * (n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        k = j * (j - 1) // 2 + i
        body[k // 6] |= 32 >> k % 6
    return header + body.translate(_G6_CHARS).decode("ascii")


# byte value -> the six data bits of that graph6 character, most significant
# first, one 0/1 byte each; 256 entries, so that any byte indexes it, though
# only '?'..'~' (63..126) get this far
_G6_CHAR_BITS = (bytes(6),) * 63 + tuple(bytes(v >> shift & 1 for shift in range(5, -1, -1))
                                         for v in range(64)) + (bytes(6),) * 129
_G6_CHARS = bytes.maketrans(bytes(range(64)), bytes(range(63, 127)))  # value -> character
_G6_BAD_CHAR = re.compile(r"[^?-~]")  # outside 63..126


@lru_cache(maxsize=TABLE_ORDERS)
def _graph6_slots(n: int):
    """The slot table of order n >= 2: ``(select, pairs)``.

    ``pairs`` lists the vertex pairs (i, j), i < j, in row-major (sorted)
    order; ``select(bits)`` takes the data bits of a graph6 body, slot k at
    index k, and returns the bits of those pairs in the same order (plus one
    spare bit, so that it returns a tuple even for one pair; ``compress``
    stops at the end of ``pairs``).  A table grows with the n(n-1)/2 pairs.
    """
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return itemgetter(*[j * (j - 1) // 2 + i for i, j in pairs], 0), pairs


def _matrix_edges(n: int, bits: bytes) -> list[tuple[int, int]]:
    """The edges of a graph6 body of order n, sorted, from its data bits.

    Column j of the body (its slots j(j-1)/2 .. j(j+1)/2 - 1) is copied into
    column j of an n x n 0/1 matrix, cell i*n + j for row i; the set cells
    in index order are then the edges in row-major order, (i, j) =
    divmod(cell, n).
    """
    matrix = bytearray(n * n)
    start = 0
    for j in range(n):
        matrix[j:j * n:n] = bits[start:start + j]
        start += j
    return list(map(divmod, compress(range(n * n), matrix), repeat(n)))


def _ascii_int(token: str) -> int:
    """``int(token)`` for an optionally signed run of ASCII digits only.

    ``int`` alone also takes any Unicode decimal digit and ``_`` separators.
    """
    if not _ASCII_INT.fullmatch(token):
        raise ValueError(f"not an ASCII integer: {token!r}")
    return int(token)


def input_lines(lines):
    """(line number, text) of each non-blank line; ``lines`` holds one line per item.

    An item ends at its "\n", if it has one, and one "\r" just before that
    "\n" is dropped; then spaces and tabs are trimmed at both ends.  Any
    other character, a lone "\r" or a Unicode space included, stays in the
    text.  Text as a whole is split the same way by
    ``io.StringIO(text, newline="\n")``, which is how both parsers and the
    graph6 readers of the CLI and :func:`enumeration.stream_graph6` see lines.
    """
    for line_no, raw in enumerate(lines, start=1):
        if raw[-1:] == "\n":
            raw = raw[:-2] if raw[-2:] == "\r\n" else raw[:-1]
        line = raw.strip(" \t")
        if line:
            yield line_no, line


def parse_edge_list(text: str) -> Graph:
    """Parse the "n m" + m x "i j" edge-list format; strict about counts.

    Lines are read by :func:`input_lines`; the numbers of a line are
    separated by runs of spaces and tabs, and any other character fails its
    line.
    """
    rows = []
    for line_no, line in input_lines(io.StringIO(text, newline="\n")):
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
