"""Immutable graphs over vertices 1..n with bitmask adjacency rows.

Vertex v occupies bit v-1 of every mask, so a full adjacency row is exactly
the n-bit vector that appears in encoded certificates.  The structural
searches here (induced paths, cliques, induced P3s, domination, components)
are exhaustive.  The induced 5-path search is also the verifier's step (v),
so the independent ground truth is in ``tests/helpers.py``: the reference
DFS and the naive search.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DisconnectedInput,
    EmptySet,
    GraphFormatError,
    LoopEdge,
    OutOfRangeVertex,
    SubsetViolation,
)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield vertex ids of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length()
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def set_of(mask: int) -> frozenset[int]:
    return frozenset(iter_bits(mask))


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor mask of v (adj[0] unused)."""

    n: int
    adj: tuple[int, ...]

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> (v - 1)) & 1 == 1

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(iter_bits(self.adj[v]))

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(1, self.n + 1):
            for v in iter_bits(self.adj[u] >> u << u):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj[1:]) // 2


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from unordered vertex pairs; duplicates collapse."""
    if n < 1:
        raise OutOfRangeVertex(f"vertex count {n} must be positive")
    adj = [0] * (n + 1)
    for u, v in edges:
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise OutOfRangeVertex(f"edge ({u},{v}) outside 1..{n}")
        if u == v:
            raise LoopEdge(f"loop at {u}")
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def connected_components(g: Graph) -> list[frozenset[int]]:
    """Maximal connected vertex sets, ordered by minimum member id."""
    comps = []
    for m in component_masks(g, g.full_mask):
        comps.append(set_of(m))
    return comps


def component_masks(g: Graph, within: int) -> list[int]:
    """Connected components of the subgraph induced by ``within``, as masks.

    Components come in ascending order of their lowest vertex.  A component
    grows from its lowest vertex in rounds.  A round ORs the rows of its
    frontier, the vertices the previous round reached, until every vertex not
    yet placed is reached or the frontier is used up.  What a round reaches is
    therefore N(frontier) less what is placed, whatever order it visits the
    frontier in, so the order is chosen to reach something new: each visit
    targets r, the lowest vertex not yet reached, and visits a frontier
    neighbour of r.  If no unvisited frontier vertex is adjacent to r, no
    visit left in the round can reach r, so r is dropped for the round and
    the lowest unvisited frontier vertex is visited instead; once every vertex
    not yet placed is reached or dropped, the rest of the frontier would reach
    nothing new and the round ends.  Each visit uses up one frontier vertex,
    so no round visits more vertices than its frontier holds.
    """
    adj = g.adj
    out = []
    todo = within
    while todo:
        seed = todo & -todo
        frontier = adj[seed.bit_length()] & todo
        comp = seed | frontier
        left = todo ^ comp
        while frontier and left:
            grow = 0
            want = left
            while frontier and want:
                r = want & -want
                hit = frontier & adj[r.bit_length()]
                if not hit:
                    want ^= r
                    hit = frontier
                v = hit & -hit
                frontier ^= v
                grow |= adj[v.bit_length()]
                want &= ~grow
            frontier = grow & left
            comp |= frontier
            left ^= frontier
        out.append(comp)
        todo = left
    return out


def is_connected(g: Graph) -> bool:
    return len(component_masks(g, g.full_mask)) == 1


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff every pair inside s is an edge; singletons count."""
    ids = sorted(set(s))
    if not ids:
        raise EmptySet("clique test over empty set")
    smask = mask_of(ids)
    for v in ids:
        if smask & ~g.adj[v] & ~(1 << (v - 1)):
            return False
    return True


def as_induced_p3(g: Graph, s: Iterable[int]) -> Optional[tuple[int, int, int]]:
    """Path order (endpoint, center, endpoint) if s induces a P3, else None.

    The lower-id endpoint comes first, which makes the order canonical.
    """
    ids = sorted(set(s))
    if len(ids) != 3:
        return None
    a, b, c = ids
    ab, ac, bc = g.has_edge(a, b), g.has_edge(a, c), g.has_edge(b, c)
    if ab + ac + bc != 2:
        return None
    if not ab:
        return (a, c, b)  # center c
    if not ac:
        return (a, b, c)  # center b
    return (b, a, c)  # center a

def is_dominating(g: Graph, s: Iterable[int], within: Iterable[int]) -> bool:
    """True iff every vertex of ``within`` is in s or adjacent to s."""
    smask = mask_of(s)
    wmask = mask_of(within)
    if smask & ~wmask:
        raise SubsetViolation("dominating set not contained in its region")
    covered = smask
    for v in iter_bits(smask):
        covered |= g.adj[v]
    return wmask & ~covered == 0


def first_known_p5(edge: Sequence[int], nonedge: Sequence[int], alive: int) -> Optional[tuple[int, int, int, int, int]]:
    """First induced 5-path (a, b, c, d, e) over ``alive``, in lexicographic
    order, whose 10 pair statuses are all known; None if there is none.

    ``edge[x]`` and ``nonedge[x]`` are the known neighbors and known
    non-neighbors of x: symmetric rows with no bit outside ``alive`` (a self
    bit in ``edge[x]`` is harmless).  A graph is the map that knows every
    pair.  Centre first, the cheap refutation: for each known induced P3
    b-c-d, a must lie in E[b] & NE[c] & NE[d], e in E[d] & NE[c] & NE[b],
    and a-e must be a known non-edge.  Only if that finds a path does the
    a, b, c, d extension search look for the first one.
    """
    # every loop takes the lowest set bit first, the order of iter_bits
    cs = alive
    while cs:
        low = cs & -cs
        cs ^= low
        c = low.bit_length()
        ne_c = nonedge[c]
        # b and d need a neighbor that is a known non-neighbor of c
        ends = 0
        m = edge[c]
        while m:
            low = m & -m
            m ^= low
            if edge[low.bit_length()] & ne_c:
                ends |= low
        bs = ends
        while bs:
            low = bs & -bs
            bs ^= low
            b = low.bit_length()
            a_side = edge[b] & ne_c
            ne_b = nonedge[b]
            # d > b only: reversing a path keeps its centre and swaps b with
            # d, so every path is met once in this orientation
            ds = bs & ne_b
            while ds:
                low = ds & -ds
                ds ^= low
                d = low.bit_length()
                e_side = edge[d] & ne_c & ne_b
                if e_side:
                    cands = a_side & nonedge[d]
                    while cands:
                        low = cands & -cands
                        cands ^= low
                        if nonedge[low.bit_length()] & e_side:
                            return _first_extension(edge, nonedge, alive)
    return None


def _first_extension(edge: Sequence[int], nonedge: Sequence[int], alive: int) -> Optional[tuple[int, int, int, int, int]]:
    """The a, b, c, d extension search of ``first_known_p5``, once a path exists."""
    as_ = alive
    while as_:
        low = as_ & -as_
        as_ ^= low
        a = low.bit_length()
        ne_a = nonedge[a]
        bs = edge[a]
        while bs:
            low = bs & -bs
            bs ^= low
            b = low.bit_length()
            ne_ab = ne_a & nonedge[b]
            cs = edge[b] & ne_a
            while cs:
                low = cs & -cs
                cs ^= low
                c = low.bit_length()
                ne_abc = ne_ab & nonedge[c]
                ds = edge[c] & ne_ab
                while ds:
                    low = ds & -ds
                    ds ^= low
                    es = edge[low.bit_length()] & ne_abc
                    if es:
                        return (a, b, c, low.bit_length(), (es & -es).bit_length())
    return None


def find_induced_path(g: Graph) -> Optional[tuple[int, int, int, int, int]]:
    """First induced 5-path (a, b, c, d, e) in lexicographic order, or None.

    The P5-freeness oracle: ``first_known_p5`` on the map that knows every
    pair of ``g``.
    """
    full = g.full_mask
    return first_known_p5(g.adj, [full ^ r ^ (1 << v >> 1) for v, r in enumerate(g.adj)], full)


def require_connected(g: Graph) -> None:
    if not is_connected(g):
        raise DisconnectedInput(f"graph on {g.n} vertices is not connected")


# --- graph text format ------------------------------------------------------
#
#   c <free-form comment>
#   p <n> <m>
#   e <u> <v>        (m lines, 1 <= u < v <= n, no duplicates)
#
# Every number is ASCII -?[0-9]+.  ``int`` alone would also take a sign,
# ``_`` separators and non-ASCII digits.

_DECIMAL = re.compile("-?[0-9]+")


def parse_decimal(field: str) -> int:
    if _DECIMAL.fullmatch(field) is None:
        raise ValueError(f"not a decimal integer: {field!r}")
    return int(field)


def write_graph(g: Graph) -> str:
    lines = [f"p {g.n} {g.edge_count()}"]
    for u in g.vertices():  # the e lines of g.edges(), read off the rows
        prefix = f"e {u} "
        lines += [prefix + str(v) for v in iter_bits(g.adj[u] >> u << u)]
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    n = None
    m = None
    # rows only for vertices named on e lines, so the n of a p line
    # allocates nothing before the whole file has been checked
    adj: defaultdict[int, int] = defaultdict(int)
    count = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "p":
            if n is not None:
                raise GraphFormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed p line")
            try:
                n, m = parse_decimal(parts[1]), parse_decimal(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer p line") from exc
            if n < 1 or m < 0:
                raise GraphFormatError(f"line {lineno}: bad counts in p line")
        elif parts[0] == "e":
            if n is None:
                raise GraphFormatError(f"line {lineno}: e line before p line")
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: malformed e line")
            try:
                u, v = parse_decimal(parts[1]), parse_decimal(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer e line") from exc
            if not (1 <= u < v <= n):
                raise GraphFormatError(f"line {lineno}: edge ({u},{v}) violates 1 <= u < v <= n")
            v_bit = 1 << (v - 1)
            if adj[u] & v_bit:
                raise GraphFormatError(f"line {lineno}: duplicate edge ({u},{v})")
            adj[u] |= v_bit
            adj[v] |= 1 << (u - 1)
            count += 1
        else:
            raise GraphFormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing p line")
    if count != m:
        raise GraphFormatError(f"p line announces {m} edges, file has {count}")
    return Graph(n, tuple(adj.get(v, 0) for v in range(n + 1)))
