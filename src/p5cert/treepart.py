"""Tree partitions: rooted trees of bags that are dominating cliques or induced P3s.

Every connected P5-free graph admits such a partition, because every
connected P5-free graph has a dominating clique or a dominating induced P3
(Bacsó and Tuza, "Dominating cliques in P5-free graphs", Period. Math.
Hungar. 21, 1990), and each component left after removing it is again
connected and P5-free.  The builder here also succeeds on some graphs that
are not P5-free (the 5-path itself is one), so its success must never be
used as a P5-freeness test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import NoDominatingStructure
from .graphs import (
    Graph,
    as_induced_p3,
    component_masks,
    is_clique,
    iter_bits,
    mask_of,
    require_connected,
    set_of,
)

CLIQUE = "clique"
P3 = "p3"


@dataclass(frozen=True, slots=True)
class Bag:
    """A partition class: a clique, or an induced P3 with its path order recorded."""

    members: frozenset[int]
    kind: str
    p3_order: Optional[tuple[int, int, int]] = None
    mask: int = field(init=False, repr=False, compare=False)  # of the members

    def __post_init__(self):
        if not self.members:
            raise ValueError("empty bag")
        if self.kind not in (CLIQUE, P3):
            raise ValueError(f"unknown bag kind {self.kind!r}")
        if self.kind == P3:
            o = self.p3_order
            if o is None or len(o) != 3 or set(o) != self.members or len(set(o)) != 3:
                raise ValueError("p3 bag needs an order over exactly its 3 members")
            if o[0] > o[2]:
                raise ValueError("p3 order must start at the lower-id endpoint")
        elif self.p3_order is not None:
            raise ValueError("clique bag carries no p3 order")
        object.__setattr__(self, "mask", mask_of(self.members))

    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


@dataclass(frozen=True, slots=True)
class RootedTree:
    """Rooted tree on nodes 0..t-1: node 0 is the root and every parent comes
    before its children (``parent[k] < k``), so a reverse pass over ``parent``
    meets every node after all of its descendants."""

    parent: tuple[Optional[int], ...]

    def __post_init__(self):
        if not self.parent or self.parent[0] is not None:
            raise ValueError("node 0 must be the root")
        for k, p in enumerate(self.parent[1:], 1):
            if not isinstance(p, int) or not 0 <= p < k:
                raise ValueError(f"parent of node {k} must come before it")

    def children(self) -> tuple[tuple[int, ...], ...]:
        """Each node's children, ascending."""
        kids: list[list[int]] = [[] for _ in self.parent]
        for k, p in enumerate(self.parent[1:], 1):
            kids[p].append(k)
        return tuple(map(tuple, kids))

    def preorder(self):
        children = self.children()
        stack = [0]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(children[node]))


@dataclass(frozen=True, slots=True)
class TreePartition:
    """A rooted tree whose bags partition the vertices 1..n."""

    n: int
    tree: RootedTree
    bags: tuple[Bag, ...]

    def __post_init__(self):
        if len(self.bags) != len(self.tree.parent):
            raise ValueError("one bag per tree node required")
        seen = 0
        for bag in self.bags:
            m = bag.mask
            if m & seen:
                raise ValueError("bags overlap")
            seen |= m
        if seen != (1 << self.n) - 1:
            raise ValueError("bags do not cover 1..n")

    def subtree_masks(self) -> tuple[int, ...]:
        """Vertex mask of each node's subtree (node and all descendants)."""
        parent = self.tree.parent
        masks = [bag.mask for bag in self.bags]
        for node in range(len(masks) - 1, 0, -1):
            masks[parent[node]] |= masks[node]
        return tuple(masks)


def find_dominating_structure_in(g: Graph, comp: int) -> Optional[Bag]:
    """Staged search inside the component given by mask ``comp``.

    Order: singletons by id, edges lexicographically, triangles
    lexicographically, induced P3s lexicographically (by sorted triple),
    then maximal cliques by pivoting enumeration, first dominating one wins.

    Every stage is anchored on coverage instead of scanning pairs.  A set
    S dominates ``comp`` exactly when S meets N[w] for every w in
    ``comp``.  So once one member y is fixed, the others must cover
    rest_y = comp - N[y], one of them lies in N[w] for any chosen w in
    rest_y, and the last one lies in N[r] for every r that the others
    leave uncovered.  Each restriction only drops candidates that cannot
    dominate, so every stage returns the same lexicographically first
    structure as a scan over all pairs.

    Every dominating set meets N[w0] for each w0 in ``comp``, as it must
    dominate w0.  So the edge stage fixes only the y in N[x1], for the
    lowest vertex x1 (``_first_dominating_edge``), and each triple stage
    first tries only the y in N[w0], for the w0 with the fewest neighbours
    (``_first_dominating_triple``).

    The singleton and edge stages find their last member by witness
    narrowing (``_first_cover``): test the lowest candidate c, and if it
    misses some vertex r, keep only the candidates in N[r].  This is
    exact, since every answer lies in N[r]; c itself does not, so each
    candidate is tested at most once.  It takes no more rounds than
    testing every candidate in turn, or narrowing by every uncovered
    vertex in turn: the lowest candidate rises every round and no
    witness r is used twice.
    """
    adj = g.adj

    # singletons
    v = _first_cover(adj, comp, comp)
    if v:
        return Bag(frozenset([v]), CLIQUE)

    edge = _first_dominating_edge(adj, comp)
    if edge:
        return Bag(frozenset(edge), CLIQUE)

    # the anchors of the triples, fewest neighbours in comp first
    order = sorted(iter_bits(comp), key=lambda v: (adj[v] & comp).bit_count())
    found = _first_dominating_triple(adj, comp, order, True)
    if found:
        return Bag(frozenset(found), CLIQUE)
    found = _first_dominating_triple(adj, comp, order, False)
    if found:
        return Bag(frozenset(found), P3, as_induced_p3(g, found))

    # maximal cliques, Bron-Kerbosch with pivot, iterative
    found = _first_dominating_maximal_clique(g, comp)
    if found is not None:
        return Bag(set_of(found), CLIQUE)
    return None


def _first_cover(adj: tuple[int, ...], cands: int, left: int) -> int:
    """Lowest vertex c of ``cands`` with ``left`` inside N[c], or 0."""
    while cands:
        cb = cands & -cands
        miss = left & ~(adj[cb.bit_length()] | cb)
        if not miss:
            return cb.bit_length()
        # every answer lies in N[r]; the tested c does not
        rb = miss & -miss
        cands &= adj[rb.bit_length()] | rb
    return 0


def _first_dominating_edge(adj: tuple[int, ...], comp: int) -> Optional[tuple[int, int]]:
    """Lexicographically first dominating edge (p, q), p < q, of comp, or None.

    Every dominating edge dominates the lowest vertex x1, so it has an end
    in N[x1].  The y of N[x1] are tried in ascending order, each with its
    lowest partner among the vertices not tried before it, so the first
    edge has its partner in the candidates of its first end in N[x1].  With
    y fixed, a lower partner gives a lower sorted pair.  An edge through x1
    comes before every other, so x1's partner ends the search.  Once (p, q)
    is found, every later y is above p, so only a partner below p can win.
    """
    x1b = comp & -comp
    near = (adj[x1b.bit_length()] | x1b) & comp
    m = comp  # the partners still allowed
    best = None
    while near and m:
        yb = near & -near
        near ^= yb
        m &= ~yb
        y = yb.bit_length()
        z = _first_cover(adj, adj[y] & m, comp & ~(adj[y] | yb))
        if z:
            if yb == x1b:
                return y, z
            best = (z, y) if z < y else (y, z)
            m &= (1 << (best[0] - 1)) - 1
    return best


def _pairs(
    adj: tuple[int, ...], comp: int, order: list[int], y: int, pool: int, triangle: bool
) -> Iterator[tuple[int, int]]:
    """Pairs b < c of ``pool`` completing a dominating triple with y.

    The triple is a triangle, or has exactly two edges.  Let the anchor w
    be the first vertex of ``order`` in rest_y = comp - N[y]: the member
    meeting N[w] runs over N[w] & pool, and the third member must cover
    what it leaves of rest_y.  Each such member is paired with its lowest
    third member, so the least pair yielded is the lexicographically first.
    """
    ay = adj[y]
    rest = comp & ~(ay | 1 << (y - 1))
    # the anchor; rest is never empty, since no singleton dominates comp
    for w in order:
        if (rest >> (w - 1)) & 1:
            break
    bs = (adj[w] | 1 << (w - 1)) & pool
    while bs:
        bb = bs & -bs
        bs ^= bb
        b = bb.bit_length()
        ab = adj[b]
        if triangle:
            cands = pool & ab
        elif ay & bb:
            # exactly two of the three pairs must be edges
            cands = pool & (ay ^ ab) & ~bb
        else:
            cands = pool & ay & ab
        left = rest & ~(ab | bb)
        # witness narrowing (_first_cover) was tried here and was
        # slower (split n=512 seed 2, CPython 3.11: 0.094 -> 0.149 s): the
        # stage's cost is the walk over second members b, not this loop
        while left and cands:
            low = left & -left
            cands &= adj[low.bit_length()] | low
            left ^= low
        if cands:
            c = (cands & -cands).bit_length()
            yield (c, b) if c < b else (b, c)


def _first_dominating_triple(
    adj: tuple[int, ...], comp: int, order: list[int], triangle: bool
) -> Optional[tuple[int, int, int]]:
    """Lexicographically first dominating triangle (or induced P3) of comp, or None.

    Every dominating triple meets N[w0], w0 = ``order[0]``, so the y in N[w0]
    are tried first, most connected first; a tried y is no partner for later
    ones, as a triple holding it would have been found with it.  Only if one
    completes a triple does the lowest member x run over comp, with the other
    two above x (neighbours of x, for a triangle).
    """
    near = adj[order[0]] | 1 << (order[0] - 1)
    m = comp
    for y in reversed(order):
        yb = 1 << (y - 1)
        if near & yb:
            m ^= yb
            pool = adj[y] & m if triangle else m
            if any(_pairs(adj, comp, order, y, pool, triangle)):
                break
    else:
        return None
    m = comp
    while m:
        xb = m & -m
        m ^= xb
        x = xb.bit_length()
        pool = adj[x] & m if triangle else m
        pair = min(_pairs(adj, comp, order, x, pool, triangle), default=None)
        if pair is not None:
            return (x,) + pair
    return None


def _first_dominating_maximal_clique(g: Graph, comp: int) -> Optional[int]:
    adj = g.adj

    def pivot(p: int, x: int) -> int:
        best, best_cnt = 0, -1
        for v in iter_bits(p | x):
            cnt = (adj[v] & p).bit_count()
            if cnt > best_cnt:
                best, best_cnt = v, cnt
        return best

    # frames: (r_mask, p_mask, x_mask, candidates_iterator_state)
    stack = [(0, comp, 0, None)]
    while stack:
        r, p, x, cand = stack.pop()
        if cand is None:
            if p == 0 and x == 0:
                covered = r
                for v in iter_bits(r):
                    covered |= adj[v] & comp
                if comp & ~covered == 0:
                    return r
                continue
            cand = p & ~adj[pivot(p, x)]
        if cand == 0:
            continue
        low = cand & -cand
        v = low.bit_length()
        vb = 1 << (v - 1)
        # resume this frame later with v moved from P to X
        stack.append((r, p & ~vb, x | vb, cand ^ low))
        stack.append((r | vb, p & adj[v], x & adj[v], None))
    return None


def find_dominating_structure(g: Graph) -> Optional[Bag]:
    """Dominating clique or induced P3 of a connected graph, or None."""
    require_connected(g)
    return find_dominating_structure_in(g, g.full_mask)


def build_tree_partition(g: Graph) -> TreePartition:
    """Peel dominating structures recursively; nodes are numbered in preorder,
    so node 0 is the root and every parent comes before its children.

    Children follow the component order (ascending minimum member id), which
    makes the result canonical: the same graph always yields the same
    partition, hence byte-identical encodings.
    """
    require_connected(g)
    bags: list[Bag] = []
    parents: list[Optional[int]] = []
    stack: list[tuple[Optional[int], int]] = [(None, g.full_mask)]
    while stack:
        parent, comp = stack.pop()
        bag = find_dominating_structure_in(g, comp)
        if bag is None:
            raise NoDominatingStructure(set_of(comp))
        node = len(bags)
        bags.append(bag)
        parents.append(parent)
        rest = comp & ~bag.mask
        if rest:
            stack.extend((node, sub) for sub in reversed(component_masks(g, rest)))
    return TreePartition(g.n, RootedTree(tuple(parents)), tuple(bags))


@dataclass(frozen=True, slots=True)
class Violation:
    """First failed check: condition in {partition, 1, 2, 3}.

    (3) implies that every edge joins ancestor-related bags: an edge between
    two child subtrees of a node a lies in one component of subtree(a) - bag(a).
    """

    condition: str
    witness: str
    node: Optional[int] = None


def validate_tree_partition(g: Graph, tp: TreePartition) -> Optional[Violation]:
    """None if the partition is valid for g, else the first violation.

    Check order: the partition property, then the bag shape (1) at every
    node in preorder, then domination of each subtree (2) at every node,
    then the component split (3) at every node.  Passing (3) puts every edge
    inside one bag or between ancestor-related bags, since the ends of an
    edge share a component of the remainder at their lowest common ancestor.
    """
    if tp.n != g.n:
        return Violation("partition", f"partition covers 1..{tp.n}, graph has n={g.n}")
    # TreePartition construction already guarantees disjoint cover of 1..n.

    subtree = tp.subtree_masks()
    children = tp.tree.children()
    order = list(tp.tree.preorder())

    for node in order:
        bag = tp.bags[node]
        if bag.kind == CLIQUE:
            if not is_clique(g, bag.members):
                return Violation("1", f"bag {sorted(bag.members)} is not a clique", node)
        else:
            a, b, c = bag.p3_order
            if not (g.has_edge(a, b) and g.has_edge(b, c) and not g.has_edge(a, c)):
                return Violation("1", f"bag order {a}-{b}-{c} is not an induced P3", node)
    for node in order:
        bag = tp.bags[node]
        covered = bag.mask
        for m in bag.members:
            covered |= g.adj[m]
        missing = subtree[node] & ~covered
        if missing:
            v = (missing & -missing).bit_length()
            return Violation("2", f"vertex {v} not dominated by bag {sorted(bag.members)}", node)
    for node in order:
        rest = subtree[node] & ~tp.bags[node].mask
        comps = sorted(component_masks(g, rest))
        kids = sorted(subtree[k] for k in children[node])
        if comps != kids:
            return Violation(
                "3",
                f"remainder components {[sorted(set_of(m)) for m in comps]} != "
                f"child subtrees {[sorted(set_of(m)) for m in kids]}",
                node,
            )
    return None


def format_tree_partition(tp: TreePartition) -> str:
    """Human-readable preorder dump, one line per tree node."""
    lines = []
    for node in tp.tree.preorder():
        bag = tp.bags[node]
        parent = tp.tree.parent[node]
        members = ",".join(str(v) for v in bag.sorted_members())
        line = (
            f"node {node}: parent={'-' if parent is None else parent} "
            f"kind={bag.kind} members={members}"
        )
        if bag.kind == P3:
            a, b, c = bag.p3_order
            line += f" order={a}-{b}-{c}"
        lines.append(line)
    return "\n".join(lines) + "\n"
