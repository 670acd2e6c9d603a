"""Independent reference implementations used as test oracles."""

import functools
import itertools
import random

from p5cert.bits import Bits
from p5cert.codec import (
    EncodedCertificate,
    NeighborhoodRow,
    encode_certificate,
    encode_partitioning,
    idwidth,
    plen_width,
)
from p5cert.errors import (
    GenerationBudgetExceeded,
    MalformedCertificate,
    MalformedPartitioning,
    MalformedTreeEncoding,
    OutOfRangeVertex,
    TooLarge,
)
from p5cert.graphs import (
    Graph,
    as_induced_p3,
    build_graph,
    component_masks,
    find_induced_path,
    is_clique,
    is_connected,
    iter_bits,
    mask_of,
    set_of,
)
from p5cert.harness import _RECONNECT_ROUNDS, _derived_rng
from p5cert.p5free import bag_is_small
from p5cert.treepart import CLIQUE, P3, Bag, RootedTree, TreePartition, _first_cover, _pairs, build_tree_partition


def reference_find_induced_path(g: Graph, k: int):
    """First induced path on k vertices in DFS order, or None.

    Ground-truth oracle for P_k-freeness.  The search extends paths in
    ascending id order; vertices adjacent to a non-tip path vertex are
    pruned with a forbidden mask, so every emitted path is induced.
    """
    if k < 1:
        raise OutOfRangeVertex("path length must be >= 1")
    if k == 1:
        return (1,) if g.n >= 1 else None
    if k > g.n:
        return None

    adj = g.adj
    path = []

    def extend(tip: int, banned: int):
        if len(path) == k:
            return tuple(path)
        cand = adj[tip] & ~banned
        for w in iter_bits(cand):
            path.append(w)
            got = extend(w, banned | adj[tip])
            if got:
                return got
            path.pop()
        return None

    for v in g.vertices():
        path[:] = [v]
        got = extend(v, 1 << (v - 1))
        if got:
            return got
    return None


def naive_find_induced_path(g: Graph, k: int):
    """Full enumeration over k-subsets and orderings; presence oracle."""
    if k == 1:
        return (1,) if g.n >= 1 else None
    for subset in itertools.combinations(range(1, g.n + 1), k):
        for perm in itertools.permutations(subset):
            if perm[0] > perm[-1]:
                continue  # a path equals its reverse
            ok = True
            for i in range(k):
                for j in range(i + 1, k):
                    edge = g.has_edge(perm[i], perm[j])
                    if edge != (j - i == 1):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return perm
    return None


def naive_dominating_structure(g: Graph, comp: int):
    """Plain staged scan: singletons, edges, triangles, induced P3s."""
    ids = sorted(set_of(comp))

    def dominates(s):
        covered = mask_of(s)
        for v in s:
            covered |= g.adj[v] & comp
        return comp & ~covered == 0

    for v in ids:
        if dominates([v]):
            return Bag(frozenset([v]), CLIQUE)
    for u, v in itertools.combinations(ids, 2):
        if g.has_edge(u, v) and dominates([u, v]):
            return Bag(frozenset([u, v]), CLIQUE)
    for t in itertools.combinations(ids, 3):
        if is_clique(g, t) and dominates(t):
            return Bag(frozenset(t), CLIQUE)
    for t in itertools.combinations(ids, 3):
        order = as_induced_p3(g, t)
        if order is not None and dominates(t):
            return Bag(frozenset(t), P3, order)
    return None  # maximal-clique stage not reimplemented here


def reference_component_masks(g: Graph, within: int) -> list[int]:
    """The breadth-first search that expands every frontier to the end; oracle."""

    out = []
    todo = within
    while todo:
        seed = todo & -todo
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= g.adj[v]
            grow &= within & ~comp
            comp |= grow
            frontier = grow
        out.append(comp)
        todo &= ~comp
    return out


def reference_dominating_structure(g: Graph, comp: int):
    """The pairwise staged scan used before coverage anchoring; oracle for every stage.

    Order: singletons by id, edges lexicographically, triangles
    lexicographically, induced P3s lexicographically (by sorted triple),
    then maximal cliques by pivoting enumeration, first dominating one wins.
    Coverage pruning below only skips candidates that provably cannot
    dominate, so the returned structure is the same as for the naive scan.
    """

    adj = g.adj
    cn = {v: (adj[v] & comp) | (1 << (v - 1)) for v in iter_bits(comp)}

    # singletons
    for v in iter_bits(comp):
        if comp & ~cn[v] == 0:
            return Bag(frozenset([v]), CLIQUE)

    # edges
    for u in iter_bits(comp):
        above = ~((1 << u) - 1)
        for v in iter_bits(adj[u] & comp & above):
            if comp & ~(cn[u] | cn[v]) == 0:
                return Bag(frozenset([u, v]), CLIQUE)

    def narrow_by_coverage(cands: int, rest: int, cap: int = 16) -> tuple[int, int]:
        # a third vertex z completes domination only if rest fits inside
        # N[z]; intersecting the closed neighborhoods of uncovered vertices
        # is an exact filter, applied to at most `cap` of them
        while rest and cands and cap:
            low = rest & -rest
            cands &= cn[low.bit_length()]
            rest ^= low
            cap -= 1
        return cands, rest

    # triangles, enumerated by sorted triple {x < y < z}
    for x in iter_bits(comp):
        ax = adj[x] & comp
        for y in iter_bits(ax & ~((1 << x) - 1)):
            base = ax & adj[y] & ~((1 << y) - 1)
            if not base:
                continue
            rest = comp & ~(cn[x] | cn[y])
            cands, rem = narrow_by_coverage(base, rest)
            for z in iter_bits(cands):
                if rem & ~cn[z] == 0:
                    return Bag(frozenset([x, y, z]), CLIQUE)

    # induced P3s, enumerated by sorted triple {x < y < z}
    for x in iter_bits(comp):
        ax = adj[x] & comp
        for y in iter_bits(comp & ~((1 << x) - 1) & ~(1 << (x - 1))):
            ay = adj[y] & comp
            adjacent = (ax >> (y - 1)) & 1
            # exactly two of the three pairs must be edges
            base = (ax ^ ay if adjacent else ax & ay) & ~((1 << y) - 1)
            if not base:
                continue
            rest = comp & ~(cn[x] | cn[y])
            cands, rem = narrow_by_coverage(base, rest)
            for z in iter_bits(cands):
                if rem & ~cn[z]:
                    continue
                if not adjacent:
                    order = (x, z, y)
                elif (ax >> (z - 1)) & 1:
                    order = (z, x, y) if z < y else (y, x, z)
                else:
                    order = (x, y, z)
                return Bag(frozenset([x, y, z]), P3, order)

    # maximal cliques, Bron-Kerbosch with pivot, iterative
    found = _reference_maximal_clique(g, comp)
    if found is not None:
        return Bag(set_of(found), CLIQUE)
    return None


def reference_first_dominating_edge(adj: tuple[int, ...], comp: int):
    """The edge stage's walk over every lowest member x, before its anchor on N[x1].

    For each x of comp in id order, the partner y > x comes from witness
    narrowing over N(x); the first x with one gives the first edge (x, y).
    """
    m = comp
    while m:
        xb = m & -m
        m ^= xb
        x = xb.bit_length()
        y = _first_cover(adj, adj[x] & m, comp & ~(adj[x] | xb))
        if y:
            return x, y
    return None


def reference_first_dominating_triple(adj: tuple[int, ...], comp: int, order: list[int], triangle: bool):
    """The triple stage's walk over every lowest member x, with no refutation
    over N[w0] before it.

    For each x of comp in id order, the other two come from the members of
    comp above x (neighbours of x, for a triangle); the first x with a pair
    gives the first triple.
    """
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


def _reference_maximal_clique(g: Graph, comp: int):
    """First dominating maximal clique of comp, Bron-Kerbosch with pivot.

    A copy of the search's last stage (less an unread parameter), kept here
    so that the maximal-clique outcomes are checked against code the
    search does not share.
    """

    adj = g.adj

    def pivot(p: int, x: int) -> int:
        best, best_cnt = 0, -1
        for v in iter_bits(p | x):
            cnt = bin(adj[v] & p).count("1")
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


def nested_trees(t: int):
    """All ordered rooted trees on t nodes as nested child lists."""
    if t == 1:
        yield []
        return
    for forest in _nested_forests(t - 1):
        yield forest


def _nested_forests(k: int):
    if k == 0:
        yield []
        return
    for first in range(1, k + 1):
        for head in nested_trees(first):
            for rest in _nested_forests(k - first):
                yield [head] + rest


def nested_to_tree(nested) -> RootedTree:
    """Convert nested child lists to a preorder-numbered RootedTree."""
    parents = [None]

    def walk(kids, my_id):
        for sub in kids:
            kid_id = len(parents)
            parents.append(my_id)
            walk(sub, kid_id)

    walk(nested, 0)
    return RootedTree(tuple(parents))


def renumbered(tp: TreePartition, children) -> TreePartition:
    """``tp``'s bags on the tree with per-node child lists ``children``
    (root 0), renumbered in preorder.  Each node keeps the order of its
    listed children, so the result encodes as the listed tree walks."""
    order, parent, new = [], [], {}
    stack = [(0, None)]
    while stack:
        node, p = stack.pop()
        new[node] = len(order)
        order.append(node)
        parent.append(p)
        stack.extend((k, new[node]) for k in reversed(children[node]))
    return TreePartition(tp.n, RootedTree(tuple(parent)), tuple(tp.bags[i] for i in order))


def node_of(tp: TreePartition) -> tuple[int, ...]:
    """Tree node of each vertex (index 0 unused)."""
    node = [0] * (tp.n + 1)
    for i, bag in enumerate(tp.bags):
        for v in bag.members:
            node[v] = i
    return tuple(node)


# nine-node tree: root with three children, the first having one child and
# the third having two children whose first has two children
REFERENCE_TREE = RootedTree((None, 0, 1, 0, 0, 4, 5, 5, 4))


def random_nested(size: int, rng: random.Random):
    if size == 1:
        return []
    kids = []
    remaining = size - 1
    while remaining:
        s = rng.randint(1, remaining)
        kids.append(random_nested(s, rng))
        remaining -= s
    return kids


def random_tree_partition(n: int, rng: random.Random) -> TreePartition:
    """Random well-formed partition with canonical (preorder) numbering."""
    t = rng.randint(1, n)
    tree = nested_to_tree(random_nested(t, rng))
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    # composition of n into t positive parts
    cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
    chunks = [ids[a:b] for a, b in zip([0] + cuts, cuts + [n])]
    bags = []
    for chunk in chunks:
        chunk = sorted(chunk)
        if len(chunk) == 3 and rng.random() < 0.5:
            a, b, c = chunk
            center = rng.choice(chunk)
            order = {a: (b, a, c), b: (a, b, c), c: (a, c, b)}[center]
            bags.append(Bag(frozenset(chunk), P3, order))
        else:
            bags.append(Bag(frozenset(chunk), CLIQUE))
    return TreePartition(n, tree, tuple(bags))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    from p5cert.graphs import build_graph

    edges = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    ]
    return build_graph(n, edges)


def pendant_clique(s: int) -> Graph:
    """A clique on 1..s with s - 1 pendant leaves on each clique vertex, so
    n = s^2.  It is a split graph, hence P5-free, and its one big bag makes
    every pieces bundle about sqrt(n) rows: the n^1.5 term of the size bound."""
    from p5cert.graphs import build_graph

    edges = [(u, v) for u in range(1, s + 1) for v in range(u + 1, s + 1)]
    leaf = s
    for u in range(1, s + 1):
        for _ in range(s - 1):
            leaf += 1
            edges.append((u, leaf))
    return build_graph(s * s, edges)


def reference_find_p5_known(edge, nonedge, n):
    """The a, b, c, d extension search that step (v) first used; witness oracle."""

    for a in range(1, n + 1):
        ne_a = nonedge[a]
        for b in iter_bits(edge[a]):
            for c in iter_bits(edge[b] & ne_a):
                ne_ab = ne_a & nonedge[b]
                for d in iter_bits(edge[c] & ne_ab):
                    cand = edge[d] & ne_ab & nonedge[c]
                    if cand:
                        return (a, b, c, d, (cand & -cand).bit_length())
    return None


def reference_closure(u, n, nbr_mask, dec_u, dec_nbrs, pidx):
    """The knowledge closure with its per-bit symmetrize loop; oracle.

    Raises ``Contradiction`` at the pair the per-bit loop first meets.
    """
    from p5cert.p5free import KnowledgeMap, _clash, _row_claims

    full = (1 << n) - 1
    edge = [0] * (n + 1)
    nonedge = [0] * (n + 1)
    for x, row, _ in _row_claims(u, nbr_mask, dec_u, dec_nbrs):
        new_ne = full & ~row & ~(1 << (x - 1))
        bad = nonedge[x] & row | edge[x] & new_ne
        if bad:
            _clash(x, bad)
        edge[x] |= row
        nonedge[x] |= new_ne
    for masks, into, against in (
        (pidx.intra_edge, edge, nonedge),
        (pidx.intra_nonedge, nonedge, edge),
        (pidx.cross_nonedge, nonedge, edge),
    ):
        for x in range(1, n + 1):
            bad = against[x] & masks[x]
            if bad:
                _clash(x, bad)
            into[x] |= masks[x]
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        for y in iter_bits(edge[x]):
            if nonedge[y] & bit:
                _clash(x, 1 << (y - 1))
            edge[y] |= bit
        for y in iter_bits(nonedge[x]):
            if edge[y] & bit:
                _clash(x, 1 << (y - 1))
            nonedge[y] |= bit
    return KnowledgeMap(n, tuple(edge), tuple(nonedge))


def naive_transpose(rows, n):
    """Bit y-1 of result[x] is bit x-1 of rows[y], one bit at a time."""
    return [0] + [
        sum(((rows[y] >> (x - 1)) & 1) << (y - 1) for y in range(1, n + 1)) for x in range(1, n + 1)
    ]


def reference_cross_nonedge(tp: TreePartition):
    """Per vertex, the members of every bag incomparable to its own; oracle.

    The node-ancestor and node-descendant bitmasks with a loop over the
    incomparable nodes, as the partition index first built them.
    """

    tree = tp.tree
    t = len(tree.parent)
    n = tp.n
    members_mask = [bag.mask for bag in tp.bags]
    order = list(tree.preorder())
    anc_nodes = [0] * t
    for node in order:
        p = tree.parent[node]
        if p is None:
            anc_nodes[node] = 1 << node
        else:
            anc_nodes[node] = anc_nodes[p] | (1 << node)
    desc_nodes = [1 << i for i in range(t)]
    children = tree.children()
    for node in reversed(order):
        for k in children[node]:
            desc_nodes[node] |= desc_nodes[k]

    cross_nonedge = [0] * (n + 1)
    full_nodes = (1 << t) - 1
    for i in range(t):
        incomp = full_nodes & ~anc_nodes[i] & ~desc_nodes[i]
        if not incomp:
            continue
        other = 0
        while incomp:
            low = incomp & -incomp
            other |= members_mask[low.bit_length() - 1]
            incomp ^= low
        for v in iter_bits(members_mask[i]):
            cross_nonedge[v] |= other
    return tuple(cross_nonedge)


def reference_bag_test(bag: Bag, u: int, nbr_mask: int):
    """Step (iii)'s bag test at u, by bag kind and u's role in the bag, as the
    verifier first wrote it; oracle.  None when u's adjacency fits its bag,
    else (case, witness), case one of "clique", "centre", "endpoint-centre"
    (an endpoint not adjacent to the centre) and "endpoint-other" (an
    endpoint adjacent to the other endpoint)."""
    if bag.kind == CLIQUE:
        missing = bag.mask & ~(1 << (u - 1)) & ~nbr_mask
        if not missing:
            return None
        return "clique", f"not adjacent to bag member {(missing & -missing).bit_length()}"
    a, b, c = bag.p3_order

    def adjacent(v):
        return (nbr_mask >> (v - 1)) & 1

    if u == b:
        case = None if adjacent(a) and adjacent(c) else "centre"
    elif not adjacent(b):
        case = "endpoint-centre"
    else:
        case = "endpoint-other" if adjacent(c if u == a else a) else None
    return case and (case, f"own role in P3 bag {a}-{b}-{c} does not match adjacency")


def reference_ancestor_misses(tree: RootedTree, members_mask, s: int, nbr_mask: int) -> list[int]:
    """The strict ancestors of node s, root first, whose bags hold no
    neighbour in ``nbr_mask``; listed from ``tree.parent``.  Step (iii)'s
    ancestor test, as the verifier first wrote it, reports the first one;
    oracle."""
    ancestors = []
    a = tree.parent[s]
    while a is not None:
        ancestors.append(a)
        a = tree.parent[a]
    return [a for a in reversed(ancestors) if not members_mask[a] & nbr_mask]


def reference_union_accepts(g: Graph, certs) -> bool:
    """The batch test ``verify_all`` first used: steps (i)-(iv) for all
    vertices, then one closure and one 5-path search over the union's
    claims (every vertex's own row and own pieces rows); oracle."""
    from p5cert import p5free
    from p5cert.p5free import _OWN, _PIECES, Contradiction, _decode, _partition_index, _steps_iii_iv

    n = g.n
    dec = {v: _decode(certs[v], n) for v in g.vertices()}
    if None in dec.values():
        return False
    block = dec[1].partitioning_part
    # (i) and (ii)
    if any(d.neighbors_part != g.adj[v] or d.partitioning_part != block for v, d in dec.items()):
        return False
    pidx = _partition_index(block, n)
    if pidx is None:
        return False
    claims: dict[tuple[int, int], str] = {}  # (owner, row) -> source
    for v in g.vertices():
        if _steps_iii_iv(n, v, g.adj[v], dec, pidx) is not None:
            return False
        claims.setdefault((v, g.adj[v]), _OWN)
        for e in dec[v].pieces_part:
            claims.setdefault((e.owner, e.row), _PIECES)
    try:
        km = p5free._closure(n, [(x, row, source) for (x, row), source in claims.items()], pidx)
    except Contradiction:
        return False
    return p5free._find_p5_known(km.edge, km.nonedge, n) is None


def reference_universal_verifier(property_oracle):
    """The universal scheme's verifier as it first was: every view re-reads
    all n rows of its matrix, re-checks loops and symmetry and runs the
    oracle; oracle."""
    from p5cert.framework import ACCEPT, Verdict

    def verifier(view):
        n = view.n
        matrix = view.self_cert
        if matrix.length != n * n:
            return Verdict(False, "malformed", f"matrix certificate must be {n * n} bits")
        rows = [0] + [matrix.field(i * n, n) for i in range(n)]
        for v in range(1, n + 1):
            if rows[v] >> (v - 1) & 1:
                return Verdict(False, "malformed", f"matrix has a loop at {v}")
            for u in iter_bits(rows[v]):
                if not rows[u] >> (v - 1) & 1:
                    return Verdict(False, "malformed", f"matrix asymmetric at {u},{v}")
        if rows[view.self_id] != view.neighbor_ids_mask():
            return Verdict(False, "i", "own matrix row differs from actual neighbors")
        for w, cert in view.neighbors:
            if cert != matrix:
                return Verdict(False, "ii", f"matrix differs from neighbor {w}")
        if not property_oracle(Graph(n, tuple(rows))):
            return Verdict(False, "v", "certified property fails on the claimed graph")
        return ACCEPT

    return verifier


def reference_matrix(rows, n: int) -> Bits:
    """The universal prover's matrix through ``BitWriter``: rows[1..n], each
    n bits, row 1 first; oracle."""
    w = BitWriter()
    for v in range(1, n + 1):
        w.push(rows[v], n)
    return w.result()


def reference_encode_tree_label(label, n: int) -> Bits:
    """``baselines.encode_tree_label`` through ``BitWriter``; oracle."""
    w = idwidth(n)
    out = BitWriter()
    out.push(label.claimed_n, w + 1)
    out.push(label.root_id, w)
    out.push(label.parent_id, w)
    out.push(label.dist, w)
    out.push(label.subtree_size, w)
    return out.result()


def reference_decode_tree_label(b: Bits, n: int):
    """``baselines.decode_tree_label`` through ``BitReader``; oracle."""
    from p5cert.baselines import SpanningTreeLabel

    w = idwidth(n)
    if b.length != 5 * w + 1:
        return None
    r = BitReader(b)
    try:
        return SpanningTreeLabel(r.read(w + 1), r.read(w), r.read(w), r.read(w), r.read(w))
    except BitUnderflow:
        return None


# --- generators over edge-tuple sets, the oracle for harness.generate ---------


def _gnp_edges(n: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    return {
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < p
    }


def _connect_components(n: int, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
    """Join components along a path of their minimum-id vertices."""
    g = build_graph(n, edges)
    comps = component_masks(g, g.full_mask)
    mins = [(m & -m).bit_length() for m in comps]
    for a, b in zip(mins, mins[1:]):
        edges.add((min(a, b), max(a, b)))
    return edges


def _cograph_edges(n: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    """Random cotree: recursive binary union/join, join forced at the root."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    edges: set[tuple[int, int]] = set()
    stack: list[tuple[list[int], bool]] = [(ids, True)]
    while stack:
        part, forced_join = stack.pop()
        if len(part) == 1:
            continue
        cut = rng.randint(1, len(part) - 1)
        left, right = part[:cut], part[cut:]
        if forced_join or rng.random() < p:
            for a in left:
                for b in right:
                    edges.add((min(a, b), max(a, b)))
        stack.append((left, False))
        stack.append((right, False))
    return edges


def _split_edges(n: int, p: float, rng: random.Random) -> set[tuple[int, int]]:
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    k = rng.randint(1, n)
    clique, indep = sorted(ids[:k]), sorted(ids[k:])
    edges = {(a, b) for i, a in enumerate(clique) for b in clique[i + 1 :]}
    attached = set()
    for i in indep:
        for c in clique:
            if rng.random() < p:
                edges.add((min(i, c), max(i, c)))
                attached.add(i)
    for i in indep:
        if i not in attached:
            c = rng.choice(clique)
            edges.add((min(i, c), max(i, c)))
    return edges


def _delete_middles_until_p5_free(cur: Graph, rng: random.Random) -> Graph:
    """Delete a middle edge (position 2-3 or 3-4) of each found 5-path.

    Terminates because the edge count strictly decreases; the middle whose
    deletion keeps the graph connected is preferred, but the result may
    still be disconnected.
    """
    while True:
        path = find_induced_path(cur)
        if path is None:
            return cur
        mids = [(path[1], path[2]), (path[2], path[3])]
        rng.shuffle(mids)
        first = _without_edge(cur, mids[0])
        if is_connected(first):
            cur = first
        else:
            second = _without_edge(cur, mids[1])
            cur = second if is_connected(second) else first


def _without_edge(g: Graph, e: tuple[int, int]) -> Graph:
    a, b = e
    adj = list(g.adj)
    adj[a] &= ~(1 << (b - 1))
    adj[b] &= ~(1 << (a - 1))
    return Graph(g.n, tuple(adj))


def _reference_repair(g: Graph, rng: random.Random) -> Graph:
    """``harness.repair_to_p5_free`` over edge-tuple sets."""
    n = g.n
    cur = _delete_middles_until_p5_free(g, rng)
    for _ in range(_RECONNECT_ROUNDS):
        if is_connected(cur):
            return cur
        cur = _delete_middles_until_p5_free(build_graph(n, _connect_components(n, set(cur.edges()))), rng)
    if is_connected(cur):
        return cur
    edges = set(cur.edges())
    edges.update((1, v) for v in range(2, n + 1) if not cur.has_edge(1, v))
    return build_graph(n, edges)


def reference_generate(spec) -> Graph:
    """``harness.generate`` as it was built from edge-tuple sets; oracle."""
    rng = _derived_rng(spec.family, spec.n, spec.p, spec.seed)
    n, p = spec.n, spec.p
    if spec.family == "cograph":
        return build_graph(n, _cograph_edges(n, p, rng))
    if spec.family == "split":
        return build_graph(n, _split_edges(n, p, rng))
    if spec.family == "gnp":
        for _ in range(50):
            edges = _gnp_edges(n, p, rng)
            if is_connected(build_graph(n, edges)):
                return build_graph(n, edges)
        return build_graph(n, _connect_components(n, edges))
    if spec.family == "p5free-repair":
        edges = _gnp_edges(n, p, rng)
        g = build_graph(n, _connect_components(n, edges))
        return _reference_repair(g, rng)
    # with-p5: resample until the oracle finds an induced 5-path
    for _ in range(200):
        edges = _gnp_edges(n, p, rng)
        if not is_connected(build_graph(n, edges)):
            edges = _connect_components(n, edges)
        g = build_graph(n, edges)
        if find_induced_path(g) is not None:
            return g
    raise GenerationBudgetExceeded(f"no graph with an induced 5-path found for n={n}, p={p}")


# --- the codec and partition index as they read fields through BitReader ----


class BitUnderflow(Exception):
    """Internal: a reader ran past the end of the stream."""


class BitWriter:
    """Append-only accumulator; integers are written MSB first."""

    __slots__ = ("_value", "_length")

    def __init__(self):
        self._value = 0
        self._length = 0

    def push(self, value: int, width: int) -> None:
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"{value} does not fit in {width} bits")
        self._value = (self._value << width) | value
        self._length += width

    def push_bits(self, b: Bits) -> None:
        self._value = (self._value << b.length) | b.value
        self._length += b.length

    def result(self) -> Bits:
        return Bits(self._value, self._length)


class BitReader:
    """Sequential reader over a ``Bits``; raises ``BitUnderflow`` on overrun."""

    __slots__ = ("_bits", "pos")

    def __init__(self, bits: Bits):
        self._bits = bits
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > self._bits.length:
            raise BitUnderflow()
        v = self._bits.field(self.pos, width)
        self.pos += width
        return v

    def read_bits(self, width: int) -> Bits:
        return Bits(self.read(width), width)

    def exhausted(self) -> bool:
        return self.pos == self._bits.length


def reference_encode_tree(tree: RootedTree) -> Bits:
    """Depth-first 0=down / 1=up encoding; 2*(node count - 1) bits."""
    w = BitWriter()
    children = tree.children()
    stack = [(0, 0)]
    while stack:
        node, next_child = stack.pop()
        kids = children[node]
        if next_child < len(kids):
            stack.append((node, next_child + 1))
            w.push(0, 1)
            stack.append((kids[next_child], 0))
        elif stack:
            w.push(1, 1)
    return w.result()


def reference_decode_tree(b: Bits) -> RootedTree:
    """Inverse of ``encode_tree``; nodes come out numbered in preorder."""
    parents: list[int | None] = [None]
    cur = 0
    for i in range(b.length):
        if b.field(i, 1) == 0:
            node = len(parents)
            parents.append(cur)
            cur = node
        else:
            up = parents[cur]
            if up is None:
                raise MalformedTreeEncoding("more up-edges than down-edges")
            cur = up
    if cur != 0:
        raise MalformedTreeEncoding("walk does not return to the root")
    return RootedTree(tuple(parents))


def reference_encode_partitioning(tp: TreePartition, n: int) -> Bits:
    if tp.n != n:
        raise ValueError(f"partition of 1..{tp.n} cannot be encoded for n={n}")
    w = idwidth(n)
    out = BitWriter()
    out.push_bits(reference_encode_tree(tp.tree))
    for node in tp.tree.preorder():
        bag = tp.bags[node]
        out.push(1 if bag.kind == P3 else 0, 1)
        out.push(len(bag.members), w)
        ids = bag.p3_order if bag.kind == P3 else bag.sorted_members()
        for v in ids:
            out.push(v, w)
    return out.result()


def reference_decode_partitioning(b: Bits, n: int) -> TreePartition:
    """Strict inverse of ``encode_partitioning``.

    Validates structural well-formedness and that the bags partition 1..n;
    whether the partition is valid for any particular graph is the
    verifier's business, not the decoder's.
    """
    w = idwidth(n)
    numerator = b.length + 2 - n * w
    if numerator <= 0 or numerator % (3 + w):
        raise MalformedPartitioning(f"no node count matches a {b.length}-bit block for n={n}")
    t = numerator // (3 + w)
    if t < 1 or t > n:
        raise MalformedPartitioning(f"implied node count {t} out of range")
    reader = BitReader(b)
    try:
        tree = reference_decode_tree(reader.read_bits(2 * (t - 1)))
    except (BitUnderflow, MalformedTreeEncoding) as exc:
        raise MalformedPartitioning(f"bad tree block: {exc}") from exc
    if len(tree.parent) != t:
        raise MalformedPartitioning("tree block does not match implied node count")
    bags = []
    seen = 0
    try:
        for _ in range(t):
            kind = reader.read(1)
            cnt = reader.read(w)
            if cnt == 0:
                raise MalformedPartitioning("empty bag")
            ids = [reader.read(w) for _ in range(cnt)]
            for v in ids:
                if not 1 <= v <= n:
                    raise MalformedPartitioning(f"member id {v} out of range")
                if seen >> (v - 1) & 1:
                    raise MalformedPartitioning(f"member id {v} appears twice")
                seen |= 1 << (v - 1)
            if kind == 1:
                if cnt != 3:
                    raise MalformedPartitioning("P3 bag without exactly 3 members")
                if ids[0] > ids[2]:
                    raise MalformedPartitioning("P3 order must start at the lower endpoint")
                bags.append(Bag(frozenset(ids), P3, tuple(ids)))
            else:
                if ids != sorted(ids):
                    raise MalformedPartitioning("clique members not ascending")
                bags.append(Bag(frozenset(ids), CLIQUE))
    except BitUnderflow as exc:
        raise MalformedPartitioning("short read") from exc
    except ValueError as exc:
        raise MalformedPartitioning(str(exc)) from exc
    if not reader.exhausted():
        raise MalformedPartitioning("leftover bits after last bag")
    if seen != (1 << n) - 1:
        raise MalformedPartitioning("bags do not cover 1..n")
    # decode_tree numbers nodes in preorder, so bag i belongs to node i
    return TreePartition(n, tree, tuple(bags))


def reference_encode_certificate(cert: EncodedCertificate, n: int) -> Bits:
    w = idwidth(n)
    out = BitWriter()
    try:
        out.push(cert.neighbors_part, n)
        out.push(cert.partitioning_part.length, plen_width(n))
        out.push_bits(cert.partitioning_part)
        out.push(len(cert.pieces_part), w)
        for entry in cert.pieces_part:
            out.push(entry.owner, w)
            out.push(entry.row, n)
    except ValueError as exc:
        raise MalformedCertificate(f"field does not fit: {exc}") from exc
    return out.result()


def reference_decode_certificate(b: Bits, n: int) -> EncodedCertificate:
    w = idwidth(n)
    reader = BitReader(b)
    try:
        neighbors = reader.read(n)
        plen = reader.read(plen_width(n))
        partitioning = reader.read_bits(plen)
        cnt = reader.read(w)
        pieces = []
        for _ in range(cnt):
            owner = reader.read(w)
            row = reader.read(n)
            if not 1 <= owner <= n:
                raise MalformedCertificate(f"pieces owner {owner} out of range")
            if row >> (owner - 1) & 1:
                raise MalformedCertificate(f"pieces row of {owner} claims a self loop")
            pieces.append(NeighborhoodRow(owner, row))
    except BitUnderflow as exc:
        raise MalformedCertificate("short read") from exc
    if not reader.exhausted():
        raise MalformedCertificate("trailing bits")
    return EncodedCertificate(neighbors, partitioning, tuple(pieces))


def reference_partition_index(part_bits: Bits, n: int):
    """``p5free._partition_index`` over ``tree.preorder()`` and
    ``subtree_masks()``, without its cache; oracle."""
    from p5cert.p5free import PartitionIndex

    try:
        tp = reference_decode_partitioning(part_bits, n)
    except MalformedPartitioning:
        return None
    tree = tp.tree
    t = len(tree.parent)
    members_mask = tuple(bag.mask for bag in tp.bags)
    subtree = tp.subtree_masks()

    full = (1 << n) - 1
    above = [0] * t  # vertex mask of the strict ancestors' bags
    cross_nonedge = [0] * (n + 1)
    for node in tree.preorder():
        p = tree.parent[node]
        if p is not None:
            above[node] = above[p] | members_mask[p]
        other = full & ~above[node] & ~subtree[node]
        for v in iter_bits(members_mask[node]):
            cross_nonedge[v] = other

    intra_edge = [0] * (n + 1)
    intra_nonedge = [0] * (n + 1)
    for bag in tp.bags:
        if bag.kind == P3:
            a, b, c = bag.p3_order
            intra_edge[a] |= 1 << (b - 1)
            intra_edge[b] |= (1 << (a - 1)) | (1 << (c - 1))
            intra_edge[c] |= 1 << (b - 1)
            intra_nonedge[a] |= 1 << (c - 1)
            intra_nonedge[c] |= 1 << (a - 1)
        else:
            m = bag.mask
            for v in iter_bits(m):
                intra_edge[v] |= m & ~(1 << (v - 1))

    return PartitionIndex(
        tp=tp,
        node_of=node_of(tp),
        members_mask=members_mask,
        subtree_mask=subtree,
        intra_edge=tuple(intra_edge),
        intra_nonedge=tuple(intra_nonedge),
        cross_nonedge=tuple(cross_nonedge),
    )


# --- the prover as it encoded one certificate per vertex -------------------


def reference_prove(g: Graph, tp: TreePartition | None = None):
    """``p5free.prove`` with every certificate encoded from scratch,
    row included, and the big bags' bundles dealt one subtree vertex at a
    time; oracle for the one-pass encoding.  With ``tp``, the certificates
    the prover would write had it built ``tp``."""
    if tp is None:
        tp = build_tree_partition(g)
    part_bits = encode_partitioning(tp, g.n)
    subtree = tp.subtree_masks()
    entries: dict[int, tuple[NeighborhoodRow, ...]] = {}
    for node, bag in enumerate(tp.bags):
        members = bag.sorted_members()
        if bag_is_small(bag, g.n):
            rows = tuple(NeighborhoodRow(m, g.adj[m]) for m in members)
            entries.update((m, rows) for m in members)
        else:
            # the j-th subtree vertex (ascending) goes to the (j mod k)-th
            # member, after each member's own row
            owners = {m: [m] for m in members}
            below = [v for v in g.vertices() if subtree[node] >> (v - 1) & 1]
            for j, v in enumerate(below):
                m = members[j % len(members)]
                if v != m:
                    owners[m].append(v)
            entries.update((m, tuple(NeighborhoodRow(v, g.adj[v]) for v in owners[m])) for m in members)
    certs = {}
    for v in g.vertices():
        cert = EncodedCertificate(g.adj[v], part_bits, entries[v])
        certs[v] = encode_certificate(cert, g.n)
    return certs


def reference_enumerate_connected_graphs(n: int):
    """``harness.enumerate_connected_graphs`` building each graph from its
    edge mask and testing connectivity with ``is_connected``; oracle."""
    if n > 6:
        raise TooLarge("exhaustive enumeration is limited to n <= 6")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        adj = [0] * (n + 1)
        m = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
            m ^= low
        g = Graph(n, tuple(adj))
        if is_connected(g):
            yield g


# --- isomorph-free exhaustive generation -------------------------------------


def _refined_cells(g: Graph) -> list[list[int]]:
    """The vertices in cells of equal colour, cells in colour order.  Colours
    start as degrees; a vertex's next colour ranks its colour with the sorted
    colours of its neighbours, until no cell splits.  Ranks follow the sorted
    keys, so neither the cells nor their order depends on the labels."""
    colour = [0] + [g.adj[v].bit_count() for v in g.vertices()]
    classes = len(set(colour[1:]))
    while True:
        keys = [(colour[v], tuple(sorted(colour[w] for w in iter_bits(g.adj[v])))) for v in g.vertices()]
        rank = {key: i for i, key in enumerate(sorted(set(keys)))}
        colour = [0] + [rank[key] for key in keys]
        if len(rank) == classes:
            break
        classes = len(rank)
    return [[v for v in g.vertices() if colour[v] == c] for c in range(classes)]


def canonical_form(g: Graph) -> tuple[tuple[int, ...], frozenset[int]]:
    """(code, last): the largest code of ``g`` over the orderings that list
    the ``_refined_cells`` in order, each cell in any permutation, and the
    vertices that some ordering with that code puts last.

    The code of an ordering is, per position i, the mask of the earlier
    positions adjacent to the vertex at i.  Isomorphic graphs have the same
    code, and two orderings with the largest code differ by an automorphism,
    so ``last`` is an orbit of the automorphism group.  Orderings are built
    position by position and a prefix below the best code so far is cut."""
    slots = [cell for cell in _refined_cells(g) for _ in cell]
    best, last = (), set()
    code, pos = [], {}  # pos: vertex -> its position so far

    def extend(i, v_prev):
        nonlocal best, last
        if i == g.n:
            if tuple(code) > best:
                best, last = tuple(code), set()
            last.add(v_prev)
            return
        for v in slots[i]:
            if v in pos:
                continue
            code.append(sum(1 << pos[w] for w in iter_bits(g.adj[v]) if w in pos))
            if tuple(code) >= best[: i + 1]:
                pos[v] = i
                extend(i + 1, v)
                del pos[v]
            code.pop()

    extend(0, None)
    return best, frozenset(last)


def next_order(graphs) -> list[Graph]:
    """One graph per isomorphism class on n + 1 vertices, from one per class
    on n, by canonical augmentation (McKay, "Isomorph-free exhaustive
    generation", J. Algorithms 26, 1998).

    A child joins vertex n + 1 to a subset of its parent.  It is kept when
    the new vertex lies in the orbit that ``canonical_form`` puts last, so
    every class is made from one parent class only, and its code is new
    among that parent's children."""
    out = []
    for g in graphs:
        n, bit = g.n + 1, 1 << g.n
        seen = set()
        for nbrs in range(1 << g.n):
            child = Graph(n, (0, *(row | bit if nbrs >> (v - 1) & 1 else row for v, row in enumerate(g.adj[1:], 1)), nbrs))
            if n not in _refined_cells(child)[-1]:
                continue  # cheap: the last orbit lies in the last cell
            code, last = canonical_form(child)
            if n in last and code not in seen:
                seen.add(code)
                out.append(child)
    return out


@functools.lru_cache(maxsize=None)
def isomorph_free_graphs(n: int) -> tuple[Graph, ...]:
    """One graph per isomorphism class on n >= 1 vertices (OEIS A000088)."""
    return (Graph(1, (0, 0)),) if n == 1 else tuple(next_order(isomorph_free_graphs(n - 1)))


# --- the verifier written from the scheme's six steps -----------------------


def spec_verify(g: Graph, certs, u: int):
    """(step, path) at vertex u, written from the scheme's steps with sets
    and a dict of pair statuses: step is the first failing step (None on
    accept), path the induced 5-path step (v) found (None otherwise).  No
    partition masks, no twin deletion, no caches; oracle for ``verdict_at``
    and ``verify_all``.  Below n = 9 the path is the least of every 5-subset
    whose pairs are all known and form a path; above, the extension search
    ``reference_find_p5_known``."""
    n = g.n
    nbrs = set(g.neighbors(u))
    try:
        dec = {v: reference_decode_certificate(certs[v], n) for v in [u, *sorted(nbrs)]}
    except MalformedCertificate:
        return "malformed", None
    own = dec[u]

    # (i) the claimed row is the actual one
    if set(iter_bits(own.neighbors_part)) != nbrs:
        return "i", None

    # (ii) every neighbour holds the same block, and it decodes
    if any(dec[w].partitioning_part != own.partitioning_part for w in nbrs):
        return "ii", None
    try:
        tp = reference_decode_partitioning(own.partitioning_part, n)
    except MalformedPartitioning:
        return "ii", None
    node = {v: i for i, bag in enumerate(tp.bags) for v in bag.members}

    def up(i):  # node i and its ancestors, root last
        chain = [i]
        while tp.tree.parent[chain[-1]] is not None:
            chain.append(tp.tree.parent[chain[-1]])
        return chain

    # (iii) u's bag claims, its ancestors' domination, no neighbour in another branch
    s = node[u]
    bag = tp.bags[s]
    if bag.kind == CLIQUE:
        holds = bag.members - {u} <= nbrs
    else:
        a, b, c = bag.p3_order
        holds = {a, c} <= nbrs if u == b else b in nbrs and (c if u == a else a) not in nbrs
    ancestors = up(s)[1:]
    subtree = {v for v in g.vertices() if s in up(node[v])}
    above = {v for x in ancestors for v in tp.bags[x].members}
    if not holds or any(not tp.bags[x].members & nbrs for x in ancestors) or not nbrs <= above | subtree:
        return "iii", None

    # (iv) pieces: a small bag's members share the bag's rows, in member order;
    # a big bag's members jointly show a row of every subtree vertex
    if bag.kind == P3 or (len(bag.members) - 1) ** 2 < n:  # at most ceil(sqrt n) members
        pieces = own.pieces_part
        if [e.owner for e in pieces] != sorted(bag.members):
            return "iv", None
        if set(iter_bits(next(e.row for e in pieces if e.owner == u))) != nbrs:
            return "iv", None
        if any(dec[w].pieces_part != pieces for w in nbrs & bag.members):
            return "iv", None
    else:
        entries = [e for v in [u, *(nbrs & bag.members)] for e in dec[v].pieces_part]
        if not subtree <= {e.owner for e in entries}:
            return "iv", None
        if any(e.owner in nbrs & subtree and e.row != dec[e.owner].neighbors_part for e in entries):
            return "iv", None

    # (v) every pair status u can deduce; a pair with both rejects
    status = {}

    def claim(x, y, edge):
        if status.setdefault((min(x, y), max(x, y)), edge) != edge:
            raise ValueError

    rows = [(u, g.adj[u])] + [(w, dec[w].neighbors_part) for w in nbrs]
    rows += [(e.owner, e.row) for v in dec for e in dec[v].pieces_part]
    try:
        for x, row in rows:
            for y in g.vertices():
                if y != x:
                    claim(x, y, bool(row >> (y - 1) & 1))
        for bag in tp.bags:
            if bag.kind == CLIQUE:
                for x, y in itertools.combinations(bag.members, 2):
                    claim(x, y, True)
            else:
                a, b, c = bag.p3_order
                claim(a, b, True)
                claim(b, c, True)
                claim(a, c, False)
        for x, y in itertools.combinations(g.vertices(), 2):
            if node[x] not in up(node[y]) and node[y] not in up(node[x]):
                claim(x, y, False)
    except ValueError:
        return "v", None

    if n <= 8:
        paths = []
        for five in itertools.combinations(g.vertices(), 5):
            pairs = list(itertools.combinations(five, 2))
            if not all(p in status for p in pairs):
                continue
            links = {x: [y for p in pairs if status[p] and x in p for y in p if y != x] for x in five}
            ends = [x for x in five if len(links[x]) == 1]
            if sum(map(len, links.values())) != 8 or len(ends) != 2:
                continue
            path = [ends[0]]
            while len(path) < 5 and (step := [y for y in links[path[-1]] if y not in path]):
                path.append(step[0])
            if len(path) == 5:
                paths.append(tuple(path))
        path = min(paths, default=None)
    else:
        edge, nonedge = [0] * (n + 1), [0] * (n + 1)
        for (x, y), e in status.items():
            into = edge if e else nonedge
            into[x] |= 1 << (y - 1)
            into[y] |= 1 << (x - 1)
        path = reference_find_p5_known(edge, nonedge, n)
    return ("v", path) if path is not None else (None, None)
