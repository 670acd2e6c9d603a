import random
from collections import Counter

import pytest

import p5cert as pc
from p5cert import treepart
from p5cert.errors import DisconnectedInput, NoDominatingStructure
from p5cert.graphs import build_graph, component_masks, iter_bits
from p5cert.harness import FAMILIES, GeneratorSpec
from p5cert.treepart import (
    CLIQUE,
    P3,
    Bag,
    RootedTree,
    TreePartition,
    Violation,
    _first_cover,
    _first_dominating_edge,
    _first_dominating_triple,
    find_dominating_structure_in,
    format_tree_partition,
)
import helpers
from helpers import (
    REFERENCE_TREE,
    naive_dominating_structure,
    random_graph,
    random_tree_partition,
    reference_cross_nonedge,
    reference_dominating_structure,
    reference_first_dominating_edge,
    reference_first_dominating_triple,
)


def complete_graph(n):
    return pc.build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def test_dominating_structure_star():
    star = pc.build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    assert pc.find_dominating_structure(star) == Bag(frozenset({1}), CLIQUE)


def test_dominating_structure_c4():
    c4 = pc.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    assert pc.find_dominating_structure(c4) == Bag(frozenset({1, 2}), CLIQUE)


def test_dominating_structure_p5(p5_graph):
    assert pc.find_dominating_structure(p5_graph) == Bag(frozenset({2, 3, 4}), P3, (2, 3, 4))


def test_dominating_structure_requires_connected():
    with pytest.raises(DisconnectedInput):
        pc.find_dominating_structure(pc.build_graph(3, [(1, 2)]))


def test_dominating_structure_matches_naive_scan():
    rng = random.Random(11)
    for _ in range(250):
        g = random_graph(rng.randint(1, 9), rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        for comp in component_masks(g, g.full_mask):
            got = find_dominating_structure_in(g, comp)
            want = naive_dominating_structure(g, comp)
            if want is not None:
                assert got == want
            elif got is not None:
                # only the maximal-clique stage may fire beyond the naive scan
                assert got.kind == CLIQUE and len(got.members) > 3


def _outcome(bag):
    if bag is None:
        return "none"
    if bag.kind == P3:
        return "p3"
    return {1: "singleton", 2: "edge", 3: "triangle"}.get(len(bag.members), "maximal clique")


def _clique_with_private_neighbours(rng):
    # a k-clique whose members each keep a pendant vertex, plus noise: no
    # triple dominates once k >= 4, so the maximal-clique stage is reached
    k = rng.randint(3, 7)
    n = min(14, 2 * k + rng.randint(0, 2))
    edges = {(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)}
    edges |= {(i, k + i) for i in range(1, k + 1) if k + i <= n}
    edges |= {(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if rng.random() < 0.08}
    perm = rng.sample(range(1, n + 1), n)
    return build_graph(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


def _random_submask_components():
    # components of random vertex subsets of random graphs, seeded
    rng = random.Random(404)
    for i in range(3000):
        if i % 2:
            g = random_graph(rng.randint(1, 14), rng.choice([0.15, 0.25, 0.35, 0.5, 0.7, 0.85]), rng)
        else:
            g = _clique_with_private_neighbours(rng)
        sub = g.full_mask if rng.random() < 0.5 else rng.getrandbits(g.n) | 1 << rng.randrange(g.n)
        for comp in component_masks(g, sub):
            yield g, comp


def test_dominating_structure_matches_reference_on_random_submasks():
    seen = Counter()
    for g, comp in _random_submask_components():
        got = find_dominating_structure_in(g, comp)
        assert got == reference_dominating_structure(g, comp), (g.adj, comp)
        seen[_outcome(got)] += 1
    for outcome in ("singleton", "edge", "triangle", "p3", "maximal clique", "none"):
        assert seen[outcome] >= 150, seen


def test_dominating_structure_matches_reference_on_build_steps():
    # every component the builder would peel, for every generator family;
    # families that may contain a 5-path also reach components with no bag
    seen = Counter()
    for family in FAMILIES:
        for n in (8, 16, 32, 64):
            for seed in (1, 2, 3):
                g = pc.generate(GeneratorSpec(family, n, 0.5, seed))
                stack = component_masks(g, g.full_mask)
                while stack:
                    comp = stack.pop()
                    got = find_dominating_structure_in(g, comp)
                    assert got == reference_dominating_structure(g, comp), (family, n, seed, comp)
                    seen[_outcome(got)] += 1
                    if got is not None:
                        stack.extend(component_masks(g, comp & ~got.mask))
    for outcome in ("edge", "triangle", "p3", "maximal clique", "none"):
        assert seen[outcome] >= 10, seen


def test_dominating_structure_matches_reference_on_large_build_steps():
    # components large enough that witness narrowing takes several rounds
    seen = Counter()
    for family, n in (("cograph", 256), ("split", 128)):
        for seed in (1, 2, 3):
            g = pc.generate(GeneratorSpec(family, n, 0.5, seed))
            stack = [g.full_mask]
            while stack:
                comp = stack.pop()
                got = find_dominating_structure_in(g, comp)
                assert got == reference_dominating_structure(g, comp), (family, n, seed, comp)
                seen[_outcome(got)] += 1
                stack.extend(component_masks(g, comp & ~got.mask))
    for outcome in ("singleton", "edge", "triangle"):
        assert seen[outcome] >= 40, seen


def test_triple_existence_matches_search_and_reference(connected_graphs):
    # the triple stage, refutation first, against the walk alone, on every
    # component where no singleton or edge dominates: all connected graphs
    # with n <= 6, random submasks, and the triple-stage components of split
    # n=512
    cases = [(g, g.full_mask) for n in range(1, 7) for g in connected_graphs[n]]
    cases += _random_submask_components()
    for seed in (1, 2, 3):
        g = pc.generate(GeneratorSpec("split", 512, 0.5, seed))
        stack = [g.full_mask]
        while stack:
            comp = stack.pop()
            got = find_dominating_structure_in(g, comp)
            if _outcome(got) not in ("singleton", "edge"):
                cases.append((g, comp))
            stack.extend(component_masks(g, comp & ~got.mask))
    seen = Counter()
    for g, comp in cases:
        want = _outcome(reference_dominating_structure(g, comp))
        if want in ("singleton", "edge"):
            continue
        adj = g.adj
        order = sorted(iter_bits(comp), key=lambda v: (adj[v] & comp).bit_count())
        for shape, triangle in (("triangle", True), ("p3", False)):
            first = _first_dominating_triple(adj, comp, order, triangle)
            assert first == reference_first_dominating_triple(adj, comp, order, triangle), (shape, g.adj, comp)
            has = first is not None
            # the reference names a P3 only where no triangle dominates
            if triangle or want != "triangle":
                assert has == (want == shape), (shape, want, g.adj, comp)
            seen[shape, has] += 1
    floors = {
        ("triangle", False): 5000, ("triangle", True): 700,
        ("p3", False): 1200, ("p3", True): 4500,
    }
    for key, floor in floors.items():
        assert seen[key] >= floor, seen


def _build_steps(g):
    # every component the builder peels, with the bag it finds there
    stack = [g.full_mask]
    while stack:
        comp = stack.pop()
        bag = find_dominating_structure_in(g, comp)
        yield comp, bag
        stack.extend(component_masks(g, comp & ~bag.mask))


def test_first_dominating_edge_matches_walk(connected_graphs):
    # the edge stage anchored on N[x1] against the walk over every lowest
    # member, on every component where no singleton dominates
    cases = [(g, g.full_mask) for n in range(1, 7) for g in connected_graphs[n]]
    cases += _random_submask_components()
    for family, n, seeds in (("split", 512, range(1, 6)), ("cograph", 1024, (1,))):
        for seed in seeds:
            g = pc.generate(GeneratorSpec(family, n, 0.5, seed))
            cases += [(g, comp) for comp, _ in _build_steps(g)]
    seen = Counter()
    for g, comp in cases:
        adj = g.adj
        if _first_cover(adj, comp, comp):
            continue
        got = _first_dominating_edge(adj, comp)
        assert got == reference_first_dominating_edge(adj, comp), (g.adj, comp)
        x1b = comp & -comp
        x1 = x1b.bit_length()
        near = (adj[x1] | x1b) & comp
        if got is None:
            assert near != comp
            seen["none"] += 1
        elif x1 not in got:
            seen["without x1"] += 1
        # a later y of N[x1] whose partners reach p, the lower end of the
        # best pair known before it: the cut below p drops them
        tried, p = 0, None
        for y in iter_bits(near):
            yb = 1 << (y - 1)
            tried |= yb
            cands = adj[y] & comp & ~tried
            if p is not None and cands >> (p - 1):
                seen["cut"] += 1
                break
            z = _first_cover(adj, cands, comp & ~(adj[y] | yb))
            if z:
                if y == x1:
                    break
                p = min(y, z) if p is None else min(p, y, z)
    floors = {"without x1": 7500, "none": 5800, "cut": 3600}
    for key, floor in floors.items():
        assert seen[key] >= floor, seen


@pytest.mark.parametrize("seed, most", [(2, 136), (3, 79)])
def test_edge_stage_tries_only_the_anchor(monkeypatch, seed, most):
    # split n=512 seeds 2 and 3 have edge stages that fail: the walk over
    # every lowest member made 2,132 and 1,872 cover calls in them
    calls = []
    cover = treepart._first_cover
    monkeypatch.setattr(treepart, "_first_cover", lambda *args: calls.append(args) or cover(*args))
    g = pc.generate(GeneratorSpec("split", 512, 0.5, seed))
    total = 0
    for comp, _ in _build_steps(g):
        edge_calls = len(calls) - 1  # less the singleton stage's call
        calls.clear()
        x1b = comp & -comp
        assert edge_calls <= ((g.adj[x1b.bit_length()] | x1b) & comp).bit_count(), comp
        total += edge_calls
    assert total <= most


@pytest.mark.parametrize("k", range(3, 9))
def test_dominating_structure_cocktail_party(k):
    # K_{2 x k}: 2i-1 and 2i are the only non-adjacent pairs, so every
    # vertex misses its partner and no singleton dominates
    n = 2 * k
    g = build_graph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u + 1) // 2 != (v + 1) // 2])
    assert pc.find_dominating_structure(g) == Bag(frozenset({1, 3}), CLIQUE)


def test_build_k5_is_singleton_chain():
    tp = pc.build_tree_partition(complete_graph(5))
    assert [sorted(b.members) for b in tp.bags] == [[1], [2], [3], [4], [5]]
    assert tp.tree.parent == (None, 0, 1, 2, 3)


def test_build_star():
    star = pc.build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    tp = pc.build_tree_partition(star)
    assert sorted(tp.bags[0].members) == [1]
    assert tp.tree.children()[0] == (1, 2, 3, 4)
    assert [sorted(tp.bags[i].members) for i in (1, 2, 3, 4)] == [[2], [3], [4], [5]]


def test_build_p5(p5_graph):
    tp = pc.build_tree_partition(p5_graph)
    assert tp.bags[0] == Bag(frozenset({2, 3, 4}), P3, (2, 3, 4))
    assert [sorted(tp.bags[i].members) for i in (1, 2)] == [[1], [5]]
    assert tp.tree.children()[0] == (1, 2)
    # the builder succeeds here although the graph is not P5-free
    assert pc.find_induced_path(p5_graph) is not None


def test_build_deterministic(corpus_graphs):
    for _, g in corpus_graphs[:6]:
        tp1 = pc.build_tree_partition(g)
        tp2 = pc.build_tree_partition(g)
        assert tp1 == tp2
        assert pc.encode_partitioning(tp1, g.n) == pc.encode_partitioning(tp2, g.n)


def test_build_failure_reports_component():
    # the 7-path: any clique covers <= 4 consecutive vertices and any induced
    # P3 covers <= 5, so nothing dominates
    g = pc.build_graph(7, [(i, i + 1) for i in range(1, 7)])
    assert pc.find_dominating_structure(g) is None
    with pytest.raises(NoDominatingStructure) as err:
        pc.build_tree_partition(g)
    assert err.value.component == frozenset(range(1, 8))


def test_validate_builder_output(p5_graph):
    tp = pc.build_tree_partition(p5_graph)
    assert pc.validate_tree_partition(p5_graph, tp) is None


def test_validate_rejects_whole_vertex_set_as_clique(p5_graph):
    tree = RootedTree((None,))
    tp = TreePartition(5, tree, (Bag(frozenset(range(1, 6)), CLIQUE),))
    violation = pc.validate_tree_partition(p5_graph, tp)
    assert violation is not None and violation.condition == "1"


def test_validate_condition_order_and_witnesses():
    c4 = pc.build_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    # diagonal pairs are non-edges: bag {1,3} flagged clique fails (1) at the root
    tree = RootedTree((None, 0))
    tp = TreePartition(4, tree, (Bag(frozenset({1, 3}), CLIQUE), Bag(frozenset({2, 4}), CLIQUE)))
    violation = pc.validate_tree_partition(c4, tp)
    assert violation.condition == "1" and violation.node == 0

    # domination failure: root {1} does not dominate 3 in C4
    tree2 = RootedTree((None, 0))
    tp2 = TreePartition(4, tree2, (Bag(frozenset({1}), CLIQUE), Bag(frozenset({2, 3, 4}), P3, (2, 3, 4))))
    violation2 = pc.validate_tree_partition(c4, tp2)
    assert violation2 == Violation("2", "vertex 3 not dominated by bag [1]", 0)

    # component split failure: two leaf children but one remainder component
    path = pc.build_graph(3, [(1, 2), (2, 3)])
    tree3 = RootedTree((None, 0, 0))
    bags3 = (Bag(frozenset({2}), CLIQUE), Bag(frozenset({1}), CLIQUE), Bag(frozenset({3}), CLIQUE))
    assert pc.validate_tree_partition(path, TreePartition(3, tree3, bags3)) is None
    triangle = pc.build_graph(3, [(1, 2), (2, 3), (1, 3)])
    violation3 = pc.validate_tree_partition(triangle, TreePartition(3, tree3, bags3))
    assert violation3.condition == "3" and violation3.node == 0


def test_validate_reports_wrong_n(p5_graph):
    tree = RootedTree((None,))
    tp = TreePartition(3, tree, (Bag(frozenset({1, 2, 3}), CLIQUE),))
    assert pc.validate_tree_partition(p5_graph, tp).condition == "partition"


def graph_fitting_bags(tp, p, rng):
    """Random graph on which tp passes (1) and (2); other cross-bag pairs are edges with prob. p."""
    node_of = helpers.node_of(tp)
    edges = set()
    for u in range(1, tp.n + 1):
        for v in range(u + 1, tp.n + 1):
            bag = tp.bags[node_of[u]]
            if node_of[v] != node_of[u]:
                keep = rng.random() < p
            elif bag.kind == P3:
                keep = abs(bag.p3_order.index(u) - bag.p3_order.index(v)) == 1
            else:
                keep = True
            if keep:
                edges.add((u, v))
    for v in range(1, tp.n + 1):
        a = tp.tree.parent[node_of[v]]
        while a is not None:
            w = rng.choice(tp.bags[a].sorted_members())
            edges.add((min(v, w), max(v, w)))
            a = tp.tree.parent[a]
    return pc.build_graph(tp.n, sorted(edges))


def test_validate_catches_every_edge_between_unrelated_bags():
    # no separate ancestor-edge check exists: (3) must catch every such edge
    rng = random.Random(11)
    caught = Counter()
    for _ in range(3000):
        tp = random_tree_partition(rng.randint(2, 8), rng)
        g = graph_fitting_bags(tp, rng.uniform(0.0, 0.6), rng)
        cross = reference_cross_nonedge(tp)
        if any(g.adj[v] & cross[v] for v in g.vertices()):
            violation = pc.validate_tree_partition(g, tp)
            assert violation is not None
            caught[violation.condition] += 1
    assert set(caught) == {"3"} and caught["3"] > 500, caught


def test_every_edge_ancestor_comparable_on_corpus(corpus_graphs):
    for _, g in corpus_graphs[:8]:
        tp = pc.build_tree_partition(g)
        node_of = {}
        for i, bag in enumerate(tp.bags):
            for v in bag.members:
                node_of[v] = i
        ancestors = [set() for _ in range(len(tp.tree.parent))]
        for node in tp.tree.preorder():
            p = tp.tree.parent[node]
            if p is not None:
                ancestors[node] = ancestors[p] | {p}
        for u, v in g.edges():
            s, t = node_of[u], node_of[v]
            assert s == t or s in ancestors[t] or t in ancestors[s]


def test_p3_bags_match_graph(corpus_graphs):
    for _, g in corpus_graphs:
        tp = pc.build_tree_partition(g)
        for bag in tp.bags:
            if bag.kind == P3:
                assert pc.as_induced_p3(g, bag.members) is not None
                a, b, c = bag.p3_order
                assert g.has_edge(a, b) and g.has_edge(b, c) and not g.has_edge(a, c)
            if len(bag.members) <= 2:
                assert bag.kind == CLIQUE


def test_format_tree_partition(p5_graph):
    tp = pc.build_tree_partition(p5_graph)
    dump = format_tree_partition(tp)
    assert dump == (
        "node 0: parent=- kind=p3 members=2,3,4 order=2-3-4\n"
        "node 1: parent=0 kind=clique members=1\n"
        "node 2: parent=0 kind=clique members=5\n"
    )


def test_bag_validation():
    with pytest.raises(ValueError):
        Bag(frozenset(), CLIQUE)
    with pytest.raises(ValueError):
        Bag(frozenset({1, 2, 3}), P3, (3, 2, 1))  # endpoints must ascend
    with pytest.raises(ValueError):
        Bag(frozenset({1, 2}), P3, None)
    with pytest.raises(ValueError):
        Bag(frozenset({1, 2}), CLIQUE, (1, 2, 3))


def test_rooted_tree_invariant():
    # node 0 is the root and every parent comes before its children: no
    # empty tree, no other root, no parent at or after its child, one root
    for parent in [(), (2, 2, None), (None, 2, 0), (None, 1), (None, None)]:
        with pytest.raises(ValueError):
            RootedTree(parent)
    assert REFERENCE_TREE.children() == ((1, 3, 4), (2,), (), (), (5, 8), (6, 7), (), (), ())
    assert list(REFERENCE_TREE.preorder()) == list(range(9))
    assert RootedTree((None, 0, 0, 1)).children() == ((1, 2), (3,), (), ())
    assert list(RootedTree((None, 0, 0, 1)).preorder()) == [0, 1, 3, 2]
