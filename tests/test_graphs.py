import random
from collections import Counter

import pytest

import p5cert as pc
from p5cert.errors import (
    EmptySet,
    GraphFormatError,
    LoopEdge,
    OutOfRangeVertex,
    SubsetViolation,
)
from p5cert import harness, treepart
from p5cert.graphs import Graph, component_masks, set_of
from helpers import (
    naive_find_induced_path,
    random_graph,
    reference_component_masks,
    reference_find_induced_path,
)


def test_build_p5():
    g = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert g.edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]
    assert not g.has_edge(1, 3)


def test_build_single_vertex():
    g = pc.build_graph(1, [])
    assert g.n == 1 and g.adj == (0, 0)


def test_build_collapses_duplicates():
    g = pc.build_graph(3, [(1, 2), (1, 2), (2, 3)])
    assert g.edge_count() == 2


def test_build_rejects_bad_edges():
    with pytest.raises(OutOfRangeVertex):
        pc.build_graph(3, [(1, 4)])
    with pytest.raises(LoopEdge):
        pc.build_graph(3, [(2, 2)])


def test_build_round_trip_random():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 12)
        edges = {
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < 0.4
        }
        g = pc.build_graph(n, edges)
        assert set(g.edges()) == edges


def test_connected_components(p5_graph):
    assert pc.connected_components(p5_graph) == [frozenset(range(1, 6))]
    g = pc.build_graph(4, [(1, 2)])
    assert pc.connected_components(g) == [frozenset({1, 2}), frozenset({3}), frozenset({4})]
    empty = pc.build_graph(3, [])
    assert pc.connected_components(empty) == [frozenset({1}), frozenset({2}), frozenset({3})]


def test_components_partition_and_are_edgeless_between(p5_graph):
    rng = random.Random(4)
    for _ in range(60):
        g = random_graph(rng.randint(1, 10), 0.3, rng)
        comps = pc.connected_components(g)
        seen = set()
        for comp in comps:
            assert comp and not (comp & seen)
            seen |= comp
        assert seen == set(range(1, g.n + 1))
        for a in comps:
            for b in comps:
                if a is not b:
                    assert not any(g.has_edge(u, v) for u in a for v in b)


class _CountingRows(tuple):
    """Adjacency rows that log the index of every row read."""

    def __getitem__(self, v):
        self.reads.append(v)
        return tuple.__getitem__(self, v)


def _targeted_walk(g, within):
    """The visit order that ``component_masks`` documents, on vertex sets.

    Returns the rows it reads, in order, and per-round counts: ``hit`` (the
    targeted vertex has an unvisited frontier neighbour), ``drop`` (it has
    none) and ``early`` (a round that ends with frontier left unvisited).
    """
    reads, counts = [], Counter()
    todo = set_of(within)
    while todo:
        seed = min(todo)
        reads.append(seed)
        frontier = set_of(g.adj[seed]) & todo
        left = todo - frontier - {seed}
        while frontier and left:
            reached, want, unvisited = set(), set(left), set(frontier)
            while unvisited and want:
                r = min(want)
                reads.append(r)
                near = unvisited & set_of(g.adj[r])
                if near:
                    counts["hit"] += 1
                    v = min(near)
                else:
                    counts["drop"] += 1
                    want.discard(r)
                    v = min(unvisited)
                reads.append(v)
                unvisited.discard(v)
                reached |= set_of(g.adj[v]) & left
                want -= reached
            counts["early"] += bool(unvisited)
            left -= reached
            frontier = reached
        todo = left
    return reads, counts


def _check_components(g, within, counts):
    """component_masks agrees with the oracle and reads rows in the documented order."""
    rows = _CountingRows(g.adj)
    rows.reads = []
    got = component_masks(Graph(g.n, rows), within)
    assert got == reference_component_masks(g, within), (g.adj, within)
    reads, walked = _targeted_walk(g, within)
    assert rows.reads == reads, (g.adj, within)
    counts.update(walked)
    counts["several"] += len(got) > 1


def _assert_floors(counts, **floors):
    assert all(counts[k] >= floor for k, floor in floors.items()), (counts, floors)


def test_component_masks_matches_reference():
    rng = random.Random(12)
    counts = Counter()
    for _ in range(150):
        g = random_graph(rng.randint(1, 300), rng.choice([0.02, 0.05, 0.1, 0.2, 0.4, 0.6, 0.9]), rng)
        for _ in range(6):
            keep = rng.choice([1.0, 0.9, 0.5, 0.2, 0.05])
            within = sum(1 << i for i in range(g.n) if rng.random() < keep)
            _check_components(g, within, counts)
    _assert_floors(counts, several=200, hit=5000, drop=5000, early=500)


def test_component_masks_on_small_connected_graphs():
    """Every connected graph with n <= 6, whole and with each vertex removed."""
    counts = Counter()
    for n in range(1, 7):
        for g in harness.enumerate_connected_graphs(n):
            _check_components(g, g.full_mask, counts)
            for v in g.vertices():
                _check_components(g, g.full_mask & ~(1 << (v - 1)), counts)
    _assert_floors(counts, several=15000, hit=100000, drop=40000, early=70000)


def test_component_masks_on_prover_rests(monkeypatch):
    """Every rest that build_tree_partition splits on the prove-large graphs."""
    rests = []

    def recording(g, rest):
        rests.append((g, rest))
        return component_masks(g, rest)

    monkeypatch.setattr(treepart, "component_masks", recording)
    specs = [harness.GeneratorSpec("split", 512, 0.5, s) for s in (1, 2, 3)]
    specs += [harness.GeneratorSpec("cograph", 1024, 0.5, s) for s in (1, 2)]
    for spec in specs:
        treepart.build_tree_partition(harness.generate(spec))
    assert len(rests) >= 1500 and all(rest for _, rest in rests)
    counts = Counter()
    for g, rest in rests:
        _check_components(g, rest, counts)
    _assert_floors(counts, several=20, hit=1000, drop=700, early=900)


def test_is_clique(p5_graph):
    k4 = pc.build_graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert pc.is_clique(k4, {1, 2, 3, 4})
    assert not pc.is_clique(p5_graph, {2, 3, 4})
    assert pc.is_clique(p5_graph, {3})
    with pytest.raises(EmptySet):
        pc.is_clique(p5_graph, set())


def test_as_induced_p3(p5_graph):
    assert pc.as_induced_p3(p5_graph, {2, 3, 4}) == (2, 3, 4)
    triangle = pc.build_graph(3, [(1, 2), (1, 3), (2, 3)])
    assert pc.as_induced_p3(triangle, {1, 2, 3}) is None
    assert pc.as_induced_p3(p5_graph, {1, 3, 5}) is None
    # lower-id endpoint first regardless of center position
    g = pc.build_graph(3, [(1, 3), (2, 3)])
    assert pc.as_induced_p3(g, {1, 2, 3}) == (1, 3, 2)


def test_clique_and_p3_exclusive():
    rng = random.Random(5)
    for _ in range(80):
        g = random_graph(rng.randint(3, 8), 0.5, rng)
        for _ in range(10):
            s = rng.sample(range(1, g.n + 1), 3)
            assert not (pc.is_clique(g, s) and pc.as_induced_p3(g, s) is not None)


def test_is_dominating(p5_graph):
    within = set(range(1, 6))
    assert pc.is_dominating(p5_graph, {2, 3, 4}, within)
    assert not pc.is_dominating(p5_graph, {3}, within)
    assert pc.is_dominating(p5_graph, within, within)
    with pytest.raises(SubsetViolation):
        pc.is_dominating(p5_graph, {1}, {2, 3})


def test_find_induced_path_examples(p5_graph):
    assert pc.find_induced_path(p5_graph) == (1, 2, 3, 4, 5)
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert pc.find_induced_path(c5) is None
    c6 = pc.build_graph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    witness = pc.find_induced_path(c6)
    assert witness is not None and len(witness) == 5
    for i in range(5):
        for j in range(i + 1, 5):
            assert c6.has_edge(witness[i], witness[j]) == (j - i == 1)


def test_find_induced_path_matches_naive_small():
    rng = random.Random(6)
    for _ in range(150):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.4, 0.6]), rng)
        fast = pc.find_induced_path(g)
        naive = naive_find_induced_path(g, 5)
        assert (fast is None) == (naive is None)


def test_find_induced_path_matches_reference_small(connected_graphs):
    # the first path, tuple for tuple, against the recursive DFS
    graphs = [g for n in range(1, 7) for g in connected_graphs[n]]
    rng = random.Random(11)
    graphs += [random_graph(rng.randint(1, 16), rng.uniform(0.01, 0.99), rng) for _ in range(3000)]
    paths = [pc.find_induced_path(g) for g in graphs]
    for g, path in zip(graphs, paths):
        assert path == reference_find_induced_path(g, 5), g.adj
    late_start = sum(p is not None and p[0] > 1 for p in paths)
    # on the random graphs, the existence pass refutes or the extension search runs
    found = sum(p is not None for p in paths[-3000:])
    assert late_start > 2000 and 3000 - found > 1500 and found > 900, (late_start, found)


def test_find_induced_path_matches_reference_large(monkeypatch):
    # every intermediate graph of one p5free-repair run, then larger P5-free ones
    seen = []

    def checked(g):
        path = pc.find_induced_path(g)
        assert path == reference_find_induced_path(g, 5)
        seen.append(path)
        return path

    monkeypatch.setattr(harness, "find_induced_path", checked)
    pc.generate(pc.GeneratorSpec("p5free-repair", 64, 0.5, 1))
    assert len(seen) > 500 and seen[-1] is None, len(seen)
    assert sum(p is not None and p[0] > 1 for p in seen) > 40
    for family in ("split", "cograph"):
        for seed in (1, 2):
            g = pc.generate(pc.GeneratorSpec(family, 128, 0.5, seed))
            assert pc.find_induced_path(g) is None
            assert reference_find_induced_path(g, 5) is None


def test_graph_file_round_trip(p5_graph):
    text = pc.write_graph(p5_graph)
    assert text.splitlines()[0] == "p 5 4"
    assert pc.parse_graph(text) == p5_graph
    assert pc.parse_graph("c comment\n" + text) == p5_graph


_STRICT_ERRORS = {
    "p 3 2\ne 1 2\n": "p line announces 2 edges, file has 1",  # wrong m
    "p 3 1\ne 1 4\n": "line 2: edge (1,4) violates 1 <= u < v <= n",  # out of range
    "p 3 1\ne 2 1\n": "line 2: edge (2,1) violates 1 <= u < v <= n",  # u >= v
    "p 3 2\ne 1 2\ne 1 2\n": "line 3: duplicate edge (1,2)",  # duplicate
    "e 1 2\np 3 1\n": "line 1: e line before p line",  # e before p
    "p 3 1\nq 1 2\n": "line 2: unknown record 'q'",  # unknown record
    "p 3 1\ncx\ne 1 2\n": "line 2: unknown record 'cx'",  # only the token c starts a comment
    "": "missing p line",  # missing p
    # every number is ASCII -?[0-9]+; int() alone takes a sign, "_" and non-ASCII digits
    "p 3 2\ne 1 2\ne 2 +3\n": "line 3: non-integer e line",  # sign
    "p 3 1\ne 1 0x2\n": "line 2: non-integer e line",  # hex prefix
    "p 1_0 0\n": "line 1: non-integer p line",  # separator
    "p \uff13 2\n": "line 1: non-integer p line",  # full-width digit
    "p 3 1\ne 1 \u0662\n": "line 2: non-integer e line",  # Arabic-Indic digit
    "p 3 1\ne -1 2\n": "line 2: edge (-1,2) violates 1 <= u < v <= n",  # a minus sign is still read
    "p 3 -1\n": "line 1: bad counts in p line",
}


@pytest.mark.parametrize("text", list(_STRICT_ERRORS))
def test_graph_file_strict_errors(text):
    with pytest.raises(GraphFormatError) as exc:
        pc.parse_graph(text)
    assert str(exc.value) == _STRICT_ERRORS[text]


def test_graph_file_round_trip_headline_size():
    for family in ("cograph", "split"):
        g = pc.generate(pc.GeneratorSpec(family, 1024, 0.5, 1))
        text = pc.write_graph(g)
        assert pc.parse_graph(text) == g
        # a repeated first edge is caught on its own line, before the count
        first = text.splitlines()[1]
        with pytest.raises(GraphFormatError, match=f"^line {g.edge_count() + 2}: duplicate edge"):
            pc.parse_graph(text + first + "\n")
