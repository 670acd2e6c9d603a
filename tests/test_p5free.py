import collections
import hashlib
import itertools
import random
from dataclasses import replace

import pytest

import p5cert as pc
from p5cert.codec import NeighborhoodRow, decode_certificate, encode_certificate, EncodedCertificate
from p5cert.errors import DisconnectedInput, MalformedCertificate, P5CertError, ThresholdViolation
from p5cert.framework import Verdict, format_run_report, local_view
from p5cert.graphs import first_known_p5, iter_bits
from p5cert import p5free
from p5cert.harness import (
    STRATEGIES,
    GeneratorSpec,
    _random_false_partition,
    honest_best_effort,
    p5free_corpus,
    repair_to_p5_free,
)
from p5cert.p5free import (
    Contradiction,
    _closure,
    _partition_index,
    _row_claims,
    _steps_iii_iv,
    _transpose,
    bag_is_small,
    ceil_sqrt,
    full_knowledge_map,
    scheme,
    verify,
)
from p5cert.treepart import CLIQUE, Bag, RootedTree, TreePartition
from helpers import (
    naive_transpose,
    random_graph,
    reference_bag_test,
    reference_closure,
    reference_cross_nonedge,
    reference_find_induced_path,
    reference_find_p5_known,
    reference_union_accepts,
)

SCHEME = scheme()

# chain partition of singletons; every vertex carries only its own row
K3_CERTS = {
    1: "110001001100110010100110001110101110",
    2: "101001001100110010100110001110110101",
    3: "011001001100110010100110001110111011",
}


def k5_with_pendants():
    """K5 core whose only dominating structure is the whole clique; n=14."""
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    for i, pendant in enumerate(range(6, 15)):
        edges.append((1 + i % 5, pendant))
    return pc.build_graph(14, edges)


def test_ceil_sqrt():
    assert [ceil_sqrt(n) for n in (1, 2, 4, 5, 9, 10, 14, 16, 17)] == [1, 2, 2, 3, 3, 4, 4, 4, 5]


def test_prove_k3_golden():
    certs = pc.prove(pc.build_graph(3, [(1, 2), (1, 3), (2, 3)]))
    assert {v: b.to01() for v, b in certs.items()} == K3_CERTS


def test_prove_succeeds_on_p5_graph(p5_graph):
    certs = pc.prove(p5_graph)
    assert set(certs) == set(range(1, 6))


def test_prove_rejects_disconnected():
    with pytest.raises(DisconnectedInput):
        pc.prove(pc.build_graph(4, [(1, 2), (3, 4)]))


def test_pieces_for_round_robin_arithmetic():
    g = k5_with_pendants()
    tp = pc.build_tree_partition(g)
    root_bag = tp.bags[0]
    assert root_bag.members == frozenset(range(1, 6))
    assert not bag_is_small(root_bag, g.n)  # 5 > ceil(sqrt(14)) = 4
    owners_union = set()
    for member in sorted(root_bag.members):
        rows = pc.pieces_for(g, tp, 0, member)
        assert rows[0].owner == member  # own row first
        assert len(rows) <= -(-14 // 5) + 1
        owners = [e.owner for e in rows]
        assert len(set(owners)) == len(owners)
        assert owners[1:] == sorted(owners[1:])
        owners_union.update(owners)
        for e in rows:
            assert e.row == g.adj[e.owner]
    assert owners_union == set(range(1, 15))


def test_pieces_for_threshold_violation(p5_graph):
    tp = pc.build_tree_partition(p5_graph)
    with pytest.raises(ThresholdViolation):
        pc.pieces_for(p5_graph, tp, 0, 3)  # P3 bag takes the small route
    with pytest.raises(ValueError):
        pc.pieces_for(p5_graph, tp, 0, 1)  # not a member


def test_pieces_coverage_random_big_cliques():
    rng = random.Random(31)
    for _ in range(100):
        core = rng.randint(5, 8)
        pendants = rng.randint(core, 12)
        n = core + pendants
        edges = [(u, v) for u in range(1, core + 1) for v in range(u + 1, core + 1)]
        for i in range(pendants):
            edges.append((1 + i % core, core + 1 + i))
        g = pc.build_graph(n, edges)
        tp = pc.build_tree_partition(g)
        bag = tp.bags[0]
        if bag_is_small(bag, n):
            continue
        covered = set()
        for member in bag.members:
            covered.update(e.owner for e in pc.pieces_for(g, tp, 0, member))
        assert covered == set(range(1, n + 1))


def test_prove_bundles_match_pieces_for():
    # prove deals every big bag's rows in one walk; pieces_for is one member's view
    for g in (k5_with_pendants(), pc.generate(GeneratorSpec("split", 80, 0.5, 6))):
        tp = pc.build_tree_partition(g)
        certs = pc.prove(g)
        big = [i for i, bag in enumerate(tp.bags) if not bag_is_small(bag, g.n)]
        assert big
        for node in big:
            for member in tp.bags[node].members:
                entries = decode_certificate(certs[member], g.n).pieces_part
                assert list(entries) == pc.pieces_for(g, tp, node, member)


def test_verify_accepts_big_clique_route():
    g = k5_with_pendants()
    report = pc.run(g, SCHEME)
    assert report.all_accept


def test_completeness_on_corpus(corpus_graphs):
    for spec, g in corpus_graphs:
        report = pc.run(g, SCHEME)
        assert report.all_accept, spec


def test_verify_honest_p5_rejections(p5_graph):
    report = pc.run(p5_graph, SCHEME)
    assert not report.all_accept
    v3 = report.verdicts[3]
    assert not v3.accept and v3.step == "v"


def test_verify_step_i_on_neighbor_bit_flip(p5_graph):
    certs = pc.prove(p5_graph)
    for u in p5_graph.vertices():
        mutated = dict(certs)
        mutated[u] = mutated[u].flip(u % 5)  # inside the n-bit neighbors part
        verdict = SCHEME.verifier(local_view(p5_graph, mutated, u))
        assert verdict.step == "i"


def test_verify_malformed_certificate(p5_graph):
    certs = pc.prove(p5_graph)
    mutated = dict(certs)
    mutated[2] = mutated[2].slice(0, mutated[2].length - 1)
    assert SCHEME.verifier(local_view(p5_graph, mutated, 2)).step == "malformed"
    # neighbors of 2 see the truncated certificate too
    assert SCHEME.verifier(local_view(p5_graph, mutated, 1)).step == "malformed"
    # vertex 4 does not see it and still rejects at step v (honest P5 run)
    assert SCHEME.verifier(local_view(p5_graph, mutated, 4)).step == "v"


def test_verify_step_ii_on_partitioning_mismatch(p5_graph):
    certs = pc.prove(p5_graph)
    dec = decode_certificate(certs[3], 5)
    other = pc.build_tree_partition(pc.build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]))
    swapped = EncodedCertificate(5, dec.neighbors_part, pc.encode_partitioning(other, 5), dec.pieces_part)
    mutated = dict(certs)
    mutated[3] = encode_certificate(swapped, 5)
    assert SCHEME.verifier(local_view(p5_graph, mutated, 2)).step == "ii"


def test_verify_step_iii_on_sibling_singletons(p5_graph):
    # claim the bags are root {1} with four sibling leaves {2}..{5}
    from p5cert.treepart import Bag, CLIQUE, RootedTree, TreePartition

    tree = RootedTree((None, 0, 0, 0, 0), ((1, 2, 3, 4), (), (), (), ()))
    bags = tuple(Bag(frozenset({v}), CLIQUE) for v in range(1, 6))
    false_bits = pc.encode_partitioning(TreePartition(5, tree, bags), 5)
    certs = pc.prove(p5_graph)
    mutated = {}
    for v, bits in certs.items():
        dec = decode_certificate(bits, 5)
        mutated[v] = encode_certificate(
            EncodedCertificate(5, dec.neighbors_part, false_bits, dec.pieces_part), 5
        )
    # vertex 5 is not adjacent to the claimed root bag {1}: domination fails;
    # vertex 2 has neighbor 3 in a sibling branch: separation fails
    assert SCHEME.verifier(local_view(p5_graph, mutated, 5)) == Verdict(
        False, "iii", "no neighbor in ancestor bag 0"
    )
    assert SCHEME.verifier(local_view(p5_graph, mutated, 2)) == Verdict(
        False, "iii", "neighbor 3 lies in an unrelated branch"
    )


def test_verify_step_iv_on_lying_pieces(p5_graph):
    certs = pc.prove(p5_graph)
    dec = decode_certificate(certs[3], 5)
    pieces = list(dec.pieces_part)
    idx = next(i for i, e in enumerate(pieces) if e.owner == 2)
    pieces[idx] = NeighborhoodRow(2, pieces[idx].row ^ 0b10000)
    mutated = dict(certs)
    mutated[3] = encode_certificate(
        EncodedCertificate(5, dec.neighbors_part, dec.partitioning_part, tuple(pieces)), 5
    )
    # bag member 2 is adjacent to 3 and compares pieces bit-for-bit
    assert SCHEME.verifier(local_view(p5_graph, mutated, 2)).step == "iv"


def test_knowledge_closure_vertex3_trace(p5_graph):
    certs = pc.prove(p5_graph)
    km = pc.knowledge_closure(local_view(p5_graph, certs, 3))
    assert km.known_pair_count() == 10
    for x, y in itertools.combinations(range(1, 6), 2):
        want = "edge" if abs(x - y) == 1 else "nonedge"
        assert km.status(x, y) == want
    # the endpoints' bags are incomparable leaves; nothing else reaches 3
    assert km.provenance[(1, 5)] == "cross-branch"


def test_knowledge_closure_vertex1_trace(p5_graph):
    certs = pc.prove(p5_graph)
    km = pc.knowledge_closure(local_view(p5_graph, certs, 1))
    assert km.status(4, 5) == "edge"  # row of 4 arrives via the root bag's pieces
    assert km.provenance[(4, 5)] == "pieces-row"
    assert km.status(1, 5) == "nonedge"


def test_knowledge_closure_contradiction(p5_graph):
    certs = pc.prove(p5_graph)
    dec = decode_certificate(certs[3], 5)
    pieces = list(dec.pieces_part)
    idx = next(i for i, e in enumerate(pieces) if e.owner == 2)
    pieces[idx] = NeighborhoodRow(2, pieces[idx].row ^ 0b10000)  # claim 2~5
    mutated = dict(certs)
    mutated[3] = encode_certificate(
        EncodedCertificate(5, dec.neighbors_part, dec.partitioning_part, tuple(pieces)), 5
    )
    with pytest.raises(Contradiction) as err:
        pc.knowledge_closure(local_view(p5_graph, mutated, 3))
    assert err.value.pair == (2, 5)


def test_injected_foreign_pieces_row_cannot_fool_anyone():
    # a big-clique member's pieces may mention vertices outside its subtree;
    # a fabricated row about such a vertex either contradicts a verified
    # source at some reader or adds only spurious knowledge, never hides a
    # real 5-path
    g = k5_with_pendants()
    certs = pc.prove(g)
    dec = decode_certificate(certs[1], g.n)
    forged = NeighborhoodRow(14, (g.adj[14] ^ 0b110) & ~(1 << 13))
    mutated = dict(certs)
    mutated[1] = encode_certificate(
        EncodedCertificate(g.n, dec.neighbors_part, dec.partitioning_part, dec.pieces_part + (forged,)),
        g.n,
    )
    # readers adjacent to 14 catch the forgery at step iv; readers that only
    # know 14's pairs through their own rows catch it as a contradiction
    verdicts = {v: SCHEME.verifier(local_view(g, mutated, v)) for v in g.vertices()}
    assert verdicts[4].step == "iv"
    assert verdicts[2].step == "v" and "contradictory" in verdicts[2].witness
    # vertices that never see the forged bundle still accept
    assert verdicts[14].accept and verdicts[7].accept


def test_golden_digest_provenance(corpus_graphs):
    # source tags of every known pair at 272 honest views, pinned
    h = hashlib.sha256()
    for _, g in corpus_graphs[::3]:
        certs = pc.prove(g)
        for v in g.vertices():
            km = pc.knowledge_closure(local_view(g, certs, v))
            h.update(repr(sorted(km.provenance.items())).encode())
    assert h.hexdigest() == "ce640691932cda77ed3695a30464f1c21b1bdca06acf513d3f198ad7ffade448"


def test_golden_digest_honest_verdicts(corpus_graphs):
    h = hashlib.sha256()
    for _, g in corpus_graphs:
        h.update(format_run_report(pc.run(g, SCHEME)).encode())
    assert h.hexdigest() == "f32ce424c2dacd464e85dbcdb39f11ca965786cb5a599b47aaaae672666d058e"


def test_golden_digest_prove_certificates(corpus_graphs):
    # certificate bytes of the corpus and of split n=512, pinned
    h = hashlib.sha256()
    graphs = [g for _, g in corpus_graphs]
    graphs += [pc.generate(GeneratorSpec("split", 512, 0.5, seed)) for seed in (1, 2, 3)]
    for g in graphs:
        h.update(pc.write_certificates(pc.prove(g)).encode())
    assert h.hexdigest() == "94d81bbb6ae714bc57be9d4d1bf617c28dbf1e6a669b4b4546d704338c8468cb"


def test_golden_digest_prove_certificates_cograph_1024():
    # certificate bytes at the headline size, where most bags are singletons
    h = hashlib.sha256()
    for seed in (1, 2):
        g = pc.generate(GeneratorSpec("cograph", 1024, 0.5, seed))
        h.update(pc.write_certificates(pc.prove(g)).encode())
    assert h.hexdigest() == "416595f6ea5c9818fbd40aa82aa2b2437d26cffef1e5ed9d3ebbdce70025d14d"


def test_golden_digest_prove_certificates_split_1024():
    # certificate bytes at the headline size, where the triple stages are
    # refuted before their walk over lowest members
    h = hashlib.sha256()
    for seed in (1, 3, 5):
        g = pc.generate(GeneratorSpec("split", 1024, 0.5, seed))
        h.update(pc.write_certificates(pc.prove(g)).encode())
    assert h.hexdigest() == "e83d337e736d95a44abc6a993ad2c0d6ce39c9e8ad01cc15b6aff83f77db6355"


def test_knowledge_soundness_on_corpus_sample(corpus_graphs):
    for _, g in corpus_graphs[:6]:
        certs = pc.prove(g)
        for v in list(g.vertices())[:8]:
            km = pc.knowledge_closure(local_view(g, certs, v), track_provenance=False)
            for x in g.vertices():
                assert km.edge[x] & ~g.adj[x] == 0
                assert km.nonedge[x] & g.adj[x] == 0


def test_find_known_p5_on_full_maps():
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert pc.find_known_induced_p5(full_knowledge_map(c5)) is None
    p5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    assert pc.find_known_induced_p5(full_knowledge_map(p5)) == (1, 2, 3, 4, 5)


def test_find_known_p5_needs_all_pairs_known():
    km = pc.KnowledgeMap(6, tuple([0] * 7), tuple([0] * 7))
    assert pc.find_known_induced_p5(km) is None


def blow_up(base: pc.KnowledgeMap, rng, perturb=0.0):
    """``base`` with each vertex a module of 1-3 copies, relabelled at random.

    Inside a module each pair is a random edge, non-edge or unknown; a pair
    across modules copies the base pair, except that a ``perturb`` share of
    them take a random status.
    """
    origin = [x for x in range(1, base.n + 1) for _ in range(rng.randint(1, 3))]
    rng.shuffle(origin)
    n = len(origin)
    edge, nonedge = [0] * (n + 1), [0] * (n + 1)
    for x, y in itertools.combinations(range(1, n + 1), 2):
        ox, oy = origin[x - 1], origin[y - 1]
        if ox == oy or rng.random() < perturb:
            status = rng.choice(["edge", "nonedge", "unknown"])
        else:
            status = base.status(ox, oy)
        rows = {"edge": edge, "nonedge": nonedge}.get(status)
        if rows is not None:
            rows[x] |= 1 << (y - 1)
            rows[y] |= 1 << (x - 1)
    return pc.KnowledgeMap(n, tuple(edge), tuple(nonedge))


def full_graph_of(km: pc.KnowledgeMap) -> pc.Graph:
    return pc.build_graph(km.n, [(x, y) for x in range(1, km.n + 1) for y in iter_bits(km.edge[x] >> x << x)])


def test_find_known_p5_matches_naive():
    rng = random.Random(33)
    graphs = [random_graph(rng.randint(5, 8), rng.choice([0.3, 0.5, 0.7]), rng) for _ in range(120)]
    # twin-rich full maps: the generated P5-free families, and blow-ups of
    # random graphs, with a 5-path or without
    graphs += [
        pc.generate(pc.GeneratorSpec(family, n, 0.5, seed))
        for family in ("cograph", "split", "p5free-repair")
        for n in (6, 12, 24, 48)
        for seed in (1, 2, 3)
    ]
    graphs += [
        full_graph_of(blow_up(full_knowledge_map(random_graph(rng.randint(3, 8), 0.5, rng)), rng, 0.02))
        for _ in range(150)
    ]
    outcomes = collections.Counter()
    for g in graphs:
        km = full_knowledge_map(g)
        got = pc.find_known_induced_p5(km)
        assert got == reference_find_induced_path(g, 5), g.adj
        removed = g.n - bin(p5free._drop_twins(km.edge, km.nonedge, g.n)[0]).count("1")
        outcomes["p5" if got else "free"] += 1
        outcomes["p5, twins removed"] += bool(got and removed)
        outcomes["removed"] += removed
    assert outcomes["p5"] > 50 and outcomes["free"] > 150 and outcomes["removed"] > 1000, outcomes
    # the witness comes from the reduced map, yet matches the full graph's
    assert outcomes["p5, twins removed"] > 40, outcomes


def random_partial_map(n, rng):
    edge, nonedge = [0] * (n + 1), [0] * (n + 1)
    p_edge, p_unknown = rng.choice([0.3, 0.5, 0.7]), rng.choice([0.0, 0.1, 0.25, 0.5])
    for x, y in itertools.combinations(range(1, n + 1), 2):
        r = rng.random()
        if r < p_unknown:
            continue
        rows = edge if r < p_unknown + (1 - p_unknown) * p_edge else nonedge
        rows[x] |= 1 << (y - 1)
        rows[y] |= 1 << (x - 1)
    return pc.KnowledgeMap(n, tuple(edge), tuple(nonedge))


def test_find_known_p5_matches_reference_on_partial_maps():
    rng = random.Random(77)
    found = 0
    for _ in range(3000):
        km = random_partial_map(rng.randint(5, 12), rng)
        want = reference_find_p5_known(km.edge, km.nonedge, km.n)
        assert pc.find_known_induced_p5(km) == want
        found += want is not None
    assert 500 < found < 2500  # both outcomes well represented


def test_find_known_p5_matches_reference_on_twin_rich_maps():
    rng = random.Random(91)
    outcomes = collections.Counter()
    for _ in range(2000):
        km = blow_up(random_partial_map(rng.randint(3, 8), rng), rng, rng.choice([0.0, 0.05]))
        rows = list(km.edge)
        for x in rng.sample(range(1, km.n + 1), rng.choice([0, 0, 1, 2])):
            rows[x] |= 1 << (x - 1)  # a row that lists its owner leaves a self bit in E
        km = pc.KnowledgeMap(km.n, tuple(rows), km.nonedge)
        want = reference_find_p5_known(km.edge, km.nonedge, km.n)
        assert first_known_p5(km.edge, km.nonedge, (1 << km.n) - 1) == want
        assert pc.find_known_induced_p5(km) == want
        alive, edge, nonedge = p5free._drop_twins(km.edge, km.nonedge, km.n)
        for x in iter_bits(alive):  # the map induced on the vertices left
            assert (edge[x], nonedge[x]) == (km.edge[x] & alive, km.nonedge[x] & alive)
        removed = km.n - bin(alive).count("1")
        outcomes["p5" if want else "free"] += 1
        outcomes["p5, twins removed"] += bool(want and removed)
        outcomes["removed"] += removed
    assert outcomes["free"] > 1000 and outcomes["p5, twins removed"] > 100 and outcomes["removed"] > 3000, outcomes


@pytest.mark.parametrize(
    "spec",
    [GeneratorSpec("split", n, 0.5, seed) for n, seed in ((80, 6), (128, 1), (160, 2))]
    + [GeneratorSpec("cograph", n, 0.5, 1) for n in (80, 128, 192, 256)]
    + [GeneratorSpec("with-p5", n, p, seed) for n, p, seed in ((24, 0.3, 1), (64, 0.2, 2), (128, 0.1, 3), (256, 0.05, 4))],
    ids=lambda spec: f"{spec.family}-{spec.n}-{spec.seed}",
)
def test_find_known_p5_matches_reference_on_full_maps(spec):
    # the full maps step (v) searches once per honest run (split, cograph),
    # and maps that hold a 5-path, where the search stops early
    km = full_knowledge_map(pc.generate(spec))
    want = reference_find_p5_known(km.edge, km.nonedge, km.n)
    assert (want is None) == (spec.family != "with-p5")
    assert first_known_p5(km.edge, km.nonedge, (1 << km.n) - 1) == want
    assert pc.find_known_induced_p5(km) == want


def map_of(n, edges, unknown=(), self_bits=()):
    """Full map of the graph on 1..n with ``edges``, but for the ``unknown``
    pairs, with self bits in E at ``self_bits``."""
    km = full_knowledge_map(pc.build_graph(n, edges))
    edge, nonedge = list(km.edge), list(km.nonedge)
    for x, y in unknown:
        for a, b in ((x, y), (y, x)):
            edge[a] &= ~(1 << (b - 1))
            nonedge[a] &= ~(1 << (b - 1))
    for x in self_bits:
        edge[x] |= 1 << (x - 1)
    return tuple(edge), tuple(nonedge)


@pytest.mark.parametrize(
    "extra, unknown, left",
    [
        ([(2, 5), (3, 5), (4, 5)], (), {1, 2, 3, 4}),  # 5 is a true twin of 3
        ([(2, 5), (4, 5)], (), {1, 2, 3, 4}),  # a false twin
        ([(2, 5), (4, 5)], [(3, 5)], {1, 2, 3, 4}),  # a twin across an unknown pair
        ([(1, 5), (2, 5), (3, 5), (4, 5)], (), {1, 2, 3, 4, 5}),  # 3 and 5 differ at 1 only
        ([(2, 5), (4, 5)], [(1, 5)], {1, 2, 3, 4, 5}),  # 1-3 known, 1-5 unknown
    ],
    ids=["true-twin", "false-twin", "unknown-twin", "edge-at-z", "unknown-at-z"],
)
def test_drop_twins_on_a_4_path_and_one_more_vertex(extra, unknown, left):
    edge, nonedge = map_of(5, [(1, 2), (2, 3), (3, 4)] + extra, unknown)
    alive, _, _ = p5free._drop_twins(edge, nonedge, 5)
    assert set(iter_bits(alive)) == left


@pytest.mark.parametrize("x", range(1, 6))
def test_self_bit_on_a_5_path_removes_nothing(x):
    edge, nonedge = map_of(5, [(1, 2), (2, 3), (3, 4), (4, 5)], self_bits=[x])
    alive, edge, nonedge = p5free._drop_twins(edge, nonedge, 5)
    assert alive == 0b11111
    assert first_known_p5(edge, nonedge, alive) == (1, 2, 3, 4, 5)


def test_drop_twins_reduces_a_cograph_to_one_vertex():
    for n in (2, 9, 48, 128):
        km = full_knowledge_map(pc.generate(pc.GeneratorSpec("cograph", n, 0.5, 1)))
        assert p5free._drop_twins(km.edge, km.nonedge, n)[0] == 1


def closure_outcome(closure, view):
    """The knowledge map or the clashing pair; None when undecodable."""
    n = view.n
    try:
        dec_u = decode_certificate(view.self_cert, n)
        dec_nbrs = [(w, decode_certificate(bw, n)) for w, bw in view.neighbors]
    except MalformedCertificate:
        return None
    pidx = _partition_index(dec_u.partitioning_part, n)
    if pidx is None:
        return None
    try:
        return closure(view.self_id, n, view.neighbor_ids_mask(), dec_u, dec_nbrs, pidx)
    except Contradiction as exc:
        return exc.pair


def closure_from_view_parts(u, n, nbr_mask, dec_u, dec_nbrs, pidx):
    """``_closure`` called as the reference closure is: on one view's parts."""
    return _closure(n, _row_claims(u, nbr_mask, dec_u, dec_nbrs), pidx)


def test_closure_matches_reference():
    views = []
    for spec in p5free_corpus()[::4]:
        g = pc.generate(spec)
        certs = pc.prove(g)
        views += [local_view(g, certs, v) for v in g.vertices()]
    p5_graphs = [g for g in pc.enumerate_connected_graphs(6) if not pc.oracle_is_p5_free(g)][::25]
    for i, g in enumerate(p5_graphs):
        for kind in STRATEGIES:
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 4, i)):
                views += [local_view(g, certs, v) for v in g.vertices()]
    outcomes = {"map": 0, "clash": 0}
    for view in views:
        want = closure_outcome(reference_closure, view)
        assert closure_outcome(closure_from_view_parts, view) == want
        if want is not None:
            outcomes["clash" if isinstance(want, tuple) else "map"] += 1
    assert min(outcomes.values()) > 50, outcomes


def test_cross_nonedge_matches_reference(corpus_graphs):
    partitions = [pc.build_tree_partition(g) for _, g in corpus_graphs]
    rng = random.Random(5)
    partitions += [_random_false_partition(rng.randint(1, 40), rng) for _ in range(1200)]
    nonempty = 0
    for tp in partitions:
        want = reference_cross_nonedge(tp)
        assert _partition_index(pc.encode_partitioning(tp, tp.n), tp.n).cross_nonedge == want
        nonempty += any(want)
    assert nonempty > 1000, nonempty


def test_bag_test_matches_role_reference():
    # every connected graph with n <= 5 and three with-p5 graphs, each under
    # its honest partition (of a P5-free repair where it has none) and under
    # random well-formed ones; rows are true and no pieces are carried, so a
    # vertex that passes step (iii) fails step (iv) at worst
    rng = random.Random(19)
    graphs = [g for n in range(1, 6) for g in pc.enumerate_connected_graphs(n)]
    graphs += [pc.generate(GeneratorSpec("with-p5", 24, 0.3, seed)) for seed in (1, 2, 3)]
    bag_witnesses = ("not adjacent to bag member", "own role in P3 bag")
    cases = collections.Counter()
    for g in graphs:
        try:
            honest = pc.build_tree_partition(g)
        except P5CertError:
            honest = pc.build_tree_partition(repair_to_p5_free(g, rng))
        for tp in [honest] + [_random_false_partition(g.n, rng) for _ in range(3 if g.n <= 5 else 40)]:
            part = pc.encode_partitioning(tp, g.n)
            pidx = _partition_index(part, g.n)
            dec = {v: EncodedCertificate(g.n, g.adj[v], part, ()) for v in g.vertices()}
            for u in g.vertices():  # the decoder renumbers nodes in preorder
                want = reference_bag_test(pidx.tp.bags[pidx.node_of[u]], u, g.adj[u])
                got = _steps_iii_iv(g.n, u, g.adj[u], dec[u], dec, pidx)
                if want is None:
                    cases["fits"] += 1
                    assert got is None or not got.witness.startswith(bag_witnesses), (g.adj, tp, u, got)
                else:
                    cases[want[0]] += 1
                    assert got == Verdict(False, "iii", want[1]), (g.adj, tp, u, got)
    assert len(cases) == 5 and min(cases.values()) >= 300, cases


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 65, 200, 1024])
def test_transpose_matches_naive_and_is_an_involution(n):
    rng = random.Random(n)
    rows = [0] + [rng.getrandbits(n) for _ in range(n)]
    t = _transpose(rows, n)
    assert t == naive_transpose(rows, n)
    assert _transpose(t, n) == rows


@pytest.mark.parametrize(
    "family, n",
    [("split", 256), ("cograph", 256), ("p5free-repair", 256), ("split", 1024), ("cograph", 1024)],
    ids=["split", "cograph", "p5free-repair", "split-1024", "cograph-1024"],
)
def test_completeness_above_64(family, n):
    g = pc.generate(pc.GeneratorSpec(family, n, 0.5, 1))
    if family == "split":  # a big clique bag: the round-robin pieces route
        assert not all(bag_is_small(bag, g.n) for bag in pc.build_tree_partition(g).bags)
    assert pc.run(g, SCHEME).all_accept


def test_verdict_invariants():
    with pytest.raises(ValueError):
        Verdict(True, "v", "spurious")
    with pytest.raises(ValueError):
        Verdict(False)


def test_first_failing_step_wins(p5_graph):
    # corrupt both the neighbor row and a pieces row of vertex 3: the
    # verifier must report step i, the earliest failure
    certs = pc.prove(p5_graph)
    dec = decode_certificate(certs[3], 5)
    pieces = list(dec.pieces_part)
    pieces[0] = NeighborhoodRow(pieces[0].owner, pieces[0].row ^ 0b10000)
    mutated = dict(certs)
    mutated[3] = encode_certificate(
        EncodedCertificate(5, dec.neighbors_part ^ 1, dec.partitioning_part, tuple(pieces)), 5
    )
    assert SCHEME.verifier(local_view(p5_graph, mutated, 3)).step == "i"


def test_small_and_big_threshold_agreement():
    # prover route and verifier route share one rule
    from p5cert.treepart import Bag, CLIQUE, P3

    assert bag_is_small(Bag(frozenset({1, 2, 3}), P3, (1, 2, 3)), 4)
    assert bag_is_small(Bag(frozenset({1, 2}), CLIQUE), 4)
    assert not bag_is_small(Bag(frozenset({1, 2, 3}), CLIQUE), 4)
    assert bag_is_small(Bag(frozenset({1, 2, 3}), CLIQUE), 9)


# --- verify_all against per-view verify --------------------------------------


def verify_all_traced(g, certs):
    """verify_all's verdicts, the vertices it sent to ``verdict_at``, and
    what its search on ``g`` found: None when it did not search, else
    whether it found a 5-path."""
    sent, found = set(), []
    search, per_vertex = p5free.find_known_induced_p5, p5free.verdict_at

    def search_probe(km):
        witness = search(km)
        found.append(witness is not None)
        return witness

    def verdict_probe(n, u, *args):
        sent.add(u)
        return per_vertex(n, u, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(p5free, "find_known_induced_p5", search_probe)
        mp.setattr(p5free, "verdict_at", verdict_probe)
        verdicts = p5free.verify_all(g, certs)
    assert len(found) <= 1, "the search on g runs at most once"
    return verdicts, sent, found[0] if found else None


def reference_outcome(g, certs):
    """``reference_union_accepts``'s decision, and whether its union closure
    raised."""
    raised = []
    closure = p5free._closure

    def closure_probe(*args):
        try:
            return closure(*args)
        except Contradiction:
            raised.append(True)
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(p5free, "_closure", closure_probe)
        accepts = reference_union_accepts(g, certs)
    return accepts, bool(raised)


def with_extra_foreign_row(g, tp, certs, node, rng):
    """The first member of big bag ``node`` also carries, in owner order, the
    row of a vertex outside the bag's subtree with one bit flipped; step (iv)
    never checks such a row."""
    subtree = tp.subtree_masks()[node]
    outside = [v for v in g.vertices() if not subtree >> (v - 1) & 1]
    x = rng.choice(outside)
    y = rng.choice([v for v in g.vertices() if v != x])
    first = tp.bags[node].sorted_members()[0]
    dec = decode_certificate(certs[first], g.n)
    own, rest = dec.pieces_part[0], dec.pieces_part[1:]
    rest = tuple(sorted(rest + (NeighborhoodRow(x, g.adj[x] ^ 1 << (y - 1)),), key=lambda e: e.owner))
    forged = dict(certs)
    forged[first] = encode_certificate(replace(dec, pieces_part=(own,) + rest), g.n)
    return forged


LOCAL_LIES = ("self bit", "dropped row", "other block")


def with_local_lie(g, tp, certs, kind, rng):
    """Honest certificates with one lie that only steps (i)-(iv) can see:
    the union of every vertex's own row and pieces rows stays free of
    contradictions.  None when ``g`` offers no place for it.

    - "self bit": a vertex u outside every big bag's subtree claims itself
      as a neighbor.  A self bit clashes with no row, and no step (iv)
      compares u's pieces row with its claimed row.
    - "dropped row": one vertex leaves out a pieces row that is not its own.
    - "other block": one vertex other than 1 flips a bit of its
      partitioning block."""
    dec = {v: decode_certificate(b, g.n) for v, b in certs.items()}
    if kind == "self bit":
        subtrees = [m for m, bag in zip(tp.subtree_masks(), tp.bags) if not bag_is_small(bag, g.n)]
        places = [v for v in g.vertices() if not any(m >> (v - 1) & 1 for m in subtrees)]
        if not places:
            return None
        u = rng.choice(places)
        forged = replace(dec[u], neighbors_part=dec[u].neighbors_part | 1 << (u - 1))
    elif kind == "dropped row":
        places = [v for v in g.vertices() if len(dec[v].pieces_part) > 1]
        if not places:
            return None
        u = rng.choice(places)
        drop = rng.choice([e for e in dec[u].pieces_part if e.owner != u])
        forged = replace(dec[u], pieces_part=tuple(e for e in dec[u].pieces_part if e != drop))
    else:
        u = rng.randint(2, g.n)
        part = dec[u].partitioning_part
        forged = replace(dec[u], partitioning_part=part.flip(rng.randrange(part.length)))
    return {**certs, u: encode_certificate(forged, g.n)}


def two_cliques_two_blocks(a, n, s1_high, rng):
    """Disjoint cliques S1 (a vertices) and S2, each side certified under
    its own block.  S1's block is true (S1 on top, S2 a chain below); S2's
    block puts S1's vertices in sibling leaves, so its cross-branch non-edge
    between two S1 vertices clashes at every S2 vertex with the true S1 rows
    in S2's pieces.  Every view passes steps (i)-(iv)."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    hi = max(ids[:a]) == n
    if hi != s1_high:  # put vertex n on the asked side
        j = ids.index(n)
        k = rng.randrange(a) if s1_high else rng.randrange(a, n)
        ids[j], ids[k] = ids[k], ids[j]
    s1, s2 = sorted(ids[:a]), sorted(ids[a:])
    edges = [(x, y) for side in (s1, s2) for x, y in itertools.combinations(side, 2)]
    g = pc.build_graph(n, edges)
    chain = TreePartition(
        n,
        RootedTree((None,) + tuple(range(n - a)), tuple((i + 1,) for i in range(n - a)) + ((),)),
        (Bag(frozenset(s1), CLIQUE),) + tuple(Bag(frozenset({v}), CLIQUE) for v in s2),
    )
    star = TreePartition(
        n,
        RootedTree((None,) + (0,) * a, (tuple(range(1, a + 1)),) + ((),) * a),
        (Bag(frozenset(s2), CLIQUE),) + tuple(Bag(frozenset({v}), CLIQUE) for v in s1),
    )
    bits_chain, bits_star = pc.encode_partitioning(chain, n), pc.encode_partitioning(star, n)
    s1_rows = tuple(NeighborhoodRow(v, g.adj[v]) for v in s1)
    s2_rows = dict(zip(s2, p5free._round_robin(g, tuple(s2), g.full_mask)))
    certs = {}
    for v in g.vertices():
        cert = EncodedCertificate(n, g.adj[v], bits_chain, s1_rows) if v in s1 else (
            EncodedCertificate(n, g.adj[v], bits_star, s2_rows[v])
        )
        certs[v] = encode_certificate(cert, n)
    return g, certs


def closed_neighborhood(g, u):
    return set(iter_bits(g.adj[u] | 1 << (u - 1)))


ONE_LIES = ("false own row", "false foreign pieces row", "second valid block")


def with_one_lie(g, tp, certs, kind, rng):
    """(u, certificates): honest ones where vertex u alone lies, or None
    when ``g`` offers no place for the lie.

    - "false own row": u claims its lowest non-neighbor as a neighbor.
    - "false foreign pieces row": u carries another vertex's pieces row with
      one bit flipped.
    - "second valid block": u holds the partition with one tree node's
      children in reverse order, a block that decodes to a valid tree
      partition of ``g`` but is not the one its neighbors hold."""
    dec = {v: decode_certificate(b, g.n) for v, b in certs.items()}
    if kind == "false own row":
        non = {v: g.full_mask & ~g.adj[v] & ~(1 << (v - 1)) for v in g.vertices()}
        u = rng.choice([v for v in g.vertices() if non[v]])
        forged = replace(dec[u], neighbors_part=g.adj[u] | non[u] & -non[u])
    elif kind == "false foreign pieces row":
        places = [(v, i) for v in g.vertices() for i, e in enumerate(dec[v].pieces_part) if e.owner != v]
        if not places:
            return None
        u, i = rng.choice(places)
        e = dec[u].pieces_part[i]
        y = rng.choice([w for w in g.vertices() if w != e.owner])
        rows = list(dec[u].pieces_part)
        rows[i] = NeighborhoodRow(e.owner, e.row ^ 1 << (y - 1))
        forged = replace(dec[u], pieces_part=tuple(rows))
    else:
        nodes = [i for i, kids in enumerate(tp.tree.children) if len(kids) > 1]
        if not nodes:
            return None
        node = rng.choice(nodes)
        children = list(tp.tree.children)
        children[node] = children[node][::-1]
        other = replace(tp, tree=RootedTree(tp.tree.parent, tuple(children)))
        u = rng.randint(1, g.n)
        forged = replace(dec[u], partitioning_part=pc.encode_partitioning(other, g.n))
        assert forged.partitioning_part != dec[u].partitioning_part
    return u, {**certs, u: encode_certificate(forged, g.n)}


def test_verify_all_one_lie_split_256():
    # the CI headline step's lie, at n = 256: vertex 5 claims its lowest non-neighbor
    g = pc.generate(GeneratorSpec("split", 256, 0.5, 1))
    certs = pc.prove(g)
    non = g.full_mask & ~g.adj[5] & ~(1 << 4)
    certs[5] = encode_certificate(replace(decode_certificate(certs[5], g.n), neighbors_part=g.adj[5] | non & -non), g.n)
    got, sent, p5_in_g = verify_all_traced(g, certs)
    assert got == {v: verify(local_view(g, certs, v)) for v in g.vertices()}
    assert got[5].step == "i" and sum(not d.accept for d in got.values()) > 1
    # verdict_at runs only at the views that hold vertex 5's certificate
    assert sent == closed_neighborhood(g, 5) and p5_in_g is False


def test_verify_all_matches_verify():
    cases = []  # (source, graph, certificates)
    expect_sent = {}  # case index -> N[u] of the one vertex u that lies
    for spec in p5free_corpus():
        g = pc.generate(spec)
        cases.append(("honest", g, pc.prove(g)))
    rng = random.Random(6)
    p5_graphs = [g for g in pc.enumerate_connected_graphs(6) if not pc.oracle_is_p5_free(g)]
    with_p5 = [pc.generate(GeneratorSpec("with-p5", 24, 0.3, seed)) for seed in (1, 2, 3)]
    for g in p5_graphs[::40] + with_p5:
        cases.append(("best effort", g, honest_best_effort(g, rng)))
    for i, g in enumerate(p5_graphs[::60] + with_p5):
        for kind in STRATEGIES:
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 2, i)):
                cases.append((kind, g, certs))
    for family in ("split", "p5free-repair", "cograph"):
        for n in (24, 32, 48, 64):
            for seed in range(1, 40):
                g = pc.generate(GeneratorSpec(family, n, 0.5, seed))
                tp = pc.build_tree_partition(g)
                for node in range(1, len(tp.bags)):
                    if not bag_is_small(tp.bags[node], n):
                        expect_sent[len(cases)] = closed_neighborhood(g, tp.bags[node].sorted_members()[0])
                        cases.append(("foreign row", g, with_extra_foreign_row(g, tp, pc.prove(g), node, rng)))
    for i in range(24):
        a, n = rng.choice([(2, 8), (2, 10), (3, 12), (3, 16)])
        cases.append(("two blocks", *two_cliques_two_blocks(a, n, i % 2 == 0, rng)))
    for spec in p5free_corpus():
        g = pc.generate(spec)
        tp, certs = pc.build_tree_partition(g), pc.prove(g)
        for kind in LOCAL_LIES:
            for _ in range(2):
                forged = with_local_lie(g, tp, certs, kind, rng)
                if forged is not None:
                    cases.append((kind, g, forged))

    for family, n, seed in (
        ("split", 64, 1), ("split", 96, 2), ("split", 128, 1), ("split", 256, 1),
        ("cograph", 64, 1), ("cograph", 128, 2), ("cograph", 256, 1),
    ):
        g = pc.generate(GeneratorSpec(family, n, 0.5, seed))
        tp, certs = pc.build_tree_partition(g), pc.prove(g)
        for kind in ONE_LIES:
            for _ in range(4):
                lie = with_one_lie(g, tp, certs, kind, rng)
                if lie is not None:
                    u, forged = lie
                    expect_sent[len(cases)] = closed_neighborhood(g, u)
                    cases.append((kind, g, forged))

    kinds = collections.Counter()  # what the inputs hold
    rejected = collections.Counter()  # lies of these families that some view rejects
    mixed = collections.Counter()  # one-lie cases where some views skip verdict_at and some do not
    union_raised = 0
    for i, (source, g, certs) in enumerate(cases):
        want = {v: verify(local_view(g, certs, v)) for v in g.vertices()}
        got, sent, p5_in_g = verify_all_traced(g, certs)
        assert got == want, source
        # the union closure of the first batch test accepts exactly when
        # every view skips verdict_at and accepts
        ref_accepts, ref_raised = reference_outcome(g, certs)
        assert ref_accepts == (not sent and all(d.accept for d in got.values())), source
        union_raised += ref_raised
        if i in expect_sent:
            assert sent == expect_sent[i], source
            mixed[source] += 0 < len(sent) < g.n
        dec = [p5free._decode(b, g.n) for b in certs.values()]
        kinds["clean"] += ref_accepts
        kinds["5-path in g"] += p5_in_g is True
        kinds["step (i)-(iv) reject"] += any(d.step in ("malformed", "i", "ii", "iii", "iv") for d in want.values())
        kinds["blocks differ"] += len({d.partitioning_part for d in dec if d is not None}) > 1
        kinds["false pieces row"] += any(e.row != g.adj[e.owner] for d in dec if d is not None for e in d.pieces_part)
        if source in ("two blocks",) + LOCAL_LIES and not all(d.accept for d in want.values()):
            rejected[source] += 1
    for kind in ("clean", "false pieces row", "5-path in g", "step (i)-(iv) reject", "blocks differ"):
        assert kinds[kind] >= 20, kinds
    assert union_raised >= 20, union_raised
    assert min(rejected[s] for s in ("two blocks",) + LOCAL_LIES) >= 20, rejected
    assert min(mixed[s] for s in ONE_LIES) >= 20, mixed
