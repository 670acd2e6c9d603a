import collections
import hashlib
import itertools
import random
import re
from dataclasses import replace

import pytest

import p5cert as pc
from p5cert.codec import NeighborhoodRow, decode_certificate, encode_certificate, EncodedCertificate
from p5cert.errors import DisconnectedInput, MalformedCertificate, NoDominatingStructure, P5CertError
from p5cert.framework import Verdict, format_run_report, local_view, max_cert_bits
from p5cert.graphs import Graph, first_known_p5, iter_bits
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
    _round_robin,
    _row_claims,
    _steps_iii_iv,
    _transpose,
    bag_is_small,
    ceil_sqrt,
    full_knowledge_map,
    scheme,
    verify,
)
from p5cert.treepart import CLIQUE, P3, Bag, RootedTree, TreePartition, build_tree_partition
import helpers
from helpers import (
    naive_transpose,
    pendant_clique,
    random_graph,
    reference_ancestor_misses,
    reference_bag_test,
    reference_closure,
    reference_cross_nonedge,
    reference_find_induced_path,
    reference_find_p5_known,
    reference_prove,
    reference_union_accepts,
    renumbered,
    spec_verify,
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
    members = root_bag.sorted_members()
    certs = pc.prove(g)
    for member, dealt in zip(members, _round_robin(members, tp.subtree_masks()[0])):
        rows = decode_certificate(certs[member], g.n).pieces_part
        assert tuple(e.owner for e in rows) == dealt
        assert rows[0].owner == member  # own row first
        assert len(rows) <= -(-14 // 5) + 1
        owners = [e.owner for e in rows]
        assert len(set(owners)) == len(owners)
        assert owners[1:] == sorted(owners[1:])
        owners_union.update(owners)
        for e in rows:
            assert e.row == g.adj[e.owner]
    assert owners_union == set(range(1, 15))


def random_big_clique_graphs():
    """100 seeded cliques of 5-8 vertices with pendants dealt round them."""
    rng = random.Random(31)
    for _ in range(100):
        core = rng.randint(5, 8)
        pendants = rng.randint(core, 12)
        n = core + pendants
        edges = [(u, v) for u in range(1, core + 1) for v in range(u + 1, core + 1)]
        for i in range(pendants):
            edges.append((1 + i % core, core + 1 + i))
        yield pc.build_graph(n, edges)


def test_pieces_coverage_random_big_cliques():
    for g in random_big_clique_graphs():
        n = g.n
        tp = pc.build_tree_partition(g)
        bag = tp.bags[0]
        if bag_is_small(bag, n):
            continue
        covered = set()
        for owners in _round_robin(bag.sorted_members(), tp.subtree_masks()[0]):
            covered.update(owners)
        assert covered == set(range(1, n + 1))


def test_pieces_entries_within_bound(connected_graphs, corpus_graphs):
    # a small clique bag has at most ceil(sqrt n) members, a P3 bag 3, and a
    # member of a big bag carries its own row and at most ceil(sqrt n) more;
    # the whole certificate stays within the codec's size bound B(n)
    graphs = [g for n in range(1, 7) for g in connected_graphs[n]]
    graphs += [g for _, g in corpus_graphs]
    graphs += [pc.generate(GeneratorSpec("split", 1024, 0.5, seed)) for seed in (1, 2, 3, 4)]
    graphs += [pc.generate(GeneratorSpec("cograph", 1024, 0.5, seed)) for seed in (1, 2)]
    graphs += [pendant_clique(s) for s in (16, 32)]  # the n^1.5 term of B(n)
    checked, worst, worst_bits = 0, 0.0, 0.0
    for g in graphs:
        try:
            certs = pc.prove(g)
        except NoDominatingStructure:
            continue
        bound = max(3, ceil_sqrt(g.n) + 1)
        for v, b in certs.items():
            entries = len(decode_certificate(b, g.n).pieces_part)
            assert entries <= bound, (g.n, v, entries)
            worst = max(worst, entries / bound)
        checked += len(certs)
        n, w = g.n, pc.idwidth(g.n)
        size_bound = n + (2 * w + 3) + (n * (2 * w + 3) - 2) + w + bound * (w + n)
        assert max_cert_bits(certs) <= size_bound, (n, max_cert_bits(certs), size_bound)
        worst_bits = max(worst_bits, max_cert_bits(certs) / size_bound)
    assert checked >= 169_328 and worst > 0.85 and worst_bits > 0.97, (checked, worst, worst_bits)


def prove_outcome(prove_fn, g):
    try:
        return "certs", list(prove_fn(g).items())
    except (P5CertError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def with_flawed_row(g, v, bit):
    """g with one more bit in v's row: a self loop (bit v - 1) or a vertex
    above n (bit n).  No graph constructor makes such rows; prove must
    refuse them as before."""
    adj = list(g.adj)
    adj[v] |= 1 << bit
    return Graph(g.n, tuple(adj))


def test_prove_matches_reference(monkeypatch, connected_graphs, corpus_graphs):
    # per-bag encoding gives the certificates, in the same order, or the
    # exception of encoding every vertex from scratch
    last = {}

    def build_once(g):  # both provers share the search; run it once per graph
        if last.get("g") is not g:
            last.clear()
            last["tp"] = build_tree_partition(g)
            last["g"] = g
        return last["tp"]

    monkeypatch.setattr(p5free, "build_tree_partition", build_once)
    monkeypatch.setattr(helpers, "build_tree_partition", build_once)
    graphs = [g for n in range(1, 7) for g in connected_graphs[n]]
    graphs += [g for _, g in corpus_graphs]
    specs = [("split", 512, s) for s in (1, 2, 3)] + [("split", 1024, s) for s in (1, 3, 4)]
    specs += [("cograph", 1024, s) for s in (1, 2)]
    graphs += [pc.generate(GeneratorSpec(family, n, 0.5, seed)) for family, n, seed in specs]
    graphs += random_big_clique_graphs()
    for _, g in corpus_graphs:
        if g.n <= 16:
            v = g.n // 2 + 1
            graphs += [with_flawed_row(g, v, v - 1), with_flawed_row(g, v, g.n)]
    tally = collections.Counter()
    for i, g in enumerate(graphs):
        want = prove_outcome(reference_prove, g)
        assert prove_outcome(p5free.prove, g) == want, (i, g.n)
        if want[0] == "certs":
            bags = last["tp"].bags
            tally["big bags"] += sum(not bag_is_small(bag, g.n) for bag in bags)
            tally["P3 bags"] += sum(bag.kind == P3 for bag in bags)
        tally[want[0]] += 1
    floors = {"certs": 27000, "P3 bags": 4000, "big bags": 100, "NoDominatingStructure": 400}
    floors.update({"ValueError": 12, "MalformedCertificate": 12})  # the flawed rows
    assert set(tally) == set(floors), tally
    assert all(tally[k] >= floor for k, floor in floors.items()), tally


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
    mutated[2] = pc.Bits(mutated[2].value >> 1, mutated[2].length - 1)
    assert SCHEME.verifier(local_view(p5_graph, mutated, 2)).step == "malformed"
    # neighbors of 2 see the truncated certificate too
    assert SCHEME.verifier(local_view(p5_graph, mutated, 1)).step == "malformed"
    # vertex 4 does not see it and still rejects at step v (honest P5 run)
    assert SCHEME.verifier(local_view(p5_graph, mutated, 4)).step == "v"


def test_verify_step_ii_on_partitioning_mismatch(p5_graph):
    certs = pc.prove(p5_graph)
    dec = decode_certificate(certs[3], 5)
    other = pc.build_tree_partition(pc.build_graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]))
    swapped = EncodedCertificate(dec.neighbors_part, pc.encode_partitioning(other, 5), dec.pieces_part)
    mutated = dict(certs)
    mutated[3] = encode_certificate(swapped, 5)
    assert SCHEME.verifier(local_view(p5_graph, mutated, 2)).step == "ii"


def test_verify_step_iii_on_sibling_singletons(p5_graph):
    # claim the bags are root {1} with four sibling leaves {2}..{5}
    from p5cert.treepart import Bag, CLIQUE, RootedTree, TreePartition

    tree = RootedTree((None, 0, 0, 0, 0))
    bags = tuple(Bag(frozenset({v}), CLIQUE) for v in range(1, 6))
    false_bits = pc.encode_partitioning(TreePartition(5, tree, bags), 5)
    certs = pc.prove(p5_graph)
    mutated = {}
    for v, bits in certs.items():
        dec = decode_certificate(bits, 5)
        mutated[v] = encode_certificate(
            EncodedCertificate(dec.neighbors_part, false_bits, dec.pieces_part), 5
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
        EncodedCertificate(dec.neighbors_part, dec.partitioning_part, tuple(pieces)), 5
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
        EncodedCertificate(dec.neighbors_part, dec.partitioning_part, tuple(pieces)), 5
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
        EncodedCertificate(dec.neighbors_part, dec.partitioning_part, dec.pieces_part + (forged,)),
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


def test_extra_row_claims_only_add_knowledge():
    # F2: an extra row claim only adds known pairs or contradictions, so it
    # never turns a reject into an accept; 1-3 random rows appended to the
    # claims of every n = 5 view, under honest and fuzzed certificates
    rng = random.Random(55)
    cases = []
    for i, g in enumerate(pc.enumerate_connected_graphs(5)):
        cases.append((g, honest_best_effort(g, rng)))
        if not pc.oracle_is_p5_free(g):
            kind = STRATEGIES[i % len(STRATEGIES)]
            cases += [(g, certs) for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 3, i))]

    def outcome(claims, pidx):
        try:
            return _closure(5, claims, pidx)
        except Contradiction:
            return None

    seen = collections.Counter()
    for g, certs in cases:
        dec = {}
        for v, b in certs.items():
            try:
                dec[v] = decode_certificate(b, 5)
            except MalformedCertificate:
                pass
        for u in g.vertices():
            nbrs = [(w, dec.get(w)) for w in iter_bits(g.adj[u])]
            if u not in dec or any(d is None for _, d in nbrs):
                continue
            pidx = _partition_index(dec[u].partitioning_part, 5)
            if pidx is None:
                continue
            claims = _row_claims(u, g.adj[u], dec[u], nbrs)
            before = outcome(claims, pidx)
            for _ in range(3):
                extras = []
                for _ in range(rng.randint(1, 3)):
                    owner = rng.randint(1, 5)
                    extras.append((owner, rng.getrandbits(5) & ~(1 << (owner - 1)), "extra"))
                after = outcome(claims + extras, pidx)
                if before is None:
                    assert after is None, (g.adj, u, extras)
                    seen["clash stays"] += 1
                elif after is None:
                    seen["new clash"] += 1
                else:
                    for x in range(1, 6):
                        assert before.edge[x] & ~after.edge[x] == 0, (g.adj, u, extras)
                        assert before.nonedge[x] & ~after.nonedge[x] == 0, (g.adj, u, extras)
                    seen["kept"] += 1
    for key, floor in {"kept": 250, "new clash": 10_000, "clash stays": 1000}.items():
        assert seen[key] >= floor, seen


def moved_subtrees(tp, rng, k):
    """Up to k partitions that each move one non-root node of tp under a
    node that is neither its descendant nor its parent, as its last child;
    renumbered in preorder."""
    tree = tp.tree
    children = tree.children()
    moves = []
    for x in range(1, len(tree.parent)):
        below, stack = set(), [x]
        while stack:
            node = stack.pop()
            below.add(node)
            stack.extend(children[node])
        moves += [(x, y) for y in range(len(tree.parent)) if y not in below and y != tree.parent[x]]
    out = []
    for x, y in rng.sample(moves, min(k, len(moves))):
        kids = [list(c) for c in children]
        kids[tree.parent[x]].remove(x)
        kids[y].append(x)
        out.append(renumbered(tp, kids))
    return out


def test_step_iii_everywhere_iff_valid_partition(connected_graphs):
    """F1: let every certificate carry its vertex's true row and one shared
    block.  Then step (iii) passes at every vertex exactly when the block is
    a valid tree partition of g: clique bags are cliques, P3 roles hold,
    every vertex has a neighbour in each strict ancestor bag, and no edge
    crosses branches.

    On every connected graph with n <= 5 and every 10th with n = 6: the
    builder's partition when it succeeds, 4 moves of one of its subtrees
    and 3 unrelated partitions."""
    rng = random.Random(23)
    graphs = [g for n in range(1, 6) for g in connected_graphs[n]] + connected_graphs[6][::10]
    seen = collections.Counter()
    for g in graphs:
        n = g.n
        partitions = [_random_false_partition(n, rng) for _ in range(3)]
        try:
            tp = build_tree_partition(g)
        except NoDominatingStructure:
            pass
        else:
            partitions += [tp, *moved_subtrees(tp, rng, 4)]
        for tp in partitions:
            block = pc.encode_partitioning(tp, n)
            dec_of = {v: EncodedCertificate(g.adj[v], block, ()) for v in g.vertices()}
            steps = {p5free.verdict_at(n, v, g.adj[v], dec_of).step for v in g.vertices()}
            assert not steps & {"malformed", "i", "ii"}, (g.adj, tp, steps)
            violation = pc.validate_tree_partition(g, tp)
            assert ("iii" in steps) == (violation is not None), (g.adj, tp, violation)
            seen["valid" if violation is None else violation.condition] += 1
    for outcome, floor in {"valid": 3050, "1": 7250, "2": 9200, "3": 3450}.items():
        assert seen[outcome] >= floor, seen


PIECES_EDITS = ("flip", "other row", "drop", "move", "copy")


def edit_pieces(g, dec_of, kind, rng):
    """``dec_of`` with one pieces entry of a random vertex edited, or None
    when ``g`` offers no place for the edit.

    - "flip": one bit of the entry's row flips.
    - "other row": the row becomes another vertex's true row, one that
      differs from it.
    - "drop": the entry is left out.
    - "move" / "copy": another vertex gets the entry too, in owner order;
      a move leaves it out where it was."""
    u = rng.choice(list(g.vertices()))
    pieces = list(dec_of[u].pieces_part)
    i = rng.randrange(len(pieces))
    e = pieces[i]
    out = dict(dec_of)
    if kind == "flip":
        y = rng.choice([w for w in g.vertices() if w != e.owner])
        pieces[i] = NeighborhoodRow(e.owner, e.row ^ 1 << (y - 1))
    elif kind == "other row":
        rows = [g.adj[w] for w in g.vertices() if g.adj[w] != e.row and not g.adj[w] >> (e.owner - 1) & 1]
        if not rows:
            return None
        pieces[i] = NeighborhoodRow(e.owner, rng.choice(rows))
    else:
        if kind != "copy":
            del pieces[i]
        if kind != "drop":
            w = rng.choice([x for x in g.vertices() if x != u])
            out[w] = replace(out[w], pieces_part=tuple(sorted(out[w].pieces_part + (e,), key=lambda r: r.owner)))
    out[u] = replace(out[u], pieces_part=tuple(pieces))
    return out


def test_pieces_true_when_step_iv_passes_everywhere(corpus_graphs):
    """F1, second half: let every certificate carry its vertex's true row
    and one shared valid block.  If no vertex stops at step (iv), then every
    pieces entry of a small-bag member is a true row, and so is every entry
    of a big-bag member whose owner lies in the bag's subtree (entries owned
    outside it are never checked).

    20 seeded edits of the honest pieces per graph, on the big-clique graphs
    and the corpus; the floors are about 85% of the measured counts.  Every
    pass so far is on a graph with a big bag."""
    rng = random.Random(24)
    graphs = list(random_big_clique_graphs()) + [g for _, g in corpus_graphs]
    seen = collections.Counter()
    for g in graphs:
        n = g.n
        tp = build_tree_partition(g)
        subtree = tp.subtree_masks()
        checked = {}  # per vertex: the owners whose entries step (iv) answers for
        for node, bag in enumerate(tp.bags):
            for v in bag.members:
                checked[v] = g.full_mask if bag_is_small(bag, n) else subtree[node]
        honest = {v: decode_certificate(b, n) for v, b in pc.prove(g).items()}
        for _ in range(20):
            kind = rng.choice(PIECES_EDITS)
            dec_of = edit_pieces(g, honest, kind, rng)
            if dec_of is None:
                continue
            steps = {p5free.verdict_at(n, v, g.adj[v], dec_of).step for v in g.vertices()}
            assert not steps & {"malformed", "i", "ii", "iii"}, (g.adj, kind, steps)
            if "iv" in steps:
                seen[kind] += 1
                continue
            for v, d in dec_of.items():
                for e in d.pieces_part:
                    if checked[v] >> (e.owner - 1) & 1:
                        assert e.row == g.adj[e.owner], (g.adj, kind, v, e)
            seen["passes"] += 1
    floors = {"passes": 205, "flip": 435, "other row": 395, "drop": 440, "move": 365, "copy": 285}
    for outcome, floor in floors.items():
        assert seen[outcome] >= floor, seen


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
    # vertex that passes step (iii) fails step (iv) at worst.  Where the bag
    # test passes, the ancestor test must name the highest ancestor bag that
    # holds no neighbour, as the root-first walk does
    rng = random.Random(19)
    graphs = [g for n in range(1, 6) for g in pc.enumerate_connected_graphs(n)]
    graphs += [pc.generate(GeneratorSpec("with-p5", 24, 0.3, seed)) for seed in (1, 2, 3)]
    bag_witnesses = ("not adjacent to bag member", "own role in P3 bag")
    cases = collections.Counter()
    multi_miss = 0  # views missing two or more ancestor bags
    for g in graphs:
        try:
            honest = pc.build_tree_partition(g)
        except P5CertError:
            honest = pc.build_tree_partition(repair_to_p5_free(g, rng))
        for tp in [honest] + [_random_false_partition(g.n, rng) for _ in range(3 if g.n <= 5 else 40)]:
            part = pc.encode_partitioning(tp, g.n)
            pidx = _partition_index(part, g.n)
            dec = {v: EncodedCertificate(g.adj[v], part, ()) for v in g.vertices()}
            for u in g.vertices():  # the decoder renumbers nodes in preorder
                want = reference_bag_test(pidx.tp.bags[pidx.node_of[u]], u, g.adj[u])
                got = _steps_iii_iv(g.n, u, g.adj[u], dec, pidx)
                if want is None:
                    cases["fits"] += 1
                    assert got is None or not got.witness.startswith(bag_witnesses), (g.adj, tp, u, got)
                    misses = reference_ancestor_misses(pidx.tp.tree, pidx.members_mask, pidx.node_of[u], g.adj[u])
                    if misses:
                        assert got == Verdict(False, "iii", f"no neighbor in ancestor bag {misses[0]}"), (g.adj, tp, u, got)
                    else:
                        assert got is None or not got.witness.startswith("no neighbor in ancestor bag"), (g.adj, tp, u, got)
                    multi_miss += len(misses) >= 2
                else:
                    cases[want[0]] += 1
                    assert got == Verdict(False, "iii", want[1]), (g.adj, tp, u, got)
    assert len(cases) == 5 and min(cases.values()) >= 300, cases
    assert multi_miss >= 300, multi_miss


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
        EncodedCertificate(dec.neighbors_part ^ 1, dec.partitioning_part, tuple(pieces)), 5
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
    """verify_all's verdicts; the route each vertex took: the vertices it
    sent to ``verdict_at``, the vertices it sent to ``_steps_iii_iv``, and
    the vertices the node tests settled; and what its search on ``g``
    found: None when it did not search, else whether it found a 5-path."""
    sent, stepped, found = set(), set(), []
    settled_mask = 0
    search, per_vertex, steps, node_tests = p5free.is_p5_free, p5free.verdict_at, p5free._steps_iii_iv, p5free._settled

    def search_probe(g):
        free = search(g)
        found.append(not free)
        return free

    def verdict_probe(n, u, *args):
        sent.add(u)
        return per_vertex(n, u, *args)

    def steps_probe(n, u, *args):
        if u not in sent:  # verdict_at at u calls it too
            stepped.add(u)
        return steps(n, u, *args)

    def settled_probe(*args):
        nonlocal settled_mask
        ok = node_tests(*args)
        settled_mask |= ok
        return ok

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(p5free, "is_p5_free", search_probe)
        mp.setattr(p5free, "verdict_at", verdict_probe)
        mp.setattr(p5free, "_steps_iii_iv", steps_probe)
        mp.setattr(p5free, "_settled", settled_probe)
        verdicts = p5free.verify_all(g, certs)
    assert len(found) <= 1, "the search on g runs at most once"
    settled = set() if found == [True] else set(iter_bits(settled_mask))  # a 5-path in g voids the node tests
    assert not (sent & stepped or settled & (sent | stepped)), "one route per vertex"
    assert sent | stepped | settled == set(g.vertices())
    assert all(verdicts[v].accept for v in settled)
    return verdicts, sent, stepped, settled, found[0] if found else None


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
        RootedTree((None,) + tuple(range(n - a))),
        (Bag(frozenset(s1), CLIQUE),) + tuple(Bag(frozenset({v}), CLIQUE) for v in s2),
    )
    star = TreePartition(
        n,
        RootedTree((None,) + (0,) * a),
        (Bag(frozenset(s2), CLIQUE),) + tuple(Bag(frozenset({v}), CLIQUE) for v in s1),
    )
    bits_chain, bits_star = pc.encode_partitioning(chain, n), pc.encode_partitioning(star, n)
    s1_rows = tuple(NeighborhoodRow(v, g.adj[v]) for v in s1)
    s2_rows = {
        v: tuple(NeighborhoodRow(o, g.adj[o]) for o in owners)
        for v, owners in zip(s2, p5free._round_robin(tuple(s2), g.full_mask))
    }
    certs = {}
    for v in g.vertices():
        cert = EncodedCertificate(g.adj[v], bits_chain, s1_rows) if v in s1 else (
            EncodedCertificate(g.adj[v], bits_star, s2_rows[v])
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
        children = list(tp.tree.children())
        nodes = [i for i, kids in enumerate(children) if len(kids) > 1]
        if not nodes:
            return None
        node = rng.choice(nodes)
        children[node] = children[node][::-1]
        other = renumbered(tp, children)
        u = rng.randint(1, g.n)
        forged = replace(dec[u], partitioning_part=pc.encode_partitioning(other, g.n))
        assert forged.partitioning_part != dec[u].partitioning_part
    return u, {**certs, u: encode_certificate(forged, g.n)}


def test_honest_run_leaves_nothing_in_the_view_caches(corpus_graphs):
    # the batch verifier decodes past _decode's cache and searches g through
    # is_p5_free, so an honest run leaves one partition index per block
    graphs = [g for _, g in corpus_graphs] + [pc.generate(GeneratorSpec("split", 512, 0.5, 1))]
    searched, blocks = [], set()
    search = p5free.is_p5_free
    for cached in (p5free._decode, p5free._partition_index, p5free._find_p5_known):
        cached.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(p5free, "is_p5_free", lambda g: searched.append(g) or search(g))
        for g in graphs:
            certs = pc.prove(g)
            assert pc.run(g, SCHEME, certs).all_accept
            blocks |= {(decode_certificate(b, g.n).partitioning_part, g.n) for b in certs.values()}
    assert [id(g) for g in searched] == [id(g) for g in graphs], "the search on g runs once per run"
    assert p5free._decode.cache_info().currsize == 0
    assert p5free._find_p5_known.cache_info().currsize == 0
    assert 0 < p5free._partition_index.cache_info().currsize <= len(blocks)


def test_verify_all_one_lie_split_256():
    # the CI headline step's lie, at n = 256: vertex 5 claims its lowest non-neighbor
    g = pc.generate(GeneratorSpec("split", 256, 0.5, 1))
    certs = pc.prove(g)
    non = g.full_mask & ~g.adj[5] & ~(1 << 4)
    certs[5] = encode_certificate(replace(decode_certificate(certs[5], g.n), neighbors_part=g.adj[5] | non & -non), g.n)
    got, sent, stepped, settled, p5_in_g = verify_all_traced(g, certs)
    assert got == {v: verify(local_view(g, certs, v)) for v in g.vertices()}
    assert got[5].step == "i" and sum(not d.accept for d in got.values()) > 1
    # verdict_at runs only at the views that hold vertex 5's certificate,
    # and the node tests settle every other vertex
    assert sent == closed_neighborhood(g, 5) and p5_in_g is False
    assert not stepped and settled == set(g.vertices()) - sent


def _fallback_reason(d):
    """Why the node tests left a vertex with verdict ``d`` to ``_steps_iii_iv``."""
    if d.accept:
        return "accept"
    for why, prefix in (
        ("ancestor", "no neighbor in ancestor bag"),
        ("coverage gap", "no visible row for subtree vertex"),
        ("differing pieces", "pieces differ from bag member"),
        ("differing pieces", "pieces owners are not exactly"),
    ):
        if d.witness.startswith(prefix):
            return why
    return d.witness


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

    # honest big clique bags, and the largest honest proof checked at every view
    for g in list(random_big_clique_graphs()) + [pc.generate(GeneratorSpec("split", 512, 0.5, 1))]:
        cases.append(("honest", g, pc.prove(g)))
    # F1's moved subtrees, certified with true rows, where a vertex has no
    # neighbor in an ancestor bag: the node tests must send it to step (iii)
    rng = random.Random(27)
    for family in ("split", "p5free-repair", "cograph"):
        for seed in range(1, 13):
            g = pc.generate(GeneratorSpec(family, 24, 0.5, seed))
            for tp in moved_subtrees(pc.build_tree_partition(g), rng, 4):
                violation = pc.validate_tree_partition(g, tp)
                if violation is not None and violation.condition == "2":
                    cases.append(("moved subtree", g, reference_prove(g, tp)))
    # a member of a big bag drops a pieces row, which can leave a coverage gap
    for g in random_big_clique_graphs():
        forged = with_local_lie(g, pc.build_tree_partition(g), pc.prove(g), "dropped row", rng)
        if forged is not None:
            cases.append(("dropped row", g, forged))

    kinds = collections.Counter()  # what the inputs hold
    rejected = collections.Counter()  # lies of these families that some view rejects
    mixed = collections.Counter()  # one-lie cases where some views skip verdict_at and some do not
    routes = collections.Counter()  # vertices settled by node tests, and next to a second block
    fallback = collections.Counter()  # (source, why) of the vertices sent to _steps_iii_iv
    union_raised = 0
    for i, (source, g, certs) in enumerate(cases):
        want = {v: verify(local_view(g, certs, v)) for v in g.vertices()}
        got, sent, stepped, settled, p5_in_g = verify_all_traced(g, certs)
        assert got == want, source
        routes["settled"] += len(settled)
        for v in stepped:
            fallback[source, _fallback_reason(got[v])] += 1
        # a vertex whose closed neighborhood holds two blocks, or a
        # certificate that does not decode, is no block's to settle
        dec = {v: p5free._decode(b, g.n) for v, b in certs.items()}
        held = {v: {dec[w] and dec[w].partitioning_part for w in closed_neighborhood(g, v)} for v in g.vertices()}
        boundary = {v for v, blocks in held.items() if len(blocks) > 1 or None in blocks}
        assert boundary <= sent, source
        routes["next to a second block", source] += len(boundary)
        # the union closure of the first batch test accepts exactly when
        # every view skips verdict_at and accepts
        ref_accepts, ref_raised = reference_outcome(g, certs)
        assert ref_accepts == (not sent and all(d.accept for d in got.values())), source
        union_raised += ref_raised
        if i in expect_sent:
            assert sent == expect_sent[i], source
            mixed[source] += 0 < len(sent) < g.n
        kinds["clean"] += ref_accepts
        kinds["5-path in g"] += p5_in_g is True
        kinds["step (i)-(iv) reject"] += any(d.step in ("malformed", "i", "ii", "iii", "iv") for d in want.values())
        kinds["blocks differ"] += len({d.partitioning_part for d in dec.values() if d is not None}) > 1
        kinds["false pieces row"] += any(e.row != g.adj[e.owner] for d in dec.values() if d is not None for e in d.pieces_part)
        if source in ("two blocks",) + LOCAL_LIES and not all(d.accept for d in want.values()):
            rejected[source] += 1
    for kind in ("clean", "false pieces row", "5-path in g", "step (i)-(iv) reject", "blocks differ"):
        assert kinds[kind] >= 20, kinds
    assert union_raised >= 20, union_raised
    assert min(rejected[s] for s in ("two blocks",) + LOCAL_LIES) >= 20, rejected
    assert min(mixed[s] for s in ONE_LIES) >= 20, mixed
    # the node tests settle most honest vertices, and leave to _steps_iii_iv
    # each kind of vertex they cannot vouch for
    assert routes["settled"] >= 11_000, routes
    for why, source, floor in (
        ("ancestor", "moved subtree", 60),
        ("coverage gap", "dropped row", 500),
        ("differing pieces", "dropped row", 100),
    ):
        assert fallback[source, why] >= floor, fallback
    # a block settles only its own ready vertices
    assert routes["next to a second block", "second valid block"] >= 2000, routes
    assert routes["next to a second block", "other block"] >= 800, routes


def test_verify_all_settles_split_1024():
    # honest split n = 1024 seed 1: the node tests settle every vertex; the
    # per-vertex steps (iii)-(iv) pass everywhere, and per-view verdict_at
    # agrees at a seeded sample (all 1024 views take two minutes)
    g = pc.generate(GeneratorSpec("split", 1024, 0.5, 1))
    certs = pc.prove(g)
    got, sent, stepped, settled, p5_in_g = verify_all_traced(g, certs)
    assert settled == set(g.vertices()) and p5_in_g is False
    dec = {v: p5free._decode.__wrapped__(b, g.n) for v, b in certs.items()}
    pidx = _partition_index(dec[1].partitioning_part, g.n)
    assert all(_steps_iii_iv(g.n, v, g.adj[v], dec, pidx) is None for v in g.vertices())
    for v in random.Random(27).sample(range(1, g.n + 1), 12):
        assert p5free.verdict_at(g.n, v, g.adj[v], dec) == got[v]


# --- the whole verdict against the spec verifier ------------------------------


def spec_trial_sample():
    """(graph, certificates) of every adversary trial on every 60th connected
    6-vertex graph with an induced P5 (5 strategies x 4 trials) and on
    with-p5 n = 24 seeds 1-3 (5 strategies x 2 trials)."""
    p5_graphs = [g for g in pc.enumerate_connected_graphs(6) if not pc.oracle_is_p5_free(g)][::60]
    with_p5 = [pc.generate(GeneratorSpec("with-p5", 24, 0.3, seed)) for seed in (1, 2, 3)]
    for i, g in enumerate(p5_graphs + with_p5):
        for kind in STRATEGIES:
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 4 if g.n == 6 else 2, i)):
                yield g, certs


def witness_path(d):
    """The 5-path a step (v) verdict names, or None."""
    m = re.fullmatch(r"induced 5-path (\S+) fully known", d.witness or "")
    return m and tuple(map(int, m[1].split("-")))


def test_verdicts_match_spec(corpus_graphs):
    # at every vertex, verdict_at and verify_all accept or stop at the step
    # the spec verifier names, and below n = 9 name its 5-path; inputs:
    # fuzz trials, and honest proofs with and without one local lie
    cases = list(spec_trial_sample())
    rng = random.Random(25)
    for g in [g for spec, g in corpus_graphs if spec.n <= 16] + list(random_big_clique_graphs()):
        tp, certs = pc.build_tree_partition(g), pc.prove(g)
        cases.append((g, certs))
        for kind in LOCAL_LIES:
            forged = with_local_lie(g, tp, certs, kind, rng)
            if forged is not None:
                cases.append((g, forged))
        for kind in ONE_LIES:
            lie = with_one_lie(g, tp, certs, kind, rng)
            if lie is not None:
                cases.append((g, lie[1]))
    outcomes = collections.Counter()
    for g, certs in cases:
        dec = {v: p5free._decode(b, g.n) for v, b in certs.items()}
        batch = p5free.verify_all(g, certs)
        for u in g.vertices():
            step, path = spec_verify(g, certs, u)
            for d in (p5free.verdict_at(g.n, u, g.adj[u], dec), batch[u]):
                assert (d.accept, d.step) == (step is None, step), (g, certs, u, d)
                if g.n <= 8:
                    assert witness_path(d) == path, (g, certs, u, d)
            outcomes[step or "accept"] += 1
    floors = {"accept": 7675, "malformed": 1950, "i": 2005, "ii": 2695, "iii": 1845, "iv": 2480, "v": 3320}
    assert all(outcomes[k] >= floor for k, floor in floors.items()), outcomes


def verdicts_of(g, dec):
    return {u: p5free.verdict_at(g.n, u, g.adj[u], dec) for u in g.vertices()}


def test_extra_pieces_entry_turns_only_step_iv_rejections(corpus_graphs):
    # F2 through the whole verdict: one more pieces entry adds rows to step
    # (v)'s fold and leaves malformed, (i), (ii) and (iii) as they were, so
    # a rejection at any of them or at (v) stays a rejection.  Only a step
    # (iv) rejection may turn into an accept: the entry can complete a big
    # bag's coverage or restore a small bag's shared pieces.
    rng = random.Random(2502)
    changes = collections.Counter()

    def check(g, before, after, edited):
        old, new = verdicts_of(g, before), verdicts_of(g, after)
        for u in g.vertices():
            if old[u].step != "iv":
                assert old[u].accept or not new[u].accept, (g, u, old[u])
            if old[u].step != new[u].step:
                changes[f"{old[u].step or 'accept'} -> {new[u].step or 'accept'}"] += 1
            changes["v held"] += old[u].step == "v" and edited in closed_neighborhood(g, u)

    cases = list(spec_trial_sample())
    cases += [(g, pc.prove(g)) for spec, g in corpus_graphs if spec.n <= 32]
    for g, certs in cases:
        dec = {v: p5free._decode(b, g.n) for v, b in certs.items()}
        for _ in range(3):
            v = rng.choice([v for v, d in dec.items() if d is not None])
            pieces = list(dec[v].pieces_part)
            if (len(pieces) + 1) >> pc.idwidth(g.n):  # the entry count field would overflow
                continue
            owner = rng.randint(1, g.n)
            row = g.adj[owner]
            if rng.random() < 0.5:
                row ^= 1 << (rng.choice([y for y in g.vertices() if y != owner]) - 1)
            pieces.insert(rng.randint(0, len(pieces)), NeighborhoodRow(owner, row))
            check(g, dec, {**dec, v: replace(dec[v], pieces_part=tuple(pieces))}, v)
    # a big bag's member drops a row from outside the bag, and another
    # member takes it: the bag's coverage fails, then holds again
    for g in random_big_clique_graphs():
        tp, dec = pc.build_tree_partition(g), {v: decode_certificate(b, g.n) for v, b in pc.prove(g).items()}
        for bag in tp.bags:
            if bag_is_small(bag, g.n):
                continue
            a, b = rng.sample(bag.sorted_members(), 2)
            outside = [e for e in dec[a].pieces_part if e.owner not in bag.members]
            if not outside:
                continue
            e = rng.choice(outside)
            dropped = {**dec, a: replace(dec[a], pieces_part=tuple(x for x in dec[a].pieces_part if x != e))}
            pieces = list(dec[b].pieces_part)
            pieces.insert(rng.randint(0, len(pieces)), e)
            check(g, dropped, {**dropped, b: replace(dec[b], pieces_part=tuple(pieces))}, b)
    floors = {"v held": 4150, "accept -> iv": 1195, "accept -> v": 1215, "v -> iv": 1950, "iv -> accept": 530}
    assert all(changes[k] >= floor for k, floor in floors.items()), changes
