import collections
import itertools
import random

import p5cert as pc
from p5cert.baselines import (
    SpanningTreeLabel,
    bfs_tree_labels,
    decode_tree_label,
    encode_tree_label,
    kk_freeness_scheme,
    spanning_tree_size_scheme,
    universal_scheme,
)
from p5cert.codec import idwidth
from p5cert.framework import local_view
from p5cert.harness import oracle_is_p5_free
from p5cert.p5free import scheme as p5_scheme
from helpers import (
    random_graph,
    reference_decode_tree_label,
    reference_encode_tree_label,
    reference_matrix,
    reference_universal_verifier,
)


def test_universal_accepts_c5():
    sch = universal_scheme(oracle_is_p5_free)
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert pc.run(c5, sch).all_accept


def test_universal_rejects_p5(p5_graph):
    sch = universal_scheme(oracle_is_p5_free)
    report = pc.run(p5_graph, sch)
    assert not report.all_accept
    assert all(not d.accept for d in report.verdicts.values())
    assert report.max_cert_bits == 25


def test_universal_constant_true_accepts(p5_graph):
    sch = universal_scheme(lambda g: True)
    assert pc.run(p5_graph, sch).all_accept


def test_universal_shared_matrix_lies_all_caught(p5_graph):
    # every symmetric zero-diagonal 5x5 matrix handed to all vertices of the
    # 5-path is rejected somewhere: a wrong row trips its owner, the true
    # matrix trips the property oracle
    sch = universal_scheme(oracle_is_p5_free)
    pairs = list(itertools.combinations(range(1, 6), 2))
    for mask in range(1 << len(pairs)):
        adj = [0] * 6
        for b, (u, v) in enumerate(pairs):
            if mask >> b & 1:
                adj[u] |= 1 << (v - 1)
                adj[v] |= 1 << (u - 1)
        matrix = reference_matrix(adj, 5)
        certs = {v: matrix for v in range(1, 6)}
        rejected = any(
            not sch.verifier(local_view(p5_graph, certs, v)).accept for v in range(1, 6)
        )
        assert rejected


def toggled(rows, x, y):
    rows = list(rows)
    rows[x] ^= 1 << (y - 1)
    rows[y] ^= 1 << (x - 1)
    return rows


def universal_lies(g, rng):
    """(kind, certificates): honest matrices, then each kind of lie the
    universal verifier checks for, in the shared matrix or at one vertex."""
    n, rows = g.n, list(g.adj)
    honest = reference_matrix(rows, n)
    u = rng.randint(1, n)
    x, y = rng.sample(range(1, n + 1), 2)
    loop = list(rows)
    loop[x] |= 1 << (x - 1)
    one_way = list(rows)
    one_way[x] ^= 1 << (y - 1)
    shared = {v: honest for v in g.vertices()}
    return [
        ("honest", shared),
        ("long", {**shared, u: honest + pc.Bits(1, 1)}),
        ("short", {**shared, u: pc.Bits(honest.value >> 1, n * n - 1)}),
        ("loop", {v: reference_matrix(loop, n) for v in g.vertices()}),
        ("asymmetric", {v: reference_matrix(one_way, n) for v in g.vertices()}),
        ("false row", {v: reference_matrix(toggled(rows, x, y), n) for v in g.vertices()}),
        ("neighbor differs", {**shared, u: reference_matrix(toggled(rows, x, y), n)}),
    ]


def test_universal_verifier_matches_reference(p5_graph):
    # one read and one loop/symmetry check per matrix keep every verdict and
    # witness of the verifier that redid both at each vertex
    rng = random.Random(4)
    graphs = [p5_graph, pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])]
    for seed in range(3):
        graphs += [pc.generate(pc.GeneratorSpec(family, 8, 0.4, seed)) for family in ("with-p5", "split", "gnp")]
    seen = collections.Counter()
    for oracle in (oracle_is_p5_free, lambda g: True):
        sch, ref = universal_scheme(oracle), reference_universal_verifier(oracle)
        for g in graphs:
            for _ in range(3):
                for kind, certs in universal_lies(g, rng):
                    for v in g.vertices():
                        view = local_view(g, certs, v)
                        got = sch.verifier(view)
                        assert got == ref(view), (kind, v)
                        # a malformed verdict counts under its second word:
                        # "certificate" (length), "has" (loop), "asymmetric"
                        seen[got.step if got.step != "malformed" else got.witness.split()[1]] += 1
    for outcome in (None, "certificate", "has", "asymmetric", "i", "ii", "v"):
        assert seen[outcome] >= 20, seen


def test_universal_inconsistent_matrices_rejected(p5_graph):
    sch = universal_scheme(oracle_is_p5_free)
    certs = sch.prover(p5_graph)
    honest = certs[1]
    certs[3] = honest.flip(2).flip(11)  # symmetric flip of pair {1,3}
    rejected = any(not sch.verifier(local_view(p5_graph, certs, v)).accept for v in range(1, 6))
    assert rejected


def test_stree_label_round_trip():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 200)
        lab = SpanningTreeLabel(
            claimed_n=rng.randint(1, n + 1),
            root_id=rng.randint(1, n),
            parent_id=rng.randint(0, n),
            dist=rng.randint(0, n - 1),
            subtree_size=rng.randint(1, n),
        )
        assert decode_tree_label(encode_tree_label(lab, n), n) == lab



def test_baseline_packing_matches_reference(corpus_graphs):
    # the shift forms of the tree label codec and the universal matrix give
    # the bytes, labels, None and ValueError text of their BitWriter /
    # BitReader forms
    seen = collections.Counter()

    def encode_both(lab, n):
        try:
            got = encode_tree_label(lab, n)
        except ValueError as exc:
            got = str(exc)
        try:
            ref = reference_encode_tree_label(lab, n)
        except ValueError as exc:
            ref = str(exc)
        assert got == ref, (lab, n)
        seen["encodes" if isinstance(got, pc.Bits) else "ValueError"] += 1
        return got

    def decode_both(b, n):
        got = decode_tree_label(b, n)
        assert got == reference_decode_tree_label(b, n), (b, n)
        seen["decodes" if got is not None else "None"] += 1

    universal = universal_scheme(lambda g: True)
    for spec, g in corpus_graphs:
        assert universal.prover(g)[1] == reference_matrix(g.adj, g.n), spec
        for lab in bfs_tree_labels(g).values():
            decode_both(encode_both(lab, g.n), g.n)
    assert seen["encodes"] == seen["decodes"] == 752, seen

    rng = random.Random(45)
    for _ in range(20000):
        n = rng.randint(1, 300)
        w = idwidth(n)
        # mostly fields that fit, else one of -1, the widest fit, the first
        # misfit or anything up to 2^(w+2)
        fields = [
            rng.randrange(1 << width)
            if rng.random() < 0.9
            else rng.choice((-1, (1 << width) - 1, 1 << width, rng.randint(-1, 1 << w + 2)))
            for width in (w + 1, w, w, w, w)
        ]
        encode_both(SpanningTreeLabel(*fields), n)
    for _ in range(20000):
        n = rng.randint(1, 300)
        w = idwidth(n)
        length = rng.choice((5 * w + 1, 5 * w + 1, 5 * w, 5 * w + 2, rng.randint(0, 60)))
        decode_both(pc.Bits(rng.getrandbits(length), length), n)
    floors = {"encodes": 12500, "ValueError": 5000, "decodes": 7500, "None": 10000}
    for outcome, floor in floors.items():
        assert seen[outcome] >= floor, seen


def test_stree_honest_accepts():
    sch = spanning_tree_size_scheme()
    k4 = pc.build_graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert pc.run(k4, sch).all_accept
    rng = random.Random(42)
    for _ in range(30):
        g = random_graph(rng.randint(2, 12), 0.5, rng)
        if not pc.is_connected(g):
            continue
        assert pc.run(g, sch).all_accept


def test_stree_rejects_inflated_n():
    sch = spanning_tree_size_scheme()
    k4 = pc.build_graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    labels = bfs_tree_labels(k4)
    certs = {
        v: encode_tree_label(
            SpanningTreeLabel(5, lab.root_id, lab.parent_id, lab.dist, lab.subtree_size), 4
        )
        for v, lab in labels.items()
    }
    report = pc.run(k4, sch, certs)
    assert not report.verdicts[1].accept  # the root sees the count mismatch


def test_stree_rejects_parent_cycle():
    sch = spanning_tree_size_scheme()
    g = pc.build_graph(3, [(1, 2), (2, 3)])
    certs = {
        1: encode_tree_label(SpanningTreeLabel(3, 1, 0, 0, 3), 3),
        2: encode_tree_label(SpanningTreeLabel(3, 1, 3, 1, 2), 3),
        3: encode_tree_label(SpanningTreeLabel(3, 1, 2, 2, 1), 3),
    }
    # 2 and 3 claim each other as parent with inconsistent distances
    certs[2] = encode_tree_label(SpanningTreeLabel(3, 1, 3, 2, 1), 3)
    certs[3] = encode_tree_label(SpanningTreeLabel(3, 1, 2, 2, 1), 3)
    report = pc.run(g, sch, certs)
    assert not report.all_accept


def test_stree_soundness_random_wrong_n():
    sch = spanning_tree_size_scheme()
    rng = random.Random(43)
    checked = 0
    while checked < 100:
        g = random_graph(rng.randint(3, 14), 0.45, rng)
        if not pc.is_connected(g):
            continue
        checked += 1
        wrong = rng.choice([k for k in (g.n - 1, g.n + 1, g.n // 2) if k >= 1 and k != g.n])
        labels = bfs_tree_labels(g)
        certs = {
            v: encode_tree_label(
                SpanningTreeLabel(wrong, lab.root_id, lab.parent_id, lab.dist, lab.subtree_size),
                g.n,
            )
            for v, lab in labels.items()
        }
        assert not pc.run(g, sch, certs).all_accept


def test_kk_k4_rejects_everywhere():
    sch = kk_freeness_scheme(4)
    k4 = pc.build_graph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    report = pc.run(k4, sch)
    assert all(not d.accept for d in report.verdicts.values())


def test_kk_c5_triangle_free_accepts():
    sch = kk_freeness_scheme(3)
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert pc.run(c5, sch).all_accept


def test_kk_honest_agreement_exhaustive_n5(connected_graphs):
    sch = kk_freeness_scheme(3)

    def has_triangle(g):
        return any(
            g.adj[u] & g.adj[v]
            for u in g.vertices()
            for v in g.neighbors(u)
            if v > u
        )

    for g in connected_graphs[5]:
        report = pc.run(g, sch)
        assert report.all_accept == (not has_triangle(g))
        if has_triangle(g):
            # every clique member rejects under honest rows
            for u in g.vertices():
                in_triangle = any(
                    g.adj[u] & g.adj[v] & ~(1 << (u - 1)) & ~(1 << (v - 1))
                    for v in g.neighbors(u)
                )
                if in_triangle:
                    assert not report.verdicts[u].accept


def test_kk_adversarial_rows_small():
    sch = kk_freeness_scheme(3)
    rng = random.Random(44)
    k3 = pc.build_graph(3, [(1, 2), (1, 3), (2, 3)])
    honest = sch.prover(k3)
    for _ in range(200):
        certs = dict(honest)
        for _ in range(rng.randint(1, 3)):
            v = rng.randint(1, 3)
            certs[v] = certs[v].flip(rng.randrange(3))
        assert not pc.run(k3, sch, certs).all_accept


def test_universal_and_p5_agree_on_corpus(corpus_graphs):
    universal = universal_scheme(oracle_is_p5_free)
    p5 = p5_scheme()
    for spec, g in corpus_graphs:
        assert pc.run(g, universal).all_accept and pc.run(g, p5).all_accept, spec


def test_certificate_size_ordering(corpus_graphs):
    p5 = p5_scheme()
    universal = universal_scheme(oracle_is_p5_free)
    stree = spanning_tree_size_scheme()
    kk = kk_freeness_scheme(3)
    for spec, g in corpus_graphs:
        if g.n < 32:
            continue
        sizes = {}
        for name, sch in (("stree", stree), ("kk", kk), ("p5", p5), ("universal", universal)):
            sizes[name] = pc.max_cert_bits(sch.prover(g))
        assert sizes["stree"] < sizes["kk"] < sizes["p5"] < sizes["universal"]
        assert sizes["universal"] == g.n * g.n
        assert sizes["kk"] == g.n


def test_universal_reads_each_matrix_once(corpus_graphs):
    # the oracle runs once per well-formed matrix, also when every vertex
    # stops before (v), and never on a matrix that fails its symmetry check
    calls = collections.Counter()

    def counting(g):
        calls[g.adj] += 1
        return oracle_is_p5_free(g)

    sch = universal_scheme(counting)
    rng = random.Random(25)
    well_formed = set()
    for spec, g in corpus_graphs:
        n = g.n
        x, y = rng.sample(range(1, n + 1), 2)
        one_way = list(g.adj)
        one_way[x] ^= 1 << (y - 1)
        complement = [0] + [g.full_mask & ~g.adj[v] & ~(1 << (v - 1)) for v in g.vertices()]
        for rows, only in ((g.adj, None), (toggled(g.adj, x, y), None), (complement, "i"), (one_way, "malformed")):
            report = pc.run(g, sch, {v: reference_matrix(rows, n) for v in g.vertices()})
            if only is not None:
                assert {d.step for d in report.verdicts.values()} == {only}, spec
            if only != "malformed":
                well_formed.add(tuple(rows))
    assert calls == dict.fromkeys(well_formed, 1)
