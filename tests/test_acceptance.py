"""Acceptance suite: one test per advertised criterion, with its time budget.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines as they complete.
"""

import itertools
import random
import time

import pytest

import p5cert as pc
from p5cert.baselines import SpanningTreeLabel, bfs_tree_labels, encode_tree_label, spanning_tree_size_scheme, universal_scheme
from p5cert.codec import EncodedCertificate, NeighborhoodRow
from p5cert.errors import P5CertError
from p5cert.framework import local_view
from p5cert.harness import STRATEGIES, has_rejection, oracle_is_p5_free
from p5cert.p5free import scheme
from helpers import REFERENCE_TREE, naive_find_induced_path, nested_to_tree, nested_trees, random_graph, random_tree_partition

SCHEME = scheme()

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]


def report(number: int, name: str, elapsed: float, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s{suffix}", flush=True)


def test_criterion_1_codec_golden_and_round_trip():
    start = time.perf_counter()
    assert pc.encode_tree(REFERENCE_TREE).to01() == "0011010001011011"

    total = 0
    for t in range(1, 13):
        count = 0
        for nested in nested_trees(t):
            tree = nested_to_tree(nested)
            enc = pc.encode_tree(tree)
            assert enc.length == 2 * (t - 1)
            assert pc.decode_tree(enc) == tree
            count += 1
        assert count == CATALAN[t - 1]
        total += count

    rng = random.Random(101)
    for _ in range(1000):
        n = rng.randint(1, 24)
        tp = random_tree_partition(n, rng)
        assert pc.decode_partitioning(pc.encode_partitioning(tp, n), n) == tp
    for _ in range(1000):
        n = rng.randint(1, 20)
        part = pc.encode_partitioning(random_tree_partition(n, rng), n)
        pieces = []
        for _ in range(rng.randint(0, min(n, 6))):
            owner = rng.randint(1, n)
            pieces.append(NeighborhoodRow(owner, rng.getrandbits(n) & ~(1 << (owner - 1))))
        cert = EncodedCertificate(rng.getrandbits(n), part, tuple(pieces))
        assert pc.decode_certificate(pc.encode_certificate(cert, n), n) == cert

    elapsed = time.perf_counter() - start
    assert elapsed < 30
    report(1, "codec golden + round trip", elapsed, f"{total} trees, 2000 random structures")


def test_criterion_2_exhaustive_completeness(connected_graphs):
    start = time.perf_counter()
    checked = 0
    for n in range(1, 7):
        for g in connected_graphs[n]:
            if pc.find_induced_path(g) is not None:
                continue
            report_ = pc.run(g, SCHEME)
            assert report_.all_accept, (n, g.adj)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300
    report(2, "exhaustive completeness n<=6", elapsed, f"{checked} P5-free graphs all-accept")


def test_criterion_3_exhaustive_soundness_fuzz(connected_graphs):
    start = time.perf_counter()
    graphs = 0
    trials = 0
    for n in (5, 6):
        for index, g in enumerate(connected_graphs[n]):
            if pc.find_induced_path(g) is None:
                continue
            graphs += 1
            for kind in STRATEGIES:
                strategy = pc.AdversaryStrategy(kind, 50, seed=index)
                for certs in pc.adversarial_certificates(g, strategy):
                    trials += 1
                    assert has_rejection(g, SCHEME, certs), (n, g.adj, kind)
    elapsed = time.perf_counter() - start
    assert elapsed < 1800
    report(3, "exhaustive soundness fuzz n<=6", elapsed, f"{graphs} graphs, {trials} trials, zero all-accept")


def test_criterion_4_named_correctness_trace(p5_graph):
    start = time.perf_counter()
    tp = pc.build_tree_partition(p5_graph)
    assert sorted(tp.bags[0].members) == [2, 3, 4]
    assert [sorted(tp.bags[i].members) for i in (1, 2)] == [[1], [5]]

    certs = pc.prove(p5_graph)
    km = pc.knowledge_closure(local_view(p5_graph, certs, 3))
    assert km.known_pair_count() == 10
    assert km.status(1, 5) == "nonedge"
    assert km.provenance[(1, 5)] == "cross-branch"
    for x, y in itertools.combinations(range(1, 6), 2):
        assert km.status(x, y) == ("edge" if abs(x - y) == 1 else "nonedge")

    verdict = SCHEME.verifier(local_view(p5_graph, certs, 3))
    assert not verdict.accept and verdict.step == "v"
    elapsed = time.perf_counter() - start
    report(4, "named correctness trace", elapsed, "vertex 3 rejects at step v")


def test_criterion_5_size_scaling():
    start = time.perf_counter()
    sizes = [16, 64, 256, 1024]
    constant = 0.0
    for family in ("split", "cograph"):
        for seed in (1, 2, 3, 4, 5):
            rows, c = pc.measure_scaling(sizes, family, seed=seed)
            ratios = [r[4] for r in rows]
            assert ratios[-1] <= 1.25 * ratios[0], (family, seed, ratios)
            constant = max(constant, c)
    elapsed = time.perf_counter() - start
    assert elapsed < 600
    report(5, "size scaling", elapsed, f"C = {constant:.3f}")


def test_criterion_6_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(606)
    for _ in range(1000):
        g = random_graph(rng.randint(1, 8), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]), rng)
        fast = pc.find_induced_path(g)
        naive = naive_find_induced_path(g, 5)
        assert (fast is None) == (naive is None)
        if fast is not None:
            for i in range(5):
                for j in range(i + 1, 5):
                    assert g.has_edge(fast[i], fast[j]) == (j - i == 1)
    elapsed = time.perf_counter() - start
    assert elapsed < 60
    report(6, "oracle equivalence", elapsed, "1000 random graphs n<=8")


def test_criterion_7_partition_validity(corpus_graphs):
    start = time.perf_counter()
    for spec, g in corpus_graphs:
        assert oracle_is_p5_free(g), spec
        tp = pc.build_tree_partition(g)
        assert pc.validate_tree_partition(g, tp) is None, spec
    elapsed = time.perf_counter() - start
    report(7, "partition validity on corpus", elapsed, f"{len(corpus_graphs)} graphs valid")


def test_criterion_8_baseline_agreement(connected_graphs):
    start = time.perf_counter()
    universal = universal_scheme(oracle_is_p5_free)
    agree = 0
    for n in range(1, 7):
        for g in connected_graphs[n]:
            universal_accepts = pc.run(g, universal).all_accept
            try:
                p5_accepts = pc.run(g, SCHEME).all_accept
            except P5CertError:
                p5_accepts = False  # no honest certificates exist
            assert universal_accepts == p5_accepts, (n, g.adj)
            agree += 1

    stree = spanning_tree_size_scheme()
    rng = random.Random(808)
    checked = 0
    while checked < 100:
        g = random_graph(rng.randint(3, 16), 0.4, rng)
        if not pc.is_connected(g):
            continue
        checked += 1
        wrong = rng.choice([k for k in (g.n - 1, g.n + 1, max(1, g.n // 2)) if k != g.n])
        certs = {
            v: encode_tree_label(
                SpanningTreeLabel(wrong, lab.root_id, lab.parent_id, lab.dist, lab.subtree_size),
                g.n,
            )
            for v, lab in bfs_tree_labels(g).items()
        }
        assert not pc.run(g, stree, certs).all_accept, (g.adj, wrong)
    elapsed = time.perf_counter() - start
    report(8, "baseline agreement", elapsed, f"{agree} graphs agree; 100 wrong-n labelings rejected")
