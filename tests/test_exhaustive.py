"""Completeness over one graph per isomorphism class, up to n = 7.

The classes come from ``helpers.isomorph_free_graphs`` (canonical
augmentation), pinned to OEIS counts, which do not depend on this code.
n = 8 (12,346 classes) is built from the n = 7 list in CI.
"""

import random

import p5cert as pc
from p5cert.cli import get_scheme
from p5cert.errors import ProverFailed
from p5cert.graphs import Graph, is_connected, iter_bits, mask_of
from p5cert.harness import oracle_is_p5_free
from p5cert.p5free import is_p5_free, scheme

from helpers import canonical_form, isomorph_free_graphs

ALL = (1, 2, 4, 11, 34, 156, 1044)  # OEIS A000088, n = 1..7
CONNECTED = (1, 1, 2, 6, 21, 112, 853)  # OEIS A001349, n = 1..7
# counted on the networkx graph atlas with graphs.find_induced_path
CONNECTED_P5_FREE = (1, 1, 2, 6, 20, 93, 515)


def connected_p5_free(n):
    return [g for g in isomorph_free_graphs(n) if is_connected(g) and oracle_is_p5_free(g)]


def test_class_counts_match_oeis():
    for n in range(1, 8):
        graphs = isomorph_free_graphs(n)
        assert len(graphs) == ALL[n - 1], n
        assert sum(map(is_connected, graphs)) == CONNECTED[n - 1], n
        assert len(connected_p5_free(n)) == CONNECTED_P5_FREE[n - 1], n


def test_one_code_per_class_of_every_labeled_graph(connected_graphs):
    # every connected labeled graph on n <= 6 vertices has the code of
    # exactly one generated class, and no two classes share a code
    for n in range(1, 7):
        codes = [canonical_form(g)[0] for g in isomorph_free_graphs(n) if is_connected(g)]
        assert len(set(codes)) == len(codes), n
        assert {canonical_form(g)[0] for g in connected_graphs[n]} == set(codes), n


def test_is_p5_free_matches_oracle():
    for n in range(1, 8):
        for g in isomorph_free_graphs(n):
            assert is_p5_free(g) == oracle_is_p5_free(g), g


def test_complete_and_agrees_with_universal_to_7():
    # every connected class: the p5 scheme accepts everywhere exactly when
    # the graph is P5-free, and so does the CLI's universal-p5 scheme
    p5, universal = scheme(), get_scheme("universal-p5")
    accepted = 0
    for n in range(1, 8):
        for g in isomorph_free_graphs(n):
            if not is_connected(g):
                continue
            free = oracle_is_p5_free(g)
            try:
                p5_accepts = pc.run(g, p5).all_accept
            except ProverFailed:
                p5_accepts = False
            assert p5_accepts == free == pc.run(g, universal).all_accept, g
            accepted += p5_accepts
    assert accepted == sum(CONNECTED_P5_FREE) == 638


def relabeled(g: Graph, perm: list[int]) -> Graph:
    """``g`` with vertex v renamed perm[v - 1]."""
    adj = [0] * (g.n + 1)
    for v in g.vertices():
        adj[perm[v - 1]] = mask_of(perm[w - 1] for w in iter_bits(g.adj[v]))
    return Graph(g.n, tuple(adj))


def test_relabelings_accept_at_7():
    # the prover's choices follow the labels: 3 seeded relabelings per class
    rng = random.Random(7)
    p5 = scheme()
    for g in connected_p5_free(7):
        for _ in range(3):
            perm = list(g.vertices())
            rng.shuffle(perm)
            h = relabeled(g, perm)
            assert canonical_form(h)[0] == canonical_form(g)[0]
            assert pc.run(h, p5).all_accept, (g, perm)
