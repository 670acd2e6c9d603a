import hashlib
import random

import pytest

import p5cert as pc
from p5cert.errors import GenerationBudgetExceeded, PreconditionNotP5, TooLarge
from p5cert.codec import decode_certificates, write_certificates
from p5cert.framework import format_run_report, local_view
from p5cert.harness import (
    FAMILIES,
    STRATEGIES,
    format_fuzz_report,
    format_scaling_csv,
    has_rejection,
    honest_best_effort,
    rejecting_mask,
    repair_to_p5_free,
)
from p5cert.p5free import _decode, scheme
from helpers import reference_enumerate_connected_graphs, reference_find_induced_path, reference_generate

SCHEME = scheme()


def test_generators_deterministic():
    for family in ("cograph", "split", "p5free-repair", "gnp"):
        spec = pc.GeneratorSpec(family, 12, 0.5, 9)
        assert pc.generate(spec) == pc.generate(spec)
    spec = pc.GeneratorSpec("with-p5", 10, 0.3, 9)
    assert pc.generate(spec) == pc.generate(spec)


def test_generators_connected():
    rng_seeds = range(3)
    for family in ("cograph", "split", "p5free-repair", "gnp"):
        for seed in rng_seeds:
            g = pc.generate(pc.GeneratorSpec(family, 15, 0.4, seed))
            assert pc.is_connected(g)


def test_cograph_family_has_no_p4():
    for seed in range(4):
        g = pc.generate(pc.GeneratorSpec("cograph", 20, 0.5, seed))
        assert reference_find_induced_path(g, 4) is None


def test_split_family_p5_free():
    for seed in range(4):
        g = pc.generate(pc.GeneratorSpec("split", 20, 0.5, seed))
        assert pc.oracle_is_p5_free(g)
    # any 4-vertex graph is trivially P5-free
    assert pc.oracle_is_p5_free(pc.generate(pc.GeneratorSpec("split", 4, 0.5, 0)))


def test_with_p5_family_contains_p5():
    for seed in range(3):
        g = pc.generate(pc.GeneratorSpec("with-p5", 10, 0.3, seed))
        assert pc.find_induced_path(g) is not None


def test_with_p5_impossible_below_five_vertices():
    with pytest.raises(GenerationBudgetExceeded):
        pc.generate(pc.GeneratorSpec("with-p5", 4, 0.5, 0))


@pytest.mark.parametrize("family", FAMILIES)
def test_generate_matches_reference(family):
    # the row generators against the edge-tuple-set ones they replaced:
    # same graph, or the same GenerationBudgetExceeded
    budget = 0
    for n in (1, 2, 3, 5, 8, 13, 32, 64):
        for p in (0.0, 0.3, 0.5, 1.0):
            for seed in (1, 2, 3):
                spec = pc.GeneratorSpec(family, n, p, seed)
                try:
                    expected = reference_generate(spec)
                except GenerationBudgetExceeded:
                    budget += 1
                    with pytest.raises(GenerationBudgetExceeded):
                        pc.generate(spec)
                    continue
                assert pc.generate(spec) == expected, spec
    assert (budget > 0) == (family == "with-p5")


def test_repair_produces_p5_free_connected():
    rng = random.Random(50)
    for seed in range(5):
        g = pc.generate(pc.GeneratorSpec("gnp", 14, 0.35, seed))
        repaired = repair_to_p5_free(g, random.Random(seed))
        assert pc.is_connected(repaired)
        assert pc.oracle_is_p5_free(repaired)


def test_enumerate_counts(connected_graphs):
    assert [len(connected_graphs[n]) for n in (1, 2, 3, 4, 5)] == [1, 1, 4, 38, 728]


def test_enumerate_n5_count_by_union_find(connected_graphs):
    # independent count via union-find over all 2^10 labeled graphs
    import itertools

    pairs = list(itertools.combinations(range(5), 2))
    connected = 0
    for mask in range(1 << 10):
        parent = list(range(5))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for b, (u, v) in enumerate(pairs):
            if mask >> b & 1:
                parent[find(u)] = find(v)
        if len({find(x) for x in range(5)}) == 1:
            connected += 1
    assert connected == 728 == len(connected_graphs[5])


def test_enumerate_too_large():
    with pytest.raises(TooLarge):
        list(pc.enumerate_connected_graphs(7))


def test_enumerate_matches_reference():
    # rows kept from one mask to the next: same graphs in the same order as
    # building each graph from its mask
    counts = []
    for n in range(7):
        got = list(pc.enumerate_connected_graphs(n))
        assert got == list(reference_enumerate_connected_graphs(n)), n
        counts.append(len(got))
    assert counts == [0, 1, 1, 4, 38, 728, 26704]
    for enumerate_graphs in (pc.enumerate_connected_graphs, reference_enumerate_connected_graphs):
        with pytest.raises(TooLarge, match="limited to n <= 6"):
            next(enumerate_graphs(7))


def test_adversarial_streams_deterministic(p5_graph):
    for kind in STRATEGIES:
        st = pc.AdversaryStrategy(kind, 5, seed=3)
        a = [sorted((v, b.value, b.length) for v, b in certs.items()) for certs in pc.adversarial_certificates(p5_graph, st)]
        b = [sorted((v, b.value, b.length) for v, b in certs.items()) for certs in pc.adversarial_certificates(p5_graph, st)]
        assert a == b
        assert len(a) == 5


def test_streams_decode_the_base_only_to_edit_it(p5_graph, monkeypatch):
    # bitflip and wrong-graph trials never read a decoded certificate
    from p5cert import harness

    calls = []
    decode = harness.decode_certificate
    monkeypatch.setattr(harness, "decode_certificate", lambda b, n: calls.append(b) or decode(b, n))
    for kind in STRATEGIES:
        calls.clear()
        for _ in pc.adversarial_certificates(p5_graph, pc.AdversaryStrategy(kind, 5, seed=3)):
            pass
        if kind in ("bitflip", "wrong-graph"):
            assert calls == [], kind
        elif kind == "greedy-search":
            assert len(calls) >= p5_graph.n, kind
        else:
            assert len(calls) == p5_graph.n, kind


def test_wrong_graph_strategy_trips_step_i(p5_graph):
    # certificates proved for a graph with a 5-path edge toggled disagree
    # with someone's true neighborhood
    st = pc.AdversaryStrategy("wrong-graph", 8, seed=1)
    for certs in pc.adversarial_certificates(p5_graph, st):
        steps = {
            v: SCHEME.verifier(local_view(p5_graph, certs, v)) for v in p5_graph.vertices()
        }
        assert any(not d.accept for d in steps.values())


def test_bitflip_zero_flips_is_honest():
    # the bitflip strategy always flips at least one bit; the honest
    # baseline itself accepts on a P5-free graph
    g = pc.generate(pc.GeneratorSpec("split", 10, 0.5, 2))
    assert pc.run(g, SCHEME).all_accept


def test_fuzz_soundness_p5_graph_all_strategies(p5_graph):
    for kind in STRATEGIES:
        report = pc.fuzz_soundness(p5_graph, pc.AdversaryStrategy(kind, 50, seed=7))
        assert report.passed and report.trials_run == 50
        text = format_fuzz_report(report)
        assert text.strip().endswith("SOUNDNESS-FUZZ: PASS(50)")


def test_fuzz_precondition():
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    with pytest.raises(PreconditionNotP5):
        pc.fuzz_soundness(c5, pc.AdversaryStrategy("bitflip", 5, 0))


def test_fuzz_report_failure_format(p5_graph):
    report = pc.FuzzReport("n=5 m=4", "bitflip", 10, 9, "deadbeef", {})
    text = format_fuzz_report(report, "cx.certs")
    assert "SOUNDNESS-FUZZ: FAIL counterexample=cx.certs" in text


def decode_table(certs, n):
    return {v: _decode(b, n) for v, b in certs.items()}


def per_view_mask(g, certs):
    """Mask of the vertices whose own view the scheme's verifier rejects."""
    return sum(1 << (v - 1) for v in g.vertices() if not SCHEME.verifier(local_view(g, certs, v)).accept)


def test_rejecting_mask_and_has_rejection(p5_graph):
    certs = pc.prove(p5_graph)
    dec = decode_table(certs, 5)
    # honest pipeline on the 5-path: everyone sees the path
    assert rejecting_mask(p5_graph, dec, p5_graph.full_mask) == 0b11111
    assert rejecting_mask(p5_graph, dec, 0b10010) == 0b10010
    assert rejecting_mask(p5_graph, dec, 0) == 0
    # a limit stops the scan at the first vertex past it
    assert rejecting_mask(p5_graph, dec, p5_graph.full_mask, limit=1) == 0b11
    assert rejecting_mask(p5_graph, dec, 0b11100, limit=0) == 0b100
    assert rejecting_mask(p5_graph, dec, 0b11100, limit=3) == 0b11100
    assert has_rejection(p5_graph, SCHEME, certs)
    g = pc.generate(pc.GeneratorSpec("split", 10, 0.5, 2))
    certs = pc.prove(g)
    assert rejecting_mask(g, decode_table(certs, g.n), g.full_mask) == 0
    assert not has_rejection(g, SCHEME, certs)


def test_flip_changes_rejections_only_in_closed_neighborhood():
    # greedy-search keeps a decode table and re-verifies only N[v] after a
    # flip at v; after every flip, its mask is the per-view mask
    undecodable = neighbor_only = 0
    for seed in (1, 2, 3):
        g = pc.generate(pc.GeneratorSpec("with-p5", 16, 0.3, seed))
        base = honest_best_effort(g, random.Random(0))
        base_rej = rejecting_mask(g, decode_table(base, g.n), g.full_mask)
        assert base_rej == per_view_mask(g, base)
        rng = random.Random(seed)
        # single flips of the base, then a walk of flips that accumulate
        for walk in (False, True):
            certs, dec, rej = dict(base), decode_table(base, g.n), base_rej
            for _ in range(6 * g.n):
                v = rng.randint(1, g.n)
                if not walk:
                    certs, dec, rej = dict(base), decode_table(base, g.n), base_rej
                certs[v] = certs[v].flip(rng.randrange(certs[v].length))
                dec[v] = _decode(certs[v], g.n)
                closed = g.adj[v] | 1 << (v - 1)
                new_rej = rej & ~closed | rejecting_mask(g, dec, closed)
                assert new_rej == per_view_mask(g, certs)
                undecodable += dec[v] is None
                neighbor_only += bool((new_rej ^ rej) & g.adj[v])
                rej = new_rej
    assert undecodable >= 20, undecodable
    assert neighbor_only >= 20, neighbor_only


def _golden_fuzz_graphs():
    """Every 25th connected 6-vertex graph with an induced P5, plus two n=24 ones."""
    graphs = [g for g in pc.enumerate_connected_graphs(6) if not pc.oracle_is_p5_free(g)][::25]
    return graphs + [pc.generate(pc.GeneratorSpec("with-p5", 24, 0.3, seed)) for seed in (1, 2)]


def test_decode_certificates_on_every_trial():
    # bitflips make malformed certificates: the batch decoder gives None
    # exactly where decode_certificate raises, and equal values elsewhere
    undecodable = decoded = 0
    for i, g in enumerate(_golden_fuzz_graphs()):
        for kind in STRATEGIES:
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 4, i)):
                dec = decode_certificates(certs, g.n)
                assert list(dec) == list(certs)
                assert dec == {v: _decode.__wrapped__(b, g.n) for v, b in certs.items()}
                undecodable += sum(d is None for d in dec.values())
                decoded += sum(d is not None for d in dec.values())
    assert undecodable >= 1500 and decoded >= 30000, (undecodable, decoded)


def test_golden_digest_adversarial_verdicts():
    # every verdict and witness of 6,000 adversarial trials, pinned
    h = hashlib.sha256()
    for i, g in enumerate(_golden_fuzz_graphs()):
        for kind in STRATEGIES:
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 4, i)):
                h.update(format_run_report(pc.run(g, SCHEME, certs)).encode())
    assert h.hexdigest() == "762d261ec399d71f653e40fa2d49f71327acafd906b3d0f6b9608bc9a7ef5283"


def test_golden_digest_greedy_trials():
    h = hashlib.sha256()
    for i, g in enumerate(_golden_fuzz_graphs()):
        for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy("greedy-search", 4, i)):
            h.update(write_certificates(certs).encode())
    assert h.hexdigest() == "cca1291bae504f4da53aa1a661151fef0e5f3237ab81281fd654dcc91922c922"


def test_golden_digest_all_strategy_trials():
    # certificate bytes of every trial of all five strategies, pinned
    h = hashlib.sha256()
    for i, g in enumerate(_golden_fuzz_graphs()):
        for kind in STRATEGIES:
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 4, i)):
                h.update(write_certificates(certs).encode())
    assert h.hexdigest() == "c9b230932c686040520ab057e57855ecf58b1f6bcecedf746316b94d363522bc"


def test_golden_digest_fifty_trial_streams():
    # 50-trial streams repeat modified graphs (wrong-graph) and run the full
    # hill climb (greedy-search); certificate bytes of every trial, pinned
    graphs = [g for g in pc.enumerate_connected_graphs(6) if not pc.oracle_is_p5_free(g)][::50]
    graphs += [pc.generate(pc.GeneratorSpec("with-p5", 24, 0.3, 1))]
    h = hashlib.sha256()
    for i, g in enumerate(graphs):
        for kind in ("wrong-graph", "greedy-search"):
            for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 50, i)):
                h.update(write_certificates(certs).encode())
    assert h.hexdigest() == "dfafc9f23dfb9f9557d9bf16502001c0a787c79f7a0f11f7d9daefd7ea9126fd"


def test_golden_digest_wrong_graph_on_p5_free_graphs():
    # with no 5-path to edit, wrong-graph toggles a random pair
    h = hashlib.sha256()
    for i, (family, n) in enumerate([("cograph", 12), ("split", 12), ("p5free-repair", 16)]):
        g = pc.generate(pc.GeneratorSpec(family, n, 0.5, 1))
        for certs in pc.adversarial_certificates(g, pc.AdversaryStrategy("wrong-graph", 20, i)):
            h.update(write_certificates(certs).encode())
    assert h.hexdigest() == "e30f49842094077538a74f085b1eefa0470ed2a9cf1c5018678e85c7fb52cebe"


def test_wrong_graph_on_one_vertex_raises_before_first_trial():
    g = pc.generate(pc.GeneratorSpec("cograph", 1, 0.5, 1))
    stream = pc.adversarial_certificates(g, pc.AdversaryStrategy("wrong-graph", 3, 1))
    with pytest.raises(ValueError, match="at least 2 vertices"):
        next(stream)
    # the other strategies still stream their trials on one vertex
    for kind in STRATEGIES:
        if kind != "wrong-graph":
            assert len(list(pc.adversarial_certificates(g, pc.AdversaryStrategy(kind, 3, 1)))) == 3


def test_measure_scaling_rows_and_determinism():
    rows1, c1 = pc.measure_scaling([8, 16], "split", seed=5)
    rows2, c2 = pc.measure_scaling([8, 16], "split", seed=5)
    assert rows1 == rows2 and c1 == c2
    csv = format_scaling_csv(rows1)
    assert csv.splitlines()[0] == "n,family,seed,max_cert_bits,ratio"
    assert len(csv.splitlines()) == 3


def test_measure_scaling_n1_golden():
    rows, _ = pc.measure_scaling([1], "split", seed=1)
    assert rows[0][3] == 12  # the minimal certificate


def test_honest_best_effort_on_non_p5_free(p5_graph):
    certs = honest_best_effort(p5_graph, random.Random(0))
    assert set(certs) == set(range(1, 6))
    seven_path = pc.build_graph(7, [(i, i + 1) for i in range(1, 7)])
    certs7 = honest_best_effort(seven_path, random.Random(0))
    assert set(certs7) == set(range(1, 8))


@pytest.mark.parametrize(
    "family,n,p,seed,digest",
    [
        ("with-p5", 24, 0.3, 1, "89b12c2d484f54766bf4804a5d269e327336eb0bedda1de7159e7afb6bc6ae3f"),
        ("with-p5", 24, 0.3, 2, "ff72201e5a64bd9b7367e352e17dbbe0cc238fd9cb7075c81cf519d8b2e3233d"),
        ("with-p5", 24, 0.3, 3, "4e5067952097dcbdaef152d3ee9e0a47c7bfdaecac7124c9dbe340e08fcb84d7"),
        ("p5free-repair", 48, 0.5, 1, "30381f84628b4233cbb8143bab3d1a411e9d62a7ab3b945288574b576c4bf60d"),
        ("p5free-repair", 48, 0.5, 2, "61da4a46e87d646441e3367fd2fa7895edd6cff76d137fb8bb539f18da2acf8f"),
        ("p5free-repair", 256, 0.5, 1, "8ba9f6d2aa41d06c2e8851895ed5879550024973ffb40c0c2edc4ae84ee793f2"),
        ("cograph", 1024, 0.5, 1, "86fe95a25b99c2a01bb90e597ed95b0f33f6f87be978dec1259d6a307dddf3da"),
        ("cograph", 1024, 0.5, 2, "d60c9036a9ad78e0e6c8d1fdcb7404d3b2d902f3709857a145408eef823d43b3"),
        ("split", 512, 0.5, 1, "9df2b23def625cc82be966363feedb6d53846966fbaf1aefd5108bc0f2ef4c20"),
        ("split", 512, 0.5, 2, "9f4b6ac7863cef9731fc693ad75f651a6eeed1a5ee6ba4dee3aab5a77ff59b2e"),
        ("split", 512, 0.5, 3, "030934776728f136111f904f8c73de4cc7076a1143927dacf04ffc0aa18d90bd"),
        ("split", 1024, 0.5, 1, "db742144369024e3ef7598991c33e2f5aca4b4db08a25361f73fa374aea5bfa9"),
        ("split", 1024, 0.5, 2, "2a48790e0466688031e23b602f3945b72090d0a1d1ce0d7fc19cbbfc3a132226"),
        ("gnp", 64, 0.3, 1, "93d868b46f77deffc8e208ccf73a2ed1c333f2d495881f19c68402f385bbf971"),
    ],
)
def test_golden_digest_generators(family, n, p, seed, digest):
    # the oracle decides every with-p5 resample and every p5free-repair deletion
    g = pc.generate(pc.GeneratorSpec(family, n, p, seed))
    assert hashlib.sha256(pc.write_graph(g).encode()).hexdigest() == digest


def test_golden_digest_six_vertex_p5_graphs():
    # index and first path of every connected 6-vertex graph with an induced P5
    h = hashlib.sha256()
    count = 0
    for i, g in enumerate(pc.enumerate_connected_graphs(6)):
        path = pc.find_induced_path(g)
        if path is not None:
            h.update(f"{i} {path}\n".encode())
            count += 1
    assert count == 7440
    assert h.hexdigest() == "8a298c70d217e1c1cbb5e792496d666fd4f7de9fb6bf667590a4df0dab372b41"
