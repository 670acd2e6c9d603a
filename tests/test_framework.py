import pytest

import p5cert as pc
from p5cert.bits import Bits
from p5cert.cli import get_scheme
from p5cert.errors import CertificateFormatError, DisconnectedInput, MissingCertificate, ProverFailed
from p5cert.framework import format_run_report, local_view, total_cert_bits
from p5cert.p5free import scheme

SCHEME = scheme()


def test_local_view_contents():
    k3 = pc.build_graph(3, [(1, 2), (1, 3), (2, 3)])
    certs = pc.prove(k3)
    view = local_view(k3, certs, 1)
    assert view.n == 3 and view.self_id == 1
    assert view.self_cert == certs[1]
    assert [w for w, _ in view.neighbors] == [2, 3]


def test_local_view_missing_certificate(p5_graph):
    certs = pc.prove(p5_graph)
    del certs[4]
    with pytest.raises(MissingCertificate):
        local_view(p5_graph, certs, 4)
    with pytest.raises(MissingCertificate):
        local_view(p5_graph, certs, 3)  # 4 is a neighbor of 3


def test_non_adjacent_views_share_nothing(p5_graph):
    certs = pc.prove(p5_graph)
    v1 = local_view(p5_graph, certs, 1)
    v4 = local_view(p5_graph, certs, 4)
    assert {w for w, _ in v1.neighbors}.isdisjoint({w for w, _ in v4.neighbors} - {2, 3, 5})


def test_run_rejects_disconnected():
    with pytest.raises(DisconnectedInput):
        pc.run(pc.build_graph(2, []), SCHEME)


def test_run_wraps_prover_errors():
    seven_path = pc.build_graph(7, [(i, i + 1) for i in range(1, 7)])
    with pytest.raises(ProverFailed):
        pc.run(seven_path, SCHEME)


def test_run_deterministic(corpus_graphs):
    _, g = corpus_graphs[0]
    r1 = pc.run(g, SCHEME)
    r2 = pc.run(g, SCHEME)
    assert r1.verdicts == r2.verdicts
    assert (r1.all_accept, r1.max_cert_bits, r1.total_cert_bits) == (
        r2.all_accept,
        r2.max_cert_bits,
        r2.total_cert_bits,
    )


def test_verdict_locality_under_distant_mutation():
    # mutating the certificate of a vertex at distance >= 2 from v must not
    # change v's verdict; leaves of a star are pairwise at distance 2
    star = pc.build_graph(6, [(1, v) for v in range(2, 7)])
    certs = pc.prove(star)
    base = {v: SCHEME.verifier(local_view(star, certs, v)) for v in star.vertices()}
    for far in (3, 4, 5, 6):
        for pos in (0, 7):
            mutated = dict(certs)
            mutated[far] = mutated[far].flip(pos)
            assert SCHEME.verifier(local_view(star, mutated, 2)) == base[2]

    # distance-3 pair in a clique with pendants
    edges = [(u, v) for u in range(1, 6) for v in range(u + 1, 6)]
    edges += [(1, 6), (3, 7)]
    g = pc.build_graph(7, edges)
    certs = pc.prove(g)
    base6 = SCHEME.verifier(local_view(g, certs, 6))
    mutated = dict(certs)
    mutated[7] = mutated[7].flip(3)
    assert SCHEME.verifier(local_view(g, mutated, 6)) == base6


def test_max_cert_bits():
    certs = {1: Bits.from01("101"), 2: Bits.from01("11110000")}
    assert pc.max_cert_bits(certs) == 8
    assert total_cert_bits(certs) == 11
    certs[1] = Bits.from01("1" * 20)
    assert pc.max_cert_bits(certs) == 20  # growing one certificate never shrinks the max


def test_all_equal_certificates_max():
    certs = {v: Bits.from01("1010") for v in range(1, 5)}
    assert pc.max_cert_bits(certs) == 4


def test_report_format(p5_graph):
    report = pc.run(p5_graph, SCHEME)
    text = format_run_report(report)
    lines = text.strip().splitlines()
    assert lines[-1] == "result: REJECTED(5)"
    assert any(line.startswith("3 reject step=v") for line in lines)

    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    text = format_run_report(pc.run(c5, SCHEME))
    assert text.strip().splitlines()[-1] == "result: ALL-ACCEPT"


@pytest.mark.parametrize("name", ["p5", "kk:3"])
def test_run_missing_certificate(name):
    # p5 has a batch verifier, kk:3 verifies view by view: both refuse
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    sch = get_scheme(name)
    certs = sch.prover(c5)
    del certs[4]
    with pytest.raises(MissingCertificate):
        pc.run(c5, sch, certs)


@pytest.mark.parametrize("name", ["p5", "kk:3"])
def test_run_refuses_certificates_outside_1_to_n(name):
    # a certificate for an id the graph does not have is malformed input,
    # not a larger certificate to count in max_cert_bits
    c5 = pc.build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    sch = get_scheme(name)
    certs = sch.prover(c5)
    extra = {**certs, 8: Bits.from01("1" * 200), 6: certs[1], 0: certs[2]}
    with pytest.raises(CertificateFormatError, match=r"certificate for vertex 0, outside 1\.\.5"):
        pc.run(c5, sch, extra)
    del extra[0]
    with pytest.raises(CertificateFormatError, match=r"vertex 6, outside"):
        pc.run(c5, sch, extra)
    assert pc.run(c5, sch, certs).all_accept
