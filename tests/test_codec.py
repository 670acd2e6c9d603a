import random

import pytest

import p5cert as pc
from p5cert.bits import Bits
from p5cert.codec import (
    EncodedCertificate,
    NeighborhoodRow,
    idwidth,
    parse_certificates,
    plen_width,
    write_certificates,
)
from p5cert.errors import (
    CertificateFormatError,
    MalformedCertificate,
    MalformedPartitioning,
    MalformedTreeEncoding,
)
from p5cert.treepart import RootedTree
from helpers import REFERENCE_TREE, nested_to_tree, nested_trees, random_nested, random_tree_partition

REFERENCE_ENCODING = "0011010001011011"

P5_PARTITION_BITS = "0101101101001110000010010001101"
N1_CERT_BITS = "000011011110"


def test_idwidth():
    assert [idwidth(n) for n in (1, 2, 3, 4, 7, 8, 1023, 1024)] == [1, 2, 2, 3, 3, 4, 10, 11]


def test_reference_tree_encoding():
    assert pc.encode_tree(REFERENCE_TREE).to01() == REFERENCE_ENCODING


def test_reference_tree_decoding():
    tree = pc.decode_tree(Bits.from01(REFERENCE_ENCODING))
    assert tree == REFERENCE_TREE
    assert len(tree.children()[0]) == 3


def test_tree_encoding_trivial_cases():
    single = RootedTree((None,))
    assert pc.encode_tree(single).to01() == ""
    assert pc.decode_tree(Bits(0, 0)) == single
    chain = RootedTree((None, 0, 1))
    assert pc.encode_tree(chain).to01() == "0011"


@pytest.mark.parametrize("bad", ["011", "01" * 3 + "1", "0", "0101" + "1"])
def test_tree_decoding_rejects_unbalanced(bad):
    with pytest.raises(MalformedTreeEncoding):
        pc.decode_tree(Bits.from01(bad))


def test_tree_round_trip_exhaustive_small():
    # all ordered rooted trees up to 8 nodes (the acceptance suite goes to 12)
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for t in range(1, 9):
        count = 0
        for nested in nested_trees(t):
            tree = nested_to_tree(nested)
            enc = pc.encode_tree(tree)
            assert enc.length == 2 * (t - 1)
            assert pc.decode_tree(enc) == tree
            count += 1
        assert count == catalan[t - 1]


def test_partitioning_golden_p5(p5_graph):
    tp = pc.build_tree_partition(p5_graph)
    enc = pc.encode_partitioning(tp, 5)
    assert enc.to01() == P5_PARTITION_BITS
    assert pc.decode_partitioning(enc, 5) == tp


def test_partitioning_single_vertex():
    tp = pc.build_tree_partition(pc.build_graph(1, []))
    enc = pc.encode_partitioning(tp, 1)
    assert enc.to01() == "011"


def test_partitioning_round_trip_random():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 20)
        tp = random_tree_partition(n, rng)
        assert pc.decode_partitioning(pc.encode_partitioning(tp, n), n) == tp


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b + Bits.from01("0"),  # leftover bits
        lambda b: Bits(b.value >> 1, b.length - 1),  # short read
    ],
)
def test_partitioning_rejects_bad_lengths(p5_graph, mutate):
    tp = pc.build_tree_partition(p5_graph)
    enc = pc.encode_partitioning(tp, 5)
    with pytest.raises(MalformedPartitioning):
        pc.decode_partitioning(mutate(enc), 5)


def test_partitioning_rejects_zero_count_and_duplicates():
    # hand-assembled for n=1 (idwidth 1): kind 0, count 0
    with pytest.raises(MalformedPartitioning):
        pc.decode_partitioning(Bits.from01("000"), 1)
    # n=2, idwidth 2, single bag listing vertex 1 twice: t=(12+2-4)/5=2 needs
    # a different length; craft n=2 two bags both holding id 1
    tree_bits = "01"
    bags = "0" + "01" + "01" + "0" + "01" + "01"  # two singleton bags, both id 1
    with pytest.raises(MalformedPartitioning):
        pc.decode_partitioning(Bits.from01(tree_bits + bags), 2)


def test_certificate_round_trip_honest(corpus_graphs, p5_graph):
    for _, g in corpus_graphs[:4]:
        for cert_bits in pc.prove(g).values():
            dec = pc.decode_certificate(cert_bits, g.n)
            assert pc.encode_certificate(dec, g.n) == cert_bits
    for cert_bits in pc.prove(p5_graph).values():
        dec = pc.decode_certificate(cert_bits, 5)
        assert pc.encode_certificate(dec, 5) == cert_bits


def test_certificate_golden_n1():
    certs = pc.prove(pc.build_graph(1, []))
    assert certs[1].to01() == N1_CERT_BITS


def test_certificate_truncation_rejected(p5_graph):
    cert = pc.prove(p5_graph)[1]
    with pytest.raises(MalformedCertificate):
        pc.decode_certificate(Bits(cert.value >> 1, cert.length - 1), 5)
    with pytest.raises(MalformedCertificate):
        pc.decode_certificate(cert + Bits.from01("1"), 5)


def test_certificate_single_bit_flips_never_misparse(p5_graph):
    # every flip either decodes to a well-formed value or raises
    for v, cert in pc.prove(p5_graph).items():
        for i in range(cert.length):
            flipped = cert.flip(i)
            try:
                dec = pc.decode_certificate(flipped, 5)
            except MalformedCertificate:
                continue
            assert pc.encode_certificate(dec, 5) == flipped


def test_certificate_random_round_trip():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.randint(1, 16)
        part = pc.encode_partitioning(random_tree_partition(n, rng), n)
        pieces = []
        for _ in range(rng.randint(0, min(n, 5))):
            owner = rng.randint(1, n)
            row = rng.getrandbits(n) & ~(1 << (owner - 1))
            pieces.append(NeighborhoodRow(owner, row))
        cert = EncodedCertificate(rng.getrandbits(n), part, tuple(pieces))
        enc = pc.encode_certificate(cert, n)
        assert pc.decode_certificate(enc, n) == cert


def test_certificate_rejects_out_of_range_owner():
    # n=2: craft pieces entry with owner 3 (= 0b11, above n)
    part = pc.encode_partitioning(random_tree_partition(2, random.Random(0)), 2)
    good = EncodedCertificate(0, part, (NeighborhoodRow(1, 0),))
    bits = pc.encode_certificate(good, 2)
    # owner field sits after neighbors(2) + plen(7) + part + count(2)
    owner_pos = 2 + plen_width(2) + part.length + 2
    broken = bits.flip(owner_pos)  # owner 01 -> 11 = 3
    with pytest.raises(MalformedCertificate):
        pc.decode_certificate(broken, 2)


def test_certificate_file_round_trip(p5_graph):
    certs = pc.prove(p5_graph)
    text = write_certificates(certs)
    assert parse_certificates(text) == certs


@pytest.mark.parametrize(
    "text",
    [
        "2 4 a0\n1 4 50\n",  # ids not ascending
        "1 4 a00\n",  # hex length mismatch
        "1 4 a1\n",  # nonzero padding
        "1 x a0\n",  # non-integer
        "",  # empty
        "1 4\n",  # missing hex for nonzero length
        "1 16 0x12\n",  # hex prefix
        "1 16 1_23\n",  # separator in the hex
        "+1 4 a0\n",  # sign
        "1 1_6 0012\n",  # separator
        "\uff11 4 a0\n",  # full-width digit
    ],
)
def test_certificate_file_strict_errors(text):
    with pytest.raises(CertificateFormatError):
        parse_certificates(text)


def test_plen_width_fits_worst_case_partitioning():
    # all-singleton partitions maximize the block length
    rng = random.Random(23)
    for n in range(1, 33):
        from p5cert.treepart import Bag, CLIQUE, TreePartition

        tree = nested_to_tree(random_nested(n, rng))
        bags = tuple(Bag(frozenset({v}), CLIQUE) for v in range(1, n + 1))
        tp = TreePartition(n, tree, bags)
        block = pc.encode_partitioning(tp, n)
        assert block.length < (1 << plen_width(n))
