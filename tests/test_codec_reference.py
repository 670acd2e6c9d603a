"""The codec and the partition index against their BitReader forms.

Every case must give the same value, or the same exception class and
message, from the codec and from the ``reference_*`` copies in helpers.py,
which read one field at a time through ``BitReader``.  Each test tallies
its outcome classes (decodes, or one message with the numbers masked) and
requires a floor for each, so a change in the inputs that stopped reaching
a check would fail here rather than go unnoticed.
"""

import collections
import random
import re

import pytest

import p5cert as pc
from p5cert import p5free
from p5cert.bits import Bits
from p5cert.codec import (
    EncodedCertificate,
    NeighborhoodRow,
    decode_certificates,
    encode_certificates,
    idwidth,
    plen_width,
)
from p5cert.errors import P5CertError
from p5cert.harness import GeneratorSpec, _random_false_partition, generate, p5free_corpus
from p5cert.p5free import bag_is_small
from p5cert.treepart import CLIQUE, Bag, RootedTree, TreePartition
from helpers import (
    nested_to_tree,
    random_nested,
    random_tree_partition,
    reference_decode_certificate,
    reference_decode_partitioning,
    reference_decode_tree,
    reference_encode_certificate,
    reference_encode_partitioning,
    reference_encode_tree,
    reference_partition_index,
)


def outcome(fn, *args):
    try:
        return "value", fn(*args)
    except (P5CertError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def outcome_class(o) -> str:
    return "decodes" if o[0] == "value" else re.sub(r"(?<![A-Z])\d+", "#", o[1])


def same(fn, ref, *args):
    got, want = outcome(fn, *args), outcome(ref, *args)
    assert got == want, (fn.__name__, args, got, want)
    return want


def check_tree(b: Bits, tally) -> None:
    kind, tree = same(pc.decode_tree, reference_decode_tree, b)
    tally[outcome_class((kind, tree))] += 1
    if kind == "value":
        assert pc.encode_tree(tree) == reference_encode_tree(tree) == b


def check_block(b: Bits, n: int, tally) -> None:
    """Decode, re-encode and index one partitioning block both ways."""
    kind, tp = same(pc.decode_partitioning, reference_decode_partitioning, b, n)
    tally[outcome_class((kind, tp))] += 1
    if kind == "value":
        assert pc.encode_partitioning(tp, n) == reference_encode_partitioning(tp, n) == b
    assert p5free._partition_index.__wrapped__(b, n) == reference_partition_index(b, n)


def check_certificate(b: Bits, n: int, tally) -> None:
    kind, dec = same(pc.decode_certificate, reference_decode_certificate, b, n)
    tally[outcome_class((kind, dec))] += 1
    if kind == "value":
        assert pc.encode_certificate(dec, n) == reference_encode_certificate(dec, n) == b


def require_floors(tally, floors) -> None:
    assert set(tally) == set(floors), tally
    for cls, floor in floors.items():
        assert tally[cls] >= floor, (cls, tally)


def honest_sets():
    specs = list(p5free_corpus())
    specs += [GeneratorSpec(fam, n, 0.5, 1) for n in (128, 1024) for fam in ("split", "cograph")]
    for spec in specs:
        g = generate(spec)
        yield g, pc.prove(g)


def test_honest_certificates_match_reference():
    certs_seen, blocks = collections.Counter(), collections.Counter()
    for g, certs in honest_sets():
        n = g.n
        for b in certs.values():
            check_certificate(b, n, certs_seen)
        for block in {pc.decode_certificate(b, n).partitioning_part for b in certs.values()}:
            check_block(block, n, blocks)
    require_floors(certs_seen, {"decodes": 3000})
    require_floors(blocks, {"decodes": 30})


def check_batch(certs: dict[int, Bits], n: int, tally) -> dict:
    """``decode_certificates`` against ``decode_certificate``, one
    certificate at a time: the same value, or None where it raises
    ``MalformedCertificate``."""
    got = decode_certificates(certs, n)
    assert list(got) == list(certs)
    for v, b in certs.items():
        kind, want = outcome(pc.decode_certificate, b, n)
        tally[outcome_class((kind, want))] += 1
        assert kind in ("value", "MalformedCertificate"), (b, n, want)
        assert got[v] == (want if kind == "value" else None), (b, n, want)
    return got


def test_decode_certificates_on_honest_proofs():
    # a field that repeats across a proof comes out as one object: the block
    # of every vertex, and the pieces of every member of a small bag
    tally = collections.Counter()
    for g, certs in honest_sets():
        n = g.n
        got = check_batch(certs, n, tally)
        assert len({id(d.partitioning_part) for d in got.values()}) == 1
        bags = pc.build_tree_partition(g).bags
        small = [bag for bag in bags if bag_is_small(bag, n)]
        for bag in small:
            assert len({id(got[m].pieces_part) for m in bag.members}) == 1
        big_members = sum(len(bag.members) for bag in bags if not bag_is_small(bag, n))
        assert len({id(d.pieces_part) for d in got.values()}) == len(small) + big_members
    require_floors(tally, {"decodes": 3000})


def sample_certificates():
    """Every certificate of the corpus graphs up to n = 16, and three
    vertices of each n = 48 graph."""
    for spec in p5free_corpus():
        if spec.n <= 16 or spec.n == 48:
            g = generate(spec)
            certs = pc.prove(g)
            for v in certs if g.n <= 16 else (1, g.n // 2, g.n):
                yield g.n, certs[v]


def one_bit_edits(b: Bits):
    for i in range(b.length):
        yield b.flip(i)
    if b.length:
        yield Bits(b.value >> 1, b.length - 1)
    yield b + Bits.from01("0")
    yield b + Bits.from01("1")


def test_one_bit_edits_match_reference():
    certs_seen, blocks = collections.Counter(), collections.Counter()
    seen_blocks = set()
    for n, cert in sample_certificates():
        for b in one_bit_edits(cert):
            check_certificate(b, n, certs_seen)
        block = pc.decode_certificate(cert, n).partitioning_part
        if (block, n) not in seen_blocks:
            seen_blocks.add((block, n))
            for b in one_bit_edits(block):
                check_block(b, n, blocks)
    require_floors(
        certs_seen,
        {
            "decodes": 20000,
            "short read": 1000,
            "trailing bits": 300,
            "pieces owner # out of range": 300,
            "pieces row of # claims a self loop": 300,
        },
    )
    require_floors(
        blocks,
        {
            "decodes": 3,  # the kind bit of a 3-member bag whose order is ascending
            "no node count matches a #-bit block for n=#": 30,
            "bad tree block: more up-edges than down-edges": 100,
            "bad tree block: walk does not return to the root": 100,
            "short read": 100,
            "empty bag": 100,
            "member id # out of range": 400,
            "member id # appears twice": 600,
            "clique members not ascending": 30,
            "P3 bag without exactly # members": 100,
        },
    )


def shuffled_block(n: int, rng: random.Random) -> Bits:
    """A valid tree walk, then bags that partition 1..n with their members
    in random order half the time and a random kind bit on 3-member bags;
    one time in four the last bag's count is one short."""
    w = idwidth(n)
    t = rng.randint(1, n)
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    cuts = sorted(rng.sample(range(1, n), t - 1)) if t > 1 else []
    out = pc.encode_tree(nested_to_tree(random_nested(t, rng)))
    short = rng.random() < 0.25
    for a, b in zip([0] + cuts, cuts + [n]):
        chunk = ids[a:b] if rng.random() < 0.5 else sorted(ids[a:b])
        out += Bits(int(len(chunk) == 3 and rng.random() < 0.7), 1) + Bits(len(chunk) - (short and b == n), w)
        for v in chunk:
            out += Bits(v, w)
    return out


def random_block(n: int, rng: random.Random) -> Bits:
    """A block-sized bitstring: random bits, a valid tree walk followed by
    random bits, a valid block with a random run of bits rewritten, or a
    ``shuffled_block``."""
    w = idwidth(n)
    shape = rng.randrange(5)
    if shape == 4:
        return shuffled_block(n, rng)
    if shape == 3:
        b = pc.encode_partitioning(random_tree_partition(n, rng), n)
        start = rng.randrange(b.length)
        width = rng.randint(1, min(2 * w, b.length - start))
        noise = rng.getrandbits(width) << (b.length - start - width)
        return Bits(b.value ^ noise, b.length)
    t = rng.randint(1, n + 1)
    length = 2 * (t - 1) + t * (1 + w) + n * w + rng.choice([0, 0, 0, -1, 1, rng.randint(-20, 20)])
    length = max(length, 0)
    if shape == 2 and t <= n:
        walk = pc.encode_tree(nested_to_tree(random_nested(t, rng)))
        rest = max(length - walk.length, 0)
        return walk + Bits(rng.getrandbits(rest), rest)
    return Bits(rng.getrandbits(length), length)


def random_certificate(n: int, rng: random.Random) -> Bits:
    """Random bits, or a well-formed layout with random field values."""
    w, pw = idwidth(n), plen_width(n)
    if rng.random() < 0.3:
        length = rng.randint(0, n + pw + 4 * (n + w))
        return Bits(rng.getrandbits(length), length)
    block = random_block(n, rng)
    cnt = rng.randint(0, min(4, (1 << w) - 1))
    entries = Bits(rng.getrandbits(cnt * (w + n)), cnt * (w + n))
    if rng.random() < 0.5:  # owners in range, rows without a self bit
        entries = Bits(0, 0)
        for _ in range(cnt):
            owner = rng.randint(1, n)
            entries += Bits(owner, w) + Bits(rng.getrandbits(n) & ~(1 << (owner - 1)), n)
    out = (
        Bits(rng.getrandbits(n), n)
        + Bits(block.length, pw)
        + block
        + Bits(rng.choice([cnt, cnt, rng.getrandbits(w)]), w)
        + entries
    )
    cut = rng.choice([0, 0, 0, 1, -1, rng.randint(-8, 8)])
    if cut > 0:
        return out + Bits(rng.getrandbits(cut), cut)
    keep = max(out.length + cut, 0)
    return Bits(out.field(0, keep), keep)


def test_random_bits_match_reference():
    rng = random.Random(1501)
    trees, blocks, certs_seen = collections.Counter(), collections.Counter(), collections.Counter()
    for n in range(1, 41):
        for _ in range(40):
            length = rng.randint(0, 2 * n)
            check_tree(Bits(rng.getrandbits(length), length), trees)
            check_block(random_block(n, rng), n, blocks)
            check_certificate(random_certificate(n, rng), n, certs_seen)
    require_floors(
        trees,
        {"decodes": 35, "more up-edges than down-edges": 400, "walk does not return to the root": 100},
    )
    require_floors(
        blocks,
        {
            "decodes": 50,
            "no node count matches a #-bit block for n=#": 150,
            "implied node count # out of range": 10,
            "bad tree block: more up-edges than down-edges": 70,
            "bad tree block: walk does not return to the root": 20,
            "short read": 15,
            "empty bag": 10,
            "member id # out of range": 70,
            "member id # appears twice": 45,
            "clique members not ascending": 60,
            "P3 bag without exactly # members": 4,
            "P3 order must start at the lower endpoint": 7,
            "leftover bits after last bag": 5,
        },
    )
    require_floors(
        certs_seen,
        {
            "decodes": 80,
            "short read": 280,
            "trailing bits": 50,
            "pieces owner # out of range": 50,
            "pieces row of # claims a self loop": 55,
        },
    )


def test_decode_certificates_on_edits_and_random_bits():
    # one-bit edits between honest certificates break the runs of equal
    # blocks and tails, and so does the block with one leading zero more:
    # the same value, another length; random certificates, some repeated,
    # reach every error
    rng = random.Random(2003)
    tally = collections.Counter()
    for spec in p5free_corpus():
        if spec.n <= 16:
            certs = pc.prove(generate(spec))
            batch = []
            for b in certs.values():
                batch.append(b)
                batch += rng.sample(list(one_bit_edits(b)), 6)
                d = pc.decode_certificate(b, spec.n)
                longer = Bits(d.partitioning_part.value, d.partitioning_part.length + 1)
                batch.append(pc.encode_certificate(EncodedCertificate(d.neighbors_part, longer, d.pieces_part), spec.n))
            check_batch(dict(enumerate(batch, 1)), spec.n, tally)
    for n in range(1, 41):
        batch = [random_certificate(n, rng) for _ in range(20)]
        check_batch(dict(enumerate(batch + rng.choices(batch, k=10), 1)), n, tally)
    require_floors(
        tally,
        {
            "decodes": 900,
            "short read": 500,
            "trailing bits": 80,
            "pieces owner # out of range": 100,
            "pieces row of # claims a self loop": 100,
        },
    )


@pytest.mark.parametrize("family", ["split", "cograph"])
def test_lying_length_fields_at_1024(family):
    g = generate(GeneratorSpec(family, 1024, 0.5, 1))
    n, w, pw = g.n, idwidth(g.n), plen_width(g.n)
    certs = pc.prove(g)
    tally = collections.Counter()
    for v in (1, 512, 1024):
        b = certs[v]
        plen = pc.decode_certificate(b, n).partitioning_part.length
        plen_shift = b.length - n - pw
        long_block = Bits(b.value | ((1 << pw) - 1) << plen_shift, b.length)
        cnt_shift = plen_shift - plen - w
        long_count = Bits(b.value | ((1 << w) - 1) << cnt_shift, b.length)
        for lie in (long_block, long_count):
            check_certificate(lie, n, tally)
            check_certificate(lie + Bits(0, n + w), n, tally)  # one more entry's worth of bits
    # the zero bits after the last honest entry read as owner 0
    require_floors(tally, {"short read": 9, "pieces owner # out of range": 3})


def test_encode_fields_that_do_not_fit():
    block2 = pc.encode_partitioning(random_tree_partition(2, random.Random(0)), 2)
    row = NeighborhoodRow(1, 0b10)
    cases = [
        (EncodedCertificate(0b100, block2, ()), 2),  # row wider than n
        (EncodedCertificate(-1, block2, ()), 2),
        (EncodedCertificate(0, Bits(0, 1 << plen_width(1)), ()), 1),  # block length field
        (EncodedCertificate(0, block2, (row,) * 4), 2),  # 4 entries on 2 bits
        (EncodedCertificate(0, block2, (NeighborhoodRow(4, 0),)), 2),  # owner on 2 bits
        (EncodedCertificate(0, block2, (NeighborhoodRow(1, 0b110),)), 2),  # pieces row wider than n
        (EncodedCertificate(0b100, block2, (row,) * 4), 2),  # first failing field wins
        (EncodedCertificate(0, block2, (row, NeighborhoodRow(5, 0b1000))), 2),  # owner before row
        (EncodedCertificate(0b11, block2, (row, row, row)), 2),  # fits
    ]
    tally = collections.Counter()
    for cert, n in cases:
        tally[outcome_class(same(pc.encode_certificate, reference_encode_certificate, cert, n))] += 1
    tp = random_tree_partition(3, random.Random(1))
    for n in (2, 3, 4):
        tally[outcome_class(same(pc.encode_partitioning, reference_encode_partitioning, tp, n))] += 1
    require_floors(
        tally,
        {
            "decodes": 2,
            "field does not fit: # does not fit in # bits": 6,
            "field does not fit: -# does not fit in # bits": 1,
            "partition of #..# cannot be encoded for n=#": 2,
        },
    )


def written(block: Bits, adj: list[int], owners: tuple[int, ...], n: int) -> Bits:
    """The certificate ``encode_certificates`` writes for holder n + 1 of
    one bundle, its row ``adj[n + 1]`` and its pieces owners ``owners``."""
    return encode_certificates(block, adj, [(owners, (n + 1,))], n)[n + 1]


def reference_written(block: Bits, adj: list[int], owners: tuple[int, ...], n: int) -> Bits:
    pieces = tuple(NeighborhoodRow(o, adj[o]) for o in owners)
    return reference_encode_certificate(EncodedCertificate(adj[n + 1], block, pieces), n)


def test_encode_certificates_matches_reference():
    # each bundle and row alone, then the fitting rows of one certificate
    # written together: holders sharing a bundle, bundles sharing a count
    rng = random.Random(2002)
    tally = collections.Counter()
    for n, b in sample_certificates():
        cert = pc.decode_certificate(b, n)
        block = cert.partitioning_part
        adj = [0] + [rng.getrandbits(n) & ~(1 << (v - 1)) for v in range(1, n + 1)] + [0]
        for e in cert.pieces_part:
            adj[e.owner] = e.row
        honest = tuple(e.owner for e in cert.pieces_part)
        drawn = tuple(sorted(rng.sample(range(1, n + 1), len(honest))))
        bundles = (honest, (), tuple(range(1, n + 1)), drawn)
        rows = (cert.neighbors_part, 0, (1 << n) - 1, rng.getrandbits(n), 1 << n, rng.getrandbits(n + 8) | 1 << n, -1)
        for owners in bundles:
            for row in rows:
                adj[n + 1] = row
                tally[outcome_class(same(written, reference_written, block, adj, owners, n))] += 1
        fitting = [row for row in rows if not row >> n]
        many, holders = adj[: n + 1], []
        for owners in bundles:
            holders.append((owners, tuple(range(len(many), len(many) + len(fitting)))))
            many += fitting
        got = encode_certificates(block, many, holders, n)
        assert list(got) == [h for _, ids in holders for h in ids]
        for owners, ids in holders:
            for h in ids:
                pieces = tuple(NeighborhoodRow(o, many[o]) for o in owners)
                assert got[h] == reference_encode_certificate(EncodedCertificate(many[h], block, pieces), n)
    require_floors(
        tally,
        {
            "decodes": 600,
            "field does not fit: # does not fit in # bits": 300,
            "field does not fit: -# does not fit in # bits": 150,
        },
    )


def test_encode_partitioning_on_trees_not_numbered_in_preorder():
    # builder partitions are numbered in preorder, so an encoder that took the
    # bags in index order would pass every other test; the lying-partition
    # adversary's trees are numbered as their nodes are made
    rng = random.Random(2001)
    tally = collections.Counter()
    unordered = 0
    for n in range(1, 41):
        for _ in range(10):
            tp = _random_false_partition(n, rng)
            unordered += list(tp.tree.preorder()) != list(range(len(tp.tree.parent)))
            b = pc.encode_partitioning(tp, n)
            assert b == reference_encode_partitioning(tp, n), (n, tp)
            check_block(b, n, tally)
    require_floors(tally, {"decodes": 400})
    assert unordered >= 200, unordered


def test_partition_index_matches_reference_on_random_partitions():
    rng = random.Random(1502)
    tally = collections.Counter()
    for _ in range(400):
        n = rng.randint(1, 40)
        check_block(pc.encode_partitioning(random_tree_partition(n, rng), n), n, tally)
    # the root {3} with the leaves {1} and {2}
    tp = TreePartition(3, RootedTree((None, 0, 0)), tuple(Bag(frozenset({v}), CLIQUE) for v in (3, 1, 2)))
    check_block(pc.encode_partitioning(tp, 3), 3, tally)
    require_floors(tally, {"decodes": 401})
