"""Bit-exact certificate encodings.

Wire layout (all integers most-significant-bit first, ids are 1..n on
``idwidth = ceil(log2(n+1))`` bits):

  tree          DFS from the root, children in ascending order, one 0 per
                downward edge and one 1 per upward edge; 2(t-1) bits.
  partitioning  tree bits, then per tree node in preorder: 1 kind bit
                (0 = clique, 1 = P3), member count on idwidth bits, member
                ids on idwidth bits each.  Clique members ascend; P3 members
                appear in path order starting at the lower-id endpoint, so
                the center needs no extra field.
  certificate   neighbor row (n bits) | partitioning length on
                2*idwidth + 3 bits | partitioning | pieces entry count on
                idwidth bits | entries, each owner id (idwidth) + row (n).

The partitioning block length determines the node count: a block of L bits
with t nodes satisfies L = 2(t-1) + t(1+idwidth) + n*idwidth because the
bags partition 1..n, so t = (L + 2 - n*idwidth) / (3 + idwidth).  Decoders
reject any L for which this is not a positive integer.

The length field is 3 bits wider than the two-id field one might expect:
for n = 3 an all-singleton partition occupies 19 bits, which already
overflows 2*idwidth = 4 bits.

No honest certificate exceeds B(n) = n + (2w+3) + [n(2w+3) - 2] + w +
max(3, ceil(sqrt n)+1)(w+n), w = idwidth(n): the row, the length field, the
block at its longest (t = n, as bags are nonempty and disjoint), the count
field, and entries of w + n bits: one per member of a small bag (at most 3
in a P3, ceil(sqrt n) in a clique); a member of a big bag, k > ceil(sqrt n)
members, holds its own row and at most ceil(n/k) <= ceil(sqrt n) others.

How fields are written: the neighbor row comes first and its field has a
fixed width, so a certificate with a zero row differs from the same
certificate with row r only in its leading n bits.  Every vertex of a
proof carries the same block, and the members of a small bag also the
same pieces.  ``encode_certificates`` therefore joins the length field and
the block once, shifts them once per distinct pieces count, writes each
bundle's tail once, and gives each holder its row with one shift and one
OR.  ``encode_certificate`` writes one certificate; both take the tail
from ``_tail``.

How fields are read: a certificate's row and block length come off the
top with one shift.  The tail (entry count and entries) is then everything
below the block: its length is the total length less the head and the
block, and one mask cuts it out, so each entry costs a shift of the small
tail, not of the whole certificate.  Every length field is checked against
the bits that are left before a mask is built from it, so a lying length
costs nothing.  The partitioning block, tree walk included, is read from
one 0/1 string of the block.  A malformed input gets the error of the
first field, in stream order, that cannot be read or fails its check.
``decode_certificate`` reads one certificate.  ``decode_certificates``
reads a proof's: a block equal to the previous certificate's comes out as
that certificate's ``Bits`` (a compare: a dict keyed by the block hashes
all of its 10k-19k bits, and at n = 1024 gave back half the gain or more),
each block length gets one mask, and each distinct tail is read once, into
one pieces tuple that all its holders share.  Both take the head from
``_read_head`` and the entries from ``_read_tail``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .bits import Bits
from .errors import (
    CertificateFormatError,
    MalformedCertificate,
    MalformedPartitioning,
    MalformedTreeEncoding,
)
from .graphs import parse_decimal
from .treepart import CLIQUE, P3, Bag, RootedTree, TreePartition


def idwidth(n: int) -> int:
    """Bits needed for one id in 1..n (equals ceil(log2(n+1)))."""
    return n.bit_length()


def plen_width(n: int) -> int:
    return 2 * idwidth(n) + 3


def _walk(tree: RootedTree) -> tuple[str, list[int]]:
    """The tree's 0=down / 1=up walk as a 0/1 string, and its nodes in
    preorder (the order the walk first enters them)."""
    children = tree.children()
    steps, order, stack = [], [0], [(0, 0)]
    while stack:
        node, next_child = stack.pop()
        kids = children[node]
        if next_child < len(kids):
            stack.append((node, next_child + 1))
            steps.append("0")
            kid = kids[next_child]
            order.append(kid)
            stack.append((kid, 0))
        elif stack:
            steps.append("1")
    return "".join(steps), order


def encode_tree(tree: RootedTree) -> Bits:
    """Depth-first 0=down / 1=up encoding; 2*(node count - 1) bits."""
    return Bits.from01(_walk(tree)[0])


def _unwalk(walk: str) -> RootedTree:
    """Inverse of ``_walk``; nodes come out numbered in preorder."""
    parents: list[int | None] = [None]
    cur = 0
    for step in walk:
        if step == "0":
            node = len(parents)
            parents.append(cur)
            cur = node
        else:
            up = parents[cur]
            if up is None:
                raise MalformedTreeEncoding("more up-edges than down-edges")
            cur = up
    if cur != 0:
        raise MalformedTreeEncoding("walk does not return to the root")
    return RootedTree(tuple(parents))


def decode_tree(b: Bits) -> RootedTree:
    """Inverse of ``encode_tree``; nodes come out numbered in preorder."""
    return _unwalk(b.to01())


def encode_partitioning(tp: TreePartition, n: int) -> Bits:
    if tp.n != n:
        raise ValueError(f"partition of 1..{tp.n} cannot be encoded for n={n}")
    fw = f"0{idwidth(n)}b"
    id_bits = [format(v, fw) for v in range(n + 1)]  # each id or member count
    walk, order = _walk(tp.tree)
    fields = [walk]
    for node in order:
        bag = tp.bags[node]
        if bag.kind == P3:
            fields.append("1" + id_bits[3])
            fields += [id_bits[v] for v in bag.p3_order]
        else:
            m = bag.mask
            fields.append("0" + id_bits[m.bit_count()])
            while m:  # members ascending
                low = m & -m
                fields.append(id_bits[low.bit_length()])
                m ^= low
    s = "".join(fields)
    return Bits(int(s, 2), len(s))


def decode_partitioning(b: Bits, n: int) -> TreePartition:
    """Strict inverse of ``encode_partitioning``.

    Validates structural well-formedness and that the bags partition 1..n;
    whether the partition is valid for any particular graph is the
    verifier's business, not the decoder's.
    """
    w = idwidth(n)
    length = b.length
    numerator = length + 2 - n * w
    if numerator <= 0 or numerator % (3 + w):
        raise MalformedPartitioning(f"no node count matches a {length}-bit block for n={n}")
    t = numerator // (3 + w)
    if t > n:
        raise MalformedPartitioning(f"implied node count {t} out of range")
    s = b.to01()
    pos = 2 * (t - 1)  # the length formula leaves room for the tree walk
    try:
        tree = _unwalk(s[:pos])  # a walk that passes has 2(t-1) steps, so t nodes
    except MalformedTreeEncoding as exc:
        raise MalformedPartitioning(f"bad tree block: {exc}") from exc
    wmask = (1 << w) - 1
    bags = []
    seen = 0
    for _ in range(t):
        start = pos + 1 + w
        if start > length:
            raise MalformedPartitioning("short read")
        kind = s[pos]
        cnt = int(s[pos + 1 : start], 2)
        if cnt == 0:
            raise MalformedPartitioning("empty bag")
        pos = start + cnt * w
        if pos > length:
            raise MalformedPartitioning("short read")
        chunk = int(s[start:pos], 2)  # the member ids, first one highest
        ids = []
        for shift in range(pos - start - w, -1, -w):
            v = chunk >> shift & wmask
            if not 1 <= v <= n:
                raise MalformedPartitioning(f"member id {v} out of range")
            bit = 1 << (v - 1)
            if seen & bit:
                raise MalformedPartitioning(f"member id {v} appears twice")
            seen |= bit
            ids.append(v)
        if kind == "1":
            if cnt != 3:
                raise MalformedPartitioning("P3 bag without exactly 3 members")
            if ids[0] > ids[2]:
                raise MalformedPartitioning("P3 order must start at the lower endpoint")
            bags.append(Bag(frozenset(ids), P3, tuple(ids)))
        else:
            if ids != sorted(ids):
                raise MalformedPartitioning("clique members not ascending")
            bags.append(Bag(frozenset(ids), CLIQUE))
    if pos != length:
        raise MalformedPartitioning("leftover bits after last bag")
    if seen != (1 << n) - 1:
        raise MalformedPartitioning("bags do not cover 1..n")
    # decode_tree numbers nodes in preorder, so bag i belongs to node i
    return TreePartition(n, tree, tuple(bags))


@dataclass(frozen=True, slots=True)
class NeighborhoodRow:
    """One vertex's full n-bit adjacency row, as claimed by a certificate."""

    owner: int
    row: int

    def __post_init__(self):
        if self.owner < 1:
            raise ValueError("owner id must be positive")
        _no_self_loop(self.owner, self.row)


@dataclass(frozen=True, slots=True)
class EncodedCertificate:
    """Decoded three-part certificate of one vertex."""

    neighbors_part: int
    partitioning_part: Bits
    pieces_part: tuple[NeighborhoodRow, ...]


def _no_self_loop(owner: int, row: int) -> None:
    if row >> (owner - 1) & 1:
        raise ValueError("row claims a self loop")


def _fit(value: int, width: int) -> None:
    if value >> width:  # nonzero also when value < 0
        raise MalformedCertificate(f"field does not fit: {value} does not fit in {width} bits")


def _tail(owners: Sequence[int], rows: Iterable[int], w: int, n: int) -> tuple[int, int]:
    """The fields below the block, as (value, length): the entry count,
    then each owner id and its row."""
    tail = len(owners)
    _fit(tail, w)
    size = w + n
    for owner, row in zip(owners, rows):
        if owner >> w or row >> n:
            _fit(owner, w)
            _fit(row, n)
        tail = tail << size | (owner << n | row)
    return tail, w + len(owners) * size


def encode_certificate(cert: EncodedCertificate, n: int) -> Bits:
    """One certificate; ``encode_certificates`` writes a proof's at once."""
    w = idwidth(n)
    pw = 2 * w + 3  # plen_width(n)
    row, block, pieces = cert.neighbors_part, cert.partitioning_part, cert.pieces_part
    plen = block.length
    _fit(row, n)
    _fit(plen, pw)
    tail, tail_len = _tail([e.owner for e in pieces], [e.row for e in pieces], w, n)
    return Bits(((row << pw | plen) << plen | block.value) << tail_len | tail, n + pw + plen + tail_len)


def encode_certificates(
    block: Bits, adj: Sequence[int], bundles: Sequence[tuple[Sequence[int], Sequence[int]]], n: int
) -> dict[int, Bits]:
    """The certificates of every holder in ``bundles``, in bundle order.

    Each bundle is (owners, holders): every holder h gets
    ``encode_certificate(EncodedCertificate(adj[h], block, pieces), n)``,
    the pieces being the ids ``owners`` with their rows ``adj[owner]``.
    A pieces row with a self loop raises ``NeighborhoodRow``'s ValueError
    before anything is written, and a field that does not fit raises
    ``encode_certificate``'s error for that field.
    """
    for owners, _ in bundles:
        for owner in owners:
            _no_self_loop(owner, adj[owner])
    w = idwidth(n)
    pw = 2 * w + 3  # plen_width(n)
    plen = block.length
    _fit(plen, pw)
    head = plen << plen | block.value  # length field | block
    shifted: dict[int, int] = {}  # pieces count -> head << tail length
    certs = {}
    for owners, holders in bundles:
        tail, tail_len = _tail(owners, [adj[o] for o in owners], w, n)
        top = shifted.get(len(owners))
        if top is None:
            top = shifted[len(owners)] = head << tail_len
        body, length = top | tail, n + pw + plen + tail_len
        for h in holders:
            row = adj[h]
            _fit(row, n)
            certs[h] = Bits(body | row << (length - n), length)
    return certs


def _read_head(value: int, length: int, n: int) -> tuple[int, int, int]:
    """(row, block length, tail length) of a certificate's bits."""
    w = idwidth(n)
    pw = 2 * w + 3  # plen_width(n)
    head_len = n + pw
    if length < head_len:
        raise MalformedCertificate("short read")
    head = value >> (length - head_len)
    plen = head & ((1 << pw) - 1)
    tail_len = length - head_len - plen
    if tail_len < w:  # no room for the block and the entry count
        raise MalformedCertificate("short read")
    return head >> pw, plen, tail_len


def _read_tail(tail: int, tail_len: int, n: int) -> tuple[NeighborhoodRow, ...]:
    """The pieces entries of the ``tail_len`` bits ``tail``: inverse of ``_tail``."""
    w = idwidth(n)
    rest = tail_len - w  # bits after the count
    cnt = tail >> rest
    size = w + n
    wmask, nmask = (1 << w) - 1, (1 << n) - 1
    pieces = []
    for i in range(1, min(cnt, rest // size) + 1):  # the entries wholly present
        pos = rest - i * size
        owner = tail >> (pos + n) & wmask
        row = tail >> pos & nmask
        if not 1 <= owner <= n:
            raise MalformedCertificate(f"pieces owner {owner} out of range")
        if row >> (owner - 1) & 1:
            raise MalformedCertificate(f"pieces row of {owner} claims a self loop")
        pieces.append(NeighborhoodRow(owner, row))
    if cnt * size > rest:
        raise MalformedCertificate("short read")
    if cnt * size < rest:
        raise MalformedCertificate("trailing bits")
    return tuple(pieces)


def decode_certificate(b: Bits, n: int) -> EncodedCertificate:
    """One certificate; ``decode_certificates`` reads a proof's at once."""
    value = b.value
    row, plen, tail_len = _read_head(value, b.length, n)
    block = Bits(value >> tail_len & ((1 << plen) - 1), plen)
    return EncodedCertificate(row, block, _read_tail(value & ((1 << tail_len) - 1), tail_len, n))


def decode_certificates(certs: Mapping[int, Bits], n: int) -> dict[int, Optional[EncodedCertificate]]:
    """``{v: decode_certificate(b, n)}`` over ``certs``, None wherever that
    raises ``MalformedCertificate``.

    Equal fields come out as one object: a block equal to the one before it
    in ``certs`` is that block's ``Bits``, and equal tails give one pieces
    tuple, read once.
    """
    masks: dict[int, int] = {}  # block length -> block mask
    tails: dict[tuple[int, int], Optional[tuple[NeighborhoodRow, ...]]] = {}  # (tail, length) -> pieces
    block = None
    dec: dict[int, Optional[EncodedCertificate]] = {}
    for v, b in certs.items():
        value = b.value
        try:
            row, plen, tail_len = _read_head(value, b.length, n)
        except MalformedCertificate:
            dec[v] = None
            continue
        key = (value & ((1 << tail_len) - 1), tail_len)
        pieces = tails.get(key, False)  # False: not read yet
        if pieces is False:
            try:
                pieces = _read_tail(*key, n)
            except MalformedCertificate:
                pieces = None
            tails[key] = pieces
        if pieces is None:
            dec[v] = None
            continue
        mask = masks.get(plen)
        if mask is None:
            mask = masks[plen] = (1 << plen) - 1
        bv = value >> tail_len & mask
        if block is None or bv != block.value or plen != block.length:  # compared, not hashed
            block = Bits(bv, plen)
        dec[v] = EncodedCertificate(row, block, pieces)
    return dec


# --- certificate file format --------------------------------------------
#
#   <id> <bitlength> <hex>      one line per vertex, sorted by id;
#                               hex is the bitstring zero-padded to a byte;
#                               id and bitlength as in ``graphs.parse_decimal``


def write_certificates(certs: dict[int, Bits]) -> str:
    lines = []
    for v in sorted(certs):
        b = certs[v]
        hexpart = b.to_hex()
        lines.append(f"{v} {b.length} {hexpart}" if hexpart else f"{v} {b.length}")
    return "\n".join(lines) + "\n"


def parse_certificates(text: str) -> dict[int, Bits]:
    certs: dict[int, Bits] = {}
    last = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise CertificateFormatError(f"line {lineno}: expected '<id> <bitlength> <hex>'")
        try:
            v = parse_decimal(parts[0])
            bitlength = parse_decimal(parts[1])
        except ValueError as exc:
            raise CertificateFormatError(f"line {lineno}: non-integer field") from exc
        if v <= last:
            raise CertificateFormatError(f"line {lineno}: ids must be strictly ascending")
        if bitlength < 0 or (bitlength > 0) != (len(parts) == 3):
            raise CertificateFormatError(f"line {lineno}: bit length / hex mismatch")
        try:
            certs[v] = Bits.from_hex(parts[2] if len(parts) == 3 else "", bitlength)
        except ValueError as exc:
            raise CertificateFormatError(f"line {lineno}: {exc}") from exc
        last = v
    if not certs:
        raise CertificateFormatError("empty certificate file")
    return certs
