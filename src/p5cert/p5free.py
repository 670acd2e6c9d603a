"""Certification of P5-freeness with three-part certificates.

The honest prover writes, for every vertex: its adjacency row, one shared
encoding of a tree partition of the graph, and a bundle of adjacency rows
("pieces") chosen by a bag-size threshold.  The verifier at vertex u runs a
fixed sequence of checks (i)-(vi): own neighbor row, shared and well-formed
partitioning, partition validity as far as u can see it, pieces consistency,
and finally an attempt to exhibit an induced 5-path among the vertex pairs
whose edge/non-edge status u can pin down.  Rejection reports the first
failing step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NoReturn, Optional

from .bits import Bits
from .codec import (
    EncodedCertificate,
    NeighborhoodRow,
    decode_certificate,
    decode_partitioning,
    encode_certificate,
    encode_partitioning,
)
from .errors import MalformedCertificate, MalformedPartitioning, P5CertError, ThresholdViolation
from .framework import ACCEPT, CertificateAssignment, LocalView, Scheme, Verdict
from .graphs import Graph, first_known_p5, iter_bits
from .treepart import CLIQUE, P3, Bag, TreePartition, build_tree_partition


def ceil_sqrt(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def bag_is_small(bag: Bag, n: int) -> bool:
    """Threshold rule shared by prover and verifier.

    P3 bags always take the small route; cliques are small up to
    ceil(sqrt(n)) members and big above it.
    """
    return bag.kind == P3 or len(bag.members) <= ceil_sqrt(n)


class Contradiction(P5CertError):
    """Two knowledge sources disagree about one vertex pair."""

    def __init__(self, pair: tuple[int, int]):
        self.pair = pair
        super().__init__(f"pair {pair} claimed both edge and non-edge")


# --- prover ---------------------------------------------------------------


def prove(g: Graph) -> CertificateAssignment:
    """Honest certificates; succeeds on every connected P5-free graph."""
    tp = build_tree_partition(g)
    part_bits = encode_partitioning(tp, g.n)
    subtree = tp.subtree_masks()
    entries: dict[int, tuple[NeighborhoodRow, ...]] = {}
    for node, bag in enumerate(tp.bags):
        members = bag.sorted_members()
        if bag_is_small(bag, g.n):
            rows = tuple(NeighborhoodRow(m, g.adj[m]) for m in members)
            entries.update((m, rows) for m in members)
        else:
            entries.update(zip(members, _round_robin(g, members, subtree[node])))
    certs: CertificateAssignment = {}
    for v in g.vertices():
        cert = EncodedCertificate(g.n, g.adj[v], part_bits, entries[v])
        certs[v] = encode_certificate(cert, g.n)
    return certs


def pieces_for(g: Graph, tp: TreePartition, bag_node: int, member: int) -> list[NeighborhoodRow]:
    """Round-robin share of subtree rows for one member of a big clique bag.

    The j-th vertex of the subtree (ascending) goes to the (j mod k)-th bag
    member (ascending); every member carries its own row first, so the
    bundle size stays within ceil(|subtree|/k) + 1 and the members' bundles
    jointly cover the whole subtree.
    """
    bag = tp.bags[bag_node]
    if member not in bag.members:
        raise ValueError(f"vertex {member} not in bag {bag_node}")
    if bag_is_small(bag, tp.n):
        raise ThresholdViolation("round-robin pieces need a clique bag above the size threshold")
    members = bag.sorted_members()
    bundles = _round_robin(g, members, tp.subtree_masks()[bag_node])
    return list(bundles[members.index(member)])


def _round_robin(g: Graph, members: tuple[int, ...], subtree: int) -> list[tuple[NeighborhoodRow, ...]]:
    """Every member's bundle (see ``pieces_for``) from one walk of the subtree."""
    k = len(members)
    bundles = [[NeighborhoodRow(m, g.adj[m])] for m in members]
    for j, v in enumerate(iter_bits(subtree)):
        slot = j % k
        if v != members[slot]:
            bundles[slot].append(NeighborhoodRow(v, g.adj[v]))
    return [tuple(rows) for rows in bundles]


# --- decoded-certificate and partition caches ------------------------------


@lru_cache(maxsize=1 << 16)
def _decode(b: Bits, n: int) -> Optional[EncodedCertificate]:
    try:
        return decode_certificate(b, n)
    except MalformedCertificate:
        return None


@dataclass(frozen=True, slots=True)
class PartitionIndex:
    """Everything the verifier derives from one partitioning block."""

    tp: TreePartition
    node_of: tuple[int, ...]  # vertex -> tree node (index 0 unused)
    members_mask: tuple[int, ...]  # per node
    subtree_mask: tuple[int, ...]  # per node, recomputed, never trusted from certificates
    strict_ancestors: tuple[tuple[int, ...], ...]  # per node, root first
    intra_edge: tuple[int, ...]  # per vertex: the pairs its bag claims are edges
    intra_nonedge: tuple[int, ...]  # per vertex: the pairs its bag claims are non-edges
    # per vertex in bag i: every vertex outside the strict ancestors' bags and
    # outside subtree i, i.e. the bags in other branches, all non-neighbours
    cross_nonedge: tuple[int, ...]


@lru_cache(maxsize=4096)
def _partition_index(part_bits: Bits, n: int) -> Optional[PartitionIndex]:
    try:
        tp = decode_partitioning(part_bits, n)
    except MalformedPartitioning:
        return None
    # the decoder numbers nodes in preorder: node 0 is the root, and every
    # parent comes before its children
    parent = tp.tree.parent
    t = len(parent)
    members_mask = tuple(bag.mask for bag in tp.bags)
    subtree = list(members_mask)
    for node in range(t - 1, 0, -1):
        subtree[parent[node]] |= subtree[node]

    full = (1 << n) - 1
    above = [0] * t  # vertex mask of the strict ancestors' bags
    strict_anc: list[tuple[int, ...]] = [()] * t
    node_of = [0] * (n + 1)
    intra_edge = [0] * (n + 1)
    intra_nonedge = [0] * (n + 1)
    cross_nonedge = [0] * (n + 1)
    for node in range(t):
        if node:
            p = parent[node]
            above[node] = above[p] | members_mask[p]
            strict_anc[node] = strict_anc[p] + (p,)
        other = full & ~above[node] & ~subtree[node]
        m = rest = members_mask[node]
        while rest:
            low = rest & -rest
            v = low.bit_length()
            node_of[v] = node
            intra_edge[v] = m ^ low  # a clique member's claims, and a P3 centre's
            cross_nonedge[v] = other
            rest ^= low
        if tp.bags[node].kind == P3:  # each endpoint is adjacent to the centre only
            a, b, c = tp.bags[node].p3_order
            intra_edge[a] = intra_edge[c] = 1 << (b - 1)
            intra_nonedge[a] = 1 << (c - 1)
            intra_nonedge[c] = 1 << (a - 1)

    return PartitionIndex(
        tp=tp,
        node_of=tuple(node_of),
        members_mask=members_mask,
        subtree_mask=tuple(subtree),
        strict_ancestors=tuple(strict_anc),
        intra_edge=tuple(intra_edge),
        intra_nonedge=tuple(intra_nonedge),
        cross_nonedge=tuple(cross_nonedge),
    )


# --- knowledge closure ------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KnowledgeMap:
    """Tri-state pair knowledge as symmetric per-vertex masks."""

    n: int
    edge: tuple[int, ...]  # edge[x] bit y-1 set iff pair {x,y} known to be an edge
    nonedge: tuple[int, ...]
    provenance: Optional[dict[tuple[int, int], str]] = None

    def status(self, x: int, y: int) -> str:
        if x == y or not (1 <= x <= self.n and 1 <= y <= self.n):
            raise ValueError(f"not a vertex pair: {x},{y}")
        if (self.edge[x] >> (y - 1)) & 1:
            return "edge"
        if (self.nonedge[x] >> (y - 1)) & 1:
            return "nonedge"
        return "unknown"

    def known_pair_count(self) -> int:
        return sum((self.edge[x] | self.nonedge[x]).bit_count() for x in range(1, self.n + 1)) // 2


_OWN = "own-adjacency"
_NBR = "neighbor-row"
_PIECES = "pieces-row"
_INTRA = "intra-bag"
_CROSS = "cross-branch"


def _row_claims(
    u: int, nbr_mask: int, dec_u: EncodedCertificate, dec_nbrs: list[tuple[int, EncodedCertificate]]
) -> list[tuple[int, int, str]]:
    """(owner, row, source) of every row visible at u, in fold order."""
    claims = [(u, nbr_mask, _OWN)]
    claims += [(w, d.neighbors_part, _NBR) for w, d in dec_nbrs]
    claims += [(e.owner, e.row, _PIECES) for d in [dec_u] + [d for _, d in dec_nbrs] for e in d.pieces_part]
    return claims


def _pack(rows: list[int], size: int) -> int:
    """Rows of at most ``size`` bits as one int, row i at bit i * size."""
    return int.from_bytes(b"".join(r.to_bytes(size // 8, "little") for r in rows), "little")


@lru_cache(maxsize=None)  # one entry per power of two
def _transpose_rounds(size: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap that transposes a size x size matrix.

    The round for block size s swaps cell (i, j) with (i + s, j - s) wherever
    bit s of i is clear and bit s of j is set; the mask marks those cells.
    """
    rounds = []
    s = size // 2
    while s:
        cols = ((1 << size) - 1) // ((1 << 2 * s) - 1) * (((1 << s) - 1) << s)
        rounds.append((s * (size - 1), _pack([0 if i & s else cols for i in range(size)], size)))
        s //= 2
    return tuple(rounds)


def _transpose(rows: list[int], n: int) -> list[int]:
    """Bit-matrix transpose of the n-bit rows 1..n (index 0 is unused).

    Bit y-1 of result[x] is bit x-1 of rows[y].  The rows are packed into
    one int and swapped in log2(size) rounds of masked shifts (Warren,
    *Hacker's Delight*, 2nd ed., section 7-3, "Transposing a Bit Matrix").
    """
    size = max(8, 1 << (n - 1).bit_length())
    w = _pack(rows[1 : n + 1], size)
    for shift, mask in _transpose_rounds(size):
        t = (w ^ (w >> shift)) & mask
        w ^= t ^ (t << shift)
    step = size // 8
    packed = w.to_bytes(n * step, "little")
    return [0] + [int.from_bytes(packed[i : i + step], "little") for i in range(0, n * step, step)]


def _clash(x: int, bad: int) -> NoReturn:
    y = (bad & -bad).bit_length()
    raise Contradiction((x, y) if x < y else (y, x))


def _closure(n: int, claims: list[tuple[int, int, str]], pidx: PartitionIndex) -> KnowledgeMap:
    """Fold row claims (as ``_row_claims`` lists them), then partition-implied
    pairs; raises ``Contradiction`` exactly when two of them disagree."""
    full = (1 << n) - 1
    edge = [0] * (n + 1)
    nonedge = [0] * (n + 1)

    # (a) own adjacency, (b) neighbor rows, (c) pieces rows
    for x, row, _ in claims:
        new_ne = full & ~row & ~(1 << (x - 1))
        bad = nonedge[x] & row | edge[x] & new_ne
        if bad:
            _clash(x, bad)
        edge[x] |= row
        nonedge[x] |= new_ne

    # (d) bag-implied pairs, (e) cross-branch non-edges
    for masks, into, against in (
        (pidx.intra_edge, edge, nonedge),
        (pidx.intra_nonedge, nonedge, edge),
        (pidx.cross_nonedge, nonedge, edge),
    ):
        for x in range(1, n + 1):
            bad = against[x] & masks[x]
            if bad:
                _clash(x, bad)
            into[x] |= masks[x]

    # symmetrize; opposite-direction claims from two row owners clash here,
    # at the lowest vertex with one, its edge claims before its non-edge ones
    edge_t = _transpose(edge, n)
    nonedge_t = _transpose(nonedge, n)
    for x in range(1, n + 1):
        bad = edge[x] & nonedge_t[x] or nonedge[x] & edge_t[x]
        if bad:
            _clash(x, bad)

    return KnowledgeMap(
        n,
        tuple(r | t for r, t in zip(edge, edge_t)),
        tuple(r | t for r, t in zip(nonedge, nonedge_t)),
    )


def _provenance(km: KnowledgeMap, claims: list[tuple[int, int, str]], pidx: PartitionIndex) -> dict[tuple[int, int], str]:
    """Source of every known pair: the first claim ``_closure`` folds for it.

    A pair touching a row owner comes from the earliest row claim of either
    endpoint; any other known pair was implied by the partition alone.
    """
    first: dict[int, int] = {}  # row owner -> index of its first claim
    for i, (owner, _, _) in enumerate(claims):
        first.setdefault(owner, i)
    none = len(claims)
    prov = {}
    for x in range(1, km.n + 1):
        intra = pidx.intra_edge[x] | pidx.intra_nonedge[x]
        for y in iter_bits((km.edge[x] | km.nonedge[x]) >> x << x):
            if x in first or y in first:
                prov[(x, y)] = claims[min(first.get(x, none), first.get(y, none))][2]
            else:
                prov[(x, y)] = _INTRA if (intra >> (y - 1)) & 1 else _CROSS
    return prov


def knowledge_closure(view: LocalView, track_provenance: bool = True) -> KnowledgeMap:
    """Everything one vertex can deduce about vertex pairs from its view.

    Merges, in order: own adjacency, each neighbor's claimed row, every row
    in the visible pieces bundles, bag-implied pairs, and other-branch
    non-edges from the shared partition.  Raises ``Contradiction`` when two
    sources disagree; honest certificates never trigger it.  With
    ``track_provenance`` the map also names the source of each known pair.
    """
    n = view.n
    u, nbr_mask = view.self_id, view.neighbor_ids_mask()
    dec_u = decode_certificate(view.self_cert, n)
    dec_nbrs = [(w, decode_certificate(bw, n)) for w, bw in view.neighbors]
    pidx = _partition_index(dec_u.partitioning_part, n)
    if pidx is None:
        raise MalformedPartitioning("partitioning block undecodable")
    claims = _row_claims(u, nbr_mask, dec_u, dec_nbrs)
    km = _closure(n, claims, pidx)
    if not track_provenance:
        return km
    return KnowledgeMap(n, km.edge, km.nonedge, _provenance(km, claims, pidx))


# --- induced 5-path detection over known pairs ------------------------------


def _drop_twins(edge: tuple[int, ...], nonedge: tuple[int, ...], n: int) -> tuple[int, list[int], list[int]]:
    """(alive, edge, nonedge): the map with twins deleted until none is left.

    x and y are twins when status(x, z) = status(y, z) for every z other
    than x and y.  Each round deletes every vertex of a twin class but the
    lowest and clears the deleted vertices' bits in the rows left.  A round
    finds the twins of one pair kind by equal rows with the vertex's own bit
    added: (E[x] | x, NE[x]) for an edge, (E[x], NE[x] | x) for a non-edge,
    (E[x], NE[x]) for an unknown pair.  Equal keys of x and y differ from
    the rows only at x and y, so the rows agree elsewhere; self bits in E
    sit at x too, and at worst hide a twin.  The rows must be symmetric, as
    ``_closure`` returns them.
    """
    edge, nonedge = list(edge), list(nonedge)
    alive = (1 << n) - 1
    quiet = kind = 0  # rounds in a row without a deletion; pair kind of this round
    while quiet < 3:
        lowest: dict[tuple[int, int], int] = {}
        dead = 0
        for x in iter_bits(alive):
            bx = 1 << (x - 1)
            key = (edge[x] | bx if kind == 0 else edge[x], nonedge[x] | bx if kind == 1 else nonedge[x])
            if lowest.setdefault(key, x) != x:
                dead |= bx
        if dead:
            keep = ~dead
            alive &= keep
            for x in iter_bits(alive):
                edge[x] &= keep
                nonedge[x] &= keep
        quiet = 0 if dead else quiet + 1
        kind = (kind + 1) % 3
    return alive, edge, nonedge


@lru_cache(maxsize=8192)
def _find_p5_known(edge: tuple[int, ...], nonedge: tuple[int, ...], n: int):
    """``first_known_p5`` on the map with twins deleted (``_drop_twins``).

    That keeps the witness.  A fully known induced 5-path holds at most one
    vertex of a twin class: P5 has no twins, and a path through two twins
    whose pair is unknown is not fully known.  Swapping a deleted vertex of
    the path for the kept, lower twin of its class keeps every pair status,
    so it gives a fully known path that is smaller in lexicographic order.
    The first path therefore survives every round.  A cograph reduces to
    one vertex.
    """
    alive, e, ne = _drop_twins(edge, nonedge, n)
    return first_known_p5(e, ne, alive)


def find_known_induced_p5(km: KnowledgeMap) -> Optional[tuple[int, int, int, int, int]]:
    """First 5 vertices whose 10 pair statuses are known and form a path.

    ``km`` must be symmetric, as ``knowledge_closure`` returns it.
    """
    return _find_p5_known(km.edge, km.nonedge, km.n)


def full_knowledge_map(g: Graph) -> KnowledgeMap:
    """The map of a vertex that knows every pair of ``g``."""
    full = g.full_mask
    nonedge = [full & ~g.adj[v] & ~(1 << (v - 1)) for v in g.vertices()]
    return KnowledgeMap(g.n, tuple(g.adj), (0, *nonedge))


# --- verifier ---------------------------------------------------------------


def _steps_iii_iv(
    n: int, u: int, nbr_mask: int, dec_u: EncodedCertificate, dec_of: Mapping[int, EncodedCertificate], pidx: PartitionIndex
) -> Optional[Verdict]:
    """Steps (iii)-(iv) at vertex u with neighbor row ``nbr_mask``: the first
    failing verdict, or None.  ``dec_of[w]`` is the decoded certificate of
    neighbor w; it is read only at ids in ``nbr_mask``."""
    # (iii) bag-local structure, ancestor domination, branch separation
    s = pidx.node_of[u]
    bag = pidx.tp.bags[s]
    bad = pidx.intra_edge[u] & ~nbr_mask | pidx.intra_nonedge[u] & nbr_mask
    if bad:
        if bag.kind == CLIQUE:
            return Verdict(False, "iii", f"not adjacent to bag member {(bad & -bad).bit_length()}")
        return Verdict(False, "iii", f"own role in P3 bag {'-'.join(map(str, bag.p3_order))} does not match adjacency")
    for t_node in pidx.strict_ancestors[s]:
        if not pidx.members_mask[t_node] & nbr_mask:
            return Verdict(False, "iii", f"no neighbor in ancestor bag {t_node}")
    stray = nbr_mask & pidx.cross_nonedge[u]
    if stray:
        return Verdict(False, "iii", f"neighbor {(stray & -stray).bit_length()} lies in an unrelated branch")

    # (iv) pieces consistency
    bag_nbrs = pidx.members_mask[s] & nbr_mask
    if bag_is_small(bag, n):
        owners = tuple(e.owner for e in dec_u.pieces_part)
        if owners != bag.sorted_members():
            return Verdict(False, "iv", "pieces owners are not exactly the bag members")
        own_row = dec_u.pieces_part[owners.index(u)].row
        if own_row != nbr_mask:
            return Verdict(False, "iv", "own row miswritten in pieces")
        for w in iter_bits(bag_nbrs):
            if dec_of[w].pieces_part != dec_u.pieces_part:
                return Verdict(False, "iv", f"pieces differ from bag member {w}")
    else:
        gs = pidx.subtree_mask[s]
        accessible = [dec_u] + [dec_of[w] for w in iter_bits(bag_nbrs)]
        coverage = 0
        for d in accessible:
            for e in d.pieces_part:
                coverage |= 1 << (e.owner - 1)
        missing = gs & ~coverage
        if missing:
            return Verdict(False, "iv", f"no visible row for subtree vertex {(missing & -missing).bit_length()}")
        check_mask = nbr_mask & gs
        for d in accessible:
            for e in d.pieces_part:
                if (check_mask >> (e.owner - 1)) & 1 and e.row != dec_of[e.owner].neighbors_part:
                    return Verdict(False, "iv", f"pieces row of {e.owner} contradicts its certificate")
    return None


def verdict_at(n: int, u: int, nbr_mask: int, dec_of: Mapping[int, Optional[EncodedCertificate]]) -> Verdict:
    """The verdict of vertex u with neighbor row ``nbr_mask``: the first
    failing step, or accept.  ``dec_of[w]`` is the decoded certificate of
    vertex w, None when it does not decode; it is read only at u and at ids
    in ``nbr_mask``."""
    dec_u = dec_of[u]
    if dec_u is None:
        return Verdict(False, "malformed", "own certificate undecodable")
    dec_nbrs: list[tuple[int, EncodedCertificate]] = []
    for w in iter_bits(nbr_mask):
        d = dec_of[w]
        if d is None:
            return Verdict(False, "malformed", f"certificate of neighbor {w} undecodable")
        dec_nbrs.append((w, d))

    # (i) own neighbor list
    if dec_u.neighbors_part != nbr_mask:
        return Verdict(False, "i", "claimed neighbor row differs from actual neighbors")

    # (ii) shared, well-formed partitioning
    for w, d in dec_nbrs:
        if d.partitioning_part != dec_u.partitioning_part:
            return Verdict(False, "ii", f"partitioning differs from neighbor {w}")
    pidx = _partition_index(dec_u.partitioning_part, n)
    if pidx is None:
        return Verdict(False, "ii", "partitioning does not decode to a partition of 1..n")

    # (iii)-(iv)
    rejected = _steps_iii_iv(n, u, nbr_mask, dec_u, dec_of, pidx)
    if rejected is not None:
        return rejected

    # (v) assemble knowledge, look for a fully-known induced 5-path
    try:
        km = _closure(n, _row_claims(u, nbr_mask, dec_u, dec_nbrs), pidx)
    except Contradiction as exc:
        return Verdict(False, "v", f"contradictory knowledge about pair {exc.pair}")
    witness = _find_p5_known(km.edge, km.nonedge, n)
    if witness is not None:
        return Verdict(False, "v", f"induced 5-path {'-'.join(map(str, witness))} fully known")

    # (vi)
    return ACCEPT


def verify(view: LocalView) -> Verdict:
    """Local verification; returns the first failing step or accept."""
    n = view.n
    dec_of = {w: _decode(b, n) for w, b in ((view.self_id, view.self_cert), *view.neighbors)}
    return verdict_at(n, view.self_id, view.neighbor_ids_mask(), dec_of)


def verify_all(g: Graph, certs: CertificateAssignment) -> dict[int, Verdict]:
    """``{v: verify(local_view(g, certs, v))}`` for every vertex, from one
    decode table; a view that folds only true statements runs no closure.

    T(B) is the set of vertices whose certificate decodes, claims its
    vertex's actual row, carries only its owners' actual pieces rows, and
    holds block B.  B counts when it decodes and every pair it implies is
    true of ``g``.  A vertex whose closed neighborhood lies in T(B), for a
    B that counts, gets its steps (iii)-(iv) verdict or accept, unless the
    verifier's own 5-path search, run once if some vertex qualifies, finds
    a path in the full map of ``g``.  Every other vertex gets ``verdict_at``.

    Why this is exact, per view: steps (i)-(ii) pass at such a vertex, and
    every statement its step (v) folds is true of ``g``: its own and its
    neighbors' rows, every pieces row any of them carries, and the pairs B
    implies.  True statements never disagree, so its closure cannot raise,
    and its map lies inside the map of ``g``.  A fully known induced 5-path
    in its map would be one of ``g``, which the search on ``g`` rules out.
    """
    n, adj = g.n, g.adj
    dec = {v: _decode(certs[v], n) for v in g.vertices()}
    trusted: dict[Bits, list[int]] = {}  # B -> [T(B) as a vertex mask]
    b = None
    for v, d in dec.items():
        if d is not None:
            p = d.partitioning_part
            if b is None or p.value != b.value or p.length != b.length:  # blocks mostly repeat
                b = p
                t = trusted.setdefault(b, [0])
            rows_true = d.neighbors_part == adj[v]
            for e in d.pieces_part:
                rows_true &= e.row == adj[e.owner]
            t[0] |= rows_true << (v - 1)
    true_view: dict[int, PartitionIndex] = {}  # qualifying vertex -> the index of its block
    for b, (t,) in trusted.items():
        ready = [v for v in iter_bits(t) if not adj[v] & ~t]
        pidx = _partition_index(b, n) if ready else None
        if pidx is not None and not any(
            ie & ~a or (ine | cn) & a for ie, ine, cn, a in zip(pidx.intra_edge, pidx.intra_nonedge, pidx.cross_nonedge, adj)
        ):
            true_view.update(dict.fromkeys(ready, pidx))
    if true_view and find_known_induced_p5(full_knowledge_map(g)) is not None:
        true_view = {}
    verdicts = {}
    for v in g.vertices():
        pidx = true_view.get(v)
        if pidx is None:
            verdicts[v] = verdict_at(n, v, adj[v], dec)
        else:
            verdicts[v] = _steps_iii_iv(n, v, adj[v], dec[v], dec, pidx) or ACCEPT
    return verdicts


def scheme() -> Scheme:
    return Scheme("p5", prove, verify, verify_all)
