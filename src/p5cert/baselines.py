"""Reference schemes for cross-checking the framework and contrasting sizes.

universal_scheme     every vertex gets the whole adjacency matrix (n^2 bits)
                     and re-checks the certified property on it;
spanning_tree_size_scheme
                     certifies the vertex count with BFS-tree labels
                     (O(log n) bits);
kk_freeness_scheme   certifies K_k-freeness from plain neighbor rows
                     (n bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .bits import Bits
from .codec import idwidth
from .framework import ACCEPT, CertificateAssignment, LocalView, Scheme, Verdict
from .graphs import Graph, iter_bits, require_connected


def universal_scheme(property_oracle: Callable[[Graph], bool]) -> Scheme:
    """Adjacency-matrix certificates plus an arbitrary graph property oracle."""

    def prover(g: Graph) -> CertificateAssignment:
        require_connected(g)
        n, m = g.n, 0
        for v in g.vertices():
            m = m << n | g.adj[v]
        matrix = Bits(m, n * n)
        return {v: matrix for v in g.vertices()}

    @lru_cache(maxsize=1024)
    def read(matrix: Bits, n: int) -> tuple[Verdict | None, tuple[int, ...], bool]:
        """The matrix's first loop or asymmetric pair as a rejecting verdict,
        or None; its rows (index 0 unused); and whether the property holds of
        the graph they describe, False on a malformed matrix.  Read once per
        matrix."""
        rows = (0,) + tuple(matrix.field(i * n, n) for i in range(n))
        for v in range(1, n + 1):
            if rows[v] >> (v - 1) & 1:
                return Verdict(False, "malformed", f"matrix has a loop at {v}"), rows, False
            for u in iter_bits(rows[v]):
                if not rows[u] >> (v - 1) & 1:
                    return Verdict(False, "malformed", f"matrix asymmetric at {u},{v}"), rows, False
        return None, rows, property_oracle(Graph(n, rows))

    def verifier(view: LocalView) -> Verdict:
        n = view.n
        matrix = view.self_cert
        if matrix.length != n * n:
            return Verdict(False, "malformed", f"matrix certificate must be {n * n} bits")
        malformed, rows, holds = read(matrix, n)
        if malformed is not None:
            return malformed
        if rows[view.self_id] != view.neighbor_ids_mask():
            return Verdict(False, "i", "own matrix row differs from actual neighbors")
        for w, cert in view.neighbors:
            if cert != matrix:
                return Verdict(False, "ii", f"matrix differs from neighbor {w}")
        if not holds:
            return Verdict(False, "v", "certified property fails on the claimed graph")
        return ACCEPT

    return Scheme("universal", prover, verifier)


# --- spanning-tree certification of n ---------------------------------------
#
# Label layout, with w = idwidth(n) known to every vertex:
#   claimed_n (w+1 bits) | root_id (w) | parent_id (w, 0 = absent) |
#   dist (w) | subtree_size (w)


@dataclass(frozen=True, slots=True)
class SpanningTreeLabel:
    claimed_n: int
    root_id: int
    parent_id: int  # 0 means absent
    dist: int
    subtree_size: int


def encode_tree_label(label: SpanningTreeLabel, n: int) -> Bits:
    w = idwidth(n)
    fields = (label.claimed_n, label.root_id, label.parent_id, label.dist, label.subtree_size)
    packed = 0
    for value, width in zip(fields, (w + 1, w, w, w, w)):
        if value < 0 or value.bit_length() > width:
            raise ValueError(f"{value} does not fit in {width} bits")
        packed = packed << width | value
    return Bits(packed, 5 * w + 1)


def decode_tree_label(b: Bits, n: int) -> SpanningTreeLabel | None:
    w = idwidth(n)
    if b.length != 5 * w + 1:
        return None
    v, mask = b.value, (1 << w) - 1
    return SpanningTreeLabel(v >> 4 * w, v >> 3 * w & mask, v >> 2 * w & mask, v >> w & mask, v & mask)


def bfs_tree_labels(g: Graph) -> dict[int, SpanningTreeLabel]:
    """BFS from vertex 1 with smallest-id parents; canonical for a given graph."""
    require_connected(g)
    dist = {1: 0}
    parent = {1: 0}
    frontier = [1]
    while frontier:
        nxt = []
        for u in frontier:  # ascending ids, so parents are smallest-id
            for v in g.neighbors(u):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    nxt.append(v)
        frontier = sorted(nxt)
    size = {v: 1 for v in g.vertices()}
    for v in sorted(dist, key=dist.get, reverse=True):
        if parent[v]:
            size[parent[v]] += size[v]
    return {
        v: SpanningTreeLabel(g.n, 1, parent[v], dist[v], size[v]) for v in g.vertices()
    }


def spanning_tree_size_scheme() -> Scheme:
    def prover(g: Graph) -> CertificateAssignment:
        return {v: encode_tree_label(lab, g.n) for v, lab in bfs_tree_labels(g).items()}

    def verifier(view: LocalView) -> Verdict:
        n = view.n
        own = decode_tree_label(view.self_cert, n)
        if own is None:
            return Verdict(False, "malformed", "label undecodable")
        labels = {}
        for w, cert in view.neighbors:
            lab = decode_tree_label(cert, n)
            if lab is None:
                return Verdict(False, "malformed", f"label of neighbor {w} undecodable")
            labels[w] = lab
        for w, lab in labels.items():
            if lab.claimed_n != own.claimed_n or lab.root_id != own.root_id:
                return Verdict(False, "ii", f"claimed n or root differs from neighbor {w}")
        if view.self_id == own.root_id:
            if own.parent_id != 0 or own.dist != 0:
                return Verdict(False, "iii", "root label must have no parent and distance 0")
        else:
            if own.parent_id not in labels:
                return Verdict(False, "iii", "claimed parent is not a neighbor")
            if labels[own.parent_id].dist != own.dist - 1:
                return Verdict(False, "iii", "parent distance is not one less")
        child_sum = sum(lab.subtree_size for lab in labels.values() if lab.parent_id == view.self_id)
        if own.subtree_size != 1 + child_sum:
            return Verdict(False, "iv", "subtree size does not match children")
        if view.self_id == own.root_id and own.subtree_size != own.claimed_n:
            return Verdict(False, "v", "root subtree size differs from claimed n")
        return ACCEPT

    return Scheme("stree-n", prover, verifier)


# --- clique freeness ---------------------------------------------------------


def kk_freeness_scheme(k: int) -> Scheme:
    """Certify the absence of K_k from per-vertex neighbor rows."""
    if k < 3:
        raise ValueError("clique size must be at least 3")

    def prover(g: Graph) -> CertificateAssignment:
        require_connected(g)
        return {v: Bits(g.adj[v], g.n) for v in g.vertices()}

    def verifier(view: LocalView) -> Verdict:
        n = view.n
        if view.self_cert.length != n:
            return Verdict(False, "malformed", f"row certificate must be {n} bits")
        nbr_mask = view.neighbor_ids_mask()
        if view.self_cert.value != nbr_mask:
            return Verdict(False, "i", "claimed row differs from actual neighbors")
        rows = {}
        for w, cert in view.neighbors:
            if cert.length != n:
                return Verdict(False, "malformed", f"row of neighbor {w} must be {n} bits")
            rows[w] = cert.value

        def extends_to_clique(cands: int, need: int) -> bool:
            if need == 0:
                return True
            if cands.bit_count() < need:
                return False
            for v in iter_bits(cands):
                vb = 1 << (v - 1)
                cands ^= vb
                if extends_to_clique(cands & rows[v], need - 1):
                    return True
            return False

        # a K_k through this vertex is a (k-1)-clique among its neighbors
        if extends_to_clique(nbr_mask, k - 1):
            return Verdict(False, "v", f"member of a clique of size {k}")
        return ACCEPT

    return Scheme(f"kk:{k}", prover, verifier)
