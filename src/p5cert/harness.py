"""Graph generators, adversarial certificate strategies, and measurement.

Soundness here is tested, never proved: a fuzz campaign can only report that
no all-accept assignment was found under the configured strategies.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

from .codec import (
    EncodedCertificate,
    decode_certificate,
    encode_certificate,
    encode_partitioning,
    write_certificates,
)
from .errors import (
    GenerationBudgetExceeded,
    P5CertError,
    PreconditionNotP5,
    TooLarge,
)
from .framework import CertificateAssignment, Scheme, local_view, max_cert_bits
from .graphs import Graph, component_masks, find_induced_path, is_connected, iter_bits, mask_of
from .p5free import _decode, prove, scheme as p5_scheme, verdict_at
from .treepart import CLIQUE, P3, Bag, RootedTree, TreePartition

FAMILIES = ("cograph", "split", "p5free-repair", "with-p5", "gnp")
STRATEGIES = ("bitflip", "wrong-graph", "lying-partition", "lying-pieces", "greedy-search")

_BITFLIP_MAX = 4
_GREEDY_STEPS = 6
_RECONNECT_ROUNDS = 3


@dataclass(frozen=True, slots=True)
class GeneratorSpec:
    family: str
    n: int
    p: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n < 1 or not 0.0 <= self.p <= 1.0:
            raise ValueError("need n >= 1 and p in [0,1]")


@dataclass(frozen=True, slots=True)
class AdversaryStrategy:
    kind: str
    trials: int
    seed: int = 0

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.trials < 1:
            raise ValueError("need at least one trial")


@dataclass
class FuzzReport:
    graph_summary: str
    strategy: str
    trials_run: int
    trials_rejected: int
    counterexample_digest: Optional[str] = None
    counterexample: Optional[CertificateAssignment] = None

    @property
    def passed(self) -> bool:
        return self.trials_rejected == self.trials_run


def _derived_rng(*parts) -> random.Random:
    # stable across processes, unlike hash()-seeded Random
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


# --- generators --------------------------------------------------------------


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p): one draw per pair (u, v > u), u ascending, then v."""
    adj = [0] * (n + 1)
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < p:
                adj[u] |= 1 << (v - 1)
                adj[v] |= 1 << (u - 1)
    return Graph(n, tuple(adj))


def _connect_components(g: Graph) -> Graph:
    """Join components along a path of their minimum-id vertices."""
    mins = [m & -m for m in component_masks(g, g.full_mask)]
    adj = list(g.adj)
    for a, b in zip(mins, mins[1:]):
        adj[a.bit_length()] |= b
        adj[b.bit_length()] |= a
    return Graph(g.n, tuple(adj))


def _cograph(n: int, p: float, rng: random.Random) -> Graph:
    """Random cotree: recursive binary union/join, join forced at the root."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    adj = [0] * (n + 1)
    stack: list[tuple[list[int], bool]] = [(ids, True)]
    while stack:
        part, forced_join = stack.pop()
        if len(part) == 1:
            continue
        cut = rng.randint(1, len(part) - 1)
        left, right = part[:cut], part[cut:]
        if forced_join or rng.random() < p:
            left_mask, right_mask = mask_of(left), mask_of(right)
            for a in left:
                adj[a] |= right_mask
            for b in right:
                adj[b] |= left_mask
        stack.append((left, False))
        stack.append((right, False))
    return Graph(n, tuple(adj))


def _split(n: int, p: float, rng: random.Random) -> Graph:
    """A random clique and independent set; draws run independent-outer,
    both ascending, and a vertex left unattached joins a random member."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    k = rng.randint(1, n)
    clique, indep = sorted(ids[:k]), sorted(ids[k:])
    clique_mask = mask_of(clique)
    adj = [0] * (n + 1)
    for c in clique:
        adj[c] = clique_mask & ~(1 << (c - 1))
    for i in indep:
        for c in clique:
            if rng.random() < p:
                adj[i] |= 1 << (c - 1)
                adj[c] |= 1 << (i - 1)
    for i in indep:
        if not adj[i]:
            c = rng.choice(clique)
            adj[i] = 1 << (c - 1)
            adj[c] |= 1 << (i - 1)
    return Graph(n, tuple(adj))


def _delete_middles_until_p5_free(cur: Graph, rng: random.Random) -> Graph:
    """Delete a middle edge (position 2-3 or 3-4) of each found 5-path.

    Terminates because the edge count strictly decreases; the middle whose
    deletion keeps the graph connected is preferred, but the result may
    still be disconnected.
    """
    while True:
        path = find_induced_path(cur)
        if path is None:
            return cur
        mids = [(path[1], path[2]), (path[2], path[3])]
        rng.shuffle(mids)
        first = _toggled(cur, *mids[0])
        if is_connected(first):
            cur = first
        else:
            second = _toggled(cur, *mids[1])
            cur = second if is_connected(second) else first


def _toggled(g: Graph, a: int, b: int) -> Graph:
    """g with the pair {a, b} flipped between edge and non-edge."""
    adj = list(g.adj)
    adj[a] ^= 1 << (b - 1)
    adj[b] ^= 1 << (a - 1)
    return Graph(g.n, tuple(adj))


def repair_to_p5_free(g: Graph, rng: random.Random) -> Graph:
    """Connected P5-free graph obtained from g by middle-edge deletions.

    Deleting 5-path middles tends to fragment sparse graphs, and
    reconnecting fragments can create new 5-paths, so only a few
    reconnect-and-repair rounds are attempted.  After that the fragments
    (each P5-free) are joined by making the minimum-id vertex universal:
    an induced path through a universal vertex has at most 3 vertices and
    any path avoiding it stays inside one fragment, so the patched graph
    is connected and P5-free by construction.
    """
    cur = _delete_middles_until_p5_free(g, rng)
    for _ in range(_RECONNECT_ROUNDS):
        if is_connected(cur):
            return cur
        cur = _delete_middles_until_p5_free(_connect_components(cur), rng)
    if is_connected(cur):
        return cur
    adj = [row | 1 for row in cur.adj]
    adj[0] = 0
    adj[1] = cur.full_mask & ~1
    return Graph(cur.n, tuple(adj))


def generate(spec: GeneratorSpec) -> Graph:
    """Deterministic graph for (family, n, p, seed); always connected."""
    rng = _derived_rng(spec.family, spec.n, spec.p, spec.seed)
    n, p = spec.n, spec.p
    if spec.family == "cograph":
        return _cograph(n, p, rng)
    if spec.family == "split":
        return _split(n, p, rng)
    if spec.family == "gnp":
        for _ in range(50):
            g = _gnp(n, p, rng)
            if is_connected(g):
                return g
        return _connect_components(g)
    if spec.family == "p5free-repair":
        return repair_to_p5_free(_connect_components(_gnp(n, p, rng)), rng)
    # with-p5: resample until the oracle finds an induced 5-path
    for _ in range(200):
        g = _connect_components(_gnp(n, p, rng))
        if find_induced_path(g) is not None:
            return g
    raise GenerationBudgetExceeded(f"no graph with an induced 5-path found for n={n}, p={p}")


def oracle_is_p5_free(g: Graph) -> bool:
    return find_induced_path(g) is None


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """All connected labeled graphs on 1..n, ascending by edge-set bitmask."""
    if n > 6:
        raise TooLarge("exhaustive enumeration is limited to n <= 6")
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        adj = [0] * (n + 1)
        m = mask
        while m:
            low = m & -m
            u, v = pairs[low.bit_length() - 1]
            adj[u] |= 1 << (v - 1)
            adj[v] |= 1 << (u - 1)
            m ^= low
        g = Graph(n, tuple(adj))
        if is_connected(g):
            yield g


# --- adversarial certificate strategies --------------------------------------


def honest_best_effort(g: Graph, rng: random.Random) -> CertificateAssignment:
    """prove(g), or honest certificates of a repaired P5-free twin of g."""
    try:
        return prove(g)
    except P5CertError:
        return prove(repair_to_p5_free(g, rng))


def _random_false_partition(n: int, rng: random.Random) -> TreePartition:
    """Structurally well-formed partition with no relation to any graph."""
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    bags: list[Bag] = []
    i = 0
    while i < n:
        size = min(rng.randint(1, 3), n - i)
        chunk = sorted(ids[i : i + size])
        i += size
        if size == 3 and rng.random() < 0.5:
            a, b, c = chunk
            center = rng.choice(chunk)
            order = {a: (b, a, c), b: (a, b, c), c: (a, c, b)}[center]
            bags.append(Bag(frozenset(chunk), P3, order))
        else:
            bags.append(Bag(frozenset(chunk), CLIQUE))
    t = len(bags)
    parents: list[Optional[int]] = [None] + [rng.randint(0, i - 1) for i in range(1, t)]
    children: list[list[int]] = [[] for _ in range(t)]
    for node in range(1, t):
        children[parents[node]].append(node)
    tree = RootedTree(tuple(parents), tuple(tuple(k) for k in children))
    return TreePartition(n, tree, tuple(bags))


def has_rejection(g: Graph, scheme: Scheme, certs: CertificateAssignment) -> bool:
    """Whether some vertex rejects; stops at the first one that does."""
    return any(not scheme.verifier(local_view(g, certs, v)).accept for v in g.vertices())


def rejecting_mask(g: Graph, dec_of: Mapping[int, Optional[EncodedCertificate]], within: int) -> int:
    """Mask of the vertices in ``within`` where the P5 verifier rejects;
    ``dec_of`` maps each vertex to its decoded certificate, None where it
    does not decode."""
    mask = 0
    for v in iter_bits(within):
        if not verdict_at(g.n, v, g.adj[v], dec_of).accept:
            mask |= 1 << (v - 1)
    return mask


def _flip_bit(g: Graph, certs: CertificateAssignment, dec: dict, rej: int, v: int, pos: int) -> int:
    """Flip bit ``pos`` of v's certificate in ``certs`` and its decode table
    ``dec``; return the rejection mask ``rej`` updated for the flip.  Only
    the views of v and its neighbors change, so only they are verified."""
    certs[v] = certs[v].flip(pos)
    dec[v] = _decode(certs[v], g.n)
    closed = g.adj[v] | 1 << (v - 1)
    return rej & ~closed | rejecting_mask(g, dec, closed)


def adversarial_certificates(g: Graph, strategy: AdversaryStrategy) -> Iterator[CertificateAssignment]:
    """Stream of ``strategy.trials`` assignments; deterministic per seed.

    Work each stream does once, not per trial: the honest base assignment;
    for wrong-graph, the induced 5-path of ``g`` and one ``prove`` per
    distinct modified graph (its certificates or its ``P5CertError``, so a
    repeated failure goes straight to the rng-driven repair, as
    ``honest_best_effort`` would); the base's decode table, which
    lying-partition, lying-pieces and greedy-search trials copy and edit, so
    a trial encodes only the certificates it changes; for greedy-search, the
    base's rejection mask, so a trial verifies only the closed neighborhood
    of each flipped vertex and decodes only the flipped certificate.

    A wrong-graph stream needs a vertex pair to toggle: on a 1-vertex graph
    it raises ``ValueError`` before its first trial.
    """
    if strategy.kind == "wrong-graph" and g.n < 2:
        raise ValueError("wrong-graph needs a graph with at least 2 vertices")
    rng = _derived_rng("adversary", strategy.kind, strategy.seed, g.n, g.adj)
    n = g.n
    base = honest_best_effort(g, rng)
    kind = strategy.kind
    # per-stream work that no trial changes
    path = find_induced_path(g) if kind == "wrong-graph" else None
    proofs: dict[tuple[int, ...], CertificateAssignment | P5CertError] = {}
    base_dec = {v: decode_certificate(base[v], n) for v in g.vertices()}
    if kind == "greedy-search":
        base_rej = rejecting_mask(g, base_dec, g.full_mask)

    for _ in range(strategy.trials):
        if kind == "bitflip":
            cur = dict(base)
            for _ in range(rng.randint(1, _BITFLIP_MAX)):
                v = rng.randint(1, n)
                cur[v] = cur[v].flip(rng.randrange(cur[v].length))
            yield cur
        elif kind == "wrong-graph":
            if path is None:
                a = rng.randint(1, n)
                b = rng.randint(1, n - 1)
                b += b >= a
            elif rng.random() < 0.5:
                a, b = rng.choice(list(zip(path, path[1:])))
            else:
                i, j = sorted(rng.sample(range(5), 2))
                while j - i == 1:
                    i, j = sorted(rng.sample(range(5), 2))
                a, b = path[i], path[j]
            # on the induced path, a toggle deletes a path edge or adds a chord
            modified = _connect_components(_toggled(g, a, b))
            proved = proofs.get(modified.adj)
            if proved is None:
                try:
                    proved = prove(modified)
                except P5CertError as exc:
                    proved = exc
                proofs[modified.adj] = proved
            # prove draws no randomness, so this is honest_best_effort(modified, rng)
            yield prove(repair_to_p5_free(modified, rng)) if isinstance(proved, P5CertError) else dict(proved)
        elif kind == "lying-partition":
            false_bits = encode_partitioning(_random_false_partition(n, rng), n)
            yield {v: encode_certificate(replace(d, partitioning_part=false_bits), n) for v, d in base_dec.items()}
        elif kind == "lying-pieces":
            dec = dict(base_dec)
            for _ in range(rng.randint(1, 3)):
                v = rng.randint(1, n)
                pieces = list(dec[v].pieces_part)
                if not pieces:
                    continue
                idx = rng.randrange(len(pieces))
                entry = pieces[idx]
                row = entry.row
                for _ in range(rng.randint(1, 3)):
                    pos = rng.randrange(n)
                    if pos != entry.owner - 1:
                        row ^= 1 << pos
                pieces[idx] = type(entry)(entry.owner, row)
                dec[v] = replace(dec[v], pieces_part=tuple(pieces))
            yield {v: base[v] if d is base_dec[v] else encode_certificate(d, n) for v, d in dec.items()}
        else:  # greedy-search: hill-climb bit flips to minimize rejections
            cur, dec, cur_rej = dict(base), dict(base_dec), base_rej
            for step in range(_GREEDY_STEPS + 1):
                if step and not cur_rej:
                    break
                v = rng.randint(1, n)
                old = cur[v], dec[v]
                cand_rej = _flip_bit(g, cur, dec, cur_rej, v, rng.randrange(cur[v].length))
                # the first flip is always kept
                if not step or cand_rej.bit_count() <= cur_rej.bit_count():
                    cur_rej = cand_rej
                else:
                    cur[v], dec[v] = old
            yield cur


def fuzz_soundness(g: Graph, strategy: AdversaryStrategy) -> FuzzReport:
    """Run every generated assignment; an all-accept trial is a counterexample."""
    if find_induced_path(g) is None:
        raise PreconditionNotP5("soundness fuzzing needs a graph with an induced 5-path")
    sch = p5_scheme()
    report = FuzzReport(
        graph_summary=f"n={g.n} m={g.edge_count()}",
        strategy=strategy.kind,
        trials_run=0,
        trials_rejected=0,
    )
    for certs in adversarial_certificates(g, strategy):
        report.trials_run += 1
        if has_rejection(g, sch, certs):
            report.trials_rejected += 1
        elif report.counterexample is None:
            text = write_certificates(certs)
            report.counterexample_digest = hashlib.sha256(text.encode()).hexdigest()
            report.counterexample = certs
    return report


def format_fuzz_report(report: FuzzReport, counterexample_path: Optional[str] = None) -> str:
    lines = [
        f"graph: {report.graph_summary}",
        f"strategy: {report.strategy}",
        f"trials: {report.trials_run}",
        f"trials with >=1 rejection: {report.trials_rejected}",
    ]
    if report.passed:
        lines.append(f"SOUNDNESS-FUZZ: PASS({report.trials_run})")
    else:
        lines.append(f"counterexample digest: {report.counterexample_digest}")
        lines.append(f"SOUNDNESS-FUZZ: FAIL counterexample={counterexample_path or '<unwritten>'}")
    return "\n".join(lines) + "\n"


# --- certificate size scaling -------------------------------------------------


def measure_scaling(sizes, family: str, seed: int, p: float = 0.5):
    """Prove each generated graph and report max certificate bits per n.

    Returns (rows, fitted_constant); each row is
    (n, family, seed, max_cert_bits, max_cert_bits / n**1.5).
    """
    rows = []
    for n in sizes:
        g = generate(GeneratorSpec(family, n, p, seed))
        certs = prove(g)
        bits = max_cert_bits(certs)
        rows.append((n, family, seed, bits, bits / n**1.5))
    constant = max(r[4] for r in rows)
    return rows, constant


def format_scaling_csv(rows) -> str:
    lines = ["n,family,seed,max_cert_bits,ratio"]
    for n, family, seed, bits, ratio in rows:
        lines.append(f"{n},{family},{seed},{bits},{ratio:.6f}")
    return "\n".join(lines) + "\n"


def p5free_corpus() -> list[GeneratorSpec]:
    """Deterministic P5-free graphs used across the test suite."""
    specs = []
    for family in ("cograph", "split", "p5free-repair"):
        for n in (8, 16, 32, 48):
            for seed in (1, 2):
                specs.append(GeneratorSpec(family, n, 0.5, seed))
    specs.append(GeneratorSpec("split", 64, 0.4, 3))
    specs.append(GeneratorSpec("cograph", 64, 0.6, 3))
    return specs
