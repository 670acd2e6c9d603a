"""The four workloads: inputs from a seed, one repetition, and its gate.

Graph generator seeds are part of each workload's definition.  Verify cost
swings by an order of magnitude between graphs of one family and size (split
n=96: 0.5 s to 9.5 s for one graph, even between relabelings of one graph),
so letting ``--seed`` pick the graphs would make runs incomparable.  The
benchmark seed instead orders the graphs of a repetition and seeds every
adversary in ``fuzz``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable

from p5cert import framework, harness, p5free
from p5cert.codec import decode_certificate, decode_partitioning, write_certificates
from p5cert.errors import MalformedCertificate, MalformedPartitioning
from p5cert.graphs import Graph, build_graph, write_graph
from p5cert.harness import STRATEGIES, AdversaryStrategy, GeneratorSpec
from p5cert.treepart import validate_tree_partition

from probes import drain_caches

# Sizes were chosen so that one repetition takes 3-4 s on a 2-core
# x86-64 VM (CPython 3.11); see README.md for the measurements.
CERTIFY_SPLIT = (GeneratorSpec("split", 80, 0.5, 6),)
CERTIFY_COGRAPH = tuple(GeneratorSpec("cograph", 128, 0.5, s) for s in (1, 3))
PROVE_LARGE = tuple(GeneratorSpec("split", 512, 0.5, s) for s in (1, 2, 3)) + tuple(
    GeneratorSpec("cograph", 1024, 0.5, s) for s in (1, 2)
)
FUZZ_SMALL_STRIDE = 40  # every 40th connected 6-vertex graph with an induced P5
FUZZ_SMALL_TRIALS = 10
FUZZ_LARGE = tuple(GeneratorSpec("with-p5", 24, 0.3, s) for s in (1, 2, 3))
FUZZ_LARGE_TRIALS = 10


@dataclass
class Inputs:
    seed: int
    graphs: list[Graph]  # certify and prove-large
    fuzz: list[tuple[Graph, int]]  # (graph, trials per strategy)

    def graphs_sha256(self) -> str:
        h = hashlib.sha256()
        for g in self.graphs or [g for g, _ in self.fuzz]:
            h.update(write_graph(g).encode())
        return h.hexdigest()


@dataclass
class RepResult:
    """What one repetition returned, for the gate and the counters."""

    reports: list  # RunReport (certify), certificates (prove-large), FuzzReport (fuzz)
    caches: dict[str, list[int]]  # cache name -> [hits, misses]


def certs_sha256(proved: list[tuple[int, dict]]) -> str:
    h = hashlib.sha256()
    for _, certs in proved:
        h.update(write_certificates(certs).encode())
    return h.hexdigest()


def warm_up() -> None:
    """Touch every code path once, then leave the verifier caches empty."""
    g = harness.generate(GeneratorSpec("cograph", 12, 0.5, 0))
    framework.run(g, p5free.scheme())
    p5 = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    for kind in STRATEGIES:
        harness.fuzz_soundness(p5, AdversaryStrategy(kind, 1, 0))
    drain_caches()


def _ordered(graphs: list[Graph], seed: int) -> list[Graph]:
    random.Random(seed).shuffle(graphs)
    return graphs


def setup_graphs(specs) -> Callable[[int], Inputs]:
    def setup(seed: int) -> Inputs:
        graphs = [harness.generate(spec) for spec in specs]
        warm_up()
        return Inputs(seed, _ordered(graphs, seed), [])

    return setup


def setup_fuzz(seed: int) -> Inputs:
    with_p5 = [g for g in harness.enumerate_connected_graphs(6) if not harness.oracle_is_p5_free(g)]
    fuzz = [(g, FUZZ_SMALL_TRIALS) for g in with_p5[::FUZZ_SMALL_STRIDE]]
    fuzz += [(harness.generate(spec), FUZZ_LARGE_TRIALS) for spec in FUZZ_LARGE]
    warm_up()
    return Inputs(seed, [], fuzz)


# --- one repetition ---------------------------------------------------------
# Called with probes installed; ``span`` marks a benchmark-level boundary.


def rep_certify(inputs: Inputs, span) -> RepResult:
    caches: dict[str, list[int]] = {}
    reports = []
    for g in inputs.graphs:
        # one graph = one `p5cert run` invocation: caches start empty
        reports.append(framework.run(g, p5free.scheme()))
        drain_caches(caches)
    return RepResult(reports, caches)


def rep_prove(inputs: Inputs, span) -> RepResult:
    return RepResult([p5free.prove(g) for g in inputs.graphs], {})


def rep_fuzz(inputs: Inputs, span) -> RepResult:
    caches: dict[str, list[int]] = {}
    reports = []
    for kind in STRATEGIES:
        with span("harness.fuzz." + kind):
            for g, trials in inputs.fuzz:
                reports.append(harness.fuzz_soundness(g, AdversaryStrategy(kind, trials, inputs.seed)))
    drain_caches(caches)
    return RepResult(reports, caches)


# --- correctness gates (outside the timed region) ---------------------------


def check_certify(inputs: Inputs, result: RepResult) -> tuple[int, int]:
    """Every vertex of every honest run accepts."""
    attempted = sum(len(r.verdicts) for r in result.reports)
    failed = sum(not d.accept for r in result.reports for d in r.verdicts.values())
    return attempted, failed


def check_prove(inputs: Inputs, result: RepResult) -> tuple[int, int]:
    """Each certificate decodes, carries its vertex's row and the shared
    partitioning, and that partitioning is a valid tree partition."""
    attempted = failed = 0
    for g, certs in zip(inputs.graphs, result.reports):
        shared = None
        for v in g.vertices():
            attempted += 1
            try:
                dec = decode_certificate(certs[v], g.n)
            except (KeyError, MalformedCertificate):
                failed += 1
                continue
            if shared is None:
                shared = dec.partitioning_part
            if dec.neighbors_part != g.adj[v] or dec.partitioning_part != shared:
                failed += 1
        attempted += 1
        try:
            valid = shared is not None and validate_tree_partition(g, decode_partitioning(shared, g.n)) is None
        except MalformedPartitioning:
            valid = False
        failed += not valid
    return attempted, failed


def check_fuzz(inputs: Inputs, result: RepResult) -> tuple[int, int]:
    """Every adversarial trial leaves at least one rejecting vertex."""
    attempted = sum(r.trials_run for r in result.reports)
    return attempted, attempted - sum(r.trials_rejected for r in result.reports)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Inputs]
    rep: Callable[[Inputs, Callable], RepResult]
    check: Callable[[Inputs, RepResult], tuple[int, int]]
    closure_split: bool  # time knowledge closure / 5-path search in the traced run


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "certify-split",
            setup_graphs(CERTIFY_SPLIT),
            rep_certify,
            check_certify,
            True,
        ),
        Workload(
            "certify-cograph",
            setup_graphs(CERTIFY_COGRAPH),
            rep_certify,
            check_certify,
            True,
        ),
        Workload(
            "prove-large",
            setup_graphs(PROVE_LARGE),
            rep_prove,
            check_prove,
            False,
        ),
        Workload(
            "fuzz",
            setup_fuzz,
            rep_fuzz,
            check_fuzz,
            False,
        ),
    )
}
