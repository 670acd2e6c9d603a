"""Measurement from outside the program.

Nothing in ``src/`` knows it is being measured.  Every probe is a wrapper
installed, for the duration of a ``with`` block, at the module attribute its
caller looks up at call time (``p5free.verify`` for ``p5free.scheme()``,
``harness.prove`` for ``honest_best_effort``, ``treepart.find_dominating_structure_in``
for ``build_tree_partition``, ...).  Leaving the block restores the originals.

Two probe sets exist:

* ``Meter`` (untraced runs) times only ``prove`` and every ``verify`` call,
  the two numbers the end-to-end metrics need.
* ``Tracer`` (traced runs) records a span at every layer boundary listed in
  ``TRACE_POINTS`` plus the counters the per-layer metrics need.

``Speed`` turns wall time into time on a reference host (see its docstring).
"""

from __future__ import annotations

import signal
import time
from array import array
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator

from p5cert import framework, harness, p5free, treepart

_now = time.perf_counter

# (module, attribute, span name): each layer boundary, at the name its
# caller resolves.  p5free and harness imported their codec/graphs/treepart
# helpers by name, so those are wrapped in the importing module.
TRACE_POINTS = (
    (treepart, "find_dominating_structure_in", "treepart.find_dom"),
    (p5free, "encode_partitioning", "codec.encode"),
    (p5free, "encode_certificate", "codec.encode"),
    (harness, "encode_partitioning", "codec.encode"),
    (harness, "encode_certificate", "codec.encode"),
    (p5free, "decode_certificate", "codec.decode"),
    (p5free, "decode_partitioning", "codec.decode"),
    (harness, "decode_certificate", "codec.decode"),
    (framework, "local_view", "framework.local_view"),
    (harness, "local_view", "framework.local_view"),
    (harness, "find_induced_path", "graphs.find_induced_path"),
    (harness, "generate", "harness.generate"),
    (framework, "run", "framework.run"),
)

# The verifier's process-global caches; each repetition starts them empty.
CACHES = {
    "decode": p5free._decode,
    "partition_index": p5free._partition_index,
    "p5search": p5free._find_p5_known,
}


def drain_caches(into: dict[str, list[int]] | None = None) -> None:
    """Empty the verifier caches, adding their hit/miss counts to ``into``."""
    for name, cached in CACHES.items():
        if into is not None:
            info = cached.cache_info()
            acc = into.setdefault(name, [0, 0])
            acc[0] += info.hits
            acc[1] += info.misses
        cached.cache_clear()


@contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    try:
        for mod, attr, fn in targets:
            setattr(mod, attr, fn)
        yield
    finally:
        for mod, attr, fn in reversed(saved):
            setattr(mod, attr, fn)


_MASK = (1 << 200) - 1


def _reference_kernel() -> int:
    # fixed pure-Python work in the program's idiom: big-int shifts and masks
    x, m = 0, _MASK - 12345
    for i in range(400):
        x ^= (m >> (i % 150)) & (i * 2654435761)
        m = (m * 3 + 1) & _MASK
    return x


class Speed:
    """Machine speed, sampled throughout a measured interval.

    On a shared host the same work takes 20-40% longer from one minute to
    the next.  Every ``INTERVAL_S`` of process CPU time a SIGPROF handler
    runs a fixed reference kernel and times it, so the samples are spread
    evenly over the interval.  ``clock`` is wall time less every kernel run
    so far, so no timer built on it counts the kernel.  ``measure`` returns
    the interval's ``clock`` time scaled by ``REF_KERNEL_S / mean kernel
    time``: seconds on a host where the kernel takes ``REF_KERNEL_S`` (a
    2-core x86-64 VM running CPython 3.11, about 0.15 ms).  The kernel costs
    about 2% of the run.
    """

    INTERVAL_S = 0.01
    REF_KERNEL_S = 1.5e-4
    MIN_SAMPLES = 8

    def __init__(self) -> None:
        self.kernel_s = 0.0  # every kernel run so far
        self.busy = 0.0  # kernel runs of the current interval
        self.samples = 0

    def _tick(self, signum, frame) -> None:
        t0 = _now()
        _reference_kernel()
        d = _now() - t0
        self.kernel_s += d
        self.busy += d
        self.samples += 1

    def clock(self) -> float:
        """Wall time less the kernel's own time."""
        while True:
            kernel = self.kernel_s
            t = _now()
            if kernel == self.kernel_s:  # no tick between the two reads
                return t - kernel

    def measure(self, fn: Callable) -> tuple[float, float, object]:
        """Run ``fn()``; return (normalised seconds, scale factor, result)."""
        self.busy, self.samples = 0.0, 0
        previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        try:
            t0 = self.clock()
            result = fn()
            elapsed = self.clock() - t0
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
        while self.samples < self.MIN_SAMPLES:  # short intervals: sample right after
            self._tick(None, None)
        factor = self.REF_KERNEL_S * self.samples / self.busy
        return elapsed * factor, factor, result


class Outputs:
    """What the prover and verifier returned during one repetition."""

    def __init__(self) -> None:
        self.proved: list[tuple[int, dict]] = []  # (n, certificates) per prove call
        self.verify_s = array("d")  # one entry per verify call
        self.prove_s = 0.0


class Meter:
    """Untraced probes: time of each prove and each verify call."""

    def __init__(self, speed: Speed) -> None:
        self.clock = speed.clock
        self.out = Outputs()

    def span(self, name: str) -> nullcontext:
        return nullcontext()

    def targets(self) -> list[tuple[object, str, Callable]]:
        prove, verify = p5free.prove, p5free.verify

        def timed_prove(g):
            t0 = self.clock()
            certs = prove(g)
            self.out.prove_s += self.clock() - t0
            self.out.proved.append((g.n, certs))
            return certs

        def timed_verify(view):
            t0 = self.clock()
            verdict = verify(view)
            self.out.verify_s.append(self.clock() - t0)
            return verdict

        return [(p5free, "prove", timed_prove), (harness, "prove", timed_prove), (p5free, "verify", timed_verify)]


MAX_SPANS = 200_000  # spans a Tracer stores; later ones are only counted


class Tracer:
    """Spans (name, start, end, parent) in memory, plus per-name aggregates.

    Aggregates cover every span; storage keeps the first ``MAX_SPANS`` so a
    long fuzz run cannot exhaust memory, and counts the rest as dropped.
    ``total`` is inclusive time of outermost spans of a name (recursion is not
    double counted), ``self_time`` subtracts the time of child spans.  Times
    are read from ``Speed.clock``, so they leave out the reference kernel.
    """

    def __init__(self, speed: Speed) -> None:
        self.clock = speed.clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self._stack: list[list] = []  # [name id, start, child seconds, stored index]
        self._depth: dict[int, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.count: dict[str, int] = {}  # free-form counters
        self.out = Outputs()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        nid = self._id(name)
        idx = -1
        if len(self.span_name) < MAX_SPANS:
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1][3] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            self.dropped += 1
        self._depth[nid] = self._depth.get(nid, 0) + 1
        self._stack.append([nid, self.clock(), 0.0, idx])

    def close(self) -> None:
        end = self.clock()
        nid, start, child, idx = self._stack.pop()
        d = end - start
        if idx >= 0:
            self.span_start[idx] = start
            self.span_end[idx] = end
        if self._stack:
            self._stack[-1][2] += d
        name = self.names[nid]
        self._depth[nid] -= 1
        if not self._depth[nid]:
            self.total[name] = self.total.get(name, 0.0) + d
        self.self_time[name] = self.self_time.get(name, 0.0) + d - child
        self.calls[name] = self.calls.get(name, 0) + 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def bump(self, name: str, by: int = 1) -> None:
        self.count[name] = self.count.get(name, 0) + by

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return traced

    def snapshot(self) -> dict:
        return {
            "total": dict(self.total),
            "calls": dict(self.calls),
            "count": dict(self.count),
        }

    def targets(self) -> list[tuple[object, str, Callable]]:
        prove, verify = p5free.prove, p5free.verify
        build, adversary = p5free.build_tree_partition, harness.adversarial_certificates
        has_rejection = harness.has_rejection
        last_reject = [""]

        def traced_prove(g):
            self.open("p5free.prove")
            t0 = self.clock()
            try:
                certs = prove(g)
            finally:
                self.out.prove_s += self.clock() - t0
                self.close()
            self.out.proved.append((g.n, certs))
            return certs

        def traced_verify(view):
            self.open("p5free.verify")
            try:
                verdict = verify(view)
            finally:
                self.close()
            if not verdict.accept:
                last_reject[0] = verdict.step
            return verdict

        def traced_check(g, scheme, certs):
            # has_rejection stops at the first rejecting vertex: its step
            # is the one that catches the trial
            self.open("harness.check")
            try:
                caught = has_rejection(g, scheme, certs)
            finally:
                self.close()
            if caught:
                self.bump("reject_step." + last_reject[0])
            return caught

        def traced_build(g):
            self.open("treepart.build")
            try:
                tp = build(g)
            finally:
                self.close()
            self.bump("treepart.bags", len(tp.bags))
            self.bump("treepart.big_bags", sum(not p5free.bag_is_small(b, tp.n) for b in tp.bags))
            biggest = max(len(b.members) for b in tp.bags)
            self.count["treepart.max_bag"] = max(self.count.get("treepart.max_bag", 0), biggest)
            return tp

        def traced_adversary(g, strategy):
            # a generator: the span covers the work done to produce each trial
            it = adversary(g, strategy)
            while True:
                self.open("harness.adversary")
                try:
                    certs = next(it)
                except StopIteration:
                    return
                finally:
                    self.close()
                yield certs

        targets = [(mod, attr, self.wrap(name, getattr(mod, attr))) for mod, attr, name in TRACE_POINTS]
        return targets + [
            (p5free, "prove", traced_prove),
            (harness, "prove", traced_prove),
            (p5free, "verify", traced_verify),
            (harness, "has_rejection", traced_check),
            (p5free, "build_tree_partition", traced_build),
            (harness, "adversarial_certificates", traced_adversary),
        ]

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "columns": ["name", "parent", "start", "end"],
            "name": list(self.span_name),
            "parent": list(self.span_parent),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "dropped": self.dropped,
        }

