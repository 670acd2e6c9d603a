"""Untraced and traced runs of one workload, and the gate self-test.

Untraced: set up ``SETUP_REPEATS`` times, then repeat the workload for
``--seconds`` with only ``probes.Meter`` installed; report medians.

Traced: one process runs the workload first with ``Meter`` and then with
``probes.Tracer``, half of ``--seconds`` each, so the ratio of the two
medians is the tracing overhead.  Layer times are medians over traced
repetitions; counts come from the first traced repetition and must repeat
exactly.  The knowledge-closure / 5-path-search split runs in a child
process, so neither it nor ``verify`` is served by caches the other filled.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from p5cert import framework, harness, p5free
from p5cert.framework import ACCEPT
from p5cert.graphs import build_graph
from p5cert.harness import STRATEGIES, GeneratorSpec

from probes import Meter, Outputs, Speed, Tracer, drain_caches, patched
from workloads import Inputs, RepResult, certs_sha256, check_certify, check_fuzz, check_prove, rep_certify, rep_fuzz, rep_prove

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5  # at least, and until SETUP_BUDGET_S has passed
SETUP_BUDGET_S = 1.0
MIN_REPS = 3  # untraced run
MIN_TRACED_REPS = 2  # each half of a traced run
CHILD_TIMEOUT_S = 170
STEPS = ("malformed", "i", "ii", "iii", "iv", "v")

_now = time.perf_counter

# Unit of every per-layer number the traced run prints.
LAYER_UNITS = {
    "treepart.build_s": "s",
    "treepart.find_dom_s": "s",
    "treepart.find_dom_calls": "count",
    "treepart.bags": "count",
    "treepart.big_bags": "count",
    "treepart.max_bag": "count",
    "codec.encode_s": "s",
    "codec.decode_s": "s",
    "codec.decode_calls": "count",
    "codec.cert_bits_total": "bits",
    "p5free.prove_s": "s",
    "p5free.verify_s": "s",
    "p5free.verify_calls": "count",
    "p5free.decode_cache_hit_ratio": "ratio",
    "p5free.partition_index_cache_hit_ratio": "ratio",
    "p5free.p5search_cache_hit_ratio": "ratio",
    "p5free.closure_s": "s",
    "p5free.closure_ms.p50": "ms",
    "p5free.p5search_s": "s",
    "p5free.known_pairs.mean": "count",
    **{f"p5free.reject_step.{s}": "count" for s in STEPS},
    "framework.local_view_s": "s",
    "framework.run_s": "s",
    "harness.generate_s": "s",
    **{f"harness.trials_per_s.{k}": "1/s" for k in STRATEGIES},
    "harness.verify_calls_per_trial": "ratio",
    "harness.adversary_s": "s",
    "harness.check_s": "s",
    "graphs.find_induced_path_s": "s",
    "graphs.find_induced_path_calls": "count",
    "trace.run_s_ratio": "ratio",
    "trace.prove_s_ratio": "ratio",
}

# The metrics each kind of run reports in its JSON line, with their units.
# The traced run prints every layer in LAYER_UNITS; BENCHMARK.json's
# per_layer lists the counts, ratios and the times every workload has.
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict[str, str]:
    """Names and units of BENCHMARK.json's ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


# numbers that must repeat exactly for a given seed
EXACT = {k for k, unit in LAYER_UNITS.items() if unit in ("count", "bits")} | {
    "p5free.decode_cache_hit_ratio",
    "p5free.partition_index_cache_hit_ratio",
    "p5free.p5search_cache_hit_ratio",
    "harness.verify_calls_per_trial",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Reps:
    """Repetitions of one workload: the first kept whole, every other one
    reduced to its numbers as soon as it is done."""

    first: RepResult
    first_out: Outputs
    times: list[float] = field(default_factory=list)  # normalised seconds
    factors: list[float] = field(default_factory=list)  # Speed scale factors
    prove_s: list[float] = field(default_factory=list)  # normalised seconds
    verify_ms: list[tuple[float, float]] = field(default_factory=list)  # normalised (p50, p95)
    verify_calls: int = 0  # per repetition
    mismatches: int = 0  # later repetitions whose output differed from the first


def _same(result: RepResult, out: Outputs, reps: Reps) -> bool:
    return result.reports == reps.first.reports and [c for _, c in out.proved] == [c for _, c in reps.first_out.proved]


def run_reps(wl, inputs: Inputs, probe, seconds: float, min_reps: int, speed: Speed, after=None) -> Reps:
    """Repeat the workload with ``probe`` installed: at least ``min_reps``
    times, then while the next repetition still fits in ``seconds`` of wall
    time.  Outside the timed region ``after(result, outputs)`` sees each
    repetition.  Each one after the first is compared with the first, and
    only its times are kept, so memory does not grow with the number of
    repetitions."""

    def one():
        with probe.span("rep"):
            return wl.rep(inputs, probe.span)

    reps = None
    start = _now()
    with patched(probe.targets()):
        while True:
            t0 = _now()
            probe.out = Outputs()
            norm, factor, result = speed.measure(one)
            out = probe.out
            probe.out = None
            if after is not None:
                after(result, out)
            if reps is None:
                reps = Reps(result, out, verify_calls=len(out.verify_s))
            else:
                reps.mismatches += not _same(result, out, reps)
            reps.times.append(norm)
            reps.factors.append(factor)
            reps.prove_s.append(out.prove_s * factor)
            if out.verify_s:
                p50, p95 = percentile(out.verify_s, 0.5), percentile(out.verify_s, 0.95)
                reps.verify_ms.append((p50 * factor * 1e3, p95 * factor * 1e3))
            del out, result
            if len(reps.times) >= min_reps and _now() - start + (_now() - t0) > seconds:
                return reps


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def emit(lines: list[str], attempted: int, failed: int, metrics: dict, kind: str) -> None:
    """Print the report; the JSON result, with the ``kind`` metrics that
    BENCHMARK.json declares, is the last line."""
    units = {k: v["unit"] for k, v in metrics.items()}
    if units != declared(kind):
        raise RuntimeError(f"metrics {units} differ from BENCHMARK.json {kind} {declared(kind)}")
    lines.append(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted})")
    print("\n".join(lines))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))


def child(argv: list[str]) -> dict:
    """Run the benchmark in a fresh process; return its report lines and JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *argv],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return {"lines": lines[:-1], "result": json.loads(lines[-1])}


def gate(wl, inputs: Inputs, reps: Reps) -> tuple[int, int]:
    """The workload's gate on the first repetition; every other repetition
    must have returned what the first returned, prover output included."""
    attempted, failed = wl.check(inputs, reps.first)
    return attempted + len(reps.times) - 1, failed + reps.mismatches


def identity_lines(inputs: Inputs, outputs: Outputs) -> list[str]:
    return [
        f"inputs.graphs_sha256 = {inputs.graphs_sha256()}",
        f"inputs.certs_sha256 = {certs_sha256(outputs.proved)}",
    ]


# --- untraced ----------------------------------------------------------------


def untraced(wl, seed: int, seconds: float) -> None:
    speed = Speed()
    setup_s = []
    start = _now()
    while len(setup_s) < SETUP_REPEATS or _now() - start < SETUP_BUDGET_S:
        # one sampled interval per set-up: the host's speed changes within seconds
        norm, _, inputs = speed.measure(lambda: wl.setup(seed))
        setup_s.append(norm)

    reps = run_reps(wl, inputs, Meter(speed), seconds, MIN_REPS, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed = gate(wl, inputs, reps)

    run_s = statistics.median(reps.times)
    ratio = max(max(b.length for b in certs.values()) / n**1.5 for n, certs in reps.first_out.proved)
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "run_s": metric(run_s, "s"),
        "max_cert_ratio": metric(ratio, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    lines = [f"workload {wl.name} seed {seed}: {len(reps.times)} repetitions, {len(setup_s)} set-ups"]
    lines += [f"{k} = {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"prove_s = {statistics.median(reps.prove_s):.6g} s")
    lines.append("setups_s = " + " ".join(f"{d:.4g}" for d in setup_s))
    lines.append("repetitions_s = " + " ".join(f"{d:.4g}" for d in reps.times))
    lines.append("host_speed = " + " ".join(f"{1 / f:.3g}" for f in reps.factors))
    if reps.verify_ms:
        p50 = statistics.median(p for p, _ in reps.verify_ms)
        p95 = statistics.median(p for _, p in reps.verify_ms)
        lines.append(f"verify_ms.p50 = {p50:.6g} ms ({reps.verify_calls} verify calls per repetition)")
        lines.append(f"verify_ms.p95 = {p95:.6g} ms")
    trials = sum(getattr(r, "trials_run", 0) for r in reps.first.reports)
    if trials:
        lines.append(f"fuzz_trials_per_s = {trials / run_s:.6g} 1/s ({trials} trials per repetition)")
    emit(lines + identity_lines(inputs, reps.first_out), attempted, failed, metrics, "end_to_end")


# --- traced ------------------------------------------------------------------


def _layer_values(before: dict, after: dict, result, outputs: Outputs) -> dict[str, float]:
    """Per-layer numbers of one traced repetition, from two tracer snapshots."""

    def total(name):
        return after["total"].get(name, 0.0) - before["total"].get(name, 0.0)

    def calls(name):
        return after["calls"].get(name, 0) - before["calls"].get(name, 0)

    def count(name):
        return after["count"].get(name, 0) - before["count"].get(name, 0)

    def hit_ratio(cache):
        hits, misses = result.caches.get(cache, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0

    trials = {k: 0 for k in STRATEGIES}
    for r in result.reports:
        if hasattr(r, "trials_run"):
            trials[r.strategy] += r.trials_run
    values = {
        "treepart.build_s": total("treepart.build"),
        "treepart.find_dom_s": total("treepart.find_dom"),
        "treepart.find_dom_calls": calls("treepart.find_dom"),
        "treepart.bags": count("treepart.bags"),
        "treepart.big_bags": count("treepart.big_bags"),
        "treepart.max_bag": after["count"].get("treepart.max_bag", 0),
        "codec.encode_s": total("codec.encode"),
        "codec.decode_s": total("codec.decode"),
        "codec.decode_calls": calls("codec.decode"),
        "codec.cert_bits_total": sum(b.length for _, certs in outputs.proved for b in certs.values()),
        "p5free.prove_s": total("p5free.prove"),
        "p5free.verify_s": total("p5free.verify"),
        "p5free.verify_calls": calls("p5free.verify"),
        "p5free.decode_cache_hit_ratio": hit_ratio("decode"),
        "p5free.partition_index_cache_hit_ratio": hit_ratio("partition_index"),
        "p5free.p5search_cache_hit_ratio": hit_ratio("p5search"),
        **{f"p5free.reject_step.{s}": count(f"reject_step.{s}") for s in STEPS},
        "framework.local_view_s": total("framework.local_view"),
        "framework.run_s": total("framework.run"),
        "harness.adversary_s": total("harness.adversary"),
        "harness.check_s": total("harness.check"),
        "graphs.find_induced_path_s": total("graphs.find_induced_path"),
        "graphs.find_induced_path_calls": calls("graphs.find_induced_path"),
    }
    for kind in STRATEGIES:
        busy = total("harness.fuzz." + kind)
        values[f"harness.trials_per_s.{kind}"] = trials[kind] / busy if busy else 0.0
    n_trials = sum(trials.values())
    values["harness.verify_calls_per_trial"] = values["p5free.verify_calls"] / n_trials if n_trials else 0.0
    return values


def traced(wl, seed: int, seconds: float) -> None:
    speed = Speed()
    tracer = Tracer(speed)
    with patched(tracer.targets()), tracer.span("setup"):
        _, factor, inputs = speed.measure(lambda: wl.setup(seed))
    generate_s = tracer.total.get("harness.generate", 0.0) * factor

    plain = run_reps(wl, inputs, Meter(speed), seconds / 2, MIN_TRACED_REPS, speed)

    per_rep: list[dict[str, float]] = []
    tracer.count.pop("treepart.max_bag", None)
    last = [tracer.snapshot()]

    def after(result, out):
        now = tracer.snapshot()
        per_rep.append(_layer_values(last[0], now, result, out))
        tracer.count.pop("treepart.max_bag", None)
        last[0] = tracer.snapshot()

    reps = run_reps(wl, inputs, tracer, seconds / 2, MIN_TRACED_REPS, speed, after)

    attempted, failed = gate(wl, inputs, plain)
    attempted += len(reps.times)
    failed += reps.mismatches + (not _same(reps.first, reps.first_out, plain))
    for factor, v in zip(reps.factors, per_rep):
        v.update({k: x * factor for k, x in v.items() if LAYER_UNITS.get(k) == "s"})
        v.update({k: x / factor for k, x in v.items() if LAYER_UNITS.get(k) == "1/s"})
    values = {k: statistics.median(v[k] for v in per_rep) for k in per_rep[0]}
    drift = sorted(k for k in per_rep[0] if k in EXACT and any(v[k] != per_rep[0][k] for v in per_rep))
    values.update({k: v for k, v in per_rep[0].items() if k in EXACT})
    values["harness.generate_s"] = generate_s
    values["trace.run_s_ratio"] = statistics.median(reps.times) / statistics.median(plain.times)
    values["trace.prove_s_ratio"] = statistics.median(reps.prove_s) / statistics.median(plain.prove_s)
    values.update({"p5free.closure_s": 0.0, "p5free.closure_ms.p50": 0.0, "p5free.p5search_s": 0.0, "p5free.known_pairs.mean": 0.0})
    if wl.closure_split:
        split = child(["--closure-split", "--workload", wl.name, "--seed", str(seed)])["result"]
        attempted += split["attempted"]
        failed += split["failed"]
        values.update(split["metrics"])
    if drift:
        attempted, failed = attempted + 1, failed + 1

    lines = [
        f"workload {wl.name} seed {seed} traced: {len(plain.times)} untraced + {len(reps.times)} traced repetitions, "
        f"{len(tracer.span_name)} spans kept, {tracer.dropped} dropped"
    ]
    lines += [f"{k} = {values[k]:.6g} {LAYER_UNITS[k]}" for k in LAYER_UNITS]
    if drift:
        lines.append(f"exact counts differ between traced repetitions: {', '.join(drift)}")
    lines += identity_lines(inputs, plain.first_out)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{wl.name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": wl.name, "seed": seed, "layers": values, "spans": tracer.to_json()}))
    lines.append(f"trace written to {trace_file.relative_to(HERE.parent)}")
    emit(lines, attempted, failed, {k: metric(values[k], LAYER_UNITS[k]) for k in declared("per_layer")}, "per_layer")


def closure_split(wl, seed: int) -> None:
    """Time knowledge_closure and find_known_induced_p5 at every vertex."""
    inputs = wl.setup(seed)
    speed = Speed()
    tracer = Tracer(speed)
    decode = [
        (p5free, name, tracer.wrap("codec.decode", getattr(p5free, name)))
        for name in ("decode_certificate", "decode_partitioning")
    ]
    closure_ms, known = [], []
    witnesses = []

    def split():
        for g in inputs.graphs:
            certs = p5free.prove(g)
            with patched(decode):
                for v in g.vertices():
                    view = framework.local_view(g, certs, v)
                    # self time: verify takes decoded certificates from its cache
                    before = tracer.self_time.get("p5free.closure", 0.0)
                    with tracer.span("p5free.closure"):
                        km = p5free.knowledge_closure(view, track_provenance=False)
                    closure_ms.append((tracer.self_time["p5free.closure"] - before) * 1e3)
                    known.append(km.known_pair_count())
                    with tracer.span("p5free.p5search"):
                        witnesses.append(p5free.find_known_induced_p5(km))
            drain_caches()

    _, factor, _ = speed.measure(split)
    failed = sum(w is not None for w in witnesses)
    metrics = {
        "p5free.closure_s": tracer.self_time["p5free.closure"] * factor,
        "p5free.closure_ms.p50": percentile(closure_ms, 0.5) * factor,
        "p5free.p5search_s": tracer.total["p5free.p5search"] * factor,
        "p5free.known_pairs.mean": statistics.fmean(known),
    }
    print(json.dumps({"correct": failed == 0, "attempted": len(known), "failed": failed, "metrics": metrics}))


# --- self-test -----------------------------------------------------------------


def self_test() -> int:
    """Plant faults the gates must catch: corrupted honest certificates, and
    a verifier that accepts everything (every fuzz trial goes undetected)."""
    g = harness.generate(GeneratorSpec("cograph", 16, 0.5, 1))
    p5 = build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5)])
    certify, fuzz = Inputs(0, [g], []), Inputs(0, [], [(p5, 2)])
    meter = Meter(Speed())
    prove = p5free.prove

    def corrupted(graph):
        certs = dict(prove(graph))
        certs[1] = certs[1].flip(0)  # vertex 1 now claims a wrong neighbour row
        return certs

    cases = [
        ("honest, certify gate", False, lambda: check_certify(certify, rep_certify(certify, meter.span))),
        ("honest, prove gate", False, lambda: check_prove(certify, rep_prove(certify, meter.span))),
        ("honest, fuzz gate", False, lambda: check_fuzz(fuzz, rep_fuzz(fuzz, meter.span))),
    ]
    planted = [
        ("corrupted certificates, certify gate", (p5free, "prove", corrupted), check_certify, rep_certify, certify),
        ("corrupted certificates, prove gate", (p5free, "prove", corrupted), check_prove, rep_prove, certify),
        ("accept-all verifier, fuzz gate", (p5free, "verify", lambda view: ACCEPT), check_fuzz, rep_fuzz, fuzz),
    ]
    for name, fault, check, rep, inputs in planted:
        cases.append((name, True, lambda f=fault, c=check, r=rep, i=inputs: _sabotaged(f, c, r, i, meter)))

    ok = True
    for name, expect_failure, run_case in cases:
        attempted, failed = run_case()
        drain_caches()
        good = (failed > 0) == expect_failure
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {name}: failed_frac = {failed / attempted:.4g} ({failed} of {attempted})")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


def _sabotaged(fault, check, rep, inputs, meter) -> tuple[int, int]:
    with patched([fault]):
        return check(inputs, rep(inputs, meter.span))
