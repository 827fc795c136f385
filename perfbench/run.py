"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload spinor_cli --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ./src, never
from an installed copy, and the run fails without a result when ./src is
missing.  One invocation runs one workload in its own process, so memory
peaks and caches never carry over between workloads.

--trace 0 prints the end-to-end metrics.  --trace 1 wraps every layer of
the package in spans, alternates untraced and traced rounds, and prints the
per-layer metrics (per round) plus the tracing overhead on each end-to-end
metric.  The last line of standard output is always one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracing  # noqa: E402
from workloads import HARNESS_CHECKS, WORKLOADS  # noqa: E402

END_TO_END = [
    ("requests_per_s", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("suite_wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (span name, statistic): per-layer metric "<span name>.<statistic>" per round
SPAN_METRICS = [
    ("linalg.rref", "calls"), ("linalg.rref", "total_s"),
    ("linalg.det", "calls"), ("linalg.det", "total_s"),
    ("spinors.annihilator", "calls"), ("spinors.annihilator", "self_s"),
    ("spinors.annihilated_subspace", "calls"), ("spinors.annihilated_subspace", "self_s"),
    ("spinors.vector_act", "calls"), ("spinors.vector_act", "total_s"),
    ("spinors.act", "calls"), ("spinors.act", "total_s"),
    ("spinors.complete_tnp", "calls"), ("spinors.complete_tnp", "total_s"),
    ("algebra.mul", "calls"), ("algebra.mul", "total_s"),
    ("bilinear.build_b", "calls"), ("bilinear.build_b", "total_s"),
    ("bilinear.inner", "calls"), ("bilinear.inner", "total_s"),
    ("bilinear.endo_from_pair", "calls"), ("bilinear.endo_from_pair", "total_s"),
    ("bilinear.expand_witt", "calls"), ("bilinear.expand_witt", "self_s"),
    ("bilinear.trace_of_product", "calls"), ("bilinear.trace_of_product", "total_s"),
    ("bilinear.expand_gamma", "calls"), ("bilinear.expand_gamma", "total_s"),
    ("matrixrep.to_matrix", "total_s"),
    ("simplicity.report", "calls"), ("simplicity.report", "self_s"),
    ("simplicity.cartan_chevalley_test", "total_s"),
    ("simplicity.theorem2_test", "total_s"),
    ("simplicity.evaluate_constraints", "total_s"),
    ("vectors.is_tnp", "calls"), ("vectors.is_tnp", "total_s"),
    ("vectors.product_element", "calls"), ("vectors.product_element", "total_s"),
    ("cli.main", "calls"), ("cli.main", "self_s"),
]


def layer_metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    unit = {"calls": "count", "total_s": "s", "self_s": "s"}
    out = [(f"{span}.{stat}", unit[stat]) for span, stat in SPAN_METRICS]
    out += [
        ("linalg.rref.cells", "count"),
        ("linalg.rref.nonzero_ratio", "ratio"),
        ("algebra.mul.term_pairs", "count"),
        ("matrixrep.rep_builds", "count"),
        ("matrixrep.build_s", "s"),
        ("bilinear.expand_witt.nonzero_ratio", "ratio"),
        ("serialize.calls", "count"),
        ("serialize.total_s", "s"),
    ]
    out += [(f"harness.{name}.wall_s", "s") for name in HARNESS_CHECKS]
    out += [("harness.requested_trials", "count"), ("harness.effective_trials", "count")]
    # peak memory is one number per process, so its tracing overhead shows as
    # the difference between a --trace 1 and a --trace 0 run; trace.spans is its cause
    out += [(f"trace.overhead.{name}", u) for name, u in END_TO_END if name != "peak_rss_mb"]
    out += [("trace.self_sum_ratio", "ratio"), ("trace.spans", "count")]
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Run:
    """Set-up repetitions and whole rounds of one workload.

    Half the set-ups run before the rounds and the rest after them, so their
    median samples the host across the whole run; the rounds use the state of
    the last set-up before them.  A traced run instruments the package and
    alternates untraced and traced set-ups and rounds, so both halves see the
    same host.  All times are scaled to one host speed (see workloads.Gauge).
    """

    def __init__(self, workload, tracer, seconds: float, traced: bool):
        self.traced = traced
        self.setups: dict[bool, list[float]] = {False: [], True: []}
        self.rounds: dict[bool, list[list[tuple[float, bool, str, float]]]] = {False: [], True: []}
        self.indices: dict[bool, list[int]] = {False: [], True: []}
        kinds = 2 if traced else 1
        reps = workload.setup_reps * kinds
        self._setup(workload, tracer, range(0, (reps + 1) // 2))
        workload.prepare()
        tracer.clear()
        start = time.perf_counter()
        index = 0
        while index < workload.min_rounds * kinds or time.perf_counter() - start < seconds:
            tracer.enabled = traced and index % 2 == 1
            self.rounds[tracer.enabled].append(workload.round(tracer, index))
            self.indices[tracer.enabled].append(index)
            index += 1
        tracer.enabled = False
        self.spans = list(tracer.spans)
        self.counters = dict(tracer.counters)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.extra = workload.extra_layer_values()
        self._setup(workload, tracer, range((reps + 1) // 2, reps))

    def _setup(self, workload, tracer, reps):
        gauge = workload.gauge
        for rep in reps:
            tracer.clear()
            gauge.sample()
            tracer.enabled = self.traced and rep % 2 == 1
            start = time.perf_counter()
            workload.setup(tracer if self.traced else None)
            end = time.perf_counter()
            kind, tracer.enabled = tracer.enabled, False
            gauge.sample()
            self.setups[kind].append((end - start) * gauge.scale(start, end))

    def attempted(self) -> int:
        return sum(len(rnd) for rounds in self.rounds.values() for rnd in rounds)

    def failures(self) -> int:
        rounds = self.rounds[False] + self.rounds[True]
        first = [text for _lat, _ok, text, _raw in rounds[0]]
        return sum(
            1
            for rnd in rounds
            for (_lat, ok, text, _raw), want in zip(rnd, first)
            if not ok or text != want
        ) + sum(abs(len(rnd) - len(first)) for rnd in rounds)

    def output_digest(self) -> str:
        return inputs.digest([text for _lat, _ok, text, _raw in self.rounds[False][0]])

    def metrics(self, traced: bool = False) -> dict[str, float]:
        lat = latencies(self.rounds[traced])
        return {
            "requests_per_s": len(lat) / sum(lat),
            "latency_p50_ms": percentile(lat, 0.5) * 1e3,
            "latency_p90_ms": percentile(lat, 0.9) * 1e3,
            "suite_wall_s": sum(lat),
            "setup_s": statistics.median(self.setups[traced]),
            "peak_rss_mb": self.peak_rss_mb,
        }


def latencies(rounds) -> list[float]:
    """Every request's scaled latency, the median of its repeats."""
    return [statistics.median(rnd[i][0] for rnd in rounds) for i in range(len(rounds[0]))]


def layer_values(run: Run) -> dict[str, float]:
    rounds = len(run.rounds[True])
    # each span scaled like the request it belongs to
    weight = {
        f"{index}.{i}": lat / raw
        for index, rnd in zip(run.indices[True], run.rounds[True])
        for i, (lat, _ok, _text, raw) in enumerate(rnd)
    }
    spans = [
        [name, start * w, end * w, parent, request]
        for name, start, end, parent, request in run.spans
        for w in (weight.get(request, 1.0),)
    ]
    stats = tracing.aggregate(spans)
    serialize_total = sum(
        s[2] - s[1]
        for s, outer in zip(spans, tracing.outermost(spans, group=lambda n: n.split(".")[0]))
        if outer and s[0].startswith("serialize.")
    )

    def stat(name, field):
        return stats.get(name, {}).get(field, 0.0)

    counters = defaultdict(float, run.counters)
    values = {f"{span}.{field}": stat(span, field) for span, field in SPAN_METRICS}
    values.update(
        {
            "linalg.rref.cells": counters["linalg.rref.cells"],
            "algebra.mul.term_pairs": counters["algebra.mul.term_pairs"],
            "matrixrep.rep_builds": stat("matrixrep.build", "calls"),
            "matrixrep.build_s": stat("matrixrep.build", "total_s"),
            "serialize.calls": sum(v["calls"] for k, v in stats.items() if k.startswith("serialize.")),
            "serialize.total_s": serialize_total,
        }
    )
    values.update({f"harness.{n}.wall_s": stat(f"harness.{n}", "total_s") for n in HARNESS_CHECKS})
    values = {k: v / rounds for k, v in values.items()}
    cells = counters["linalg.rref.cells"]
    words = counters["bilinear.expand_witt.words"]
    values["linalg.rref.nonzero_ratio"] = counters["linalg.rref.nonzero"] / cells if cells else 0.0
    values["bilinear.expand_witt.nonzero_ratio"] = (
        counters["bilinear.expand_witt.nonzero"] / words if words else 0.0
    )
    values["harness.requested_trials"] = run.extra.get("harness.requested_trials", 0.0)
    values["harness.effective_trials"] = run.extra.get("harness.effective_trials", 0.0)

    before, after = run.metrics(traced=False), run.metrics(traced=True)
    values.update({f"trace.overhead.{k}": after[k] - before[k] for k, _u in END_TO_END})
    values["trace.spans"] = len(spans) / rounds
    # per request, the median repeat's summed layer self time against its untraced latency
    sums = tracing.request_self_sums(spans)
    layered = [
        statistics.median(sums.get(f"{r}.{i}", 0.0) for r in run.indices[True])
        for i in range(len(run.rounds[True][0]))
    ]
    values["trace.self_sum_ratio"] = sum(layered) / sum(latencies(run.rounds[False]))
    return values


def run_header(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cliffordefb" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'cliffordefb'} is missing\n")
        return 2

    header = run_header(args.workload, args.seed, args.seconds, args.trace)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, SRC)
        print(f"# inputs sha256 {workload.input_digest} ({len(workload.requests)} inputs a round)")
        run = Run(workload, tracing.Tracer(), args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header["loadavg_end"] = list(os.getloadavg())
    print("# header " + json.dumps(header, sort_keys=True))
    attempted = run.attempted()
    failed = run.failures()
    print(f"# outputs sha256 {run.output_digest()}")
    untraced = run.rounds[False]
    print(
        f"# rounds {len(untraced)}, requests {attempted}, setups {len(run.setups[False])}, "
        f"failed_ratio {failed}/{attempted} = {failed / attempted:.4f}"
    )
    e2e = run.metrics()
    raw = statistics.median(sum(r[3] for r in rnd) for rnd in untraced)
    scales = [r[0] / r[3] for rnd in untraced for r in rnd if r[3] > 0]
    print(
        f"# unscaled round time {raw:.6g} s (median); host speed scale "
        f"{min(scales):.3f}..{max(scales):.3f}"
    )
    requests = f"n={len(untraced[0])} requests, median of {len(untraced)} repeats"
    samples = {
        "requests_per_s": requests, "latency_p50_ms": requests, "latency_p90_ms": requests,
        "suite_wall_s": requests, "setup_s": f"median of n={len(run.setups[False])}", "peak_rss_mb": "n=1",
    }
    for name, unit in END_TO_END:
        print(f"# {name} {e2e[name]:.6g} {unit} ({samples[name]})")
    if args.trace:
        values = layer_values(run)
        units = layer_metric_units()
        WORK.mkdir(parents=True, exist_ok=True)
        tracing.write_jsonl(run.spans, WORK / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        for name, unit in units:
            print(f"# {name} {values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
