"""Benchmark of the nonevade pipeline on one workload.

    python3 bench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs one workload as a closed loop: one instance at a
time, no threads, no child processes.

1. Set-up builds the workload's inputs from the seed (see workloads.py).
2. The timed loop runs the instances in a seeded shuffled order, cycling
   through the list, until ``--seconds`` have passed and at least one full
   pass is done.  Every output is checked (see pipeline.py), and each
   repeat of an instance must reproduce the digest and counters of its
   first run.  Between instances the loop repeats the set-up build (see
   SETUP_SHARE); every build must equal the first, and ``setup_s`` is the
   median build time.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each instance runs twice, once
traced and once not, alternating which goes first; the last line then holds
the per-layer metrics, which come from the traced runs, and the tracing
overhead, which comes from the pairs.  The spans are written to
``.bench_out/spans-<workload>-s<seed>.json``.  The line before the result is
a JSON report with the output fingerprint, the counters and the failures.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from random import Random

from spans import Tracer, untraced_call

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The set-up build is repeated between instances whenever all builds so
#: far, the first included, have taken at most SETUP_SHARE of the loop's time
#: so far, which spaces the repeats evenly over the loop, and after the loop
#: until there are SETUP_MIN_RUNS builds.  On a shared machine whose speed
#: swings by a third within seconds, builds bunched into the seconds before
#: the loop gave medians that spread 0.2-0.3 between runs; spread over the
#: loop, their median sees the same conditions as the instances do.  Each
#: build starts from a full collection and runs with the cyclic collector
#: off, as ``timeit`` does, so that when a collection falls inside a build
#: does not depend on what ran before it.
SETUP_SHARE = 0.2
SETUP_MIN_RUNS = 5

#: Per-layer busy times: metric name -> span name.  Each is the summed self
#: time of that span per pass over the workload's instances, except
#: corpus.generate_s, which is per set-up.
LAYER_TIMES = {
    "lattice.parse_s": "lattice.parse",
    "lattice.format_s": "lattice.format",
    "lattice.complements_s": "lattice.complements",
    "certify.certify_s": "certify.certify",
    "certify.audit_s": "certify.audit",
    "certify.verify_s": "certify.verify",
    "certify.extract_s": "certify.extract",
    "certify.roundtrip_s": "certify.roundtrip",
    "complexes.order_complex_s": "complexes.order_complex",
    "chain_game.compile_s": "chain_game.compile",
    "chain_game.exhaustive_s": "chain_game.exhaustive",
    "oracles.nonevasive_s": "oracles.nonevasive",
    "oracles.collapsible_s": "oracles.collapsible",
    "oracles.mobius_s": "oracles.mobius",
    "bench.checks_s": "bench.instance",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import nonevade from this checkout's src/, or return None."""
    if not (SRC / "nonevade" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import nonevade

    if Path(nonevade.__file__).resolve().parent != SRC / "nonevade":
        return None
    return nonevade


class SetUp:
    """Builds the workload's inputs and times every build."""

    def __init__(self, build, seed, tracer):
        self.build = build
        self.seed = seed
        self.tracer = tracer
        self.seconds = []
        self.generate_s = 0.0  # traced runs: corpus.generate self time, all builds
        self.inputs = self.once()

    def once(self):
        tracer = self.tracer
        call = tracer.call if tracer else untraced_call
        if tracer:
            tracer.instance = None
            first = len(tracer.spans)
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            inputs = call("bench.setup", self.build, self.seed, call)
            self.seconds.append(time.perf_counter() - start)
        finally:
            gc.enable()
        if tracer:
            self.generate_s += tracer.self_times(first).get("corpus.generate", 0.0)
        return inputs


class Loop:
    """The timed closed loop and everything it records, per instance."""

    def __init__(self, setup, run_one, seed, tracer):
        self.setup = setup
        self.instances = instances = setup.inputs
        self.run_one = run_one
        self.order = list(range(len(instances)))
        Random(seed).shuffle(self.order)
        self.tracer = tracer
        self.first = {}  # instance index -> (digest, counters) of its first run
        self.runs = [[] for _ in instances]  # untraced seconds per run
        self.traced = [[] for _ in instances]  # traced seconds per run
        self.layers = [{} for _ in instances]  # summed self time per span name
        self.failures = []
        self.attempted = 0
        self.elapsed = 0.0

    def run(self, seconds):
        start = time.perf_counter()
        deadline = start + seconds
        n = len(self.order)
        step = 0
        while step < n or time.perf_counter() < deadline:
            index = self.order[step % n]
            if self.tracer is None:
                self.runs[index].append(self._one(index, untraced_call))
            elif step % 2 == 0:
                self._traced(index)
                self.runs[index].append(self._one(index, untraced_call))
            else:
                self.runs[index].append(self._one(index, untraced_call))
                self._traced(index)
            step += 1
            if sum(self.setup.seconds) <= SETUP_SHARE * (time.perf_counter() - start):
                self._set_up_again()
        self.elapsed = time.perf_counter() - start
        while len(self.setup.seconds) < SETUP_MIN_RUNS:
            self._set_up_again()

    def _set_up_again(self):
        if self.setup.once() != self.instances:
            self.failures.append("set-up: a repeated build of the inputs differs")

    def _traced(self, index):
        tracer = self.tracer
        first = len(tracer.spans)
        tracer.instance = self.attempted + 1

        def traced_run(inst, call):
            return tracer.call("bench.instance", self.run_one, inst, call)

        self.traced[index].append(self._one(index, tracer.call, traced_run))
        layers = self.layers[index]
        for name, seconds in tracer.self_times(first).items():
            layers[name] = layers.get(name, 0.0) + seconds

    def _one(self, index, call, run_one=None):
        inst = self.instances[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = (run_one or self.run_one)(inst, call)
            first = self.first.setdefault(index, result)
            if result != first:
                raise RuntimeError("outputs differ from this instance's first run")
        except Exception as exc:  # one instance failing must not stop the run
            self.failures.append(f"{inst.name}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - start

    def per_instance(self, runs):
        """Each instance's median time over its runs, in list order."""
        return [statistics.median(r) for r in runs]

    def fingerprint(self):
        digest = hashlib.sha256()
        for index, inst in enumerate(self.instances):
            if index in self.first:
                digest.update(f"{inst.name}\t{self.first[index][0]}\n".encode())
        return digest.hexdigest()

    def counters(self, names):
        totals = [0] * len(names)
        for _, values in self.first.values():
            totals = [a + b for a, b in zip(totals, values)]
        return dict(zip(names, totals))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(loop):
    """Throughput and latency come from each instance's median time, so a
    pass cut short by the deadline does not tilt the mix of instances."""
    medians = loop.per_instance(loop.runs)
    return {
        "inst_per_s": _metric(len(medians) / sum(medians), "1/s"),
        "latency_p50_ms": _metric(statistics.median(medians) * 1e3, "ms"),
        "setup_s": _metric(statistics.median(loop.setup.seconds), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(loop, counters):
    """Layer self times per pass: each instance's mean over its traced runs,
    summed over the instances."""
    times = {}
    for runs, layers in zip(loop.traced, loop.layers):
        for name, seconds in layers.items():
            times[name] = times.get(name, 0.0) + seconds / len(runs)
    metrics = {
        name: _metric(times.get(span, 0.0), "s") for name, span in LAYER_TIMES.items()
    }
    metrics["corpus.generate_s"] = _metric(
        loop.setup.generate_s / len(loop.setup.seconds), "s")
    for name, value in counters.items():
        metrics[name] = _metric(value, "count")
    certify_s = times.get("certify.certify", 0.0)
    nodes = counters.get("certify.nodes", 0)
    metrics["certify.nodes_per_s"] = _metric(nodes / certify_s if certify_s else 0.0, "1/s")
    traced = loop.per_instance(loop.traced)
    metrics["trace.inst_per_s"] = _metric(len(traced) / sum(traced), "1/s")
    traced_s = sum(sum(r) for r in loop.traced)
    untraced_s = sum(sum(r) for r in loop.runs)
    metrics["trace.overhead_pct"] = _metric((traced_s / untraced_s - 1) * 100, "%")
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if import_package() is None:
        print(f"run.py: no nonevade package under {SRC}", file=sys.stderr)
        return 2
    import pipeline
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    if args.workload == "validate":
        run_one, names = pipeline.validate_instance, pipeline.VALIDATE_COUNTERS
    else:
        run_one, names = pipeline.certify_instance, pipeline.CERTIFY_COUNTERS

    tracer = Tracer() if args.trace else None
    loop = Loop(SetUp(build, args.seed, tracer), run_one, args.seed, tracer)
    loop.run(args.seconds)

    # every workload reports every counter, so both kinds of run print one set
    counters = dict.fromkeys(pipeline.CERTIFY_COUNTERS + pipeline.VALIDATE_COUNTERS, 0)
    counters.update(loop.counters(names))
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances_per_pass": len(loop.instances),
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "fail_ratio": len(loop.failures) / loop.attempted,
        "runs_per_instance": [min(map(len, loop.runs)), max(map(len, loop.runs))],
        "measured_s": loop.elapsed,
        "setup_runs_s": loop.setup.seconds,
        "fingerprint": loop.fingerprint(),
        "counters": counters,
        "failures": loop.failures[:10],
    }
    if tracer is None:
        metrics = end_to_end(loop)
        if len(loop.instances) >= 100:
            medians = loop.per_instance(loop.runs)
            report["latency_p90_ms"] = statistics.quantiles(medians, n=10)[-1] * 1e3
    else:
        metrics = per_layer(loop, counters)
        out = ROOT / ".bench_out" / f"spans-{args.workload}-s{args.seed}.json"
        tracer.write(out)
        report["spans_file"] = str(out.relative_to(ROOT))
    for name, m in metrics.items():
        print(f"{args.workload:9} {name:28} {m['value']:>14.6g} {m['unit']}")
    for failure in loop.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not loop.failures
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
