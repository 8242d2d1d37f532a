"""Steadiness mode: repeat each workload in fresh processes and summarise.

    python3 bench/steady.py --out bench/BASELINE.json

Runs ``run.py`` one process at a time, in SETS sets of RUNS runs.  Run i of
a set uses seed i + 1 and visits the workloads in forward order on even i
and in reverse order on odd i (the second set starts reversed), so no
workload always runs first.  For every end-to-end metric it reports the
median, the quartiles and the spread, (Q3 - Q1) / median, of each set, and
how far the second median drifted from the first; either above the
metric's bound is a problem.  It also checks that each (workload, seed)
produced the same output fingerprint and counters in both sets.  Last, it
makes TRACE_RUNS traced runs per workload for the per-layer figures and the
tracing overhead.  The exit code is 1 when there is a problem.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2
TRACE_RUNS = 1

#: Which end-to-end metric each layer's metrics should move, and on which
#: workload; the last field names the workloads where little or nothing
#: should change.
LAYER_MAP = [
    {"layer": "lattice", "metrics": ["lattice.parse_s", "lattice.format_s",
                                     "lattice.complements_s", "lattice.elements"],
     "moves": ["inst_per_s", "latency_p50_ms"], "on": ["validate"],
     "little_on": ["corpus"]},
    {"layer": "certify", "metrics": ["certify.certify_s", "certify.audit_s",
                                     "certify.nodes", "certify.splits",
                                     "certify.prunes", "certify.nodes_per_s"],
     "moves": ["inst_per_s", "latency_p90_ms", "latency_p50_ms"],
     "on": ["corpus", "deep"], "little_on": ["validate"]},
    {"layer": "certify (checkers)", "metrics": ["certify.verify_s", "certify.extract_s",
                                                "certify.roundtrip_s",
                                                "certify.json_bytes"],
     "moves": ["latency_p50_ms"], "on": ["deep"], "little_on": ["corpus"]},
    {"layer": "complexes", "metrics": ["complexes.order_complex_s", "complexes.faces",
                                       "complexes.pairs"],
     "moves": ["latency_p50_ms", "peak_rss_mb"], "on": ["deep"], "little_on": []},
    {"layer": "chain_game", "metrics": ["chain_game.compile_s",
                                        "chain_game.exhaustive_s",
                                        "chain_game.subsets"],
     "moves": ["inst_per_s"], "on": ["corpus"], "little_on": ["deep"]},
    {"layer": "oracles", "metrics": ["oracles.nonevasive_s", "oracles.collapsible_s",
                                     "oracles.mobius_s", "oracles.memo_entries"],
     "moves": ["inst_per_s"], "on": ["corpus", "validate (mobius_s only)"],
     "little_on": ["deep"]},
    {"layer": "corpus", "metrics": ["corpus.generate_s"], "moves": ["setup_s"],
     "on": ["corpus"], "little_on": []},
]


def machine():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu_model": model}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    values = {k: m["value"] for k, m in result["metrics"].items()}
    print(f"  {workload:9} seed {seed:3} trace {trace} "
          + " ".join(f"{k}={v:.4g}" for k, v in values.items()
                     if trace == 0 or k.startswith("trace.")), flush=True)
    return {"seed": seed, "correct": result["correct"], "metrics": values,
            "fingerprint": report["fingerprint"], "counters": report["counters"],
            "latency_p90_ms": report.get("latency_p90_ms")}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    sets = []
    for s in range(SETS):
        runs = {w: [] for w in workloads}
        for i in range(RUNS):
            order = workloads if (i + s) % 2 == 0 else workloads[::-1]
            for w in order:
                runs[w].append(run_once(w, i + 1, seconds, 0))
        sets.append(runs)

    summary, problems = {}, []
    for w in workloads:
        summary[w] = {}
        for name, spec in specs.items():
            per_set = [summarise([r["metrics"][name] for r in runs[w]]) for runs in sets]
            first, second = per_set[0]["median"], per_set[1]["median"]
            worse = (second - first) if spec["better"] == "lower" else (first - second)
            entry = {"sets": per_set, "drift": worse / first}
            if abs(entry["drift"]) > spec["bound"]:
                problems.append(f"{w} {name}: drift {entry['drift']:+.3f} beyond bound")
            for k, part in enumerate(per_set):
                if part["spread"] > spec["bound"]:
                    problems.append(f"{w} {name}: spread {part['spread']:.3f} "
                                    f"in set {k + 1} > bound")
            summary[w][name] = entry
            print(f"{w:9} {name:16} bound {spec['bound']:.2f} " + "  ".join(
                f"med {p['median']:.5g} spread {p['spread']:.3f}" for p in per_set)
                + f"  drift {entry['drift']:+.3f}")
        p90 = [r["latency_p90_ms"] for runs in sets for r in runs[w]
               if r["latency_p90_ms"] is not None]
        if p90:
            summary[w]["latency_p90_ms"] = {"sets": [summarise(p90)]}
        for runs in sets:
            problems += [f"{w} seed {r['seed']}: incorrect" for r in runs[w]
                         if not r["correct"]]
        for a, b in zip(*(runs[w] for runs in sets)):
            if (a["fingerprint"], a["counters"]) != (b["fingerprint"], b["counters"]):
                problems.append(f"{w} seed {a['seed']}: outputs differ between sets")

    traced = {w: [run_once(w, i + 1, seconds, 1)["metrics"]
                  for i in range(TRACE_RUNS)] for w in workloads}
    print("problems:", problems or "none")
    if args.out:
        doc = {
            "machine": machine(),
            "command": bench["command"],
            "run_seconds": seconds,
            "runs_per_set": RUNS,
            "seeds": [1, RUNS],
            "workloads": {w["name"]: w["why"] for w in bench["workloads"]},
            "layer_map": LAYER_MAP,
            "untraced": summary,
            "traced": traced,
            "runs": [{w: runs[w] for w in workloads} for runs in sets],
            "problems": problems,
        }
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
