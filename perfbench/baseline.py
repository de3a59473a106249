"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py

For each workload, runs `run.py --trace 0` once per seed 1..10, one run at a
time, then one `--trace 1` run.  Writes to perfbench/baseline.json, per
workload and end-to-end metric, every value, the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median; and the
per-layer figures and tracing overhead of the traced run.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)


def one_run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200, check=True,
    )
    lines = got.stdout.splitlines()
    record = json.loads((ROOT / lines[-2].split("record: ", 1)[1]).read_text())
    return json.loads(lines[-1]), record


def main() -> int:
    out = {}
    for workload in (w["name"] for w in BENCH["workloads"]):
        runs = []
        for seed in SEEDS:
            result, record = one_run(workload, seed, 0)
            runs.append({"seed": seed, "result": result, "meta": record["meta"], "summary": record["summary"]})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
        metrics = {}
        for m in BENCH["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {
                "unit": m["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "bound": m["bound"],
                "values": values,
            }
        traced, record = one_run(workload, 1, 1)
        out[workload] = {
            "correct": all(r["result"]["correct"] for r in runs) and traced["correct"],
            "failed": sum(r["result"]["failed"] for r in runs) + traced["failed"],
            "end_to_end": metrics,
            "runs": runs,
            "trace_overhead": record["summary"].get("trace_overhead"),
            "per_layer": record["all_layer_figures"],
            "traced_meta": record["meta"],
        }
        for name, m in metrics.items():
            print(f"{workload:13s} {name:14s} median {m['median']:12.4f} spread {m['spread']:.4f} bound {m['bound']}")
        print(f"{workload:13s} trace overhead {out[workload]['trace_overhead']}", flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
