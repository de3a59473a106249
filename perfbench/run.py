"""The taftdouble benchmark: one command, two workloads, every metric by name.

    python3 perfbench/run.py --workload verify-n11 --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` directory, nothing is installed.  Workloads (see
workloads.WORKLOADS for why each exists):

    verify-n11    `verify --n 11 --format json`, one fresh process per suite
    query-mix     a warm-up pass, then blocks of a seeded stream of read-only
                  queries over n in {5, 7, 9, 11}, in each of QUERY_WORKERS
                  processes

Both are closed loops with one client and no think time.  On verify-n11 the
runner starts one measured process after another, and stops before one that,
as long as the last, would end past `--seconds` (after one at least, two in a
traced run); on query-mix it starts QUERY_WORKERS processes one after another,
each measuring its share of `--seconds`.  It checks every output
(workloads.gate_report, workloads.gate_query against reference.json), and
prints a summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END).  With
--trace 1 measured processes alternate between traced and untraced ones; the
metrics are the per-layer ones (PER_LAYER) from the traced processes, and the
summary reports the tracing overhead as traced against untraced `suite_s`.
Every run writes its full record, metadata included, to perfbench/results/.

Exit code 0 when a result was printed (failed checks show in "correct" and
"failed"), 2 when the benchmark cannot run at all, e.g. without `src/`.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import CACHES, LAYERS  # noqa: E402
from workloads import (  # noqa: E402
    BLOCK_SIZE,
    CHECK_IDS,
    TRACED_BLOCKS,
    WORKLOADS,
    gate_query,
    gate_report,
    warmup_queries,
)

WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
RUN_LIMIT_S = 170  # a run must end within 180 s, its set-up included
# Import-only processes per run.  On the verify workloads they are the set-up
# samples besides the measured processes, so there are many; on query-mix,
# whose set-up includes the warm-up pass, one gives the run metadata.
PROBES = {"verify": 20, "queries": 1}
# Query-mix processes per untraced run: each sets up once (a set-up sample)
# and measures blocks for its share of the run.
QUERY_WORKERS = 3
MAX_BLOCKS = 100  # per query-mix process; the time budget ends it long before
# One BLAS thread in every worker.  With OpenBLAS's default of one thread per
# core, on a 2-core machine its second thread spins against the main one, and
# the wall and CPU time of the numpy-heavy queries swing with the load of the
# machine's other tenants.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
QUERY_COMMANDS = ("mckay", "chartable", "spectrum", "fusion", "idempotents", "cheb")

# name -> unit, printed with --trace 0
END_TO_END = {
    "setup_s": "s",
    "suite_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
}

# unit of each per-layer figure, by the last part of its name
UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "hit_ratio": "ratio"}

LAYER_NAMES = list(LAYERS) + [f"verify.check.{cid}" for cid in CHECK_IDS]


# Per-layer figures carry no bound, so a layer that a workload never reaches
# reads 0 there (0 calls, 0 s, and 0 for a p50 or a hit ratio with nothing
# behind it) rather than being left out: the same names on every workload.
def _per_layer() -> dict:
    names = [f"{name}.{fig}" for fig in ("calls", "self_s") for name in LAYER_NAMES]
    names += [f"cli.{cmd}.calls" for cmd in ("verify",) + QUERY_COMMANDS]
    names += [f"cli.{cmd}.p50_ms" for cmd in QUERY_COMMANDS]
    names += [f"cache.{cache}.hit_ratio" for cache in CACHES]
    return {name: UNITS[name.rsplit(".", 1)[1]] for name in names}


PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# helpers


def loadavg():
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def cpu_ticks():
    """Machine-wide CPU ticks by state, from the first line of /proc/stat."""
    states = ("user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal")
    try:
        with open("/proc/stat") as fh:
            return dict(zip(states, map(int, fh.readline().split()[1:9])))
    except (OSError, ValueError):
        return None


def percentile(values, q):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_commit():
    if not (ROOT / ".git").exists():  # a bare checkout; never report an enclosing repository
        return None
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() if got.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spawn(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion; its result, or {"error": ...}."""
    before = loadavg()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        cwd=ROOT,
        env={**os.environ, **WORKER_ENV},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": "timeout", "spec": spec}
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {err[-2000:]}", "spec": spec}
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"unreadable worker output: {out[-200:]!r}", "spec": spec}
    result["setup_s"] = result.get("t_ready", result["t_imported"]) - t0
    result["wall_s"] = wall
    result["loadavg"] = [before, loadavg()]
    result["spec"] = spec
    return result


# ----------------------------------------------------------------------
# gating and metrics


def gate_unit(unit: dict, reference: dict) -> tuple[int, dict]:
    """(items attempted, {failed item: why}) for one measured process.

    An item is a check of a verify report, or a query.  A process that
    crashed or timed out fails every item it was given.
    """
    spec = unit["spec"]
    if spec["mode"] == "verify":
        expected = len(CHECK_IDS) * len(spec["ns"])
    else:
        expected = len(warmup_queries()) + BLOCK_SIZE  # at least one block runs
    if "error" in unit:
        why = unit["error"]
    elif spec.get("trace") and not unit.get("restored"):
        why = "tracer left a wrapped attribute behind"
    else:
        why = None
    if why:
        return expected, {f"item {i}": why for i in range(expected)}
    attempted, failures = 0, {}
    if spec["mode"] == "verify":
        for n, call in zip(spec["ns"], unit["calls"]):
            count, bad = gate_report(call["out"], n)
            if call["code"] != 0 and not bad:
                bad = {"report": f"exit code {call['code']} with every check passing"}
            attempted += count
            failures.update({f"n={n} {k}": v for k, v in bad.items()})
    else:
        for i, call in enumerate(unit["warmup"] + unit["calls"]):
            attempted += 1
            why = gate_query(call["argv"], call["code"], call["out"], reference)
            if why:
                failures[f"#{i} {' '.join(call['argv'])}"] = why
    return attempted, failures


def end_to_end(units: list[dict], probes: list[dict], kind: str) -> dict:
    """Medians over the run.  A block is one verify process's calls, or one
    query-mix block.  Latency percentiles are taken over each verify process
    and over the whole query-mix run, so that they mean the same however many
    processes and blocks a run holds: a query-mix run is whole blocks, in
    which each of the slowest query kinds comes once."""
    ok = [u for u in units if "error" not in u]
    setups = [u["setup_s"] for u in ok]
    if kind == "verify":
        setups += [p["setup_s"] for p in probes if "error" not in p]
        groups = [[c["seconds"] for c in u["calls"]] for u in ok]
    else:
        groups = [[c["seconds"] for u in ok for c in u["calls"]]]
    blocks = [b for u in ok for b in u["blocks"]]

    def pct(q):
        return statistics.median(1000 * percentile(group, q) for group in groups)

    values = {
        "setup_s": statistics.median(setups),
        "suite_s": statistics.median(b["wall_s"] for b in blocks),
        "cpu_s": statistics.median(b["cpu_s"] for b in blocks),
        "peak_rss_mb": statistics.median(u["maxrss_kb"] / 1024 for u in ok),
        "query_p50_ms": pct(50),
        "query_p90_ms": pct(90),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(traced: list[dict]) -> dict:
    """Every per-layer figure of the traced processes (PER_LAYER is a subset)."""
    first = traced[0]
    values = {}
    for name in LAYER_NAMES:
        values[f"{name}.calls"] = first["calls_by_layer"].get(name, 0)
        values[f"{name}.self_s"] = statistics.median(u["self_s_by_layer"].get(name, 0.0) for u in traced)
    # oracle-concordance runs inline in run_suite; its figures come from the reports
    concord = "verify.check.oracle-concordance"

    def concordance(unit):
        found = [
            c["elapsed"]
            for call in unit["calls"]
            if call["argv"][0] == "verify"
            for c in json.loads(call["out"])["checks"]
            if c["id"] == "oracle-concordance"
        ]
        return len(found), sum(found, 0.0)

    values[f"{concord}.calls"] = concordance(first)[0]
    values[f"{concord}.self_s"] = statistics.median(concordance(u)[1] for u in traced)
    for cmd in ("verify",) + QUERY_COMMANDS:
        values[f"cli.{cmd}.calls"] = first["calls_by_layer"].get(f"cli.{cmd}", 0)
        seconds = [c["seconds"] for u in traced for c in u["calls"] if c["argv"][0] == cmd]
        values[f"cli.{cmd}.p50_ms"] = 1000 * statistics.median(seconds) if seconds else 0.0
    for cache, stats in first["cache"].items():
        total = stats["hits"] + stats["misses"]
        values[f"cache.{cache}.hit_ratio"] = stats["hits"] / total if total else 0.0
    return values


# ----------------------------------------------------------------------


def unit_spec(workload: str, seed: int, traced: bool, index: int, stamp: str, budget_s=None) -> dict:
    conf = WORKLOADS[workload]
    if conf["kind"] == "verify":
        spec = {"mode": "verify", "ns": conf["ns"]}
    elif budget_s is None:
        # a fixed stream in trace runs, so that traced call counts repeat exactly
        spec = {"mode": "queries", "seed": seed, "blocks": list(range(TRACED_BLOCKS))}
    else:
        # worker `index` takes every QUERY_WORKERS-th block of the seed's stream
        blocks = range(index, QUERY_WORKERS * MAX_BLOCKS, QUERY_WORKERS)
        spec = {"mode": "queries", "seed": seed, "blocks": list(blocks), "budget_s": budget_s}
    spec["trace"] = traced
    if traced:
        spec["trace_path"] = str(RESULTS / f"trace-{workload}-seed{seed}-{stamp}-{index}.json")
    return spec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "taftdouble" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    # build: byte-compile up front so no measured process pays for it
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)
    RESULTS.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"
    reference = json.loads((HERE / "reference.json").read_text())
    kind = WORKLOADS[args.workload]["kind"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_before": loadavg(),
    }
    ticks_before = cpu_ticks()

    probes = [spawn({"mode": "probe"}, deadline) for _ in range(PROBES[kind])]
    facts = next((p for p in probes if "error" not in p), {})
    meta["numpy"] = facts.get("numpy")
    meta["blas_threads"] = facts.get("blas_threads")
    meta["worker_env"] = WORKER_ENV

    units = []
    t_begin = time.perf_counter()
    if kind == "queries" and not args.trace:
        budget = args.seconds / QUERY_WORKERS
        for i in range(QUERY_WORKERS):
            units.append(spawn(unit_spec(args.workload, args.seed, False, i, stamp, budget), deadline))
    else:
        while True:
            traced = bool(args.trace) and len(units) % 2 == 0
            t_unit = time.perf_counter()
            units.append(spawn(unit_spec(args.workload, args.seed, traced, len(units), stamp), deadline))
            now = time.perf_counter()
            next_end = now + (now - t_unit)
            enough = next_end - t_begin > args.seconds and (not args.trace or len(units) >= 2)
            if enough or next_end > deadline:
                break
    meta["loadavg_after"] = loadavg()
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after:
        # steal and other tenants' load show here
        meta["cpu_ticks_during_run"] = {k: ticks_after[k] - ticks_before[k] for k in ticks_before}

    attempted, failures = 0, {}
    for i, unit in enumerate(units):
        count, bad = gate_unit(unit, reference)
        attempted += count
        failures.update({f"process {i}: {k}": v for k, v in bad.items()})
    ok = [u for u in units if "error" not in u]
    calls = [c for u in ok for c in u["calls"]]
    summary = {
        "processes": len(units),
        "fail_share": len(failures) / attempted,
        "queries_per_s": len(calls) / sum(c["seconds"] for c in calls) if calls else 0.0,
    }
    metrics, layers = {}, None
    if args.trace:
        traced = [u for u in ok if u["spec"]["trace"]]
        plain = [u for u in ok if not u["spec"]["trace"]]
        if traced and plain:
            layers = per_layer(traced)
            traced_s = end_to_end(traced, [], kind)["suite_s"]["value"]
            plain_s = end_to_end(plain, [], kind)["suite_s"]["value"]
            summary["trace_overhead"] = traced_s / plain_s - 1
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    elif ok:
        metrics = end_to_end(ok, probes, kind)

    record = {
        "meta": meta,
        "summary": summary,
        "metrics": metrics,
        "all_layer_figures": layers,
        "failures": failures,
        "probes": probes,
        "processes": [{k: v for k, v in u.items() if k not in ("calls", "warmup")} for u in units],
        "latencies_s": [[c["argv"][0], c["seconds"]] for c in calls],
    }
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))

    # every figure by name; with --trace 1 that is more than the JSON line holds
    shown = {k: (v, UNITS[k.rsplit(".", 1)[1]]) for k, v in layers.items()} if layers else {
        k: (m["value"], m["unit"]) for k, m in metrics.items()
    }
    for name, (value, unit) in shown.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    for name, value in summary.items():
        print(f"{name:48s} {value:14.6f}" if isinstance(value, float) else f"{name:48s} {value:7d}")
    for key, why in list(failures.items())[:20]:
        print(f"FAIL {key}: {why}")
    print(f"record: {path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": max(attempted, 1),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
