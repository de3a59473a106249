"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

They run the package at n = 3 and 5 only, so they take seconds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import worker  # noqa: E402
from taftdouble import cli, verify  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    BLOCK_SIZE,
    CHECK_IDS,
    WORKLOADS,
    gate_report,
    query_block,
    query_domain,
    query_key,
    warmup_queries,
)


SEEDED = {"--module", "--monomial", "--kind", "--k"}


def _shape(argv):
    """A query without the parameters its seed picks."""
    return tuple(a for i, a in enumerate(argv) if not (i and argv[i - 1] in SEEDED))


@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_query_blocks_are_deterministic_and_valid(seed):
    blocks = [query_block(seed, i) for i in range(3)]
    assert blocks == [query_block(seed, i) for i in range(3)]
    # a query-mix run is QUERY_WORKERS processes of at least one block each
    assert run.QUERY_WORKERS * BLOCK_SIZE >= 100
    reference = json.loads((HERE / "reference.json").read_text())
    domain = {query_key(a) for a in query_domain()}
    parser = cli.build_parser()
    for argv in [a for block in blocks for a in block] + warmup_queries():
        parser.parse_args(argv)
        assert query_key(argv) in domain
        assert query_key(argv) in reference
    # the seed and the block index move parameters and order, never the mix
    shapes = Counter(map(_shape, blocks[0]))
    assert all(len(b) == BLOCK_SIZE and Counter(map(_shape, b)) == shapes for b in blocks[1:])
    assert Counter(map(_shape, query_block(seed + 1, 0))) == shapes
    assert blocks[0] != blocks[1] and blocks[0] != query_block(seed + 1, 0)


def test_reference_covers_exactly_the_domain():
    reference = json.loads((HERE / "reference.json").read_text())
    assert set(reference) == {query_key(a) for a in query_domain()}


def _attributes():
    """Every attribute the tracer may replace, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "taftdouble" or name.startswith("taftdouble."):
            out.update({(name, k): v for k, v in vars(mod).items() if callable(v)})
            for k, v in vars(mod).items():
                if isinstance(v, type) and v.__module__ == name:
                    out.update({(name, k, a): f for a, f in vars(v).items()})
    out.update({("CHECKS", k): v for k, v in verify.CHECKS.items()})
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _attributes()
    tracer = Tracer()
    tracer.install()
    try:
        during = _attributes()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("taftdouble.cyclotomic", "CycNum", "__mul__") in changed
        assert ("CHECKS", "hopf-axioms") in changed
        assert ("taftdouble.verify", "certificates") in changed  # imported by name
        assert len(changed) >= sum(len(t) for t in LAYERS.values()) + len(verify.CHECKS)
    finally:
        tracer.uninstall()
    assert tracer.restored()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _run_worker(trace, ns=(3, 5)):
    spec = {"mode": "verify", "ns": list(ns), "trace": trace}
    if trace:
        spec["trace_path"] = str(run.RESULTS / f"test-trace-{time.time_ns()}.json")
        run.RESULTS.mkdir(exist_ok=True)
    unit = run.spawn(spec, time.perf_counter() + 120)
    assert "error" not in unit, unit.get("error")
    return unit


def _results(unit):
    """Check results of a verify process without their timings."""
    out = []
    for call in unit["calls"]:
        for c in json.loads(call["out"])["checks"]:
            out.append({k: v for k, v in c.items() if k != "elapsed"})
    return out


def test_traced_runs_repeat_calls_and_match_untraced_results():
    first, second, plain = _run_worker(True), _run_worker(True), _run_worker(False)
    assert first["restored"] and second["restored"]
    assert first["calls_by_layer"] == second["calls_by_layer"]
    assert first["calls_by_layer"]["cyclotomic.mul"] > 0
    assert _results(first) == _results(plain) == _results(second)
    layers = run.per_layer([first])
    assert set(run.PER_LAYER) <= set(layers)
    assert layers["verify.check.oracle-concordance.calls"] == 2
    assert run.gate_unit(first, {}) == (2 * len(CHECK_IDS), {})


def test_query_worker_stops_at_its_budget_after_one_block():
    spec = {"mode": "queries", "seed": 1, "blocks": [0, 3, 6], "budget_s": 0.0, "trace": False}
    unit = run.spawn(spec, time.perf_counter() + 120)
    assert "error" not in unit, unit.get("error")
    assert len(unit["blocks"]) == 1
    assert [c["argv"] for c in unit["calls"]] == query_block(1, 0)
    reference = json.loads((HERE / "reference.json").read_text())
    assert run.gate_unit(unit, reference) == (len(warmup_queries()) + BLOCK_SIZE, {})


def _broken(residual=None):
    def check(ws):
        if residual is None:
            raise AssertionError("injected defect")
        return residual, None

    return check


@pytest.mark.parametrize("residual", [None, float("nan"), 1e-3])
def test_failing_check_counts_in_fail_share(monkeypatch, residual):
    monkeypatch.setitem(verify.CHECKS, "dual-pairing", _broken(residual))
    code, text, seconds = worker.call(cli.main, ["verify", "--n", "3", "--format", "json"])
    unit = {"spec": {"mode": "verify", "ns": [3]}, "calls": [{"code": code, "out": text, "seconds": seconds}]}
    attempted, failures = run.gate_unit(unit, {})
    assert attempted == len(CHECK_IDS)
    assert "n=3 dual-pairing" in failures
    assert 0 < len(failures) / attempted < 1


def test_gate_report_rejects_nan_missing_and_unreadable():
    checks = [{"id": c, "status": "pass", "exact": True, "oracle_residual": 0.0} for c in CHECK_IDS]
    good = {"n": 5, "checks": checks}
    assert gate_report(json.dumps(good), 5) == (len(CHECK_IDS), {})
    nan = json.loads(json.dumps(good))
    nan["checks"][3]["oracle_residual"] = math.nan
    assert set(gate_report(json.dumps(nan), 5)[1]) == {CHECK_IDS[3]}
    missing = {"n": 5, "checks": checks[1:]}
    assert gate_report(json.dumps(missing), 5)[1] == {CHECK_IDS[0]: "missing"}
    assert len(gate_report("not json", 5)[1]) == len(CHECK_IDS)
    assert len(gate_report(json.dumps(good), 7)[1]) == len(CHECK_IDS)


def test_benchmark_json_matches_the_runner():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-n11", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""
