"""Replay of the benchmark's byte-identity gate: CLI outputs against perfbench/reference.json.

Every query the benchmark's generator can produce at n = 5, 7 and 9 (n = 9
covers a composite order, whose Phi_9 reductions differ from the prime
ones), and every `cheb` query, runs through `taftdouble.cli.main`; the
SHA-256 of its standard output must equal the recorded digest.  A drift in
`_encode`, or in the order or normalization of an entry, then fails here
instead of only at benchmark time.  The files under perfbench/ are only read.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

from taftdouble.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REPLAY_NS = {"5", "7", "9"}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_outputs_match_the_benchmark_reference():
    workloads = _workloads()
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    queries = [
        argv for argv in workloads.query_domain()
        if argv[0] == "cheb" or argv[argv.index("--n") + 1] in REPLAY_NS
    ]
    mismatches = []
    for argv in queries:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        key = workloads.query_key(argv)
        if code != 0 or workloads.digest(buf.getvalue()) != reference[key]:
            mismatches.append((key, code))
    assert len(queries) == 340
    assert not mismatches, mismatches[:10]
