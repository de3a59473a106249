"""Replay of the benchmark's byte-identity gate: CLI outputs against perfbench/reference.json.

Every query the benchmark's generator can produce at n = 5, 7 and 9 (n = 9
covers a composite order, whose Phi_9 reductions differ from the prime
ones), every `cheb` query, and `spectrum --n 11 --fusion --idempotents`
(all three payloads at an order whose coordinates have denominators 11 and
1331) run through `taftdouble.cli.main`; the SHA-256 of its standard output
must equal the recorded digest.  A drift in `CycArray.to_json`, or in the
order or normalization of an entry, then fails here instead of only at
benchmark time.  Under `-m slow` every n = 11 query is replayed.  The files
under perfbench/ are only read.

The in-process calls share one cached parser; a sequence of calls must
print what a parser built fresh for each call prints.
"""

import contextlib
import importlib.util
import io
import json
import re
from pathlib import Path

import pytest

from taftdouble.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REPLAY_NS = {"5", "7", "9"}
REPLAY_EXTRA = {"spectrum --n 11 --fusion --idempotents"}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _order(argv):
    return argv[argv.index("--n") + 1] if "--n" in argv else None


def _replay_mismatches(workloads, queries):
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    mismatches = []
    for argv in queries:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        key = workloads.query_key(argv)
        if code != 0 or workloads.digest(buf.getvalue()) != reference[key]:
            mismatches.append((key, code))
    return mismatches


def test_cli_outputs_match_the_benchmark_reference():
    workloads = _workloads()
    queries = [
        argv for argv in workloads.query_domain()
        if argv[0] == "cheb" or _order(argv) in REPLAY_NS or workloads.query_key(argv) in REPLAY_EXTRA
    ]
    assert len(queries) == 341
    mismatches = _replay_mismatches(workloads, queries)
    assert not mismatches, mismatches[:10]


@pytest.mark.slow
def test_every_n11_query_matches_the_benchmark_reference():
    workloads = _workloads()
    queries = [argv for argv in workloads.query_domain() if _order(argv) == "11"]
    assert len(queries) == 96
    mismatches = _replay_mismatches(workloads, queries)
    assert not mismatches, mismatches[:10]


def _run(call, argv):
    """(exit code, stdout, stderr) of call(argv), with the seconds column of a text report blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, re.sub(r"\d+\.\d+s$", "<s>", out.getvalue(), flags=re.M), err.getvalue()


def _fresh(argv):
    args = build_parser.__wrapped__().parse_args(argv)
    return args.fn(args)


def test_in_process_calls_reuse_one_parser_and_print_what_a_fresh_parser_prints():
    assert build_parser() is build_parser()
    sequence = [
        ["mckay", "--n", "5", "--module", "2,1", "--projective"],
        ["mckay", "--n", "5", "--module", "2,1"],
        ["mckay", "--n", "5", "--module", "2,1", "--closed-form"],
        ["verify", "--n", "3", "--suite", "hopf-axioms"],
        ["verify", "--n", "3"],
        ["mckay", "--n", "5"],  # --module is required: argparse exits 2
        ["mckay", "--n", "5", "--module", "3,0", "--format", "csv"],
    ]
    runs = [(_run(main, argv), _run(_fresh, argv)) for argv in sequence]
    for argv, (reused, fresh) in zip(sequence, runs):
        assert reused == fresh, argv
    codes = [reused[0] for reused, _ in runs]
    assert codes == [0, 0, 0, 0, 0, 2, 0]
    assert "--module" in runs[5][0][2]
    # the store_true flags of one call do not carry into the next
    projective, plain, closed = (json.loads(reused[1]) for reused, _ in runs[:3])
    assert projective["projective"] and not plain["projective"] and not closed["projective"]
    assert plain["rows"] == closed["rows"] != projective["rows"]
