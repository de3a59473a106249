"""Acceptance suite: every headline claim, at every supported n, at its stated tolerance.

Exact assertions admit zero tolerance (they run inside the check functions
over the cyclotomic field); the accompanying numeric re-evaluations must
stay below 1e-9.  One summary line is printed per criterion.

Results are computed once per (n, check) and shared across criteria, so the
whole gate stays within a few minutes for the default n set.

`tests/data/suite_reports.json` freezes every check's status, `exact` flag
and detail at n = 3..23 (written by `tests/record_reports.py`); the same
cached results, and the full suites at n = 15..23, are replayed against it.
n = 21 and 23 lie past the default bound of `TAFTDOUBLE_MAX_N`, which the
slow tests raise while they run.
"""

import gc
import json
import sys
from pathlib import Path

import pytest

import taftdouble.verify as verify_mod
from taftdouble.verify import CHECKS, ORACLE_TOL, check_ids, run_suite

DEFAULT_NS = (3, 5, 7, 9, 11, 13)
LARGE_NS = (15, 17, 19, 21, 23)
FROZEN = json.loads((Path(__file__).resolve().parent / "data" / "suite_reports.json").read_text())

_RESULTS: dict = {}
_LARGE: dict = {}


def _result(n: int, cid: str):
    """The CheckResult of one check, run exactly as the CLI runs it (once per (n, check))."""
    key = (n, cid)
    if key not in _RESULTS:
        _RESULTS[key] = run_suite(n, [cid]).checks[0]
    return _RESULTS[key]


def outcome(n: int, cid: str):
    """(passed, residual, detail, failure detail) of one check."""
    result = _result(n, cid)
    if result.status == "pass":
        return True, result.oracle_residual, result.detail, None
    return False, float("inf"), None, (result.status, result.detail)


def _frozen_entry(result) -> dict:
    """The fields of a check result that the frozen reports record."""
    return {"status": result.status, "exact": result.exact, "detail": json.loads(json.dumps(result.detail))}


def run_criterion(number: int, cid: str, ns=DEFAULT_NS):
    failures = []
    worst = 0.0
    for n in ns:
        ok, residual, _detail, err = outcome(n, cid)
        if not ok:
            failures.append((n, err))
        worst = max(worst, residual)
    status = "PASS" if not failures and worst < ORACLE_TOL else "FAIL"
    ns_text = ",".join(str(n) for n in ns)
    print(f"ACCEPTANCE criterion-{number:02d} [{cid}] {status} "
          f"(n={ns_text}; worst oracle {worst:.2e})")
    assert not failures, f"criterion {number} failed: {failures}"
    assert worst < ORACLE_TOL, f"criterion {number} oracle residual {worst} exceeds 1e-9"


def test_criterion_01_charpoly_table():
    """Recursion matches the frozen coefficient table; every block polynomial specializes it."""
    run_criterion(1, "charpoly-table")


def test_criterion_02_factorization():
    """p_n(t) = (t - 2) W_h(t)^2 exactly, with the simple/double multiplicity split per block."""
    run_criterion(2, "charpoly-factorization")


def test_criterion_03_spectral_certificates():
    """All eigen and Jordan residuals identically zero; both families have full rank n^2."""
    run_criterion(3, "spectral-certificates")


def test_criterion_04_character_identification():
    """Grouplike trace vectors equal the Chebyshev eigenvectors, with symmetry and closed form."""
    run_criterion(4, "grouplike-traces")


def test_criterion_05_projective_trace_table():
    """Projective trace rows: eigenvectors for every n, verbatim table and idempotent match at n=3."""
    run_criterion(5, "projective-trace-table")


def test_criterion_06_cartan_structure():
    """Cartan rank n(n+1)/2, exact kernel basis, and QC = CM for every simple module."""
    run_criterion(6, "cartan-structure")


def test_criterion_07_grothendieck_decomposition():
    """Radical squares to zero with basis count n(n-1)/2; n(n+1)/2 orthogonal idempotents."""
    run_criterion(7, "grothendieck-idempotents")


def test_criterion_08_fusion_matrix():
    """Fusion matrix matches its block pattern; Chebyshev eigenvectors; simple spectrum."""
    run_criterion(8, "fusion-matrix")


def test_criterion_09_generalized_traces():
    """Non-grouplike trace combinations stay in the right generalized eigenspaces."""
    run_criterion(9, "generalized-traces")


def test_criterion_10_coproduct_identity():
    """The coproduct trace identity holds for the sampled basis monomials."""
    run_criterion(10, "coproduct-trace")


def test_criterion_11_hopf_axioms():
    """Defining relations on every simple module; coassociativity and counit on the sample."""
    run_criterion(11, "hopf-axioms")


def test_criterion_12_oracle_concordance():
    """Every exact pass, over the full registry, re-checks numerically below 1e-9."""
    failures = []
    worst = 0.0
    for n in DEFAULT_NS:
        for cid in CHECKS:
            ok, residual, _detail, err = outcome(n, cid)
            if not ok:
                failures.append((n, cid, err))
            elif residual >= ORACLE_TOL:
                failures.append((n, cid, f"oracle residual {residual}"))
            else:
                worst = max(worst, residual)
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE criterion-12 [oracle-concordance] {status} "
          f"(all checks, all n; worst oracle {worst:.2e})")
    assert not failures, f"criterion 12 failed: {failures}"


@pytest.mark.parametrize("n", DEFAULT_NS)
def test_reports_match_the_frozen_record(n):
    """Each check's status, exact flag and detail are as recorded, from the results the criteria share."""
    got = {cid: _frozen_entry(_result(n, cid)) for cid in check_ids()}
    assert got == FROZEN[str(n)]


def _release_caches():
    """Drop every workspace and empty every functools cache of the package's modules, found by their `cache_clear`."""
    verify_mod._WORKSPACES.clear()
    for name, module in list(sys.modules.items()):
        if name == "taftdouble" or name.startswith("taftdouble."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    gc.collect()  # the workspaces hold reference cycles (a decomposition and its components)


def _large_report(n, monkeypatch):
    """The full suite at one of the large n, run once for both tests below, with TAFTDOUBLE_MAX_N raised to admit it.

    Only the report is kept: the workspace and the cached tables of n are
    released once it is made, so one large n at a time is alive.
    """
    monkeypatch.setenv("TAFTDOUBLE_MAX_N", str(max(LARGE_NS)))
    if n not in _LARGE:
        _LARGE[n] = run_suite(n)
        _release_caches()
    return _LARGE[n]


@pytest.mark.slow
@pytest.mark.parametrize("n", LARGE_NS)
def test_suite_at_large_n(n, monkeypatch):
    """Every check passes, exactly and below the oracle tolerance, at n = 15, 17, 19, 21 and 23."""
    report = _large_report(n, monkeypatch)
    assert [c.id for c in report.checks] == check_ids()
    bad = [(c.id, c.status, c.exact, c.oracle_residual) for c in report.checks
           if not (c.status == "pass" and c.exact and c.oracle_residual < ORACLE_TOL)]
    assert not bad, bad


@pytest.mark.slow
@pytest.mark.parametrize("n", LARGE_NS)
def test_large_reports_match_the_frozen_record(n, monkeypatch):
    """The slow twin of the frozen replay: the full suites at n = 15, 17, 19, 21 and 23."""
    got = {c.id: _frozen_entry(c) for c in _large_report(n, monkeypatch).checks}
    assert got == FROZEN[str(n)]
