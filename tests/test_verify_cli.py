import json
import os
import subprocess
import sys

import numpy as np
import pytest

import taftdouble.verify as verify_mod
from taftdouble.cli import main
from taftdouble.cyclotomic import CycArray
from taftdouble.dnrep import DoubleRep
from taftdouble.grring import GrothRing, groth_ring
from taftdouble.spectral import GrothDecomposition, SpectralTables, spectral_tables
from taftdouble.polymat import sparse_product, sparse_rows
from taftdouble.verify import Oracle, _block_charpoly_values, check_ids, embed_vec, emit_report, run_suite


def test_run_suite_single_selection():
    report = run_suite(3, ["charpoly-table"])
    assert [c.id for c in report.checks] == ["charpoly-table"]
    assert report.all_pass


def test_run_suite_rejects_bad_input():
    with pytest.raises(ValueError, match="odd"):
        run_suite(4)
    with pytest.raises(ValueError, match="odd"):
        run_suite(15)  # beyond the default bound
    with pytest.raises(ValueError, match="unknown"):
        run_suite(3, ["nope"])


def test_max_n_override(monkeypatch):
    monkeypatch.setenv("TAFTDOUBLE_MAX_N", "5")
    with pytest.raises(ValueError):
        run_suite(7, ["charpoly-table"])
    monkeypatch.delenv("TAFTDOUBLE_MAX_N")
    assert run_suite(7, ["charpoly-table"]).all_pass


def test_report_serialization():
    report = run_suite(3, ["charpoly-table", "fusion-matrix", "oracle-concordance"])
    as_json = emit_report(report, "json")
    parsed = json.loads(as_json)
    assert parsed["n"] == 3 and parsed["all_pass"] is True
    assert [c["id"] for c in parsed["checks"]] == [
        "charpoly-table",
        "fusion-matrix",
        "oracle-concordance",
    ]
    assert all(c["oracle_residual"] < 1e-9 for c in parsed["checks"])
    text = emit_report(report, "text")
    assert "✓" in text and "all checks passed" in text
    with pytest.raises(ValueError):
        emit_report(report, "yaml")
    # identical runs serialize identically
    again = emit_report(run_suite(3, ["charpoly-table", "fusion-matrix", "oracle-concordance"]), "json")
    stripped = lambda s: "\n".join(
        line for line in s.splitlines() if '"elapsed"' not in line
    )
    assert stripped(again) == stripped(as_json)


def test_check_registry_is_complete():
    ids = check_ids()
    assert "oracle-concordance" in ids
    assert len(ids) == len(set(ids))


def test_cli_verify_exit_codes(capsys):
    assert main(["verify", "--n", "3", "--suite", "charpoly-table"]) == 0
    out = capsys.readouterr().out
    assert "charpoly-table" in out
    assert main(["verify", "--n", "4"]) == 2
    assert main(["verify", "--n", "3", "--suite", "bogus"]) == 2


def test_failing_check_reports_and_exits_nonzero(capsys, monkeypatch):
    import taftdouble.verify as verify_mod

    def broken(ws):
        assert False, "deliberately broken for the failure-path test"

    monkeypatch.setitem(verify_mod.CHECKS, "charpoly-table", broken)
    report = run_suite(3, ["charpoly-table", "oracle-concordance"])
    assert not report.all_pass
    failed = report.checks[0]
    assert failed.status == "fail" and not failed.exact
    assert "deliberately broken" in failed.detail["counterexample"]
    # a check that fails both routes is consistent, so concordance itself passes
    assert report.checks[-1].id == "oracle-concordance"
    assert report.checks[-1].status == "pass"
    assert main(["verify", "--n", "3", "--suite", "charpoly-table"]) == 1
    out = capsys.readouterr().out
    assert "✗" in out and "FAILURES" in out


def test_oracle_treats_non_finite_as_failure():
    oracle = Oracle()
    oracle.vec_residual(np.array([1e-3, float("nan")]))
    assert oracle.residual == float("inf")
    oracle = Oracle()
    oracle.see(float("nan"))
    assert oracle.residual == float("inf")
    oracle = Oracle()
    oracle.see(1e-12)
    oracle.see(-float("inf"))
    assert oracle.residual == float("inf")


def test_block_charpoly_recurrence_matches_the_polynomial():
    for n in (3, 5, 7):
        tab = spectral_tables(n)
        points = np.array([0.3 + 0.1j, -1.7, 2.0, 1j, 1.9 - 0.4j])
        for k in range(n):
            bp = tab.block_charpoly(k)
            vals, slopes = _block_charpoly_values(points, tab.ctx.root_power(k).embed(), n)
            np.testing.assert_allclose(vals, np.polyval(embed_vec(bp.coeffs)[::-1], points), atol=1e-10)
            np.testing.assert_allclose(
                slopes, np.polyval(embed_vec(bp.derivative().coeffs)[::-1], points), atol=1e-10
            )


def test_charpoly_oracles_stay_small_past_the_default_bound(monkeypatch):
    """Through the recurrence the residual does not grow with n (np.polyval gave 8e-12 at n = 17)."""
    monkeypatch.setenv("TAFTDOUBLE_MAX_N", "17")
    report = run_suite(17, ["charpoly-table", "charpoly-factorization"])
    assert report.all_pass
    assert all(c.oracle_residual < 1e-13 for c in report.checks)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cartan_intertwining_dense_cross_check(n):
    """QC = CM as dense RingMatrix products, against the gather-adds of cartan-structure."""
    ring = groth_ring(n)
    C = ring.cartan_matrix()
    Ct = C.transpose()
    C_int = C.int_array()
    C_rows, Ct_rows = sparse_rows(C_int), sparse_rows(C_int.T)
    assert C_rows[0].shape[1] <= 2 and Ct_rows[0].shape[1] <= 2
    for ell in range(1, n + 1):
        for s in range(n):
            Mv = ring.mckay_matrix(ell, s)
            Mdual = ring.mckay_matrix(ell, (1 - s - ell) % n)
            rhs = C * Mv
            assert (Ct * Mdual).transpose() == rhs
            assert np.array_equal(sparse_product(C_rows, Mv.int_array()), rhs.int_array())
            assert np.array_equal(sparse_product(Ct_rows, Mdual.int_array()).T, rhs.int_array())


@pytest.mark.parametrize("n", [3, 5, 7])
def test_coproduct_trace_oracle_re_evaluates_the_identity(n):
    """The float route weighs the embedded terms itself, so rounding leaves a small nonzero residual."""
    result = run_suite(n, ["coproduct-trace"]).checks[0]
    assert result.status == "pass"
    assert 0.0 < result.oracle_residual < 1e-12


def test_crashing_check_is_reported_as_error(capsys, monkeypatch):
    def crash(ws):
        return 1 // 0

    monkeypatch.setitem(verify_mod.CHECKS, "charpoly-table", crash)
    report = run_suite(3, ["charpoly-table", "fusion-matrix", "oracle-concordance"])
    crashed, fusion, _concordance = report.checks
    assert crashed.status == "error" and not crashed.exact
    assert crashed.detail["error"].startswith("ZeroDivisionError")
    assert fusion.status == "pass"  # the suite went on after the crash
    assert not report.all_pass
    assert json.loads(emit_report(report, "json"))["checks"][0]["status"] == "error"
    assert main(["verify", "--n", "3", "--suite", "charpoly-table,fusion-matrix"]) == 1
    out = capsys.readouterr().out
    assert "FAILURES" in out and "fusion-matrix" in out


def _bumped(vec, pos):
    """vec with entry pos raised by 1 in one coefficient, of the type it was given (list or CycArray)."""
    if isinstance(vec, CycArray):
        nums = vec.nums.copy()
        nums[pos, 0] += vec.den
        return CycArray(vec.ctx, nums, vec.den)
    out = list(vec)
    out[pos] = out[pos] + 1
    return out


def _bump_entry(pos):
    """Wrap a vector-returning function so that its entry pos is corrupted."""
    def wrap(fn):
        return lambda *args: _bumped(fn(*args), pos)
    return wrap


def _bump_scalar(fn):
    return lambda *args: fn(*args) + 1


def _bump_gen_trace_vector(fn):
    def corrupted(n, i, k):
        vec, gammas, lam = fn(n, i, k)
        return _bumped(vec, 3), gammas, lam
    return corrupted


# check id, owner, attribute, corruption, text the counterexample must carry
CORRUPTIONS = [
    ("spectral-certificates", SpectralTables, "gen_left_coeffs", _bump_entry(2), "exact eigen or Jordan"),
    ("spectral-certificates", SpectralTables, "right_coeffs", _bump_entry(1), "exact eigen or Jordan"),
    ("grouplike-traces", SpectralTables, "lam", _bump_scalar, "eigen"),
    ("generalized-traces", verify_mod, "gen_trace_combination", _bump_gen_trace_vector, "eigenline"),
    ("projective-trace-table", DoubleRep, "trace_vector_P", _bump_entry(4), "Tr_P eigen"),
    ("general-eigenvalues", SpectralTables, "general_eigenvalue", _bump_scalar, "right eigenvalue"),
    ("general-eigenvalues", SpectralTables, "projective_eigenvalue", _bump_scalar, "projective"),
    ("grothendieck-idempotents", GrothDecomposition, "g_coords", _bump_entry(5), "Jordan pair"),
    ("fusion-matrix", verify_mod, "fusion_left_eigvec", _bump_entry(0), "fusion"),
    ("dual-pairing", SpectralTables, "right_coeffs", _bump_entry(2), "projective-side"),
    ("mckay-closed-form", GrothRing, "dim_simple_vector", _bump_entry(6), "dimension vector"),
]


@pytest.mark.parametrize("cid,owner,attr,corrupt,text", CORRUPTIONS)
def test_ported_checks_fail_on_one_corrupted_coefficient(monkeypatch, cid, owner, attr, corrupt, text):
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    result = run_suite(3, [cid]).checks[0]
    assert result.status == "fail", result
    assert text in result.detail["counterexample"]


def _run_optimized(script: str) -> str:
    """Run script under `python -O` against the package in src/; return its stdout."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_relations_survive_python_O():
    """Under -O every assert is gone; the exact relations must still reject a wrong eigenvalue."""
    script = """
import sys
assert sys.flags.optimize == 1
from taftdouble.spectral import SpectralTables
from taftdouble.verify import run_suite
original = SpectralTables.general_eigenvalue
def wrong(self, idx, ell, s):
    val = original(self, idx, ell, s)
    return val + 1 if (idx.j, idx.r, ell, s) == (1, 1, 2, 0) else val
SpectralTables.general_eigenvalue = wrong
result = run_suite(3, ["general-eigenvalues"]).checks[0]
print(result.status, result.detail)
"""
    stdout = _run_optimized(script)
    assert stdout.startswith("fail"), stdout
    assert "right eigenvalue for V(2,0), EigIndex(j=1, r=1)" in stdout


def test_hopf_axioms_survive_python_O():
    """Under -O the coproduct checks must still reject one wrong coefficient of D(a)."""
    script = """
import sys
assert sys.flags.optimize == 1
from taftdouble.dnrep import DoubleRep
from taftdouble.verify import run_suite
original = DoubleRep.coproduct_monomial
def wrong(self, mono):
    out = dict(original(self, mono))
    if mono == (1, 0, 0, 0):
        key = ((1, 0, 0, 0), (0, 1, 0, 0))
        out[key] = out[key] + 1
    return out
DoubleRep.coproduct_monomial = wrong
result = run_suite(3, ["hopf-axioms"]).checks[0]
print(result.status, result.detail)
"""
    stdout = _run_optimized(script)
    assert stdout.startswith("fail"), stdout
    assert "D(xa) != D(x) D(a)" in stdout, stdout


def test_grothendieck_idempotents_survive_python_O():
    """Under -O the idempotent checks must still reject one wrong coefficient of one idempotent."""
    script = """
import sys
assert sys.flags.optimize == 1
from taftdouble.cyclotomic import CycArray
from taftdouble.spectral import GrothComponent
from taftdouble.verify import run_suite
original = GrothComponent.idempotent_polys
def wrong(self):
    out = original(self)
    if self.r == 1:
        nums = out[1].nums.copy()
        nums[0, 0] += 1
        out[1] = CycArray(out[1].ctx, nums, out[1].den)
    return out
GrothComponent.idempotent_polys = wrong
result = run_suite(3, ["grothendieck-idempotents"]).checks[0]
print(result.status, result.detail)
"""
    stdout = _run_optimized(script)
    assert stdout.startswith("fail"), stdout
    assert "orthogonality fails at (1,0,1)" in stdout, stdout


def test_module_relations_survive_python_O():
    """Under -O the relations on the weighted shifts must still reject one wrong weight of d."""
    script = """
import sys
assert sys.flags.optimize == 1
from taftdouble.dnrep import DoubleRep
from taftdouble.verify import run_suite
original = DoubleRep.alpha
def wrong(self, i, ell):
    val = original(self, i, ell)
    return val + 1 if (i, ell) == (1, 2) else val
DoubleRep.alpha = wrong
result = run_suite(3, ["hopf-axioms"]).checks[0]
print(result.status, result.detail)
"""
    stdout = _run_optimized(script)
    assert stdout.startswith("fail"), stdout
    assert "relations ['da-q.ad=1-bc'] fail on SimpleLabel(ell=2, r=0)" in stdout, stdout


# one injected defect per check whose claims were `assert` statements before they went
# through `_require`: check id, the defect, the message the failure must carry
OPTIMIZED_DEFECTS = {
    "charpoly-table": "p_3 differs from the frozen coefficient table",
    "charpoly-factorization": "integer factorization identity failed",
    "grouplike-traces": "character closed form fails at",
    "spectral-certificates": "ring-derived McKay matrix differs from its block pattern",
    "generalized-traces": "the top coefficient must be 1",
    "projective-trace-table": "frozen n=3 row 0 mismatch",
    "cartan-structure": "rule-built projective McKay matrix differs from the dual-transpose route",
    "mckay-closed-form": "closed form fails for V(",
    "fusion-matrix": "rule-built fusion matrix differs from the block pattern",
    "dual-pairing": "factored pairing disagrees with the dense dot product",
}


def test_every_check_survives_python_O():
    """Under -O each of these checks must still reject one injected defect, with its own message."""
    script = """
import sys
assert sys.flags.optimize == 1
import taftdouble.verify as verify
from taftdouble.cyclotomic import CycArray
from taftdouble.grring import GrothRing, groth_ring
from taftdouble.polymat import RingMatrix
from taftdouble.spectral import SpectralTables

def bumped_matrix(fn):
    def wrong(*args):
        rows = [list(r) for r in fn(*args).rows]
        rows[0][0] += 1
        return RingMatrix(rows)
    return wrong

def bumped_array(fn):
    def wrong(*args):
        v = fn(*args)
        nums = v.nums.copy()
        nums[0, 0] += v.den
        return CycArray(v.ctx, nums, v.den)
    return wrong

def wrong_top_gamma(n, i, k):
    vec, gammas, lam = gen_trace_combination(n, i, k)
    return vec, gammas[:-1] + [gammas[-1] + 1], lam

def wrong_value_at_v20(self, idx, ell, s):
    val = general_eigenvalue(self, idx, ell, s)
    return val + 1 if (ell, s) == (2, 0) else val

gen_trace_combination = verify.gen_trace_combination
general_eigenvalue = SpectralTables.general_eigenvalue
p_table = {**verify.P_TABLE, 3: {**verify.P_TABLE[3], (0, 0): -3}}
rows_n3 = {**verify.TABLE_N3_ROWS, 0: [(7, 0)] + verify.TABLE_N3_ROWS[0][1:]}
DEFECTS = {
    "charpoly-table": (verify, "P_TABLE", p_table),
    "charpoly-factorization": (verify, "p_n_factor_check", lambda n: False),
    "grouplike-traces": (SpectralTables, "general_eigenvalue", wrong_value_at_v20),
    "spectral-certificates": (verify, "build_mckay_blockform", bumped_matrix(verify.build_mckay_blockform)),
    "generalized-traces": (verify, "gen_trace_combination", wrong_top_gamma),
    "projective-trace-table": (verify, "TABLE_N3_ROWS", rows_n3),
    "cartan-structure": (GrothRing, "projective_mckay_v20_rules", bumped_matrix(GrothRing.projective_mckay_v20_rules)),
    "mckay-closed-form": (GrothRing, "mckay_matrix_closed", bumped_matrix(GrothRing.mckay_matrix_closed)),
    "fusion-matrix": (verify, "build_fusion_blockform", bumped_matrix(verify.build_fusion_blockform)),
    "dual-pairing": (SpectralTables, "left_eigvec", bumped_array(SpectralTables.left_eigvec)),
}
for cid, (owner, attr, defect) in DEFECTS.items():
    original = getattr(owner, attr)
    setattr(owner, attr, defect)
    verify._WORKSPACES.clear()
    result = verify.run_suite(3, [cid]).checks[0]
    setattr(owner, attr, original)
    print(cid, result.status, (result.detail or {}).get("counterexample"), sep="\t")
"""
    lines = _run_optimized(script).splitlines()
    got = {cid: (status, message) for cid, status, message in (line.split("\t") for line in lines)}
    assert set(got) == set(OPTIMIZED_DEFECTS)
    for cid, text in OPTIMIZED_DEFECTS.items():
        status, message = got[cid]
        assert status == "fail" and text in message, (cid, status, message)


def test_cli_verify_json(capsys):
    assert main(["verify", "--n", "3", "--suite", "fusion-matrix", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["all_pass"] is True


def test_cli_mckay(capsys):
    assert main(["mckay", "--n", "3", "--module", "2,0", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 9
    assert rows[0].split(",")[3] == "1"
    assert main(["mckay", "--n", "3", "--module", "2,0", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["rows"][6][0] == 2
    assert main(["mckay", "--n", "3", "--module", "2,0", "--closed-form"]) == 0
    closed = json.loads(capsys.readouterr().out)
    assert closed["rows"] == parsed["rows"]
    assert main(["mckay", "--n", "3", "--module", "9,0"]) == 2


def test_cli_chartable(capsys):
    assert main(["chartable", "--n", "3"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    dims = [entry["value"] for entry in parsed["values"]]
    assert dims == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert main(["chartable", "--n", "3", "--monomial", "1,2,0", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ell,r,value")
    assert main(["chartable", "--n", "3", "--monomial", "1,2"]) == 2


def test_cli_spectrum(capsys):
    assert main(["spectrum", "--n", "3", "--fusion", "--idempotents"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert len(parsed["certificates"]) == 6
    assert all(c["exact"] for c in parsed["certificates"])
    assert all(c["oracle_residual"] < 1e-9 for c in parsed["certificates"])
    assert len(parsed["fusion"]["rows"]) == 6
    assert len(parsed["idempotents"]["components"]) == 3


def test_cli_fusion_and_idempotents(capsys):
    assert main(["fusion", "--n", "3"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["fusion"]["slots"][0] == [3, 0]
    assert main(["idempotents", "--n", "3"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["components"][0]["nu"] == [1]


def test_cli_cheb(capsys):
    assert main(["cheb", "--kind", "U", "--k", "2", "--format", "json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["coeffs"] == [-1, 0, 1]
    assert main(["cheb", "--kind", "L", "--k", "3", "--format", "text"]) == 0
    assert "t^3" in capsys.readouterr().out
    assert main(["cheb", "--kind", "X", "--k", "1"]) == 2
    assert main(["cheb", "--kind", "U", "--k", "-1"]) == 2
