import json
import os
import pstats
import subprocess
import sys

import numpy as np
import pytest

import taftdouble.verify as verify_mod
from taftdouble.cli import main
from taftdouble.cyclotomic import CycArray, make_context, sparse_product, sparse_rows
from taftdouble.dnrep import DoubleRep
from taftdouble.grring import GrothRing, groth_ring
from taftdouble.polymat import relation
from taftdouble.spectral import EigIndex, GrothComponent, GrothDecomposition, SpectralTables, spectral_tables
from taftdouble.verify import Oracle, _block_charpoly_values, check_ids, emit_report, run_suite


def test_run_suite_single_selection():
    report = run_suite(3, ["charpoly-table"])
    assert [c.id for c in report.checks] == ["charpoly-table"]
    assert report.all_pass


def test_run_suite_rejects_bad_input():
    with pytest.raises(ValueError, match="odd"):
        run_suite(4)
    with pytest.raises(ValueError, match="odd"):
        run_suite(21)  # beyond the default bound
    with pytest.raises(ValueError, match="unknown"):
        run_suite(3, ["nope"])


def test_max_n_override(monkeypatch):
    monkeypatch.setenv("TAFTDOUBLE_MAX_N", "5")
    with pytest.raises(ValueError):
        run_suite(7, ["charpoly-table"])
    monkeypatch.delenv("TAFTDOUBLE_MAX_N")
    assert run_suite(7, ["charpoly-table"]).all_pass


@pytest.mark.parametrize("value", ["2", "abc", "-7", "13.5", ""])
def test_max_n_rejects_a_bad_override(value, monkeypatch, capsys):
    """A bound below 3 would run no n and pass; a non-integer one must name the variable, not int()."""
    monkeypatch.setenv("TAFTDOUBLE_MAX_N", value)
    with pytest.raises(ValueError, match="TAFTDOUBLE_MAX_N"):
        verify_mod.max_n()
    assert main(["verify", "--all-n"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "TAFTDOUBLE_MAX_N must be an integer >= 3" in err and repr(value) in err


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
        coeffs = tab.block_polys().embed().reshape(n, n + 1)
        for k in range(n):
            vals, slopes = _block_charpoly_values(points, tab.ctx.root_power(k).embed(), n)
            np.testing.assert_allclose(vals, np.polyval(coeffs[k][::-1], points), atol=1e-10)
            np.testing.assert_allclose(slopes, np.polyval((coeffs[k] * np.arange(n + 1))[1:][::-1], points), atol=1e-10)


def test_charpoly_oracles_stay_small_past_the_default_bound(monkeypatch):
    """Through the recurrence the residual does not grow with n (np.polyval gave 8e-12 at n = 17)."""
    monkeypatch.setenv("TAFTDOUBLE_MAX_N", "21")
    report = run_suite(21, ["charpoly-table", "charpoly-factorization"])
    assert report.all_pass
    assert all(c.oracle_residual < 1e-13 for c in report.checks)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_cartan_intertwining_dense_cross_check(n):
    """QC = CM as dense matrix products, against the gather-adds of cartan-structure."""
    ring = groth_ring(n)
    C = ring.cartan_matrix()
    C_rows, Ct_rows = sparse_rows(C), sparse_rows(C.T)
    assert C_rows[0].shape[1] <= 2 and Ct_rows[0].shape[1] <= 2
    for ell in range(1, n + 1):
        for s in range(n):
            Mv = ring.mckay_matrix(ell, s)
            Mdual = ring.mckay_matrix(ell, (1 - s - ell) % n)
            rhs = C @ Mv
            assert np.array_equal((C.T @ Mdual).T, rhs)
            assert np.array_equal(sparse_product(C_rows, Mv), rhs)
            assert np.array_equal(sparse_product(Ct_rows, Mdual).T, rhs)


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
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


def _bump_side(side, pos):
    """Wrap `SpectralTables.blocks` so that entry pos of one side's coefficient blocks is corrupted."""
    def wrap(fn):
        return lambda self, name: _bumped(fn(self, name), pos) if name == side else fn(self, name)
    return wrap


def _bump_scalar(fn):
    return lambda *args: fn(*args) + 1


def _only_at(args, corrupt):
    """Apply `corrupt` to a method only where its arguments after self are `args`."""
    def wrap(fn):
        bad = corrupt(fn)
        return lambda self, *a: bad(self, *a) if a == args else fn(self, *a)
    return wrap


def _bump_gen_trace_vector(fn):
    def corrupted(n, i):
        ks, vecs, gammas, lams = fn(n, i)
        return ks, _bumped(vecs, 3), gammas, lams
    return corrupted


def _bump_grouplike_idempotent(fn):
    """Wrap `GrothDecomposition.e_idempotents` so that E_1 gains the constant term 1."""
    def corrupted(self):
        E = fn(self)
        nums = E.nums.copy()
        nums[self.n**2, 0] += E.den  # row 0 of element 1
        return type(E)(E.ring, nums, E.den, E.ctx)
    return corrupted


def _bump_component_poly(j, r):
    """Wrap the property `GrothComponent.g_polys` so that coefficient 0 of G_j in component r is corrupted."""
    def wrap(prop):
        return property(lambda self: [_bumped(g, 0) if (i, self.r) == (j, r) else g for i, g in enumerate(prop.fget(self))])
    return wrap


def _one_power_too_many(u):
    """Wrap `verify._items` so that, in its arrays' `qpow`, the rows of block u go one power of q too far."""
    class Shifted(CycArray):
        __slots__ = ()

        def qpow(self, exps, group=1):
            exps = np.array(exps)
            exps[u] += 1
            return CycArray.qpow(self, exps, group)

    return lambda fn: lambda p: Shifted(p.ctx, p.nums, p.den)


def _bump_matrix(row, col):
    """Wrap a method returning an integer matrix so that its entry (row, col) is raised by 1, in a copy."""
    def wrap(fn):
        def corrupted(*args):
            M = fn(*args).copy()
            M[row, col] += 1
            return M
        return corrupted
    return wrap


def _bump_coords(index, pos):
    """Replace the cached property `GrothDecomposition.idempotent_coords` by one whose coordinates at `index` have entry pos corrupted."""
    return lambda prop: property(lambda self: {k: _bumped(v, pos) if k == index else v for k, v in prop.func(self).items()})


def _bump_trace_table(row):
    """Replace the cached property `DoubleRep._trace_table` by one whose row `row` is corrupted."""
    return lambda prop: property(lambda self: _bumped(prop.func(self), row))


# check id, owner, attribute, corruption, text the counterexample must carry
CORRUPTIONS = [
    # at n = 3, row 2 of the left blocks at r = 0 is the Jordan completion at j = 1: entry 8 is its block 2
    ("spectral-certificates", SpectralTables, "blocks", _bump_side("left", 8), "exact eigen or Jordan"),
    ("spectral-certificates", SpectralTables, "blocks", _bump_side("right", 1), "exact eigen or Jordan"),
    ("grouplike-traces", SpectralTables, "lam", _bump_scalar, "eigen"),
    ("generalized-traces", verify_mod, "gen_trace_combinations", _bump_gen_trace_vector, "eigenline"),
    ("projective-trace-table", DoubleRep, "trace_vector_P", _bump_entry(4), "Tr_P eigen"),
    ("general-eigenvalues", SpectralTables, "general_eigenvalue", _bump_scalar, "right eigenvalue"),
    ("general-eigenvalues", SpectralTables, "projective_eigenvalue", _bump_scalar, "projective"),
    ("grothendieck-idempotents", GrothDecomposition, "jordan_coords", _bump_entry(5), "Jordan pair"),
    ("fusion-matrix", SpectralTables, "blocks", _bump_side("fusion_left", 0), "fusion"),
    ("dual-pairing", SpectralTables, "blocks", _bump_side("right", 2), "projective-side"),
    ("mckay-closed-form", GrothRing, "dim_simple_vector", _bump_entry(6), "dimension vector"),
    # the last vector of a stack: its label must be the one named
    ("spectral-certificates", SpectralTables, "blocks", _bump_side("right", 26), "fails at [EigIndex(j=1, r=2)]"),
    ("fusion-matrix", SpectralTables, "blocks", _bump_side("fusion_right", 11), "fusion EigIndex(j=1, r=2): right"),
    ("dual-pairing", SpectralTables, "blocks", _bump_side("right", 23), "projective-side eigen at EigIndex(j=1, r=2)"),
    ("general-eigenvalues", SpectralTables, "general_eigenvalue", _only_at((EigIndex(1, 2), 1, 0), _bump_scalar),
     "right eigenvalue for V(1,0), EigIndex(j=1, r=2)"),
    ("projective-trace-table", DoubleRep, "trace_vector_P", _only_at((2, -2), _bump_entry(4)), "Tr_P eigen at i=2"),
    # at n = 3 row 2 (n + 1) + 2 is the coefficient of t^2 in block 2; row 2 (h + 1) + 1 is the double root of block 2
    ("charpoly-table", SpectralTables, "block_polys", _bump_entry(2 * 4 + 2), "block 2 charpoly differs"),
    ("charpoly-factorization", SpectralTables, "block_roots", _bump_entry(2 * 2 + 1), "block 2 does not split"),
    ("grothendieck-idempotents", GrothComponent, "g_polys", _bump_component_poly(1, 2), "G F != theta F at (1,2)"),
    ("grothendieck-idempotents", GrothDecomposition, "e_idempotents", _bump_grouplike_idempotent, "E_1 E_0 != 0"),
    # g E_u = q^u E_u, with block u = 1 of the right side shifted by q^2
    ("grothendieck-idempotents", verify_mod, "_items", _one_power_too_many(1), "g E_1 != q^1 E_1"),
    # at n = 3 row (t n + ell - 1) n + u = 4 is t = 0, ell = 2, u = 1: Tr_S(b^0 c^1) is the first trace it enters
    ("grouplike-traces", DoubleRep, "_trace_table", _bump_trace_table(4), "Tr_S(b^0 c^1) is not the"),
    # one entry of M_{V(3,1)}, which no earlier requirement of these two checks reads: coproduct-trace
    # samples V(3,1) at n = 3, and V(3,1) is the dual of V(3,0), so QC = CM fails first at V(3,0)
    ("cartan-structure", GrothRing, "mckay_matrix", _only_at((3, 1), _bump_matrix(0, 0)), "QC = CM fails for V(3,0)"),
    ("coproduct-trace", GrothRing, "mckay_matrix", _only_at((3, 1), _bump_matrix(0, 0)), "trace identity failed for (0, 0, 1, 0) against V(3, 1)"),
    # the idempotent at (0, 2) is the one Tr_P(b^1 c^-1) must be proportional to
    ("projective-trace-table", GrothDecomposition, "idempotent_coords", _bump_coords(EigIndex(0, 2), 0),
     "Tr_P(b^1c^-1) not proportional to the idempotent"),
]


@pytest.fixture
def fresh_tables():
    """An empty `spectral_tables` cache before and after: each instance builds its families once, from `blocks`."""
    spectral_tables.cache_clear()
    yield
    spectral_tables.cache_clear()


@pytest.mark.parametrize("cid,owner,attr,corrupt,text", CORRUPTIONS)
def test_ported_checks_fail_on_one_corrupted_coefficient(monkeypatch, fresh_tables, cid, owner, attr, corrupt, text):
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    monkeypatch.setattr(owner, attr, corrupt(getattr(owner, attr)))
    result = run_suite(3, [cid]).checks[0]
    assert result.id == cid and result.status == "fail", result
    assert text in result.detail["counterexample"]


def test_spectrum_marks_only_the_corrupted_certificate(monkeypatch, fresh_tables, capsys):
    """One corrupted Jordan completion fails its side's stacked call; only its certificate loses `exact`."""
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    # at n = 3, row 8 of the left blocks is block 2 of the completion at (1, 0)
    monkeypatch.setattr(SpectralTables, "blocks", _bump_side("left", 8)(SpectralTables.blocks))
    assert main(["spectrum", "--n", "3"]) == 0
    certs = json.loads(capsys.readouterr().out)["certificates"]
    assert len(certs) == 6
    assert [(c["j"], c["r"]) for c in certs if not c["exact"]] == [(1, 0)]


def test_relation_is_called_once_per_stack(monkeypatch):
    """No loop over the vectors of a stack calls `relation`: at most 200 calls in the n = 11 suite (1,630 one vector at a time)."""
    calls = []

    def counted(*args):
        calls.append(1)
        return relation(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("taftdouble.") and getattr(module, "relation", None) is relation:
            monkeypatch.setattr(module, "relation", counted)
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    assert run_suite(11).all_pass
    assert 0 < len(calls) <= 200


def test_module_relations_are_one_call(monkeypatch):
    """The n = 11 suite certifies the relations of all n^2 modules in one `verify_relations` call, with at most 1,000 entrywise products (4,632 label by label)."""
    relations, products = [], []
    verify_relations, mul = DoubleRep.verify_relations, CycArray.__mul__
    monkeypatch.setattr(DoubleRep, "verify_relations", lambda self, labels: relations.append(1) or verify_relations(self, labels))
    monkeypatch.setattr(CycArray, "__mul__", lambda self, other: products.append(1) or mul(self, other))
    monkeypatch.setattr(verify_mod, "double_rep", lambda n: DoubleRep(make_context(n)))  # builds its stacks and tables here
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    assert run_suite(11).all_pass
    assert len(relations) == 1
    assert 0 < len(products) <= 1000


def _bump_kernel_vector(kb):
    return [[v[0] + 1] + v[1:] if i == 2 else v for i, v in enumerate(kb)]


def _repeat_kernel_vector(kb):
    return kb[:-1] + [kb[0]]


@pytest.mark.parametrize("corrupt,text", [
    (_bump_kernel_vector, "stated kernel vector not annihilated"),
    (_repeat_kernel_vector, "kernel vectors are dependent"),
])
def test_cartan_structure_fails_on_a_corrupted_kernel_basis(monkeypatch, corrupt, text):
    """The check reads the ring's kernel certificate; a ring built on a corrupted basis makes it fail."""
    original = GrothRing.cartan_kernel_basis
    monkeypatch.setattr(GrothRing, "cartan_kernel_basis", lambda self: corrupt(original(self)))
    monkeypatch.setattr(verify_mod, "groth_ring", lambda n: GrothRing(make_context(n)))
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    result = run_suite(5, ["cartan-structure"]).checks[0]
    assert result.status == "fail", result
    assert text in result.detail["counterexample"]


def test_cartan_structure_reuses_the_rank_certificate(monkeypatch):
    """The kernel basis is certified once, by `cartan_rank`: no image per vector, no second rank."""
    def forbidden(*args):
        raise AssertionError("the kernel basis was certified again")

    ring = GrothRing(make_context(7))
    monkeypatch.setattr(verify_mod, "groth_ring", lambda n: ring)
    monkeypatch.setattr(verify_mod, "_WORKSPACES", {})
    monkeypatch.setattr(GrothRing, "cartan_image_of", forbidden)
    built = []
    certify = GrothRing.cartan_kernel
    monkeypatch.setattr(GrothRing, "cartan_kernel", lambda self: built.append(self._cartan_kernel is None) or certify(self))
    assert run_suite(7, ["cartan-structure"]).all_pass
    assert built[0] and not any(built[1:])
    assert ring.cartan_kernel()[1:] == (True, True)


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
    """Under -O every assert is gone; the exact relations, one check's and one stacked call's, must still reject a wrong eigenvalue."""
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
from taftdouble.polymat import CheckFailure, relation
from taftdouble.spectral import EigIndex, build_fusion_from_rules
tab = SpectralTables(3)
lams = [tab.lam(EigIndex(j, 2)) for j in range(2)]
try:
    relation(build_fusion_from_rules(3), tab.stack("fusion_right")[2], [lams[0], lams[1] + 1], "right", ["first", "last"])
except CheckFailure as failure:
    print("stacked", failure, failure.vectors)
"""
    stdout = _run_optimized(script)
    assert stdout.startswith("fail"), stdout
    assert "right eigenvalue for V(2,0), EigIndex(j=1, r=1)" in stdout
    assert "stacked last: right relation fails at coordinate" in stdout and stdout.rstrip().endswith("[1]")


def test_hopf_axioms_survive_python_O():
    """Under -O the coproduct checks must still reject one wrong coefficient of D(a)."""
    script = """
import sys
assert sys.flags.optimize == 1
import numpy as np
from taftdouble.cyclotomic import CycArray
from taftdouble.dnrep import DoubleRep
from taftdouble.verify import run_suite
original = DoubleRep.coproduct_monomial
def wrong(self, codes):
    src, pairs, coeffs = original(self, codes)
    a, b = self.pbw_code((1, 0, 0, 0)), self.pbw_code((0, 1, 0, 0))
    nums = coeffs.nums.copy()
    nums[(np.asarray(codes)[src] == a) & (pairs == a * self.n**4 + b), 0] += coeffs.den
    return src, pairs, CycArray(coeffs.ctx, nums, coeffs.den)
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
from taftdouble.spectral import SpectralTables

def bumped_matrix(fn):
    def wrong(*args):
        m = fn(*args).copy()
        m[0, 0] += 1
        return m
    return wrong

def bumped_array(fn):
    def wrong(*args):
        v = fn(*args)
        nums = v.nums.copy()
        nums[0, 0] += v.den
        return CycArray(v.ctx, nums, v.den)
    return wrong

def wrong_top_gamma(n, i):
    ks, vecs, gammas, lams = gen_trace_combinations(n, i)
    return ks, vecs, [g[:-1] + [g[-1] + 1] for g in gammas], lams

def wrong_value_at_v20(self, idx, ell, s):
    val = general_eigenvalue(self, idx, ell, s)
    return val + 1 if (ell, s) == (2, 0) else val

gen_trace_combinations = verify.gen_trace_combinations
general_eigenvalue = SpectralTables.general_eigenvalue
p_table = {**verify.P_TABLE, 3: {**verify.P_TABLE[3], (0, 0): -3}}
rows_n3 = {**verify.TABLE_N3_ROWS, 0: [(7, 0)] + verify.TABLE_N3_ROWS[0][1:]}
DEFECTS = {
    "charpoly-table": (verify, "P_TABLE", p_table),
    "charpoly-factorization": (verify, "p_n_factor_check", lambda n: False),
    "grouplike-traces": (SpectralTables, "general_eigenvalue", wrong_value_at_v20),
    "spectral-certificates": (verify, "build_mckay_blockform", bumped_matrix(verify.build_mckay_blockform)),
    "generalized-traces": (verify, "gen_trace_combinations", wrong_top_gamma),
    "projective-trace-table": (verify, "TABLE_N3_ROWS", rows_n3),
    "cartan-structure": (GrothRing, "projective_mckay_v20_rules", bumped_matrix(GrothRing.projective_mckay_v20_rules)),
    "mckay-closed-form": (GrothRing, "mckay_matrix_closed", bumped_matrix(GrothRing.mckay_matrix_closed)),
    "fusion-matrix": (verify, "build_fusion_blockform", bumped_matrix(verify.build_fusion_blockform)),
    "dual-pairing": (SpectralTables, "eigvec", bumped_array(SpectralTables.eigvec)),
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


def test_cli_verify_profile_writes_a_loadable_dump(capsys, tmp_path):
    """--profile PATH leaves the report as it is (up to the timings) and writes a pstats dump."""
    argv = ["verify", "--n", "3", "--suite", "hopf-axioms,coproduct-trace", "--format", "json"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    path = tmp_path / "verify.prof"
    assert main(argv + ["--profile", str(path)]) == 0
    profiled = json.loads(capsys.readouterr().out)
    for report in (plain, profiled):
        for check in report["checks"]:
            check.pop("elapsed")
    assert profiled == plain
    stats = pstats.Stats(str(path))
    assert any(name == "check_hopf_axioms" for _file, _line, name in stats.stats)


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


@pytest.mark.parametrize("module", ["a,b", "1,x", "1", "1,2,3"])
def test_cli_mckay_rejects_a_malformed_module(capsys, module):
    """Non-integers and a wrong count both exit 2 with the same message."""
    with pytest.raises(SystemExit) as exc:
        main(["mckay", "--n", "5", "--module", module])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --module expects two comma-separated integers\n"


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
