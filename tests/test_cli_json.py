"""The JSON writer of the CLI: `_dumps` against json.dumps of the per-entry object form.

`_dumps` lets json write the skeleton of a payload, one placeholder per
CycArray, CycNum or ArrayEntry, and puts the batch encoder's texts in
their places.  The reference here is the route the CLI took before: every
value turned into plain ints and {"n", "coeffs"} dicts entry by entry, the
oracle residual embedded entry by entry, and the whole tree written by
json.dumps(sort_keys=True).
"""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from test_cyclotomic import _encode_reference

import taftdouble.cyclotomic as cyclotomic
from taftdouble.cli import _certificate_payload, _dumps, main
from taftdouble.cyclotomic import CycArray, CycNum, make_context
from taftdouble.spectral import (
    EigIndex,
    build_fusion_from_rules,
    eig_indices,
    fusion_left_eigvec,
    fusion_right_eigvec,
    fusion_slots,
    groth_decomposition,
    spectral_tables,
)
from taftdouble.verify import embed_vec, get_workspace


def _object_form(x):
    """The payload with every cyclotomic value in per-entry JSON-ready form."""
    if isinstance(x, CycArray):
        return [_encode_reference(e) for e in x.to_list()]
    if isinstance(x, CycNum):
        return _encode_reference(x)
    if hasattr(x, "row"):
        return _encode_reference(x.array[x.row])
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _object_form(v) for k, v in x.items()}
    if isinstance(x, list):
        return [_object_form(v) for v in x]
    return x


def _first_difference(got: str, want: str) -> str:
    """'' when equal, else the first differing offset with the text around it."""
    if got == want:
        return ""
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return f"first difference at byte {at} of {len(got)} / {len(want)}: {got[at - 40:at + 40]!r} vs {want[at - 40:at + 40]!r}"


def test_dumps_is_json_dumps_of_the_object_form():
    ctx = make_context(5)
    q = ctx.root_power(1)
    vec = CycArray.from_list(ctx, [q / 3, ctx.from_rational(4), ctx.zero(), q * q - 2])
    payload = {
        "z": [vec, {"inner": vec.take([1, 3]), "scalar": q / 7, "b": [True, False, None]}],
        "a": {"floats": [0.0, 1e-17, 5e-324, -2.5, 1e300], "entries": vec.entries()},
        "mark": ["\0", "\0\0", "\u0000x", '"\\u0000"'],
        "\0": CycArray.zeros(ctx, 0),
        "ints": [0, -1, 2**70],
        "one": ctx.one(),
        "matrices": [np.array([[0, -3, 600], [7, -600, 1]]), np.zeros((2, 0), dtype=np.int64), np.array([[2**70, -1]], dtype=object)],
    }
    want = json.dumps(_object_form(payload), sort_keys=True)
    assert _dumps(payload) == want, _first_difference(_dumps(payload), want)
    assert _dumps({"plain": [1, "two", 3.0]}) == json.dumps({"plain": [1, "two", 3.0]}, sort_keys=True)
    with pytest.raises(TypeError, match="set"):
        _dumps({"bad": {1, 2}})


def _old_spectrum(n: int) -> dict:
    """`spectrum --n N --fusion --idempotents` as the CLI built it entry by entry."""
    ws = get_workspace(n)
    certs = []
    for cert in ws.certs:
        vr = embed_vec(cert.right.to_list())
        entry = {
            "j": cert.index.j,
            "r": cert.index.r,
            "lambda": cert.lam,
            "right": cert.right,
            "left": cert.left,
            "exact": cert.exact,
            "oracle_residual": float(np.max(np.abs(ws.M_numeric @ vr - cert.lam.embed() * vr))),
        }
        if cert.gen_right is not None:
            entry["gen_right"], entry["gen_left"] = cert.gen_right, cert.gen_left
        certs.append(entry)
    tab = spectral_tables(n)
    fusion = {
        "slots": [[ell, r] for ell, r in fusion_slots(n)],
        "rows": build_fusion_from_rules(n).tolist(),
        "eigen": [
            {
                "j": idx.j,
                "r": idx.r,
                "lambda": tab.lam(idx),
                "right": fusion_right_eigvec(n, idx),
                "left": fusion_left_eigvec(n, idx),
            }
            for idx in eig_indices(n)
        ],
    }
    dec = groth_decomposition(n)
    blocks = [
        {
            "r": r,
            "xi": comp.xi,
            "theta": comp.thetas[1:],
            "nu": comp.nus[1:],
            "radical_coords": [comp.to_groth(f) for f in comp.f_polys[1:]],
            "idempotent_coords": [comp.to_groth(p) for p in comp.idempotent_polys()],
        }
        for r, comp in enumerate(dec.components)
    ]
    return _object_form({"n": n, "certificates": certs, "fusion": fusion, "idempotents": {"n": n, "components": blocks}})


def _cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_spectrum_fusion_and_idempotents_match_the_entrywise_route(n):
    old = _old_spectrum(n)
    checks = [
        (["spectrum", "--n", str(n), "--fusion", "--idempotents"], old),
        (["spectrum", "--n", str(n)], {"n": n, "certificates": old["certificates"]}),
        (["fusion", "--n", str(n)], {"n": n, "fusion": old["fusion"]}),
        (["idempotents", "--n", str(n)], old["idempotents"]),
    ]
    for argv, want in checks:
        got, want = _cli(argv), json.dumps(want, sort_keys=True) + "\n"
        assert got == want, f"{' '.join(argv)}: {_first_difference(got, want)}"


@pytest.mark.parametrize("n", [5, 7, 9])
def test_certificate_residuals_equal_the_per_certificate_products(n):
    """The residuals of the one stacked product M V are the floats of one M v per certificate, bit for bit."""
    ws = get_workspace(n)
    want = []
    for cert in ws.certs:
        vr = cert.right.embed()
        want.append(float(np.max(np.abs(ws.M_numeric @ vr - cert.lam.embed() * vr))))
    assert [entry["oracle_residual"] for entry in _certificate_payload(n)] == want


def test_a_warm_spectrum_writes_every_coefficient_from_the_tables(monkeypatch):
    """No coordinate of a warm `spectrum --n 9 --fusion --idempotents` is formatted outside the cached token tables."""
    argv = ["spectrum", "--n", "9", "--fusion", "--idempotents"]
    want = _cli(argv)
    formatted = []
    tokens = cyclotomic._tokens
    monkeypatch.setattr(cyclotomic, "_tokens", lambda kinds, texts, n: formatted.extend(texts) or tokens(kinds, texts, n))
    assert _cli(argv) == want
    assert not formatted


def test_coordinates_are_kept_by_the_decomposition(monkeypatch):
    """Radical and idempotent coordinates are computed once per decomposition, and equal the per-call route."""
    n = 5
    dec = groth_decomposition(n)
    _cli(["idempotents", "--n", str(n)])
    calls = []
    monkeypatch.setattr(type(dec.components[0]), "to_groth", lambda self, a: calls.append(a) or None)
    _cli(["idempotents", "--n", str(n)])
    assert not calls
    monkeypatch.undo()
    for r, comp in enumerate(dec.components):
        for j, f in enumerate(comp.f_polys[1:], start=1):
            assert dec.radical_coords[EigIndex(j, r)] == comp.to_groth(f)
        for j, e in enumerate(comp.idempotent_polys()):
            assert dec.idempotent_coords[EigIndex(j, r)] == comp.to_groth(e)


# Peak traced allocation of a warm `spectrum --n 9 --fusion --idempotents`
# (1.16 MiB of output): 3.8 MiB measured with batches of JSON_BATCH_ROWS rows,
# against 10.7 MiB when every row of the payload is encoded in one batch and
# 10.75 MiB for the per-entry object route.  The bound is the measured peak
# plus a fixed 2 MiB of headroom.  With the coefficient-token tables and one
# join of the output the peak measured 2.5 MiB (3.6 MiB for the string-piece
# layout before them, on the same host); the bound is kept.
PEAK_BOUND = (3.8 + 2.0) * 2**20


def test_memory_of_a_warm_spectrum_stays_bounded():
    argv = ["spectrum", "--n", "9", "--fusion", "--idempotents"]
    _cli(argv)
    tracemalloc.start()
    try:
        _cli(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"
