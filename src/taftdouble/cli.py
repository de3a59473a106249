"""Command line interface: build the matrices, emit exact data, run the check suites.

Exit codes: 0 on success (and all checks passing), 1 when a verification
check fails, 2 on invalid input.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
from functools import lru_cache
from itertools import chain

from .chebyshev import CHEB_KINDS, cheb_poly
from .cyclotomic import ArrayEntry, CycArray, CycNum, json_texts
from .dnrep import Monomial, all_labels, double_rep
from .grring import groth_ring
from .spectral import (
    EigIndex,
    build_fusion_from_rules,
    eig_indices,
    fusion_left_eigvec,
    fusion_right_eigvec,
    fusion_slots,
    groth_decomposition,
    spectral_tables,
)
from .verify import check_ids, emit_report, max_n, run_suite

import numpy as np


def _dumps(payload) -> str:
    """json.dumps(payload, sort_keys=True), with every CycArray (a list of entries), CycNum and ArrayEntry (one entry) in place.

    A 2-D integer ndarray (int64 or Python ints) is written as its nested
    list of rows, as json.dumps writes m.tolist().

    json writes the skeleton, one placeholder string for each such value in
    the order it meets them, so it alone decides key order, separators and
    float format; the placeholders are then replaced by the texts of
    `json_texts`, which encodes all the values together.  The placeholder is
    NUL characters, one more each time a string of the payload holds it.
    The payloads are trees built here, so json skips its check for cycles.
    """
    mark = "\0"
    while True:
        values = []

        def hole(x):
            if not isinstance(x, (CycArray, CycNum, ArrayEntry)) and not _is_int_matrix(x):
                raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
            values.append(x)
            return mark

        pieces = json.dumps(payload, sort_keys=True, default=hole, check_circular=False).split(json.dumps(mark))
        if len(pieces) == len(values) + 1:
            break
        mark += "\0"
    out = list(chain.from_iterable(zip(pieces, json_texts(values))))
    out.append(pieces[-1])
    return "".join(out)


def _is_int_matrix(x) -> bool:
    return isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype.kind in "iO"


def _parse_pair(text, what):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        parts = None
    if parts is None or len(parts) != 2:
        print(f"error: {what} expects two comma-separated integers", file=sys.stderr)
        raise SystemExit(2)
    return parts


def _add_n(parser):
    parser.add_argument("--n", type=int, required=True, help="odd order of the root of unity, >= 3")


def _check_n(n: int) -> int:
    if n < 3 or n % 2 == 0 or n > max_n():
        print(
            f"error: n must be odd with 3 <= n <= {max_n()} "
            "(override the bound with TAFTDOUBLE_MAX_N)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return n


def cmd_verify(args) -> int:
    if not args.profile:
        return _verify(args)
    profiler = cProfile.Profile()
    try:
        return profiler.runcall(_verify, args)
    finally:
        profiler.dump_stats(args.profile)


def _verify(args) -> int:
    selection = args.suite.split(",") if args.suite else None
    ns = [args.n] if not args.all_n else [m for m in range(3, max_n() + 1, 2)]
    status = 0
    for n in ns:
        try:
            report = run_suite(n, selection)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(emit_report(report, args.format))
        if not report.all_pass:
            status = 1
    return status


def cmd_mckay(args) -> int:
    n = _check_n(args.n)
    ell, s = _parse_pair(args.module, "--module")
    if not 1 <= ell <= n:
        print(f"error: module dimension must lie in 1..{n}", file=sys.stderr)
        return 2
    ring = groth_ring(n)
    if args.projective:
        mat = ring.projective_mckay(ell, s % n)
    elif args.closed_form:
        mat = ring.mckay_matrix_closed(ell, s % n)
    else:
        mat = ring.mckay_matrix(ell, s % n)
    if args.format == "csv":
        for row in mat.tolist():
            print(",".join(str(x) for x in row))
    else:
        print(_dumps({"n": n, "module": [ell, s % n], "projective": bool(args.projective), "rows": mat}))
    return 0


def cmd_chartable(args) -> int:
    n = _check_n(args.n)
    rep = double_rep(n)
    if args.monomial:
        try:
            i, k, t = (int(p) for p in args.monomial.split(","))
        except ValueError:
            print("error: --monomial expects i,k,t", file=sys.stderr)
            return 2
        if not 0 <= t < n:
            print(f"error: t must lie in 0..{n - 1}", file=sys.stderr)
            return 2
    else:
        i, k, t = 0, 0, 0
    mono = Monomial(i % n, k % n, t)
    values = rep.trace_vector_S(mono)
    labels = all_labels(n)
    if args.format == "csv":
        print("ell,r,value")
        for lab, val in zip(labels, values.to_list()):
            coeffs = " ".join(str(c) for c in val.coeffs)
            print(f"{lab.ell},{lab.r},\"{coeffs}\"")
    else:
        print(
            _dumps(
                {
                    "n": n,
                    "monomial": {"i": mono.i, "k": mono.k, "t": mono.t},
                    "values": [{"ell": lab.ell, "r": lab.r, "value": val} for lab, val in zip(labels, values.entries())],
                }
            )
        )
    return 0


def _certificate_payload(n: int) -> list[dict]:
    from .verify import get_workspace

    ws = get_workspace(n)
    certs = ws.certs
    # row k is certificate k's embedded right vector v: one product gives every M v; lam v is
    # a scalar times a row, since numpy rounds a broadcast array product differently
    vecs = np.stack([cert.right.embed() for cert in certs])
    images = ws.M_numeric @ vecs.T
    out = []
    for cert, v, image in zip(certs, vecs, images.T):
        entry = {
            "j": cert.index.j,
            "r": cert.index.r,
            "lambda": cert.lam,
            "right": cert.right,
            "left": cert.left,
            "exact": cert.exact,
            "oracle_residual": float(np.max(np.abs(image - cert.lam.embed() * v))),
        }
        if cert.gen_right is not None:
            entry["gen_right"] = cert.gen_right
            entry["gen_left"] = cert.gen_left
        out.append(entry)
    return out


def _fusion_payload(n: int) -> dict:
    tab = spectral_tables(n)
    N = build_fusion_from_rules(n)
    return {
        "slots": [[ell, r] for ell, r in fusion_slots(n)],
        "rows": N,
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


def _idempotent_payload(n: int) -> dict:
    dec = groth_decomposition(n)
    h = (n - 1) // 2
    blocks = []
    for r, comp in enumerate(dec.components):
        scalars = comp.scalars  # xi, theta_1..theta_h, nu_1..nu_h
        blocks.append(
            {
                "r": r,
                "xi": ArrayEntry(scalars, 0),
                "theta": scalars.take(slice(1, h + 1)),
                "nu": scalars.take(slice(h + 1, 2 * h + 1)),
                "radical_coords": [dec.radical_coords[EigIndex(j, r)] for j in range(1, h + 1)],
                "idempotent_coords": [dec.idempotent_coords[EigIndex(j, r)] for j in range(h + 1)],
            }
        )
    return {"n": n, "components": blocks}


def cmd_spectrum(args) -> int:
    n = _check_n(args.n)
    payload = {"n": n, "certificates": _certificate_payload(n)}
    if args.fusion:
        payload["fusion"] = _fusion_payload(n)
    if args.idempotents:
        payload["idempotents"] = _idempotent_payload(n)
    print(_dumps(payload))
    return 0


def cmd_fusion(args) -> int:
    n = _check_n(args.n)
    print(_dumps({"n": n, "fusion": _fusion_payload(n)}))
    return 0


def cmd_idempotents(args) -> int:
    n = _check_n(args.n)
    print(_dumps(_idempotent_payload(n)))
    return 0


def cmd_cheb(args) -> int:
    if args.kind not in CHEB_KINDS:
        print(f"error: --kind must be one of {','.join(CHEB_KINDS)}", file=sys.stderr)
        return 2
    if args.k < 0:
        print("error: --k must be >= 0", file=sys.stderr)
        return 2
    coeffs = cheb_poly(args.kind, args.k)
    if args.format == "json":
        print(json.dumps({"kind": args.kind, "k": args.k, "coeffs": coeffs}))
    else:
        print(f"{args.kind}_{args.k}(t), coefficients by ascending degree:")
        width = max((len(str(c)) for c in coeffs), default=1)
        for deg, c in enumerate(coeffs):
            print(f"  t^{deg:<3d} {str(c).rjust(width)}")
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="taftdouble",
        description="Exact McKay, Cartan, and fusion matrices for the Drinfeld double "
        "of the Taft algebra, with theorem-level verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the named check suites")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--suite", help="comma-separated check ids (default: all); known ids: " + ",".join(check_ids()))
    p.add_argument("--all-n", action="store_true", help="run every odd n up to the configured bound")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--profile", metavar="PATH", help="write a cProfile dump of the run to PATH (read it with pstats)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("mckay", help="emit a McKay matrix")
    _add_n(p)
    p.add_argument("--module", required=True, help="ell,s of the tensoring module")
    p.add_argument("--projective", action="store_true", help="matrix on projective classes")
    p.add_argument("--closed-form", action="store_true", help="build via the shifted-power expansion")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_mckay)

    p = sub.add_parser("chartable", help="emit the n^2 character values of one monomial")
    _add_n(p)
    p.add_argument("--monomial", help="i,k,t for b^i c^k d^t a^t (default 0,0,0)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=cmd_chartable)

    p = sub.add_parser("spectrum", help="emit spectral certificates as JSON")
    _add_n(p)
    p.add_argument("--fusion", action="store_true")
    p.add_argument("--idempotents", action="store_true")
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("fusion", help="emit the fusion matrix and its eigenvectors")
    _add_n(p)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(fn=cmd_fusion)

    p = sub.add_parser("idempotents", help="emit the idempotent decomposition data")
    _add_n(p)
    p.add_argument("--format", choices=("json",), default="json")
    p.set_defaults(fn=cmd_idempotents)

    p = sub.add_parser("cheb", help="emit coefficient tables for the polynomial families")
    p.add_argument("--kind", required=True, help="U, W, L, or V")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(fn=cmd_cheb)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SystemExit as exc:
        raise exc
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
