"""Exact spectral theory of McKay matrices for the Drinfeld double of the Taft algebra."""

from .cyclotomic import CycNum, CyclotomicContext, cyclotomic_polynomial, make_context
from .polymat import RingMatrix, RingPoly
from .chebyshev import cheb_eval, cheb_poly, p_n_bivariate, p_n_factor_check, u_bivariate
from .dnrep import DoubleRep, Monomial, PbwElement, SimpleLabel, all_labels, double_rep, label_index
from .grring import GrothRing, PolyPres, groth_ring
from .spectral import (
    EigIndex,
    GrothDecomposition,
    SpectralCertificate,
    build_fusion_blockform,
    build_fusion_from_rules,
    build_mckay_blockform,
    certificates,
    eig_indices,
    fusion_left_eigvec,
    fusion_right_eigvec,
    groth_decomposition,
    spectral_tables,
)
from .verify import SuiteReport, emit_report, run_suite

__all__ = [
    "CycNum",
    "CyclotomicContext",
    "cyclotomic_polynomial",
    "make_context",
    "RingMatrix",
    "RingPoly",
    "cheb_eval",
    "cheb_poly",
    "p_n_bivariate",
    "p_n_factor_check",
    "u_bivariate",
    "DoubleRep",
    "Monomial",
    "PbwElement",
    "SimpleLabel",
    "all_labels",
    "double_rep",
    "label_index",
    "GrothRing",
    "PolyPres",
    "groth_ring",
    "EigIndex",
    "GrothDecomposition",
    "SpectralCertificate",
    "build_fusion_blockform",
    "build_fusion_from_rules",
    "build_mckay_blockform",
    "certificates",
    "eig_indices",
    "fusion_left_eigvec",
    "fusion_right_eigvec",
    "groth_decomposition",
    "spectral_tables",
    "SuiteReport",
    "emit_report",
    "run_suite",
]
