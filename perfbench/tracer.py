"""Per-layer tracing from outside the package.

`Tracer.install()` replaces public functions and methods of the eight
taftdouble modules with timing wrappers, at every place a caller looks them
up: class attributes, module globals bound by `from ... import`, and the
`verify.CHECKS` dispatch table.  `Tracer.uninstall()` puts every original
back.  Each wrapped boundary gets an exact call count and a self time (its
time minus the time of wrapped calls made inside it).  Coarse boundaries
(CLI calls, checks, builders) are also kept as spans with parent ids; hot
scalar and matrix boundaries are counters only, so memory stays bounded.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> public entry points, as (module, class or None, attribute)
LAYERS = {
    "cyclotomic.mul": [("cyclotomic", "CycNum", "__mul__"), ("cyclotomic", "CycNum", "__rmul__")],
    "cyclotomic.addsub": [
        ("cyclotomic", "CycNum", "__add__"),
        ("cyclotomic", "CycNum", "__radd__"),
        ("cyclotomic", "CycNum", "__sub__"),
    ],
    "cyclotomic.inverse": [("cyclotomic", "CycNum", "inverse")],
    "cyclotomic.embed": [("cyclotomic", "CycNum", "embed")],
    "cyclotomic.make_context": [("cyclotomic", None, "make_context")],
    "polymat.matvec": [("polymat", "RingMatrix", "mat_vec"), ("polymat", "RingMatrix", "vec_mat")],
    "polymat.matmul": [("polymat", "RingMatrix", "__mul__"), ("polymat", "RingMatrix", "__pow__")],
    "polymat.rank": [
        ("polymat", "RingMatrix", "rank_over_field"),
        ("polymat", "RingMatrix", "kernel_basis_over_field"),
    ],
    "polymat.charpoly": [("polymat", "RingMatrix", "char_poly_small")],
    "chebyshev.poly": [
        ("chebyshev", None, "cheb_poly"),
        ("chebyshev", None, "u_bivariate"),
        ("chebyshev", None, "p_n_bivariate"),
        ("chebyshev", None, "p_n_bivariate_closed"),
        ("chebyshev", None, "p_n_factor_check"),
    ],
    "dnrep.build": [("dnrep", None, "double_rep")],
    "dnrep.coproduct": [("dnrep", "DoubleRep", "coproduct_monomial"), ("dnrep", "PbwElement", "coproduct")],
    "dnrep.relations": [("dnrep", "DoubleRep", "verify_relations")],
    "dnrep.trace_vector": [("dnrep", "DoubleRep", "trace_vector_S"), ("dnrep", "DoubleRep", "trace_vector_P")],
    "grring.build": [("grring", None, "groth_ring")],
    "grring.mul": [("grring", "GrothRing", "mul")],
    "grring.mckay": [
        ("grring", "GrothRing", "mckay_matrix"),
        ("grring", "GrothRing", "mckay_matrix_closed"),
        ("grring", "GrothRing", "projective_mckay"),
    ],
    "grring.cartan": [
        ("grring", "GrothRing", "cartan_matrix"),
        ("grring", "GrothRing", "cartan_rank"),
        ("grring", "GrothRing", "cartan_kernel_basis"),
        ("grring", "GrothRing", "cartan_image_of"),
    ],
    "spectral.tables": [("spectral", None, "spectral_tables")],
    "spectral.certificates": [("spectral", None, "certificates")],
    "spectral.decomposition": [("spectral", None, "groth_decomposition")],
    "spectral.gen_trace": [("spectral", None, "gen_trace_combination")],
    "spectral.fusion": [
        ("spectral", None, "build_fusion_from_rules"),
        ("spectral", None, "build_fusion_blockform"),
        ("spectral", None, "fusion_right_eigvec"),
        ("spectral", None, "fusion_left_eigvec"),
    ],
    "spectral.to_groth": [("spectral", "GrothComponent", "to_groth")],
    "verify.oracle_embed": [("verify", None, "embed_vec"), ("verify", None, "embed_mat")],
    "verify.emit": [("verify", None, "emit_report")],
}

# Boundaries kept as spans (besides every CLI call and every check).
SPAN_LAYERS = {
    "cyclotomic.make_context",
    "dnrep.build",
    "grring.build",
    "spectral.tables",
    "spectral.certificates",
    "spectral.decomposition",
    "verify.emit",
}

# Boundaries that make no wrapped call inside them.  Their wrapper skips the
# frame bookkeeping, which halves the tracing cost of the hottest calls; they
# are only ever called positionally.
LEAF_LAYERS = {"cyclotomic.mul", "cyclotomic.addsub", "cyclotomic.embed"}

# lru_cache factories whose hit ratio is reported: (module, function)
CACHES = {
    "make_context": ("cyclotomic", "make_context"),
    "double_rep": ("dnrep", "double_rep"),
    "groth_ring": ("grring", "groth_ring"),
    "spectral_tables": ("spectral", "spectral_tables"),
    "groth_decomposition": ("spectral", "groth_decomposition"),
    "cheb_poly": ("chebyshev", "cheb_poly"),
}

PACKAGE = "taftdouble"


def _module(name):
    return sys.modules[f"{PACKAGE}.{name}"]


def cache_stats() -> dict:
    """Hits and misses of each lru_cache factory since the process started."""
    out = {}
    for name, (mod, attr) in CACHES.items():
        info = getattr(_module(mod), attr).cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses}
    return out


class Tracer:
    def __init__(self):
        self._cells: dict[str, list] = {}  # name -> [calls, self seconds]
        self.spans: list[dict] = []
        # one frame per active wrapped call: [time covered by children, span id]
        self._stack = [[0.0, None]]
        self._patches: list[tuple] = []

    @property
    def calls(self) -> dict:
        return {name: cell[0] for name, cell in self._cells.items()}

    @property
    def self_s(self) -> dict:
        return {name: cell[1] for name, cell in self._cells.items()}

    # ------------------------------------------------------------------
    def wrap(self, name: str, fn, span: bool = False):
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        cell = self._cells.setdefault(name, [0, 0.0])

        if name in LEAF_LAYERS:
            @functools.wraps(fn)
            def wrapper(*args):
                t0 = clock()
                try:
                    return fn(*args)
                finally:
                    dt = clock() - t0
                    stack[-1][0] += dt
                    cell[0] += 1
                    cell[1] += dt
        elif span:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span_id = len(spans)
                record = {"id": span_id, "parent": stack[-1][1], "name": name}
                spans.append(record)
                frame = [0.0, span_id]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    cell[0] += 1
                    cell[1] += dt - frame[0]
                    record["start"] = t0
                    record["dur"] = dt
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    stack.pop()
                    stack[-1][0] += dt
                    cell[0] += 1
                    cell[1] += dt - frame[0]

        return wrapper

    def span(self, name: str, fn, *args):
        """Call fn(*args) once as a span; the run itself and each CLI call."""
        return self.wrap(name, fn, span=True)(*args)

    # ------------------------------------------------------------------
    def _patch(self, owner, attr, value):
        """Set owner.attr (or owner[attr] for a dict) and remember the original."""
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self):
        """Wrap every entry point of LAYERS and every check of verify.CHECKS."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for name, targets in LAYERS.items():
            span = name in SPAN_LAYERS
            wrapped = {}  # one wrapper per distinct original, so aliases share it
            for mod, cls, attr in targets:
                if cls is not None:
                    owner = getattr(_module(mod), cls)
                    original = owner.__dict__[attr]
                    if id(original) not in wrapped:
                        wrapped[id(original)] = self.wrap(name, original, span)
                    self._patch(owner, attr, wrapped[id(original)])
                    continue
                original = getattr(_module(mod), attr)
                wrapper = self.wrap(name, original, span)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, key, wrapper)
        checks = _module("verify").CHECKS
        for cid in list(checks):
            self._patch(checks, cid, self.wrap(f"verify.check.{cid}", checks[cid], span=True))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute install() replaced holds its original again."""
        return all(
            (owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]) is original
            for owner, attr, original in self._patches
        )
