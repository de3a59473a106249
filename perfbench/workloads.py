"""Workload definitions, the seeded query generator and the output gates.

Everything here is plain data and pure functions, shared by the runner, the
worker processes and the benchmark's own tests.  Nothing imports taftdouble.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# The registry of checks at the commit the benchmark was written against.  A
# verify report must contain every one of them, so a check that silently
# disappears from the suite counts as a failure rather than as a speed-up.
CHECK_IDS = (
    "charpoly-table",
    "charpoly-factorization",
    "hopf-axioms",
    "coproduct-trace",
    "grouplike-traces",
    "spectral-certificates",
    "generalized-traces",
    "projective-trace-table",
    "cartan-structure",
    "mckay-closed-form",
    "general-eigenvalues",
    "grothendieck-idempotents",
    "fusion-matrix",
    "dual-pairing",
    "oracle-concordance",
)
ORACLE_TOL = 1e-9

QUERY_NS = (5, 7, 9, 11)
CHEB_KS = range(0, 31)

WORKLOADS = {
    # The headline user task: certify one large order from a cold start.  Every
    # module does work, and n = 11 takes the same check branches as n = 13 at a
    # third of the time.  A fresh process per suite, because the lru_cache
    # factories and the verify workspaces keep state across calls.
    "verify-n11": {"kind": "verify", "ns": [11]},
    # Read-only queries that build and serialize data rather than check it.
    # They never reach the coproduct or the check registry, so a dnrep or
    # verify optimisation should leave this workload unchanged, while a slower
    # `_encode`, `embed` or `to_groth` shows here.
    "query-mix": {"kind": "queries"},
}

# One block of the query stream: every query kind at every order once, plus
# CHEB_PER_BLOCK `cheb` queries.  The seed picks each query's free parameters
# and the order within the block, never the mix itself, so the latency
# percentiles compare across seeds and a block's time is a sample of the same
# quantity in every block.  Latencies come in tiers of one query per block
# (spectrum at n = 11, idempotents at n = 11, spectrum at n = 9, ...); with 35
# queries a block, p90 over two or more whole blocks falls inside the fourth
# tier rather than on the edge between two, where it would jump from run to
# run.
BLOCK_KINDS = ("mckay", "mckay-projective", "mckay-closed", "chartable", "spectrum", "fusion", "idempotents")
CHEB_PER_BLOCK = 7
BLOCK_SIZE = len(BLOCK_KINDS) * len(QUERY_NS) + CHEB_PER_BLOCK
# Blocks of a traced process: a fixed count, so that call counts repeat exactly.
TRACED_BLOCKS = 4


def _query(kind: str, n: int | None, rng: random.Random) -> list[str]:
    if kind.startswith("mckay"):
        argv = ["mckay", "--n", str(n), "--module", f"{rng.randint(1, n)},{rng.randrange(2)}"]
        if kind == "mckay-projective":
            argv.append("--projective")
        elif kind == "mckay-closed":
            argv.append("--closed-form")
        return argv
    if kind == "chartable":
        i, k, t = (rng.randrange(3) for _ in range(3))
        return ["chartable", "--n", str(n), "--monomial", f"{i},{k},{t}"]
    if kind == "spectrum":
        return ["spectrum", "--n", str(n), "--fusion", "--idempotents"]
    if kind in ("fusion", "idempotents"):
        return [kind, "--n", str(n)]
    if kind == "cheb":
        return ["cheb", "--kind", rng.choice("UWLV"), "--k", str(rng.choice(CHEB_KS)), "--format", "json"]
    raise ValueError(f"unknown query kind {kind!r}")


def query_block(seed: int, index: int) -> list[list[str]]:
    """Block `index` of the query stream of `seed`: BLOCK_SIZE shuffled queries."""
    rng = random.Random(f"query-mix:{seed}:{index}")
    block = [_query(kind, n, rng) for kind in BLOCK_KINDS for n in QUERY_NS]
    block += [_query("cheb", None, rng) for _ in range(CHEB_PER_BLOCK)]
    rng.shuffle(block)
    return block


def warmup_queries() -> list[list[str]]:
    """Touch each order once, building every cached object the stream reads."""
    out = []
    for n in QUERY_NS:
        out.append(["spectrum", "--n", str(n), "--fusion", "--idempotents"])
        out.append(["chartable", "--n", str(n), "--monomial", "0,0,0"])
        out.append(["mckay", "--n", str(n), "--module", "2,0", "--closed-form"])
    return out


def query_domain() -> list[list[str]]:
    """Every argv the generator and the warm-up can produce."""
    out = []
    for n in QUERY_NS:
        for ell in range(1, n + 1):
            for s in range(2):
                base = ["mckay", "--n", str(n), "--module", f"{ell},{s}"]
                out += [base, base + ["--projective"], base + ["--closed-form"]]
        for i in range(3):
            for k in range(3):
                for t in range(3):
                    out.append(["chartable", "--n", str(n), "--monomial", f"{i},{k},{t}"])
        out.append(["spectrum", "--n", str(n), "--fusion", "--idempotents"])
        out.append(["fusion", "--n", str(n)])
        out.append(["idempotents", "--n", str(n)])
    for kind in "UWLV":
        for k in CHEB_KS:
            out.append(["cheb", "--kind", kind, "--k", str(k), "--format", "json"])
    return out


def query_key(argv: list[str]) -> str:
    return " ".join(argv)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate_query(argv: list[str], code, out_digest: str, reference: dict) -> str | None:
    """None when the query exited 0 with exactly the recorded output."""
    if code != 0:
        return f"exit code {code}"
    want = reference.get(query_key(argv))
    if want is None:
        return "no reference output"
    if out_digest != want:
        return "output differs from the reference"
    return None


def gate_report(text: str, n: int) -> tuple[int, dict[str, str]]:
    """Gate one `verify --format json` report.

    Returns (checks attempted, {check id: why it failed}).  Every id of
    CHECK_IDS must be present, and every check must pass exactly with a finite
    oracle residual below ORACLE_TOL; NaN counts as a failure.
    """
    try:
        report = json.loads(text)
        checks = {c["id"]: c for c in report["checks"]}
        if report["n"] != n:
            raise ValueError(f"report is for n={report['n']}")
    except (ValueError, KeyError, TypeError) as exc:
        return len(CHECK_IDS), {cid: f"unreadable report ({exc})" for cid in CHECK_IDS}
    failures = {cid: "missing" for cid in CHECK_IDS if cid not in checks}
    for cid, c in checks.items():
        residual = c.get("oracle_residual")
        if c.get("status") != "pass" or c.get("exact") is not True:
            failures[cid] = f"status {c.get('status')}, exact {c.get('exact')}"
        elif not isinstance(residual, (int, float)) or not math.isfinite(residual) or residual >= ORACLE_TOL:
            failures[cid] = f"oracle residual {residual}"
    return len(set(checks) | set(CHECK_IDS)), failures
