"""One measured process of the benchmark.

Started by run.py as `python3 perfbench/worker.py '<spec as JSON>'`.  The
worker imports the package from `src/`, runs its CLI calls through the public
`taftdouble.cli.main(argv)`, and prints one JSON line with what it saw:

    mode "probe":   import only, plus the numpy/BLAS facts for the run metadata
    mode "verify":  `verify --n k --format json` for each k of spec["ns"],
                    measured as one block
    mode "queries": the warm-up queries unmeasured, then the query blocks
                    spec["blocks"] of spec["seed"] measured, one after another;
                    with spec["budget_s"] set, it runs one block at least
                    and stops before one that would end past the budget

Each block's wall and CPU time is reported besides each call's wall time.

With spec["trace"] set, the calls run under perfbench.tracer and the trace is
written to spec["trace_path"].
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import taftdouble.cli as cli  # noqa: E402
from workloads import digest, query_block, warmup_queries  # noqa: E402

T_IMPORTED = time.perf_counter()


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def call(main, argv):
    """Run one CLI call; returns (exit code or error text, stdout, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is recorded as a failed call, never aborts the run
        code = f"{type(exc).__name__}: {exc}"
    return code, buf.getvalue(), time.perf_counter() - t0


def run(spec: dict) -> dict:
    mode = spec["mode"]
    out = {"t_imported": T_IMPORTED, "pid": os.getpid()}
    if mode == "probe":
        import numpy

        out.update(numpy=numpy.__version__, blas_threads=blas_threads())
        return out

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def one(argv):
        if tracer is None:
            return call(cli.main, argv)
        return tracer.span(f"cli.{argv[0]}", call, cli.main, argv)

    def keep(text):
        # verify reports are small and gated field by field; query outputs
        # can be megabytes and are compared by digest
        return text if mode == "verify" else digest(text)

    def work():
        for argv in warmups:
            code, text, _ = one(argv)
            warm.append({"argv": argv, "code": code, "out": keep(text)})
        out["t_ready"] = time.perf_counter()
        for block in blocks:
            t0, c0 = time.perf_counter(), time.process_time()
            for argv in block:
                code, text, seconds = one(argv)
                calls.append({"argv": argv, "code": code, "out": keep(text), "seconds": seconds})
            spent.append({"wall_s": time.perf_counter() - t0, "cpu_s": time.process_time() - c0})
            # stop before a block that, as long as this one, would end past the budget
            if time.perf_counter() - out["t_ready"] + spent[-1]["wall_s"] > spec.get("budget_s", math.inf):
                break

    if mode == "verify":
        warmups, blocks = [], [[["verify", "--n", str(n), "--format", "json"] for n in spec["ns"]]]
    else:
        warmups = warmup_queries()
        blocks = (query_block(spec["seed"], index) for index in spec["blocks"])
    warm, calls, spent = [], [], []
    if tracer is None:
        work()
    else:
        tracer.span("run", work)
        tracer.uninstall()
        out["restored"] = tracer.restored()
    out["warmup"], out["calls"], out["blocks"] = warm, calls, spent

    from tracer import cache_stats

    out["cache"] = cache_stats()
    if tracer is not None:
        out["calls_by_layer"] = tracer.calls
        out["self_s_by_layer"] = tracer.self_s
        out["span_count"] = len(tracer.spans)
        with open(spec["trace_path"], "w") as fh:
            json.dump({"spans": tracer.spans, "calls": tracer.calls, "self_s": tracer.self_s}, fh)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["maxrss_kb"] = usage.ru_maxrss
    return out


if __name__ == "__main__":
    result = run(json.loads(sys.argv[1]))
    sys.stdout.write(json.dumps(result) + "\n")
