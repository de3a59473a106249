"""Record the reference outputs the query-mix workload is gated against.

    python3 perfbench/record_reference.py

Runs every query the generator and the warm-up can produce (workloads.
query_domain) through `taftdouble.cli.main` and writes the SHA-256 of each
query's standard output to perfbench/reference.json.  Re-record only when a
change to the package is meant to change its output.
"""

from __future__ import annotations

import json
from pathlib import Path

import worker
from workloads import digest, query_domain, query_key

OUT = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    reference = {}
    for argv in query_domain():
        code, text, _ = worker.call(worker.cli.main, argv)
        if code != 0:
            raise SystemExit(f"{query_key(argv)}: exit code {code}")
        reference[query_key(argv)] = digest(text)
    OUT.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(reference)} reference digests to {OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
