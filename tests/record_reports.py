"""Record the frozen suite reports that `tests/test_acceptance.py` replays.

For every odd n from 3 to 23 this runs the whole suite once, in a fresh
process per n, and writes each check's `status`, `exact` flag and `detail`
to `tests/data/suite_reports.json`.  Run it from the repository root:

    PYTHONPATH=src python tests/record_reports.py

Re-recording the file changes what the replay asserts, so it is a test
change and must be declared as one.
"""

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

OUT = Path(__file__).resolve().parent / "data" / "suite_reports.json"
NS = tuple(range(3, 24, 2))


def report_entries(n: int) -> dict:
    """check id -> {status, exact, detail} of one full suite at n."""
    os.environ["TAFTDOUBLE_MAX_N"] = str(max(n, 13))
    from taftdouble.verify import run_suite

    return {c.id: {"status": c.status, "exact": c.exact, "detail": c.detail} for c in run_suite(n).checks}


def main() -> int:
    with ProcessPoolExecutor(max_workers=1, max_tasks_per_child=1) as pool:
        reports = {str(n): entries for n, entries in zip(NS, pool.map(report_entries, NS))}
    OUT.write_text(json.dumps(reports, sort_keys=True, indent=1) + "\n")
    print(f"wrote {OUT} for n = {', '.join(reports)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
