"""Self-test of the benchmark's output checker.

    python3 bench/selftest.py

For each workload, runs the CLI once at the default seed and confirms that
the checker accepts its output.  It then feeds the checker a corrupted copy
(one value moved by 0.01) and a truncated copy (the first half of the
bytes), with and without the reference comparison, and expects every one
to be rejected.  Exits 0 when all expectations hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import SRC, make_scratch, run_child
from workloads import DEFAULT_SEED, WORKLOADS, OutputError

SHIFT = 0.01


def corrupt_capacity(text: str) -> str:
    lines = text.splitlines()
    row = len(lines) // 2
    cells = lines[row].split(";")
    cells[4] = repr(float(cells[4]) + SHIFT)  # loss_eq
    lines[row] = ";".join(cells)
    return "\n".join(lines) + "\n"


def corrupt_discrete(text: str) -> str:
    doc = json.loads(text)
    doc[len(doc) // 2]["loss_eq"] += SHIFT
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def corrupt_landau(text: str) -> str:
    doc = json.loads(text)
    mins = doc["per_trial"]["min"]
    mins[len(mins) // 2] += SHIFT
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


CORRUPT = {
    "capacity-census": corrupt_capacity,
    "discrete-sampled": corrupt_discrete,
    "landau-mc": corrupt_landau,
}


def rejected(check) -> bool:
    try:
        check()
    except OutputError:
        return True
    return False


def main() -> int:
    sys.path.insert(0, str(SRC))
    scratch = make_scratch("selftest-")
    failures = []
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, scratch)
            inv = run_child(workload.argv, scratch, False)
            if inv["code"] != 0:
                failures.append(f"{name}: CLI exited with {inv['code']}")
                continue
            if rejected(workload.check):
                failures.append(f"{name}: valid output rejected")
            valid = workload.out.read_text(encoding="utf-8")
            bad_copies = {
                "corrupted": CORRUPT[name](valid),
                "truncated": valid[: len(valid) // 2],
            }
            for kind, text in bad_copies.items():
                workload.out.write_text(text, encoding="utf-8")
                for check in (workload.check, workload.parse_and_check):
                    if not rejected(check):
                        failures.append(f"{name}: {kind} output accepted by {check.__name__}")
            print(f"{name}: checked")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in failures:
        print(f"FAIL: {line}")
    print("selftest:", "pass" if not failures else "FAIL")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
