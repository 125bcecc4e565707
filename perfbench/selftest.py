"""One checked pass of each workload at its smallest size.

    python3 perfbench/selftest.py

Runs in well under a minute, so a broken check or a changed failure count
shows without a full benchmark run.  Exit status 0 when every workload's
outputs pass their checks and only the named faults fail.
"""
from __future__ import annotations

import shutil
import sys
import time

import run


def main() -> int:
    bad = 0
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in run.WORKLOADS:
            wl = run.load_workload(name)
            start = time.perf_counter()
            inputs = wl.make_inputs(0, workdir, smallest=True)
            attempted, failed, problems = wl.Checker(inputs).check(wl.run_pass(inputs))
            expected = wl.named_fault_ops(inputs)
            ok = not problems and attempted > 0 and failed == expected
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: attempted {attempted}, failed {failed} "
                  f"(named faults {expected}), {time.perf_counter() - start:.1f} s")
            for p in problems:
                print(f"     {p}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
