"""Benchmark for screwfn: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload {reports,rational-chain,hb-frames,spectral-kernels}
                             --seed N --seconds S --trace {0,1}

Run from the root of a screwfn checkout; the package is imported from its
`src/` directory and nowhere else.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: with
`--trace 0` the end-to-end metrics (setup_s, batch_s, peak_rss_mb), with
`--trace 1` the per-layer metrics of a traced run.  Result and trace files
go to perfbench/out/.

setup_s and batch_s are CPU seconds (time.process_time).  The work is
single-threaded, so on an idle machine CPU and wall seconds agree.  On a
shared virtual machine wall time also counts the stretches in which the
host runs other guests on our CPU (steal time), and the CPU speed itself
changes by up to 2x over seconds to minutes; wall-clock figures of the same
code differed by a factor of two between runs.  So both are also scaled
to a host of fixed speed with the reference computation of reference.py,
which runs before the first timed pass and after each one: each pass by
the two reference runs next to it, and setup_s, measured in other
processes, by the median of all reference runs of the run.  The raw CPU and
reference seconds are kept in the result file.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: the workloads are Python-bound, and a second BLAS thread
# only adds noise when the two cores are shared.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import reference  # noqa: E402  (loads numpy, so after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = {
    "reports": "reports_workload",
    "rational-chain": "chain_workload",
    "hb-frames": "frames_workload",
    "spectral-kernels": "kernels_workload",
}
SETUP_REPEATS = 3     # fresh interpreters timed for setup_s; the median is reported
MIN_PASSES = 2        # measured passes per run, whatever --seconds says


def require_source() -> None:
    if not (SRC / "screwfn" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'screwfn'} not found; run from the root of a screwfn checkout")


def load_workload(name: str):
    """Import screwfn from the checkout's src/ and the workload module."""
    require_source()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("screwfn.cli")
    return importlib.import_module(WORKLOADS[name])


def setup_probe(args) -> None:
    """Child mode: import, build the inputs, print the CPU seconds spent so far."""
    wl = load_workload(args.workload)
    workdir = Path(args.workdir)
    wl.make_inputs(args.seed, workdir)
    print(repr(time.process_time()))


class HostClock:
    """Scales CPU seconds to the reference host of reference.py.

    A reference run after one pass is also the reference run before the
    next, so each pass is scaled by the two reference runs next to it at
    the cost of one.  `samples` keeps every reference run; `log` keeps, for
    each scaled figure, its CPU seconds and those of the reference runs
    right before and right after it.
    """

    def __init__(self):
        self.samples = []
        self.log = []

    def before_s(self) -> float:
        """The latest reference run, or a new one if there is none."""
        return self.samples[-1] if self.samples else self.after_s()

    def after_s(self) -> float:
        self.samples.append(self.reference_s())
        return self.samples[-1]

    @staticmethod
    def reference_s() -> float:
        """CPU seconds of one reference run, with the collector off so the
        size of the program's heap does not enter it."""
        gc.disable()
        try:
            start = time.process_time()
            reference.run()
            return time.process_time() - start
        finally:
            gc.enable()

    def scale(self, cpu_s: float, before_s: float, after_s: float) -> float:
        self.log.append((cpu_s, before_s, after_s))
        return cpu_s * reference.NOMINAL_S * 2.0 / (before_s + after_s)

    def run_scale(self) -> float:
        """Factor to the reference host from the median of all reference runs so far."""
        return reference.NOMINAL_S / statistics.median(self.samples)


def measure_setup(args, workdir: Path) -> list:
    """CPU seconds from process start to inputs ready, in each of several fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: setup probe exited with {done.returncode}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


class Runner:
    """A workload's inputs and checker, with the operation tallies of every checked pass."""

    def __init__(self, wl, inputs):
        self.wl, self.inputs = wl, inputs
        self.checker = wl.Checker(inputs)
        self.attempted = self.failed = 0
        self.problems = []
        self.wall_s = []

    def timed_pass(self, tracer=None, host=None) -> float:
        """CPU seconds of one pass of program calls, traced if a tracer is given.

        With a `host` clock the seconds are scaled to the reference host,
        from reference runs right before and right after the pass.  The
        checks run after the clock stops, the tracer is removed and the
        reference has run.  The wall seconds of the pass are kept in
        `wall_s` for the result file.
        """
        before = host.before_s() if host is not None else 0.0
        if tracer is not None:
            tracer.install()
        try:
            wall, start = time.perf_counter(), time.process_time()
            out = self.wl.run_pass(self.inputs)
            elapsed = time.process_time() - start
            self.wall_s.append(time.perf_counter() - wall)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if host is not None:
            elapsed = host.scale(elapsed, before, host.after_s())
        attempted, failed, problems = self.checker.check(out)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        return elapsed


def plain_metrics(runner: Runner, seconds: float, setup_cpu: list, host: HostClock):
    """Passes until the next one would end after `seconds`; batch_s is their median.

    setup_s is the median set-up probe, scaled by the median reference run
    of the passes: the probes ran in other processes, so no reference run
    sits right next to them.
    """
    times = []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() + statistics.median(runner.wall_s) < deadline:
        times.append(runner.timed_pass(host=host))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": statistics.median(setup_cpu) * host.run_scale(), "unit": "s"},
        "batch_s": {"value": statistics.median(times), "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    return metrics, times


def traced_metrics(runner: Runner, seconds: float, trace_path: Path):
    """Alternate untraced and traced passes; per-layer figures are per traced pass."""
    from tracing import Tracer

    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.timed_pass())
        traced.append(runner.timed_pass(tracer))
    tracer.dump(trace_path, len(traced))
    metrics = {name: {"value": value, "unit": "s" if name.endswith("_s") else "count"}
               for name, value in tracer.per_layer(len(traced)).items()}
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics, plain + traced


def run(args) -> dict:
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        host = HostClock()
        setup_cpu = measure_setup(args, workdir)
        wl = load_workload(args.workload)
        runner = Runner(wl, wl.make_inputs(args.seed, workdir))
        runner.timed_pass()  # warm-up, checked but not reported
        runner.wall_s.clear()
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, times = traced_metrics(runner, args.seconds, trace_path)
        else:
            metrics, times = plain_metrics(runner, args.seconds, setup_cpu, host)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for p in runner.problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    result = {"correct": not runner.problems, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    detail = dict(result, pass_s=times, pass_wall_s=runner.wall_s, setup_cpu_s=setup_cpu,
                  pass_cpu_ref_s=host.log, problems=runner.problems)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args()
    require_source()
    if args.setup_probe:
        setup_probe(args)
        return 0
    OUT.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args)
    except Exception:  # report a crash of the program as a wrong run, not as a result
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
