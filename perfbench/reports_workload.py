"""`reports` workload: both verification reports, run through `cli.main`.

One pass runs `screwfn --seed N pipeline --example g0` and `--example pw`
as a user does, then the `factorize` subcommand on the worked example's
transfer matrix and `eval_screw` on seeded points of the worked example.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from screwfn import canonical, cli, screw
from screwfn import serialization as ser

EXAMPLES = ("g0", "pw")
SCREW_POINTS = 64
PAPER_BREAKPOINTS = [Fraction(0), Fraction(1, 2), Fraction(9, 2), Fraction(5)]


@dataclass
class Inputs:
    seed: int
    ts: np.ndarray
    workdir: object


def make_inputs(seed: int, workdir, smallest: bool = False) -> Inputs:
    ts = np.random.default_rng(seed).uniform(-8.0, 8.0, SCREW_POINTS)
    (workdir / "w0.json").write_text(json.dumps(ser.matrix_to_json(canonical.w0_matrix())))
    return Inputs(seed, ts, workdir)


def named_fault_ops(inp: Inputs) -> int:
    """No named fault reaches the reports."""
    return 0


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def run_pass(inp: Inputs) -> dict:
    reports = {}
    for ex in EXAMPLES:
        path = inp.workdir / f"report-{ex}.json"
        code = _cli(["--seed", str(inp.seed), "pipeline", "--example", ex, "--out", str(path)])
        reports[ex] = (code, json.loads(path.read_text()))
    h_path = inp.workdir / "h0.json"
    code = _cli(["factorize", str(inp.workdir / "w0.json"), "--out", str(h_path)])
    H0 = ser.hamiltonian_from_json(json.loads(h_path.read_text())) if code == 0 else None
    values = screw.eval_screw(screw.g0_data(), inp.ts)
    return {"reports": reports, "H0": H0, "values": values}


class Checker:
    def __init__(self, inp: Inputs):
        t = inp.ts
        self.g0_values = -t * t / 2.0 + np.cos(t) - 1.0

    def check(self, out: dict):
        attempted, problems = 0, []
        for ex, (code, rep) in out["reports"].items():
            for c in rep["checks"]:
                attempted += 1
                if c["status"] != "pass":
                    problems.append(f"{ex}: {c['name']} {c['status']} {c['message']}")
            if code != 0 or not rep["pass"]:
                problems.append(f"{ex}: exit code {code}")
        attempted += 2
        H0 = out["H0"]
        if H0 is None or list(H0.breakpoints) != PAPER_BREAKPOINTS:
            problems.append(f"factorize: breakpoints {H0 and H0.breakpoints}")
        err = np.max(np.abs(out["values"] - self.g0_values) / np.maximum(1.0, np.abs(self.g0_values)))
        if not err < 1e-13:
            problems.append(f"eval_screw of g0 off by {err:.3e}")
        return attempted, 0, problems
