"""A fixed reference computation that measures the speed of the host.

The host this benchmark runs on is a virtual machine that shares its
physical cores with other guests.  Its speed for the same Python code
changes by up to 2x over seconds to minutes, in CPU time as well as in wall
time, and that change is far larger than the bounds the benchmark sets.
`run.py` therefore runs `run()` before the first timed pass and after
every one, and scales each pass's CPU time by
`NOMINAL_S / (mean CPU seconds of the two reference runs)`: `batch_s` is
given in seconds of a host on which `run()` takes `NOMINAL_S`.

The computation mixes the two kinds of work screwfn does: exact complex
rational polynomial products (as `algebra.Polynomial` with `ExactComplex`
coefficients), and float numpy kernels (as `screw.kernel_g`).  It uses only
the standard library and numpy, never screwfn, so that a change to screwfn
cannot change it.  Do not change this file: every figure is relative to it.
"""
from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.4   # CPU seconds of run() on the reference host
EXACT_DEGREE = 9
EXACT_FACTORS = 4
GRID = 500
ROUNDS = 16


def _exact_part() -> list:
    rng = random.Random(12345)
    polys = [[(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
              for _ in range(EXACT_DEGREE + 1)] for _ in range(EXACT_FACTORS)]
    acc = [(Fraction(1), Fraction(0))]
    for p in polys:
        out = [(Fraction(0), Fraction(0))] * (len(acc) + len(p) - 1)
        for i, (ar, ai) in enumerate(acc):
            for j, (br, bi) in enumerate(p):
                cr, ci = out[i + j]
                out[i + j] = (cr + ar * br - ai * bi, ci + ar * bi + ai * br)
        acc = out
    return acc


def _float_part() -> float:
    x = np.linspace(-3.0, 3.0, GRID)
    d = np.subtract.outer(x, x)
    m = np.cos(d) * np.exp(-np.abs(d))
    return float(np.linalg.eigvalsh(m[:150, :150])[0])


def run() -> list:
    """One reference computation; its result is returned so no part is skipped."""
    return [(_exact_part(), _float_part()) for _ in range(ROUNDS)]
