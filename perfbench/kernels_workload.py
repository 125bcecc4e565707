"""`spectral-kernels` workload: screw kernels of finite spectral measures.

For each measure tau (rational points and masses) with g = g_tau, a pass
builds Q = q_from_measure(tau); inner_product_Hg compares the kernel double
integral with the measure-side sum on seeded random test functions;
pd_check takes the smallest Gram eigenvalue on a grid; and laplace_check
compares the one-sided Laplace transform of g with -(i/z^2) Q(z).  The seeded
measures are symmetric, m(gamma) = m(-gamma).  Two fixed asymmetric
measures fail the isometry and Laplace identities (named fault 3).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from screwfn import screw, spectra
from screwfn.spectra import DiscreteMeasure, NevanlinnaData

ATOMS = (8, 12, 16, 24)   # atoms per seeded symmetric measure
SMALLEST_ATOMS = (8,)
GRID = 513                # samples per test function on [-3, 3]
PAIRS = 1                 # test-function pairs per measure
PD_GRID = 300             # pd_check grid on [-6, 6]
LAPLACE_Z = 2             # points z with Im z > 0 per measure
ISOMETRY_TOL = 1e-9       # relative
LAPLACE_TOL = 1e-8        # relative to |Q(z) / z^2|
PD_TOL = 1e-9             # relative to a bound on the Gram matrix norm
# (points, masses) of the fixed asymmetric measures
ASYMMETRIC = (
    ((Fraction(1),), (Fraction(1),)),
    ((Fraction(-2), Fraction(1, 2), Fraction(3, 2)), (Fraction(1, 4), Fraction(1), Fraction(1, 2))),
)
ASYMMETRIC_SEED = 7


def symmetric_measure(rng: random.Random, atoms: int) -> DiscreteMeasure:
    """atoms // 2 mirror pairs +-gamma with gamma in (0, 4], plus an atom at 0 if atoms is odd.

    Points are k/16 and masses j/8 with k and j odd, so every seed has the
    same denominators: the exact cost of q_from_measure grows with them,
    and with mixed denominators it differed by 15 % between seeds.
    """
    gammas = sorted(rng.sample(range(1, 65, 2), atoms // 2))
    pts, ms = [], []
    for k in gammas:
        m = Fraction(rng.randrange(1, 9, 2), 8)
        pts += [Fraction(k, 16), Fraction(-k, 16)]
        ms += [m, m]
    if atoms % 2:
        pts.append(Fraction(0))
        ms.append(Fraction(rng.randrange(1, 9, 2), 8))
    order = sorted(range(len(pts)), key=lambda i: pts[i])
    return DiscreteMeasure([pts[i] for i in order], [ms[i] for i in order])


@dataclass
class Case:
    tau: DiscreteMeasure
    g: screw.ScrewFunctionData
    pairs: list      # [(phi_1, phi_2)]
    zs: list
    symmetric: bool


def _case(tau: DiscreteMeasure, rng_np, rng: random.Random, symmetric: bool) -> Case:
    g = screw.ScrewFunctionData(Fraction(0), Fraction(0), tau)
    pairs = [(screw.random_test_function(rng_np, n=GRID), screw.random_test_function(rng_np, n=GRID))
             for _ in range(PAIRS)]
    zs = [complex(rng.uniform(-2, 2), rng.uniform(1, 2)) for _ in range(LAPLACE_Z)]
    return Case(tau, g, pairs, zs, symmetric)


@dataclass
class Inputs:
    cases: list


def make_inputs(seed: int, workdir=None, smallest: bool = False) -> Inputs:
    rng, rng_np = random.Random(seed), np.random.default_rng(seed)
    cases = [_case(symmetric_measure(rng, n), rng_np, rng, True)
             for n in (SMALLEST_ATOMS if smallest else ATOMS)]
    fixed, fixed_np = random.Random(ASYMMETRIC_SEED), np.random.default_rng(ASYMMETRIC_SEED)
    for pts, ms in ASYMMETRIC:
        cases.append(_case(DiscreteMeasure(list(pts), list(ms)), fixed_np, fixed, False))
    return Inputs(cases)


def named_fault_ops(inp: Inputs) -> int:
    """Operations per pass that fault 3 fails: isometry and Laplace on each asymmetric tau."""
    return sum(len(c.pairs) + len(c.zs) for c in inp.cases if not c.symmetric)


def run_pass(inp: Inputs) -> list:
    grid = np.linspace(-6.0, 6.0, PD_GRID)
    out = []
    for c in inp.cases:
        Q = spectra.q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), c.tau))
        iso = [screw.inner_product_Hg(c.g, p1, p2) for p1, p2 in c.pairs]
        pd = screw.pd_check(c.g, grid, tol=0.0)
        lap = [screw.laplace_check(c.g, Q, z) for z in c.zs]
        out.append((Q, iso, pd, lap))
    return out


class Checker:
    """Isometry and Laplace identities to quadrature precision; Gram positivity."""

    def __init__(self, inp: Inputs):
        self.inp = inp

    @staticmethod
    def _q(tau: DiscreteMeasure, z: complex) -> complex:
        """Q(z) = sum m (1/(gamma - z) - gamma/(1 + gamma^2)), summed in floating point."""
        return sum(float(m) * (1.0 / (float(p) - z) - float(p) / (1.0 + float(p) ** 2))
                   for p, m in zip(tau.points, tau.masses))

    def check(self, out: list):
        attempted = failed = 0
        problems = []
        for k, (c, (Q, iso, pd, lap)) in enumerate(zip(self.inp.cases, out)):
            tag = f"measure #{k} ({len(c.tau)} atoms)"
            attempted += 1
            if any(abs(complex(Q(z)) - self._q(c.tau, z)) > 1e-10 * abs(self._q(c.tau, z))
                   for z in c.zs):
                problems.append(f"{tag}: q_from_measure disagrees with the partial-fraction sum")
            bad = []
            for cmp_ in iso:
                scale = max(abs(cmp_.via_measure), 1e-300)
                bad.append(cmp_.difference > ISOMETRY_TOL * scale)
            for z, resid in zip(c.zs, lap):
                bad.append(resid > LAPLACE_TOL * abs(self._q(c.tau, z)) / abs(z) ** 2)
            attempted += len(bad) + 1
            if c.symmetric:
                if any(bad):
                    problems.append(f"{tag}: isometry or Laplace identity fails: {iso} {lap}")
            elif all(bad):
                failed += len(bad)
            else:
                problems.append(f"{tag}: asymmetric measure gave mixed results: {bad}")
            # |G(t, s)| <= (total mass) * 6^2 on [-6, 6], so ||G|| <= PD_GRID times that
            norm_bound = PD_GRID * 36.0 * sum(float(m) for m in c.tau.masses)
            if pd.min_eigenvalue < -PD_TOL * norm_bound:
                problems.append(f"{tag}: pd_check min eigenvalue {pd.min_eigenvalue}")
        return attempted, failed, problems
