"""Scaling sweeps behind the reference figures in perfbench/README.md.

    python3 perfbench/sweep.py [--seeds 3]

Prints two tables: per-stage seconds of the `rational-chain` steps against
segment count, and per-call seconds of the `spectral-kernels` steps against
grid size n and atom count N.  Each figure is the median over the seeds.
"""
from __future__ import annotations

import argparse
import random
import statistics
import time

import run  # first: it pins BLAS to one thread before numpy loads

import numpy as np

CHAIN_SIZES = (4, 8, 12, 16, 20, 24, 28, 32)
GRIDS = (513, 1025, 2049)
ATOM_COUNTS = (8, 12, 16, 24, 32)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - start, out


def chain_sweep(seeds: int) -> None:
    cw = run.load_workload("rational-chain")
    from screwfn import algebra, canonical, weyl

    print("segments  fundamental_solution  factorize  subspace_chain  hb_test(deg<=3)  weyl_transform/call")
    for n in CHAIN_SIZES:
        rows = []
        for seed in range(seeds):
            H = cw.random_hamiltonian(random.Random(seed), n)
            t_w, W = _timed(canonical.fundamental_solution, H, H.total_length)
            t_f, _ = _timed(canonical.factorize, W)
            t_c, chain = _timed(canonical.subspace_chain, H)
            t_h, _ = _timed(lambda: [algebra.hb_test(e.E) for e in chain
                                     if 1 <= e.E.degree <= cw.CERT_DEGREE])
            t_x, _ = _timed(weyl.weyl_transform, H, weyl.StepVector.basis_vector(H, n - 1))
            rows.append((t_w, t_f, t_c, t_h, t_x))
        med = [statistics.median(col) for col in zip(*rows)]
        print(f"{n:8d}  " + "  ".join(f"{v:9.4f}" for v in med))


def kernel_sweep(seeds: int) -> None:
    kw = run.load_workload("spectral-kernels")
    from screwfn import screw, spectra

    print("grid n  atoms N  q_from_measure  inner_product_Hg  pd_check(300)  laplace_check/z")
    grid = np.linspace(-6.0, 6.0, kw.PD_GRID)
    for n, atoms in [(n, 16) for n in GRIDS] + [(kw.GRID, a) for a in ATOM_COUNTS]:
        rows = []
        for seed in range(seeds):
            rng, rng_np = random.Random(seed), np.random.default_rng(seed)
            tau = kw.symmetric_measure(rng, atoms)
            g = screw.ScrewFunctionData(0, 0, tau)
            p1, p2 = (screw.random_test_function(rng_np, n=n) for _ in range(2))
            t_q, Q = _timed(spectra.q_from_measure, spectra.NevanlinnaData(0, 0, tau))
            t_i, _ = _timed(screw.inner_product_Hg, g, p1, p2)
            t_p, _ = _timed(screw.pd_check, g, grid, 0.0)
            t_l, _ = _timed(screw.laplace_check, g, Q, 0.5 + 1.5j)
            rows.append((t_q, t_i, t_p, t_l))
        med = [statistics.median(col) for col in zip(*rows)]
        print(f"{n:6d}  {atoms:7d}  " + "  ".join(f"{v:12.4f}" for v in med))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=3)
    args = parser.parse_args()
    chain_sweep(args.seeds)
    print()
    kernel_sweep(args.seeds)


if __name__ == "__main__":
    main()
