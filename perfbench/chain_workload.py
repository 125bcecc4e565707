"""`rational-chain` workload: exact step Hamiltonians through the canonical layer.

Each pass takes every generated Hamiltonian H through
fundamental_solution -> JSON -> `screwfn factorize` -> H', subspace_chain,
hb_test on the low-degree chain entries and weyl_transform on segment basis
vectors.  One further operation per pass calls hb_test on fixed top entries
E(L, z) on which `algebra.roots` raises (named fault 1).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from screwfn import algebra, canonical, cli, weyl
from screwfn import serialization as ser
from screwfn.exact import ExactComplex

SIZES = (4, 8, 16, 32)
SMALLEST_SIZES = (4,)
# Pythagorean (m, n) pairs: direction (m^2 - n^2, 2mn) / (m^2 + n^2), theta in [0, pi).
PAIRS = ((1, 0), (1, 1), (2, 1), (1, 2), (3, 1), (1, 3), (3, 2), (2, 3))
LENGTHS = tuple(Fraction(k, 4) for k in range(1, 9))
WEYL_SEGMENTS = 4  # basis vectors sent through weyl_transform per Hamiltonian
# hb_test certifies chain entries up to this degree.  Above it the float root
# polish of `algebra.roots` fails or misjudges the sign on some seeds only
# (zeros come within 1e-12 of the real axis), so those entries are left out.
CERT_DEGREE = 3
# Top entries E(L, z) of these fixed Hamiltonians make `algebra.roots` raise.
FAULT_SEEDS = (16001, 16002)
FAULT_SIZE = 16


def _proj(m: int, n: int):
    d = m * m + n * n
    c, s = Fraction(m * m - n * n, d), Fraction(2 * m * n, d)
    return (c * c, c * s, s * s)


def random_hamiltonian(rng: random.Random, n: int) -> canonical.Hamiltonian:
    """n segments; the multisets of directions and lengths are fixed, their order random.

    Fixing the multisets keeps the bit growth of the exact products, and so
    the cost, alike across seeds; the seed chooses the arrangement.
    """
    dirs = [PAIRS[k % len(PAIRS)] for k in range(n)]
    lens = [LENGTHS[(3 * k) % len(LENGTHS)] for k in range(n)]
    rng.shuffle(lens)
    while True:
        rng.shuffle(dirs)
        if all(a != b for a, b in zip(dirs, dirs[1:])):
            break
    return canonical.Hamiltonian(
        canonical.Segment(L, _proj(m, k)) for L, (m, k) in zip(lens, dirs)
    )


def top_entry(H: canonical.Hamiltonian) -> algebra.Polynomial:
    W = canonical.fundamental_solution(H, H.total_length)
    C, D = W.entries[1]
    return C - D * ExactComplex(0, 1)


@dataclass
class Inputs:
    hams: list
    weyl_segments: list
    fault_es: list
    workdir: object


def make_inputs(seed: int, workdir, smallest: bool = False) -> Inputs:
    rng = random.Random(seed)
    hams = [random_hamiltonian(rng, n) for n in (SMALLEST_SIZES if smallest else SIZES)]
    picks = []
    for H in hams:
        n = len(H)
        inner = rng.sample(range(1, n - 1), min(WEYL_SEGMENTS - 2, n - 2))
        picks.append(sorted({0, n - 1, *inner}))
    fault_es = [top_entry(random_hamiltonian(random.Random(s), FAULT_SIZE)) for s in FAULT_SEEDS]
    return Inputs(hams, picks, fault_es, workdir)


def named_fault_ops(inp: Inputs) -> int:
    """Operations per pass that fault 1 fails: hb_test on each fixed top entry."""
    return len(inp.fault_es)


def run_pass(inp: Inputs) -> dict:
    w_path = inp.workdir / "transfer.json"
    h_path = inp.workdir / "hamiltonian.json"
    per_h = []
    for H, picks in zip(inp.hams, inp.weyl_segments):
        W = canonical.fundamental_solution(H, H.total_length)
        w_path.write_text(json.dumps(ser.matrix_to_json(W)))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["factorize", str(w_path), "--out", str(h_path)])
        H2 = ser.hamiltonian_from_json(json.loads(h_path.read_text())) if code == 0 else None
        chain = canonical.subspace_chain(H)
        certified = all([algebra.hb_test(e.E) for e in chain if 1 <= e.E.degree <= CERT_DEGREE])
        images = [weyl.weyl_transform(H, weyl.StepVector.basis_vector(H, k)) for k in picks]
        per_h.append((W, code, H2, chain, certified, images))
    faults = []
    for E in inp.fault_es:
        try:
            faults.append(algebra.hb_test(E))
        except RuntimeError as exc:
            faults.append(exc)
    return {"per_h": per_h, "faults": faults}


def _basis_direction(seg):
    pa, pb, pc = seg.proj
    if pc == 0:
        return 1, 0
    if pa == 0:
        return 0, 1
    return math.sqrt(pa), math.copysign(math.sqrt(pc), pb)


def _close(p: algebra.Polynomial, q_coeffs: list, rel: float = 1e-9) -> bool:
    a = [complex(c) for c in p.coeffs]
    n = max(len(a), len(q_coeffs))
    a += [0j] * (n - len(a))
    b = list(q_coeffs) + [0j] * (n - len(q_coeffs))
    scale = max([abs(x) for x in b] + [1e-300])
    return all(abs(x - y) <= rel * scale for x, y in zip(a, b))


class Checker:
    """Outputs against exact identities and the affine form of the solution rows."""

    def __init__(self, inp: Inputs):
        self.inp = inp

    def check(self, out: dict):
        attempted = failed = 0
        problems = []
        one = algebra.Polynomial.one()
        ident = [[ExactComplex(1), ExactComplex(0)], [ExactComplex(0), ExactComplex(1)]]
        minus_i = ExactComplex(0, -1)
        for H, picks, (W, code, H2, chain, certified, images) in zip(
                self.inp.hams, self.inp.weyl_segments, out["per_h"]):
            n = len(H)
            # fundamental_solution: det W = 1 and W(0) = I
            attempted += 1
            w0 = W.coeff_matrix(0)
            if W.det() != one or [[w0[i][j] for j in range(2)] for i in range(2)] != ident:
                problems.append(f"n={n}: W(L) is not a unimodular W with W(0) = I")
            # factorize subcommand returns H exactly
            attempted += 1
            if code != 0 or H2 != H:
                problems.append(f"n={n}: factorize exit {code}, H' != H")
            # subspace_chain: one entry per breakpoint, E(t, 0) = -i, top entry is C - iD of W
            attempted += 1
            C, D = W.entries[1]
            if ([e.t for e in chain] != list(H.breakpoints)
                    or any(e.E(ExactComplex(0)) != minus_i for e in chain)
                    or any(e.E.degree > k for k, e in enumerate(chain))
                    or chain[-1].E != C - D * ExactComplex(0, 1)):
                problems.append(f"n={n}: subspace chain entries wrong")
            # hb_test on every entry of degree 1 .. CERT_DEGREE
            attempted += 1
            if certified is not True:
                problems.append(f"n={n}: hb_test rejected a low-degree chain entry")
            # weyl_transform of basis vector k is (L_k / pi)(c C_{k-1} + s D_{k-1})
            for k, img in zip(picks, images):
                attempted += 1
                seg, prev = H.segments[k], chain[k].E
                c, s = _basis_direction(seg)
                L = float(seg.length)
                expect = [L / math.pi * (c * complex(x).real - s * complex(x).imag)
                          for x in prev.coeffs]
                if not _close(img, expect):
                    problems.append(f"n={n}: weyl_transform of basis vector {k} is wrong")
        for res in out["faults"]:
            attempted += 1
            if isinstance(res, RuntimeError) and "root polishing failed" in str(res):
                failed += 1
            elif res is not True:
                problems.append(f"hb_test on a fixed chain entry returned {res!r}")
        return attempted, failed, problems
