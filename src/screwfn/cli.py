"""Command-line front end: JSON I/O and verification pipelines.

Subcommands:

* ``pipeline --example {g0,pw}`` runs the full correspondence chain for the
  three-point example or the truncated Paley-Wiener family and emits a
  machine-readable verification report (exit 0 pass / 1 fail / 2 bad input);
* ``factorize W.json`` turns a transfer matrix into its step Hamiltonian;
* ``string q.json`` expands a Herglotz function into a Krein string;
* ``pd-check`` builds the kernel Gram matrix on a grid and reports its
  minimum eigenvalue;
* ``pw`` runs the Paley-Wiener checks at a chosen truncation.

One global --seed drives every randomized probe, so reports are
deterministic.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import serialization as ser
from .algebra import Polynomial
from .canonical import factorize, fundamental_solution, w0_matrix
from .classical import (
    idd_charfn_check,
    levy_triplet,
    mean_periodic_checks,
    q_substitute,
    stieltjes_string,
    string_solve,
    titchmarsh_weyl,
)
from .debranges import (
    boundary_value,
    e0_frame,
    extension_eigenbasis,
    gram_schmidt_basis,
    inner_product,
    kernel_ab,
    kernel_moment,
    moments,
    s_theta_in_space,
)
from .exact import ExactComplex, PI, PiScalar
from .paleywiener import (
    PWFrame,
    g_r_laplace_check,
    pw_basis_gram,
    pw_ode_residual,
    pw_sampling_matrix,
    pw_truncated_norm_defect,
    pw_weyl_is_fourier,
    tan_partial_fraction,
)
from .screw import ScrewFunctionData, g0_data, kernel_g, laplace_check, pd_check, q0_function
from .spectra import (
    DiscreteMeasure,
    cayley_q_to_theta,
    level_set_masses,
    measure_from_q,
    tau_from_mu,
    theta_to_e,
)
from .weyl import StepVector, diagram_check, inverse_weyl, l2h_inner, screw_line_S, weyl_transform

EXIT_PASS, EXIT_FAIL, EXIT_INPUT = 0, 1, 2


@dataclass
class Check:
    name: str
    status: str  # "pass" | "fail"
    residual: float
    tolerance: float
    provenance: str
    message: str = ""


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)
    constants: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def add(self, name: str, provenance: str, residual: float, tolerance: float,
            message: str = "") -> None:
        status = "pass" if residual <= tolerance else "fail"
        self.checks.append(Check(name, status, float(residual), float(tolerance),
                                 provenance, message))

    def add_exact(self, name: str, provenance: str, ok: bool, message: str = "") -> None:
        self.checks.append(
            Check(name, "pass" if ok else "fail", 0.0 if ok else 1.0, 0.0, provenance, message)
        )

    def run(self, name: str, provenance: str, fn) -> None:
        """Run fn() -> (residual, tolerance) | bool, recording errors as failures."""
        try:
            out = fn()
        except Exception as exc:  # deliberate: report instead of crash
            self.checks.append(Check(name, "fail", math.inf, 0.0, provenance, str(exc)))
            return
        if isinstance(out, bool):
            self.add_exact(name, provenance, out)
        else:
            residual, tolerance = out
            self.add(name, provenance, residual, tolerance)

    def to_json(self) -> dict:
        return {"checks": [asdict(c) for c in self.checks],
                "constants": self.constants,
                "pass": self.passed}


def run_g0_pipeline(seed: int = 0, tol: float = 1e-6) -> VerificationReport:
    """Every closed-form identity of the three-point example, end to end."""
    rep = VerificationReport()
    Q0 = q0_function()
    fr = e0_frame()
    g0 = g0_data()
    tau0 = g0.tau

    def spectral_measure() -> bool:
        d = measure_from_q(Q0)
        return d.a == 0 and d.b == 0 and d.measure == tau0

    rep.run("spectral-measure-inversion", "herglotz-representation", spectral_measure)

    def cayley_chain() -> bool:
        theta = cayley_q_to_theta(Q0)
        E = theta_to_e(theta)
        mu = level_set_masses(E)
        ok = E == fr.E
        ok &= mu.mass_at(0) == PI and mu.mass_at(1) == PI / 2 and mu.mass_at(-1) == PI / 2
        ok &= tau_from_mu(mu) == tau0
        return ok

    rep.run("level-set-masses", "inner-function-level-set", cayley_chain)

    def debranges_tables() -> bool:
        monos = [Polynomial.monomial(k) for k in range(3)]
        expect = [[2, 0, 1], [0, 1, 0], [1, 0, 1]]
        ok = all(
            inner_product(fr, monos[i], monos[j]) == PI * expect[i][j]
            for i in range(3)
            for j in range(3)
        )
        mt = moments(fr)
        ok &= mt.moments[0] == PI * 2 and mt.hankel[2] == PiScalar(1, 1, 6)
        basis = gram_schmidt_basis(fr)
        ok &= basis[0] == Polynomial([PiScalar(Fraction(1, 2), 2, -1)])
        ok &= basis[1] == Polynomial([PiScalar(0), PiScalar(1, 1, -1)])
        ok &= basis[2] == Polynomial(
            [PiScalar(Fraction(-1, 2), 2, -1), PiScalar(0), PiScalar(1, 2, -1)]
        )
        ok &= all(
            inner_product(fr, basis[i], basis[j]) == (PiScalar(1) if i == j else PiScalar(0))
            for i in range(3)
            for j in range(3)
        )
        return ok

    rep.run("polynomial-space-tables", "sampling-inner-products", debranges_tables)

    def kernel_agreement():
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(20):
            z = complex(rng.normal(), rng.normal())
            w = complex(rng.normal(), rng.normal())
            worst = max(worst, abs(kernel_ab(fr, z, w) - kernel_moment(fr, z, w)))
        return worst, 1e-10

    rep.run("reproducing-kernel-two-forms", "bordered-determinant-kernel", kernel_agreement)

    def multiplication_domain() -> bool:
        hits = [th for th in np.linspace(0, math.pi, 180, endpoint=False)
                if s_theta_in_space(fr, th)]
        ok = hits == [0.0]
        eb = extension_eigenbasis(fr, math.pi / 2)
        ok &= list(eb.eigenvalues) == [Fraction(-1), Fraction(0), Fraction(1)]
        ok &= all(inner_product(fr, F, F) == PiScalar(1) for F in eb.normalized)
        Fm1, F0, F1 = eb.normalized
        ok &= boundary_value(fr, F0, 0) == PiScalar(ExactComplex(0, -1), 1, -1)
        ok &= boundary_value(fr, F1, 1) == PiScalar(ExactComplex(0, -1), 2, -1)
        ok &= boundary_value(fr, Fm1, -1) == PiScalar(ExactComplex(0, -1), 2, -1)
        return ok

    rep.run("multiplication-operator-extensions", "eigenbasis-boundary-values",
            multiplication_domain)

    W0 = w0_matrix()
    H0 = factorize(W0)

    def factorization() -> bool:
        ok = list(H0.breakpoints) == [0, Fraction(1, 2), Fraction(9, 2), 5]
        ok &= [s.theta for s in H0.segments] == [math.pi / 2, 0.0, math.pi / 2]
        ok &= fundamental_solution(H0, 5) == W0
        Wq = fundamental_solution(H0, Fraction(1, 4))
        ok &= Wq.entries[1][0] == Polynomial([0, Fraction(-1, 4)])
        W2 = fundamental_solution(H0, 2)
        ok &= W2.entries[1][1] == Polynomial([1, 0, Fraction(-3, 4)])
        W475 = fundamental_solution(H0, Fraction(19, 4))
        ok &= W475.entries[1][0] == Polynomial([0, Fraction(-3, 4), 0, Fraction(1, 2)])
        ok &= W475.entries[0][0] == Polynomial([1, 0, -1])
        return ok

    rep.run("hamiltonian-factorization", "rank-one-transfer-factors", factorization)

    def weyl_images() -> bool:
        half = PiScalar(Fraction(1, 2), 1, -2)
        imgs = [weyl_transform(H0, StepVector.basis_vector(H0, k)) for k in range(3)]
        ok = imgs[0] == Polynomial([half])
        ok &= imgs[1] == Polynomial([PiScalar(0), PiScalar(-2, 1, -2)])
        ok &= imgs[2] == Polynomial([half, PiScalar(0), PiScalar(-1, 1, -2)])
        eb = extension_eigenbasis(fr, math.pi / 2)
        invs = [inverse_weyl(fr, H0, F) for F in eb.normalized]
        ok &= all(
            l2h_inner(H0, invs[i], invs[j]) == (PiScalar(1) if i == j else PiScalar(0))
            for i in range(3)
            for j in range(3)
        )
        ok &= all(
            weyl_transform(H0, inv) == Polynomial(list(F.coeffs))
            for inv, F in zip(invs, eb.normalized)
        )
        return ok

    rep.run("weyl-transform-images", "canonical-system-transform", weyl_images)

    def screw_gram():
        ts = np.linspace(-5, 5, 20)
        lines = [screw_line_S(fr, t) for t in ts]
        worst = 0.0
        for t, St in zip(ts, lines):
            for s, Ss in zip(ts, lines):
                worst = max(worst, abs(St.inner(Ss) - math.pi * kernel_g(g0, t, s)))
        return worst, 1e-12

    rep.run("model-space-screw-line", "screw-line-gram-identity", screw_gram)

    def positivity():
        out = pd_check(g0, np.linspace(-6, 6, 50))
        rep.constants["pd_min_eigenvalue"] = out.min_eigenvalue
        return -out.min_eigenvalue, 1e-9

    rep.run("kernel-nonnegativity", "gram-matrix-eigenvalues", positivity)

    def laplace():
        worst = 0.0
        for z in (2j, 1 + 1j, -1 + 2j):
            worst = max(worst, laplace_check(g0, Q0, z, T=80.0))
        return worst, 1e-8

    rep.run("laplace-transform-identity", "one-sided-transform", laplace)

    def diagram():
        out = diagram_check(g0, fr, H0, n_samples=20, seed=seed, tol=tol)
        rep.constants["basis_gram_constant"] = out.basis_gram_constant
        rep.constants["basis_gram_offdiag"] = out.basis_gram_offdiag
        rep.constants["square_phase_constant"] = [
            out.square_phase_constant.real,
            out.square_phase_constant.imag,
        ]
        worst = max(
            out.isometry_kernel_vs_measure,
            out.isometry_measure_vs_model,
            out.isometry_model_vs_restriction,
            out.square_phi1_vs_restriction,
            out.triangle_weyl_l0_vs_model,
        )
        return worst, tol

    rep.run("isometry-diagram-closure", "commuting-transform-square", diagram)

    def krein_string() -> bool:
        q0 = q_substitute(Q0)
        s = stieltjes_string(q0)
        ok = s.L == math.inf
        ok &= s.masses == ((Fraction(0), Fraction(1, 2)), (Fraction(4), Fraction(1, 2)))
        phi4, psi4 = string_solve(s, None, 4)
        ok &= phi4 == Polynomial([1, -2]) and psi4 == Polynomial([4])
        ok &= titchmarsh_weyl(s) == q0
        return ok

    rep.run("krein-string-correspondence", "stieltjes-continued-fraction", krein_string)

    def levy():
        trip = levy_triplet(g0)
        ok = trip.a == 1 and trip.b == 0
        ok = ok and trip.nu == DiscreteMeasure(
            [Fraction(-1), Fraction(1)], [Fraction(1, 2), Fraction(1, 2)]
        )
        if not ok:
            return 1.0, 0.0
        resid = max(idd_charfn_check(g0, [0.0, 1.0, 2.0]))
        return resid, 1e-6

    rep.run("levy-khintchine-triplet", "infinitely-divisible-density", levy)

    def mean_periodic():
        out = mean_periodic_checks()
        return out.max_residual(), 1e-8

    rep.run("mean-periodicity", "annihilating-convolution", mean_periodic)

    return rep


def run_pw_pipeline(r: float = 1.0, trunc: int = 100, tol: float = 1e-4,
                    seed: int = 0) -> VerificationReport:
    """The Paley-Wiener family at truncation `trunc`."""
    rep = VerificationReport()
    frame = PWFrame(r, trunc)
    rng = np.random.default_rng(seed)

    def sampling():
        small = PWFrame(r, min(trunc, 8))
        S = pw_sampling_matrix(small)
        target = math.sqrt(r / math.pi) * np.eye(2 * small.N)
        return float(np.max(np.abs(S - target))), 1e-10

    rep.run("lattice-sampling-identity", "sinc-basis-interpolation", sampling)

    def gram():
        n_max = min(50, trunc)
        G = pw_basis_gram(PWFrame(r, max(trunc, n_max + 1)), n_max)
        dev = float(np.max(np.abs(G - np.eye(2 * n_max + 1))))
        rep.constants["gram_max_deviation"] = dev
        return dev, 0.02

    rep.run("truncated-basis-gram", "finite-range-orthonormality", gram)

    def defect_halving():
        d1 = pw_truncated_norm_defect(frame, 0, 60.0)
        d2 = pw_truncated_norm_defect(frame, 0, 120.0)
        rep.constants["norm_defect_ratio"] = d1 / d2
        ok = d1 > d2 > 0 and 1.5 < d1 / d2 < 2.5
        return (0.0 if ok else 1.0), 0.0

    rep.run("norm-defect-halving", "truncation-convergence-rate", defect_halving)

    def ode():
        worst = 0.0
        for _ in range(5):
            t = rng.uniform(0, r)
            z = complex(rng.normal(), rng.normal())
            worst = max(worst, pw_ode_residual(r, t, z))
        return worst, 1e-6

    rep.run("canonical-system-residual", "rotation-fundamental-solution", ode)

    def tan_convergence():
        z = complex(0.3, 0.4)
        e1 = abs(tan_partial_fraction(r, z, trunc) - np.tan(r * z))
        e2 = abs(tan_partial_fraction(r, z, 2 * trunc) - np.tan(r * z))
        rep.constants["tan_error_ratio"] = e1 / e2
        ok = 1.5 < e1 / e2 < 2.5
        return (0.0 if ok else 1.0), 0.0

    rep.run("tan-partial-fraction-rate", "lattice-series-truncation", tan_convergence)

    def laplace():
        return g_r_laplace_check(PWFrame(r, max(trunc, 2000)), 2j, T=100.0), tol

    rep.run("laplace-transform-identity", "tan-spectral-function", laplace)

    def weyl_fourier():
        out1 = pw_weyl_is_fourier(frame, [1.0], [])
        out2 = pw_weyl_is_fourier(frame, [0.3, -1.0, 0.5, 2.0], [1.0, 0.25, -0.75, 0.125])
        rep.constants["weyl_norm_ratio"] = out1.norm_ratio
        return max(out1.transform_residual, out2.transform_residual), 1e-8

    rep.run("weyl-is-fourier", "parity-extension-transform", weyl_fourier)

    return rep


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _emit(report: VerificationReport, out_path: str | None) -> int:
    for c in report.checks:
        line = f"[{c.status}] {c.name}: residual={c.residual:.3e} tol={c.tolerance:.3e}"
        if c.message:
            line += f"  ({c.message})"
        print(line)
    _write_json(report.to_json(), out_path)
    return EXIT_PASS if report.passed else EXIT_FAIL


def _write_json(obj, out_path: str | None) -> None:
    """Write obj as indented JSON to out_path, or print it when there is none."""
    payload = json.dumps(obj, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(_input_error(f"cannot read {path}: {exc}"))


def _input_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="screwfn", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized probes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pipe = sub.add_parser("pipeline", help="run a full verification pipeline")
    p_pipe.add_argument("--example", required=True)
    p_pipe.add_argument("--tol", type=float, default=None)
    p_pipe.add_argument("--out", default=None)
    p_pipe.add_argument("--r", type=float, default=1.0)
    p_pipe.add_argument("--trunc", type=int, default=100)

    p_fact = sub.add_parser("factorize", help="transfer matrix JSON -> Hamiltonian JSON")
    p_fact.add_argument("input")
    p_fact.add_argument("--out", default=None)

    p_str = sub.add_parser("string", help="Herglotz function JSON -> Krein string JSON")
    p_str.add_argument("input")
    p_str.add_argument("--out", default=None)

    p_pd = sub.add_parser("pd-check", help="kernel Gram positivity on a grid")
    p_pd.add_argument("--grid", type=int, default=50)
    p_pd.add_argument("--range", nargs=2, type=float, default=(-6.0, 6.0), metavar=("LO", "HI"))
    p_pd.add_argument("--tol", type=float, default=1e-9)
    p_pd.add_argument("--tau", default=None, help="measure JSON; three-point example if omitted")
    p_pd.add_argument("--out", default=None)

    p_pw = sub.add_parser("pw", help="Paley-Wiener family checks")
    p_pw.add_argument("--r", type=float, default=1.0)
    p_pw.add_argument("--trunc", type=int, default=2000)
    p_pw.add_argument("--tol", type=float, default=1e-4)
    p_pw.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "pipeline":
        if args.example == "g0":
            report = run_g0_pipeline(seed=args.seed, tol=args.tol or 1e-6)
        elif args.example == "pw":
            report = run_pw_pipeline(r=args.r, trunc=args.trunc,
                                     tol=args.tol or 1e-4, seed=args.seed)
        else:
            return _input_error(f"unknown example {args.example!r}; choose g0 or pw")
        return _emit(report, args.out)

    if args.command == "factorize":
        obj = _load_json(args.input)
        try:
            W = ser.matrix_from_json(obj)
        except (KeyError, ValueError, TypeError) as exc:
            return _input_error(f"bad transfer-matrix JSON: {exc}")
        try:
            H = factorize(W)
        except ValueError as exc:
            print(f"validation failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
        _write_json(ser.hamiltonian_to_json(H), args.out)
        return EXIT_PASS

    if args.command == "string":
        obj = _load_json(args.input)
        try:
            q = ser.ratfun_from_json(obj)
        except (KeyError, ValueError, TypeError) as exc:
            return _input_error(f"bad rational-function JSON: {exc}")
        try:
            s = stieltjes_string(q)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        _write_json(ser.string_to_json(s), args.out)
        return EXIT_PASS

    if args.command == "pd-check":
        lo, hi = args.range
        if args.tau:
            obj = _load_json(args.tau)
            try:
                tau = ser.measure_from_json(obj)
            except (KeyError, ValueError, TypeError) as exc:
                return _input_error(f"bad measure JSON: {exc}")
            data = ScrewFunctionData(Fraction(0), Fraction(0), tau)
        else:
            data = g0_data()
        out = pd_check(data, np.linspace(lo, hi, args.grid), tol=args.tol)
        _write_json({"min_eigenvalue": out.min_eigenvalue, "pass": out.passed}, args.out)
        return EXIT_PASS if out.passed else EXIT_FAIL

    if args.command == "pw":
        report = run_pw_pipeline(r=args.r, trunc=args.trunc, tol=args.tol, seed=args.seed)
        return _emit(report, args.out)

    return _input_error("no command")


if __name__ == "__main__":
    sys.exit(main())
