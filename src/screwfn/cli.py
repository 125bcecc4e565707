"""Command-line front end: JSON I/O and verification pipelines.

Subcommands:

* ``pipeline --example {g0,pw}`` emits a machine-readable verification
  report (exit 0 pass / 1 fail / 2 bad input): ``g0`` runs the generic chain
  of run_spectral_pipeline on the three-point example's measure tau_0, and
  ``pw`` the truncated Paley-Wiener family;
* ``factorize W.json`` turns a transfer matrix into its step Hamiltonian;
* ``string q.json`` expands a Herglotz function into a Krein string;
* ``pd-check`` builds the kernel Gram matrix on a grid and reports its
  minimum eigenvalue;
* ``pw`` runs the Paley-Wiener checks at a chosen truncation.

One global --seed drives every randomized probe, so reports are
deterministic.

run_spectral_pipeline serves exact symmetric measures with an atom at 0
(A odd and B even for bezout_complete, Q odd for q_substitute, tau({0}) > 0
for the Levy density); on other measures the checks that need these fail.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from . import serialization as ser
from .algebra import MatrixPolynomial, Polynomial, ab_split
from .canonical import bezout_complete, factorize, fundamental_solution, subspace_chain
from .classical import (
    idd_charfn_check,
    levy_triplet,
    mean_periodic_checks,
    q_substitute,
    screw_from_triplet,
    stieltjes_string,
    titchmarsh_weyl,
)
from .debranges import (
    HermiteBiehlerFrame,
    boundary_value,
    extension_eigenbasis,
    gram_schmidt_basis,
    inner_product,
    kernel_ab,
    kernel_moment,
    moments,
    s_theta_in_space,
)
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
from .screw import ScrewFunctionData, g0_data, kernel_g, laplace_check, pd_check
from .spectra import (
    DiscreteMeasure,
    NevanlinnaData,
    cayley_q_to_theta,
    level_set_masses,
    measure_from_q,
    q_from_measure,
    tau_from_mu,
    theta_to_e,
)
from .weyl import diagram_check, inverse_weyl, l2h_inner, screw_line_S, weyl_transform

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


def run_spectral_pipeline(tau: DiscreteMeasure, seed: int = 0,
                          tol: float = 1e-6) -> VerificationReport:
    """Every identity of the chain built from one exact spectral measure tau.

    g = (0, 0, tau), Q = q_from_measure(0, 0, tau), E = A - iB from the
    Cayley transform of Q divided by the real B(0) so that E(0) = -i,
    W = [bezout_complete(A, B); A, B] and H = factorize(W), whose peel
    certifies W as J-inner.  Each check compares two of these; they are built
    on first use, so a check that cannot build one fails with the message.
    """
    rep = VerificationReport()
    g = ScrewFunctionData(Fraction(0), Fraction(0), tau)

    @functools.cache
    def Q():
        return q_from_measure(NevanlinnaData(Fraction(0), Fraction(0), tau))

    @functools.cache
    def frame():
        E = theta_to_e(cayley_q_to_theta(Q()))
        return HermiteBiehlerFrame.from_e(E / ab_split(E)[1](0))

    @functools.cache
    def transfer():
        fr = frame()
        W = MatrixPolynomial([bezout_complete(fr.A, fr.B, validate=False), (fr.A, fr.B)])
        return W, factorize(W)

    def spectral_measure() -> bool:
        d = measure_from_q(Q())
        return d.a == 0 and d.b == 0 and d.measure == tau

    rep.run("spectral-measure-inversion", "herglotz-representation", spectral_measure)
    rep.run("level-set-masses", "inner-function-level-set",
            lambda: tau_from_mu(level_set_masses(frame().E)) == tau)

    def debranges_tables() -> bool:
        fr = frame()
        n, m = fr.dim, moments(fr).moments
        monos = [Polynomial.monomial(k) for k in range(n)]
        basis = gram_schmidt_basis(fr)
        return all(
            inner_product(fr, monos[i], monos[j]) == m[i + j]
            and inner_product(fr, basis[i], basis[j]) == int(i == j)
            for i in range(n)
            for j in range(n)
        )

    rep.run("polynomial-space-tables", "sampling-inner-products", debranges_tables)

    def kernel_agreement():
        fr, rng = frame(), np.random.default_rng(seed)
        pairs = [[complex(rng.normal(), rng.normal()) for _ in range(2)] for _ in range(20)]
        return max(abs(kernel_ab(fr, z, w) - kernel_moment(fr, z, w)) for z, w in pairs), 1e-10

    rep.run("reproducing-kernel-two-forms", "bordered-determinant-kernel", kernel_agreement)

    def multiplication_domain() -> bool:
        fr = frame()
        hits = [th for th in np.linspace(0, math.pi, 180, endpoint=False)
                if s_theta_in_space(fr, th)]
        eb = extension_eigenbasis(fr, math.pi / 2)
        return (
            hits == [0.0]
            and list(eb.eigenvalues) == list(tau.points)
            and all(boundary_value(fr, F, x).abs2() * fr.mu.mass_at(x) == 1
                    for x, F in zip(eb.eigenvalues, eb.normalized))
        )

    rep.run("multiplication-operator-extensions", "eigenbasis-boundary-values",
            multiplication_domain)

    def factorization() -> bool:
        W, H = transfer()
        return (fundamental_solution(H, H.total_length) == W
                and subspace_chain(H)[-1].E == frame().E)

    rep.run("hamiltonian-factorization", "rank-one-transfer-factors", factorization)

    def weyl_images() -> bool:
        fr, (_, H) = frame(), transfer()
        basis = extension_eigenbasis(fr, math.pi / 2).normalized
        invs = [inverse_weyl(fr, H, F) for F in basis]
        orthonormal = all(l2h_inner(H, u, v) == int(i == j)
                          for i, u in enumerate(invs) for j, v in enumerate(invs))
        return orthonormal and all(weyl_transform(H, v) == F for v, F in zip(invs, basis))

    rep.run("weyl-transform-images", "canonical-system-transform", weyl_images)

    def screw_gram():
        ts = np.linspace(-5, 5, 20)
        lines = [screw_line_S(frame(), t) for t in ts]
        return max(abs(St.inner(Ss) - math.pi * kernel_g(g, t, s))
                   for t, St in zip(ts, lines) for s, Ss in zip(ts, lines)), 1e-12

    rep.run("model-space-screw-line", "screw-line-gram-identity", screw_gram)

    def positivity():
        out = pd_check(g, np.linspace(-6, 6, 50))
        rep.constants["pd_min_eigenvalue"] = out.min_eigenvalue
        return -out.min_eigenvalue, 1e-9

    rep.run("kernel-nonnegativity", "gram-matrix-eigenvalues", positivity)
    rep.run("laplace-transform-identity", "one-sided-transform",
            lambda: (max(laplace_check(g, Q(), z, T=80.0) for z in (2j, 1 + 1j, -1 + 2j)), 1e-8))

    def diagram():
        out = diagram_check(g, frame(), transfer()[1], n_samples=20, seed=seed, tol=tol)
        rep.constants["basis_gram_constant"] = out.basis_gram_constant
        rep.constants["basis_gram_offdiag"] = out.basis_gram_offdiag
        phase = out.square_phase_constant
        rep.constants["square_phase_constant"] = [phase.real, phase.imag]
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
        q = q_substitute(Q())
        s = stieltjes_string(q)
        return s.L == math.inf and titchmarsh_weyl(s) == q

    rep.run("krein-string-correspondence", "stieltjes-continued-fraction", krein_string)

    def levy():
        if screw_from_triplet(levy_triplet(g)) != g:
            return 1.0, 0.0
        return max(idd_charfn_check(g, [0.0, 1.0, 2.0])), 1e-6

    rep.run("levy-khintchine-triplet", "infinitely-divisible-density", levy)
    rep.run("mean-periodicity", "annihilating-convolution",
            lambda: (mean_periodic_checks(g).max_residual(), 1e-8))
    return rep


def run_g0_pipeline(seed: int = 0, tol: float = 1e-6) -> VerificationReport:
    """The spectral pipeline on the three-point example's measure."""
    return run_spectral_pipeline(g0_data().tau, seed=seed, tol=tol)


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
