"""Command-line front end: JSON I/O and verification pipelines.

Subcommands:

* ``pipeline --example {g0,pw}`` emits a machine-readable verification
  report (exit 0 pass / 1 fail / 2 bad input): ``g0`` runs the generic chain
  of run_spectral_pipeline on the three-point example's measure tau_0, and
  ``pw`` the truncated Paley-Wiener family;
* ``factorize W.json`` turns a transfer matrix into its step Hamiltonian;
* ``string q.json`` expands a Herglotz function into a Krein string;
* ``pd-check`` builds the kernel Gram matrix on a uniform grid and reports
  its minimum eigenvalue;
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
import re
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
    _sampled_inner,
    boundary_value,
    extension_eigenbasis,
    gram_schmidt_basis,
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
    measure_from_q,
    q_from_measure,
    tau_from_mu,
    theta_to_e,
)
from .weyl import _inverse_images, _weyl_images, diagram_check, l2h_inner, screw_line_S

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

    def run(self, name: str, provenance: str, fn) -> None:
        """Run fn() -> (residual, tolerance) | bool, recording errors as failures.

        A bool is exact: residual 0.0 or 1.0, tolerance 0.0."""
        try:
            out = fn()
        except Exception as exc:  # deliberate: report instead of crash
            self.checks.append(Check(name, "fail", math.inf, 0.0, provenance, str(exc)))
            return
        residual, tolerance = (0.0 if out else 1.0, 0.0) if isinstance(out, bool) else out
        status = "pass" if residual <= tolerance else "fail"
        self.checks.append(Check(name, status, float(residual), float(tolerance), provenance))

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
        if (b0 := ab_split(E)[1](0)) == 0:
            raise ValueError("outside the class served: tau has no atom at 0, so B(0) = 0")
        return HermiteBiehlerFrame.from_e(E / b0)

    @functools.cache
    def transfer():
        fr = frame()
        W = MatrixPolynomial([bezout_complete(fr.A, fr.B), (fr.A, fr.B)])
        return W, factorize(W)

    def spectral_measure() -> bool:
        d = measure_from_q(Q())
        return d.a == 0 and d.b == 0 and d.measure == tau

    rep.run("spectral-measure-inversion", "herglotz-representation", spectral_measure)
    rep.run("level-set-masses", "inner-function-level-set",
            lambda: tau_from_mu(frame().mu) == tau)

    def debranges_tables() -> bool:
        # inner_product's sums, from each polynomial's values at the level points taken once
        fr = frame()
        n, m = fr.dim, moments(fr).moments
        points = [g for g, _ in fr.weights]
        monos = [[Polynomial.monomial(k)(g) for g in points] for k in range(n)]
        basis = [[p(g) for g in points] for p in gram_schmidt_basis(fr)]
        monos_conj = [[x.conjugate() for x in row] for row in monos]
        basis_conj = [[x.conjugate() for x in row] for row in basis]
        return all(
            _sampled_inner(fr, monos[i], monos_conj[j]) == m[i + j]
            and _sampled_inner(fr, basis[i], basis_conj[j]) == int(i == j)
            for i in range(n)
            for j in range(n)
        )

    rep.run("polynomial-space-tables", "sampling-inner-products", debranges_tables)

    def kernel_agreement():
        fr, rng = frame(), np.random.default_rng(seed)
        pairs = [[complex(rng.normal(), rng.normal()) for _ in range(2)] for _ in range(20)]
        # relative to the kernel's size: at 9 atoms |K| reaches 3.2e5 and the absolute gap 1.8e-10
        return max(abs(kernel_ab(fr, z, w) - (k := kernel_moment(fr, z, w))) / max(1, abs(k))
                   for z, w in pairs), 1e-10

    rep.run("reproducing-kernel-two-forms", "christoffel-darboux-kernel", kernel_agreement)

    def multiplication_domain() -> bool:
        # S_theta lies in H(E) iff [z^n](A sin(theta) - B cos(theta)) = 0. At
        # theta = 0 that is B_n = 0, and since A_n = E_n != 0 no other theta in
        # [0, pi) has it, so this one angle is the whole domain check.
        fr = frame()
        eb = extension_eigenbasis(fr, math.pi / 2)
        return (
            s_theta_in_space(fr, 0.0)
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
        invs = _inverse_images(fr, H, basis)  # one row table, and one rho_s per segment below
        # l2h_inner(v, u) = conj(l2h_inner(u, v)) exactly: each unordered pair once
        orthonormal = all(l2h_inner(H, u, v) == int(i == j)
                          for i, u in enumerate(invs) for j, v in enumerate(invs[i:], i))
        return orthonormal and _weyl_images(H, invs) == list(basis)

    rep.run("weyl-transform-images", "canonical-system-transform", weyl_images)

    def screw_gram():
        ts = np.linspace(-5, 5, 20)
        C = np.array([screw_line_S(frame(), t).coeffs for t in ts])
        gram = C @ C.conj().T
        return float(np.max(np.abs(gram - math.pi * kernel_g(g, ts[:, None], ts[None, :])))), 1e-12

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
        return max(out.isometry_kernel_vs_measure, out.isometry_measure_vs_model,
                   out.isometry_model_vs_restriction, out.square_phi1_vs_restriction,
                   out.triangle_weyl_l0_vs_model), tol

    rep.run("isometry-diagram-closure", "commuting-transform-square", diagram)

    def krein_string() -> bool:
        # Kac-Krein: the string's masses (on (0, 0, 1)) and the gaps between
        # them (on (1, 0, 0)), read from the far end, are the peel's segments
        q = q_substitute(Q())
        s = stieltjes_string(q)
        if s.L != math.inf or titchmarsh_weyl(s) != q:
            return False
        pos = [p for p, _ in s.masses]
        segs = [(seg.length, seg.proj) for seg in reversed(transfer()[1].segments)]
        return (segs[0::2] == [(m, (0, 0, 1)) for _, m in s.masses]
                and segs[1::2] == [(b - a, (1, 0, 0)) for a, b in zip(pos, pos[1:])])

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
        probes = [(rng.uniform(0, r), complex(rng.normal(), rng.normal())) for _ in range(5)]
        return max(pw_ode_residual(r, t, z) for t, z in probes), 1e-6

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
        return g_r_laplace_check(PWFrame(r, max(trunc, 2000)), 2j), tol

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


def _run_pw(args, tol: float) -> int:
    try:
        report = run_pw_pipeline(r=args.r, trunc=args.trunc, tol=tol, seed=args.seed)
    except ValueError as exc:  # PWFrame rejects r and trunc before any check runs
        return _input_error(str(exc))
    return _emit(report, args.out)


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

    p_pd = sub.add_parser("pd-check", help="kernel Gram positivity on a uniform grid over --range")
    # _negative_number_matcher is argparse's one hook for telling a negative number from a
    # flag; its default takes -1 and -.5 but not -1e-3 or -inf, which it reads as flags
    p_pd._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-inf$", re.I)
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
    if getattr(args, "tol", None) is not None:
        # pd-check reads a negative tol as lambda_min >= |tol|; elsewhere tol bounds a residual
        signed = args.command == "pd-check"
        if not math.isfinite(args.tol) or args.tol < 0 and not signed:
            return _input_error(f"--tol must be finite{'' if signed else ' and >= 0'}, not {args.tol}")

    if args.command == "pipeline":
        if args.example == "g0":
            report = run_g0_pipeline(seed=args.seed, tol=1e-6 if args.tol is None else args.tol)
        elif args.example == "pw":
            return _run_pw(args, 1e-4 if args.tol is None else args.tol)
        else:
            return _input_error(f"unknown example {args.example!r}; choose g0 or pw")
        return _emit(report, args.out)

    if args.command == "factorize":
        obj = _load_json(args.input)
        try:
            W = ser.matrix_from_json(obj)
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
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
        except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
            return _input_error(f"bad rational-function JSON: {exc}")
        try:
            s = stieltjes_string(q)
        except TypeError as exc:  # float coefficients: the Euclid is exact
            return _input_error(str(exc))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAIL
        _write_json(ser.string_to_json(s), args.out)
        return EXIT_PASS

    if args.command == "pd-check":
        lo, hi = args.range
        if not math.isfinite(hi - lo):  # a non-finite end or span: linspace would warn first
            return _input_error("grid ends and their span hi - lo must be finite")
        if args.tau:
            obj = _load_json(args.tau)
            try:
                tau = ser.measure_from_json(obj)
            except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
                return _input_error(f"bad measure JSON: {exc}")
            data = ScrewFunctionData(Fraction(0), Fraction(0), tau)
        else:
            data = g0_data()
        try:
            out = pd_check(data, np.linspace(lo, hi, args.grid), tol=args.tol)
        except ValueError as exc:
            return _input_error(str(exc))
        _write_json({"min_eigenvalue": out.min_eigenvalue, "pass": out.passed}, args.out)
        return EXIT_PASS if out.passed else EXIT_FAIL

    if args.command == "pw":
        return _run_pw(args, args.tol)

    return _input_error("no command")


if __name__ == "__main__":
    sys.exit(main())
