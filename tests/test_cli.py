import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from screwfn import cli, weyl
from screwfn import serialization as ser
from screwfn.algebra import MatrixPolynomial, Polynomial, RationalFunction
from screwfn.canonical import factorize, w0_matrix
from screwfn.classical import KreinString, q_substitute
from screwfn.cli import (
    VerificationReport,
    main,
    run_g0_pipeline,
    run_pw_pipeline,
    run_spectral_pipeline,
)
from screwfn.debranges import HermiteBiehlerFrame
from screwfn.exact import ExactComplex, PI, PiScalar
from screwfn.screw import q0_function
from screwfn.spectra import DiscreteMeasure, level_set_masses


def test_polynomial_roundtrip_exact():
    p = Polynomial([ExactComplex(Fraction(1, 3), Fraction(-2, 7)), ExactComplex(0, 1)])
    assert ser.poly_from_json(ser.poly_to_json(p)) == p


def test_polynomial_roundtrip_float():
    p = Polynomial([0.5 + 0.25j, -1.0])
    assert ser.poly_from_json(ser.poly_to_json(p)) == p


def test_ratfun_roundtrip():
    q = q0_function()
    assert ser.ratfun_from_json(ser.ratfun_to_json(q)) == q


def test_measure_roundtrip_pi_masses():
    i = ExactComplex(0, 1)
    E0 = Polynomial([-i, -1, 2 * i, 1])
    mu = level_set_masses(E0)
    obj = ser.measure_to_json(mu)
    assert obj["masses"][1] == {"pi_multiple": "1"}
    assert ser.measure_from_json(obj) == mu


def test_measure_roundtrip_rational_and_float():
    m1 = DiscreteMeasure([Fraction(1, 2)], [Fraction(3, 4)])
    assert ser.measure_from_json(ser.measure_to_json(m1)) == m1
    m2 = DiscreteMeasure([0.25], [1.5])
    assert ser.measure_from_json(ser.measure_to_json(m2)) == m2


def test_matrix_roundtrip():
    W = w0_matrix()
    assert ser.matrix_from_json(ser.matrix_to_json(W)) == W


def test_hamiltonian_roundtrip():
    H = factorize(w0_matrix())
    obj = ser.hamiltonian_to_json(H)
    assert obj == {
        "segments": [
            {"length": "1/2", "theta": "pi/2"},
            {"length": "4", "theta": "0"},
            {"length": "1/2", "theta": "pi/2"},
        ]
    }
    assert ser.hamiltonian_from_json(obj) == H


def test_string_roundtrip():
    s = KreinString(((Fraction(0), Fraction(1, 2)), (Fraction(4), Fraction(1, 2))), math.inf)
    assert ser.string_from_json(ser.string_to_json(s)) == s
    s2 = KreinString(((Fraction(1, 3), Fraction(2)),), Fraction(7, 2))
    assert ser.string_from_json(ser.string_to_json(s2)) == s2


def test_cli_factorize_writes_reference_hamiltonian(tmp_path):
    win = tmp_path / "W0.json"
    hout = tmp_path / "H0.json"
    win.write_text(json.dumps(ser.matrix_to_json(w0_matrix())))
    assert main(["factorize", str(win), "--out", str(hout)]) == 0
    obj = json.loads(hout.read_text())
    assert obj["segments"][0] == {"length": "1/2", "theta": "pi/2"}
    assert obj["segments"][1] == {"length": "4", "theta": "0"}


def test_cli_factorize_rejects_invalid_matrix(tmp_path):
    bad = MatrixPolynomial([[Polynomial([1, 1]), Polynomial.zero()],
                            [Polynomial.zero(), Polynomial([1])]])
    win = tmp_path / "bad.json"
    win.write_text(json.dumps(ser.matrix_to_json(bad)))
    assert main(["factorize", str(win)]) == 1


def test_cli_factorize_reports_a_failed_peel(tmp_path, capsys):
    # W(0) = I and det W = 1, but the peel finds the non-PSD factor gamma = -1
    bad = MatrixPolynomial([[Polynomial([1]), Polynomial.zero()],
                            [Polynomial([0, 1]), Polynomial([1])]])
    win = tmp_path / "bad.json"
    win.write_text(json.dumps(ser.matrix_to_json(bad)))
    assert main(["factorize", str(win)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failed: ") and "PSD" in err


def test_cli_factorize_float_matrix_is_a_validation_failure(tmp_path, capsys):
    # the float JSON of W0: the exact peel takes no float coefficients
    W0 = w0_matrix()
    Wf = MatrixPolynomial([[Polynomial([complex(c) for c in e.coeffs]) for e in row]
                           for row in W0.entries])
    win = tmp_path / "W0_float.json"
    win.write_text(json.dumps(ser.matrix_to_json(Wf)))
    assert json.loads(win.read_text())["entries"][0][1]["coeffs"] == [[0.0, 0.0], [4.0, 0.0]]
    assert main(["factorize", str(win)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failed: ") and "exact rationals" in err


def test_cli_string_q0(tmp_path):
    qin = tmp_path / "q0.json"
    sout = tmp_path / "string.json"
    qin.write_text(json.dumps(ser.ratfun_to_json(q_substitute(q0_function()))))
    assert main(["string", str(qin), "--out", str(sout)]) == 0
    obj = json.loads(sout.read_text())
    assert obj == {
        "masses": [
            {"position": "0", "mass": "1/2"},
            {"position": "4", "mass": "1/2"},
        ],
        "L": "inf",
    }


def test_cli_string_rejects_non_string_function(tmp_path):
    qin = tmp_path / "q.json"
    bad = RationalFunction(Polynomial([-1]), Polynomial([1, -1]))
    qin.write_text(json.dumps(ser.ratfun_to_json(bad)))
    assert main(["string", str(qin)]) == 1


def test_cli_malformed_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SystemExit) as exc:
        main(["factorize", str(bad)])
    assert exc.value.code == 2


def _coeffs(*cs):
    return {"coeffs": [[c, "0"] for c in cs]}


@pytest.mark.parametrize("command, obj", [
    ("factorize", {"entries": [[_coeffs("1/0"), _coeffs()], [_coeffs(), _coeffs("1")]]}),
    ("string", {"num": _coeffs("1/0"), "den": _coeffs("1")}),
    ("string", {"num": _coeffs("1"), "den": _coeffs()}),
    ("string", {"num": {"coeffs": [[-1.0, 0.0]]}, "den": {"coeffs": [[1.0, 0.0], [-1.0, 0.0]]}}),
    ("pd-check --tau", {"points": ["1/0"], "masses": ["1"]}),
], ids=["factorize-p/0", "string-p/0", "string-zero-denominator", "string-float", "pd-check-p/0"])
def test_cli_bad_json_values_are_input_errors(tmp_path, capsys, command, obj):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(obj))
    assert main([*command.split(), str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["pipeline", "--example", "pw"], ["pw"]], ids=["pipeline", "pw"])
@pytest.mark.parametrize("args", [["--r", "0"], ["--r", "-1"], ["--r", "inf"], ["--trunc", "0"],
                                  ["--tol", "nan"], ["--tol", "-1"], ["--tol", "inf"]],
                         ids=["r0", "r-1", "r-inf", "trunc0", "tol-nan", "tol-1", "tol-inf"])
def test_cli_bad_paley_wiener_arguments_are_input_errors(capsys, command, args):
    assert main([*command, *args]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", [["pipeline", "--example", "g0", "--tol", "nan"],
                                     ["pipeline", "--example", "g0", "--tol", "-1"],
                                     ["pipeline", "--example", "g0", "--tol", "inf"],
                                     ["pd-check", "--tol", "nan"], ["pd-check", "--tol", "-inf"]],
                         ids=["g0-nan", "g0-1", "g0-inf", "pd-check-nan", "pd-check-minus-inf"])
def test_cli_bad_tolerance_is_an_input_error(capsys, command):
    # the parent read nan and -1 as a failed verdict and inf as a pass; pd-check takes any
    # finite tol, a negative one asking for lambda_min >= |tol|
    assert main(command) == 2
    assert capsys.readouterr().err.startswith("error: --tol must be finite")


@pytest.mark.parametrize("text", ['{"points": [1e400], "masses": [1.0]}',
                                  '{"points": [NaN, 1.0], "masses": [1.0, 1.0]}'],
                         ids=["1e400", "nan"])
def test_cli_pd_check_names_a_non_finite_point(tmp_path, capsys, text):
    # JSON reads 1e400 as inf; the parent ran the kernel on it and failed in the eigensolver
    path = tmp_path / "tau.json"
    path.write_text(text)
    assert main(["pd-check", "--tau", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad measure JSON: support point ") and err.endswith(" is not finite\n")


def test_cli_pd_check_names_a_point_beyond_float_range(tmp_path, capsys):
    # the parent ended in an OverflowError traceback from the first float view of tau
    path = tmp_path / "tau.json"
    path.write_text('{"points": ["1' + "0" * 400 + '"], "masses": ["1"]}')
    assert main(["pd-check", "--tau", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad measure JSON: support point 1" + "0" * 400 + " is beyond float range\n"


def test_cli_pd_check_names_a_mass_beyond_float_range(tmp_path, capsys):
    # unchecked, the first float view of the masses ends in an OverflowError traceback
    path = tmp_path / "tau.json"
    path.write_text('{"points": ["1"], "masses": ["1' + "0" * 400 + '"]}')
    assert main(["pd-check", "--tau", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: bad measure JSON: mass 1" + "0" * 400 + " is beyond float range\n"


def test_cli_unknown_example_is_input_error():
    assert main(["pipeline", "--example", "zeta"]) == 2


def test_cli_pd_check(tmp_path, capsys):
    out = tmp_path / "pd.json"
    assert main(["pd-check", "--grid", "30", "--range", "-4", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["pass"] and obj["min_eigenvalue"] > -1e-9


@pytest.mark.parametrize("args, message", [(["--grid", "0"], "at least one point"),
                                           (["--range", "nan", "6"], "finite"),
                                           (["--range", "0", "inf"], "finite"),
                                           (["--range", "-inf", "1"], "finite")],
                         ids=["empty", "nan", "inf", "minus-inf"])
def test_cli_pd_check_bad_grid_is_input_error(capsys, args, message):
    assert main(["pd-check", *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid") and message in err


@pytest.mark.parametrize("lo, hi", [("-1e-3", "1"), ("-.5", "-2E-1")])
def test_cli_pd_check_reads_a_negative_end_in_any_float_notation(lo, hi):
    assert main(["pd-check", "--range", lo, hi, "--grid", "3"]) in (0, 1)


@pytest.mark.parametrize("example, check", [("g0", "isometry-diagram-closure"),
                                            ("pw", "laplace-transform-identity")])
def test_cli_pipeline_takes_a_zero_tolerance(tmp_path, example, check):
    out = tmp_path / f"{example}.json"
    main(["pipeline", "--example", example, "--tol", "0", "--out", str(out)])
    tolerances = {c["name"]: c["tolerance"] for c in json.loads(out.read_text())["checks"]}
    assert tolerances[check] == 0.0


def test_cli_pw_pipeline(tmp_path):
    out = tmp_path / "pw.json"
    assert main(["pw", "--r", "1", "--trunc", "100", "--tol", "1e-4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["pass"]
    names = {c["name"] for c in obj["checks"]}
    assert "weyl-is-fourier" in names and "laplace-transform-identity" in names
    for c in obj["checks"]:
        assert c["provenance"]


def test_pw_report_deterministic_under_seed():
    a = run_pw_pipeline(trunc=50, seed=7).to_json()
    b = run_pw_pipeline(trunc=50, seed=7).to_json()
    assert a == b


def test_g0_report_deterministic_within_one_process():
    # a second run reuses nothing from the first: no derived data outlives its frame
    assert run_g0_pipeline(seed=1).to_json() == run_g0_pipeline(seed=1).to_json()


@pytest.mark.parametrize("points, masses", [
    # B(0) = -1 here: without the division by it, bezout_complete fails with "W(0) != I"
    ([-2, Fraction(-1, 2), 0, Fraction(1, 2), 2], [Fraction(1, 4), Fraction(1, 2), 1, Fraction(1, 2), Fraction(1, 4)]),
    ([Fraction(-3, 2), 0, Fraction(3, 2)], [Fraction(1, 3), Fraction(2, 3), Fraction(1, 3)]),
])
def test_spectral_pipeline_passes_on_other_symmetric_measures(points, masses):
    rep = run_spectral_pipeline(DiscreteMeasure(points, masses), seed=1)
    assert [c.name for c in rep.checks] == [c.name for c in run_g0_pipeline(seed=1).checks]
    assert rep.passed, [(c.name, c.residual, c.message) for c in rep.checks if c.status != "pass"]


@pytest.mark.parametrize("atoms", [7, 9, 11, 15])
def test_spectral_pipeline_passes_on_odd_quarter_atoms(atoms):
    # {0: 1} and {+-(2k-1)/4: (2(k mod 3)+1)/8}: the Hankel matrix of these moments is so
    # ill-conditioned that a float determinant form of the kernel misses the tolerance 1e-10,
    # and the surds of the exact norms carry radicands of 45 bits and more from 9 atoms;
    # the diagram's algebraic legs, taken at the exact level points, stay at rounding
    points, masses = [0], [Fraction(1)]
    for k in range(1, atoms // 2 + 1):
        x, m = Fraction(2 * k - 1, 4), Fraction(2 * (k % 3) + 1, 8)
        points += [-x, x]
        masses += [m, m]
    rep = run_spectral_pipeline(DiscreteMeasure(points, masses), seed=1)
    assert rep.passed, [(c.name, c.residual, c.message) for c in rep.checks if c.status != "pass"]
    assert len([c for c in rep.checks if c.tolerance == 0]) == 7
    assert {c.name: c.residual for c in rep.checks}["isometry-diagram-closure"] < 1e-13


def test_polynomial_space_tables_evaluates_each_polynomial_once_per_level_point(monkeypatch):
    # n monomials and n basis polynomials at n level points: 2 n^2 evaluations, not one per pair
    points, masses = [0], [Fraction(1)]
    for k in range(1, 4):
        x, m = Fraction(2 * k - 1, 4), Fraction(2 * (k % 3) + 1, 8)
        points += [-x, x]
        masses += [m, m]
    frames, calls, check = [], [], [None]
    from_e, evaluate, run = HermiteBiehlerFrame.from_e, Polynomial.__call__, VerificationReport.run

    def from_e_with_weights(E):
        fr = from_e(E)
        fr.weights  # the sampling weights evaluate B, before the counted check
        frames.append(fr)
        return fr

    def counted(self, z):
        calls.append(check[0])
        return evaluate(self, z)

    def named_run(self, name, provenance, fn):
        check[0] = name
        run(self, name, provenance, fn)
        check[0] = None

    monkeypatch.setattr(HermiteBiehlerFrame, "from_e", staticmethod(from_e_with_weights))
    monkeypatch.setattr(Polynomial, "__call__", counted)
    monkeypatch.setattr(VerificationReport, "run", named_run)
    rep = run_spectral_pipeline(DiscreteMeasure(points, masses), seed=1)
    n = frames[0].dim
    assert n == 7 and {c.name: c.status for c in rep.checks}["polynomial-space-tables"] == "pass"
    assert calls.count("polynomial-space-tables") == 2 * n * n


@pytest.mark.parametrize("example", ["g0", "pw"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_pipeline_report_matches_the_committed_one(tmp_path, capsys, example, seed):
    # tests/reports holds the reports as first written; every field, float bits included, stays
    out = tmp_path / "report.json"
    main(["--seed", str(seed), "pipeline", "--example", example, "--out", str(out)])
    committed = pathlib.Path(__file__).parent / "reports" / f"{example}_seed{seed}.json"
    assert json.loads(out.read_text()) == json.loads(committed.read_text())


@st.composite
def symmetric_measures(draw):
    """{0: m_0} and {+-k/d: m_k}: 1 to 4 point pairs in (0, 3], d <= 4, masses j/2^e."""
    mass = st.builds(lambda j, e: Fraction(j, 2**e), st.integers(1, 7), st.integers(0, 3))
    pairs = draw(st.integers(1, 4))
    xs = draw(st.lists(st.fractions(Fraction(1, 4), 3, max_denominator=4),
                       min_size=pairs, max_size=pairs, unique=True))
    points, masses = [Fraction(0)], [draw(mass)]
    for x in xs:
        m = draw(mass)
        points += [-x, x]
        masses += [m, m]
    return DiscreteMeasure(points, masses)


@settings(max_examples=10)
@given(symmetric_measures())
def test_spectral_pipeline_passes_on_random_symmetric_measures(tau):
    rep = run_spectral_pipeline(tau, seed=1)
    assert rep.passed, [(c.name, c.residual, c.message) for c in rep.checks if c.status != "pass"]


def test_weyl_images_check_reads_each_unordered_pair_once(monkeypatch):
    # l2h_inner(v, u) = conj(l2h_inner(u, v)) exactly, so n (n + 1)/2 calls give the n^2 verdict
    calls = []

    def counted(H, u, v):
        calls.append((u, v))
        return weyl.l2h_inner(H, u, v)

    monkeypatch.setattr(cli, "l2h_inner", counted)
    tau = DiscreteMeasure([-2, -1, 0, 1, 2], [1, Fraction(1, 2), 2, Fraction(1, 2), 1])
    status = {c.name: c.status for c in run_spectral_pipeline(tau, seed=1).checks}
    assert status["weyl-transform-images"] == "pass"
    assert len(calls) == 5 * 6 // 2


def test_weyl_images_check_builds_the_row_table_and_each_segment_image_once(monkeypatch):
    # one batch of inverse images is one _row_vectors call, whose row table is the n + 1
    # breakpoint rows, and one batch of transforms builds each segment's image rho_s once:
    # two passes of _breakpoint_rows and 2n + 1 _polys in all
    counts, current, run = {}, [None], cli.VerificationReport.run
    rows, breakpoints, polys = weyl._row_vectors, weyl._breakpoint_rows, weyl._polys
    sizes = []

    def tracked(self, name, provenance, fn):
        current[0] = name
        return run(self, name, provenance, fn)

    def counted(kind, build):
        def call(H, *args):
            counts[current[0], kind] = counts.get((current[0], kind), 0) + 1
            if kind == "rows":
                sizes.append(len(H))
            return build(H, *args)
        return call

    monkeypatch.setattr(cli.VerificationReport, "run", tracked)
    monkeypatch.setattr(weyl, "_row_vectors", counted("rows", rows))
    monkeypatch.setattr(weyl, "_breakpoint_rows", counted("breakpoints", breakpoints))
    monkeypatch.setattr(weyl, "_polys", counted("polys", polys))
    tau = DiscreteMeasure([-2, -1, 0, 1, 2], [1, Fraction(1, 2), 2, Fraction(1, 2), 1])
    status = {c.name: c.status for c in run_spectral_pipeline(tau, seed=1).checks}
    assert status["weyl-transform-images"] == "pass"
    assert counts["weyl-transform-images", "rows"] == 1
    assert counts["weyl-transform-images", "breakpoints"] == 2
    assert counts["weyl-transform-images", "polys"] == 2 * sizes[0] + 1 == 11


def test_spectral_pipeline_integrates_the_levy_density_over_the_whole_law():
    # jumps of +-3 put 7e-6 of the law's mass past |x| = 12, more than the check's 1e-6
    tau = DiscreteMeasure([-3, -1, 0, 1, 3], [1, Fraction(1, 3), Fraction(1, 2), Fraction(1, 3), 1])
    levy = {c.name: c for c in run_spectral_pipeline(tau, seed=1).checks}["levy-khintchine-triplet"]
    assert levy.status == "pass" and levy.residual < 1e-10


def test_spectral_pipeline_reports_a_measure_outside_its_class():
    # no atom at 0: B(0) = 0, so every check that needs E fails with the message
    rep = run_spectral_pipeline(DiscreteMeasure([-1, 1], [1, 1]))
    assert len(rep.checks) == 14 and not rep.passed
    status = {c.name: (c.status, c.message) for c in rep.checks}
    assert status["spectral-measure-inversion"] == ("pass", "")
    cause = "outside the class served: tau has no atom at 0, so B(0) = 0"
    needs_e = ["level-set-masses", "polynomial-space-tables", "reproducing-kernel-two-forms",
               "multiplication-operator-extensions", "hamiltonian-factorization",
               "weyl-transform-images", "model-space-screw-line", "isometry-diagram-closure"]
    assert [name for name, (_, message) in status.items() if message == cause] == needs_e
    assert all(status[name][0] == "fail" for name in needs_e)


def test_pw_pipeline_holds_no_sample_grid():
    # the closed-form Gram peaks below 1 MB; sampling the report's 101 basis functions on a
    # 32 769-node grid would hold over 100 MB
    tracemalloc.start()
    try:
        run_pw_pipeline(seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
