import json
import math
from fractions import Fraction

import pytest

from screwfn import serialization as ser
from screwfn.algebra import MatrixPolynomial, Polynomial, RationalFunction
from screwfn.canonical import factorize, w0_matrix
from screwfn.classical import KreinString, q_substitute
from screwfn.cli import main, run_g0_pipeline, run_pw_pipeline, run_spectral_pipeline
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


def test_cli_unknown_example_is_input_error():
    assert main(["pipeline", "--example", "zeta"]) == 2


def test_cli_pd_check(tmp_path, capsys):
    out = tmp_path / "pd.json"
    assert main(["pd-check", "--grid", "30", "--range", "-4", "4", "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["pass"] and obj["min_eigenvalue"] > -1e-9


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


def test_spectral_pipeline_reports_a_measure_outside_its_class():
    # no atom at 0: B(0) = 0, so every check that needs E fails with the message
    rep = run_spectral_pipeline(DiscreteMeasure([-1, 1], [1, 1]))
    assert len(rep.checks) == 14 and not rep.passed
    status = {c.name: (c.status, c.message) for c in rep.checks}
    assert status["spectral-measure-inversion"] == ("pass", "")
    assert status["hamiltonian-factorization"][0] == "fail" and status["hamiltonian-factorization"][1]
