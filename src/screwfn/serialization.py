"""JSON encodings with bit-exact rational round-trips.

Rationals travel as "p/q" strings, complex rationals as ["re", "im"] pairs,
pi-rational masses as {"pi_multiple": "p/q"}; floats stay JSON numbers.
parse(serialize(x)) is the identity on every schema type.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .algebra import MatrixPolynomial, Polynomial, RationalFunction
from .canonical import Hamiltonian, Segment
from .classical import KreinString
from .exact import PI, ExactComplex, PiScalar
from .spectra import DiscreteMeasure

__all__ = [
    "poly_to_json",
    "poly_from_json",
    "ratfun_to_json",
    "ratfun_from_json",
    "measure_to_json",
    "measure_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "hamiltonian_to_json",
    "hamiltonian_from_json",
    "string_to_json",
    "string_from_json",
]


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def poly_to_json(p: Polynomial) -> dict:
    if p.mode == "float":
        return {"coeffs": [[c.real, c.imag] for c in p.coeffs]}
    if p.mode != "exact":
        raise TypeError("only exact or float polynomials serialize")
    return {"coeffs": [[_frac_str(c.real), _frac_str(c.imag)] for c in p.coeffs]}


def poly_from_json(obj: dict) -> Polynomial:
    coeffs = []
    for re, im in obj["coeffs"]:
        if isinstance(re, str) or isinstance(im, str):
            re, im = Fraction(re), Fraction(im)
            coeffs.append(ExactComplex(re, im) if im else re)
        else:
            coeffs.append(complex(re, im))
    return Polynomial(coeffs)


def ratfun_to_json(r: RationalFunction) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfun_from_json(obj: dict) -> RationalFunction:
    return RationalFunction(poly_from_json(obj["num"]), poly_from_json(obj["den"]))


def _mass_to_json(m):
    if isinstance(m, PiScalar):
        if m.root != 1 or not m.is_real():
            raise TypeError(f"mass {m} has no JSON encoding")
        if m.pihalf == 2:
            return {"pi_multiple": _frac_str((m / PI).as_fraction())}
        if m.pihalf == 0:
            return _frac_str(m.as_fraction())
        raise TypeError(f"mass {m} has no JSON encoding")
    return float(m)


def _mass_from_json(obj):
    if isinstance(obj, dict):
        return PiScalar(Fraction(obj["pi_multiple"]), 1, 2)
    if isinstance(obj, str):
        return PiScalar(Fraction(obj))
    return float(obj)


def measure_to_json(d: DiscreteMeasure) -> dict:
    pts = [_frac_str(p) if isinstance(p, Fraction) else float(p) for p in d.points]
    return {"points": pts, "masses": [_mass_to_json(m) for m in d.masses]}


def measure_from_json(obj: dict) -> DiscreteMeasure:
    pts = [Fraction(p) if isinstance(p, str) else float(p) for p in obj["points"]]
    return DiscreteMeasure(pts, [_mass_from_json(m) for m in obj["masses"]])


def matrix_to_json(W: MatrixPolynomial) -> dict:
    return {"entries": [[poly_to_json(e) for e in row] for row in W.entries]}


def matrix_from_json(obj: dict) -> MatrixPolynomial:
    return MatrixPolynomial([[poly_from_json(e) for e in row] for row in obj["entries"]])


def _theta_to_json(seg: Segment):
    if seg.proj == (Fraction(1), Fraction(0), Fraction(0)):
        return "0"
    if seg.proj == (Fraction(0), Fraction(0), Fraction(1)):
        return "pi/2"
    return None


def hamiltonian_to_json(H: Hamiltonian) -> dict:
    segs = []
    for seg in H.segments:
        entry = {"length": _frac_str(seg.length)}
        theta = _theta_to_json(seg)
        if theta is not None:
            entry["theta"] = theta
        else:
            entry["proj"] = [_frac_str(x) for x in seg.proj]
        segs.append(entry)
    return {"segments": segs}


def hamiltonian_from_json(obj: dict) -> Hamiltonian:
    segs = []
    for entry in obj["segments"]:
        length = Fraction(entry["length"])
        if "proj" in entry:
            proj = tuple(Fraction(x) for x in entry["proj"])
        elif entry["theta"] == "0":
            proj = (Fraction(1), Fraction(0), Fraction(0))
        elif entry["theta"] == "pi/2":
            proj = (Fraction(0), Fraction(0), Fraction(1))
        else:
            raise ValueError(f"unknown segment angle {entry['theta']!r}; use a proj triple")
        segs.append(Segment(length, proj))
    return Hamiltonian(segs)


def string_to_json(s: KreinString) -> dict:
    return {
        "masses": [{"position": _frac_str(p), "mass": _frac_str(m)} for p, m in s.masses],
        "L": "inf" if s.L == math.inf else _frac_str(s.L),
    }


def string_from_json(obj: dict) -> KreinString:
    masses = tuple(
        (Fraction(e["position"]), Fraction(e["mass"])) for e in obj["masses"]
    )
    L = math.inf if obj["L"] == "inf" else Fraction(obj["L"])
    return KreinString(masses, L)
