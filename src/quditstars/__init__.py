"""Qudit states as Majorana constellations on the Riemann sphere.

A d-level pure state maps to d - 1 points on the unit sphere (the roots of
its associated polynomial, projected stereographically); single-qudit gates
in the SU(2) family act as Moebius transformations of those points and lift
back to exact d x d unitaries on the amplitudes.

Submodules load on first use (PEP 562): ``import quditstars`` imports none
of them, and reading a name below imports the submodule that owns it.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names the package takes from it.
_EXPORTS = {
    "errors": ("ArityError", "DimensionMismatch", "GateSyntaxError", "NonUnitaryGate",
               "NotOnSphere", "NotUnitary", "QuditStarsError", "ScriptError",
               "SingularMatrix", "UnknownGate", "WrongDimension", "ZeroInput",
               "ZeroPolynomial"),
    "formats": (),
    "gatescript": ("GateProgram", "GateTerm", "compile_source", "parse"),
    "majorana": ("Constellation", "MajoranaPolynomial", "QuditState", "basis_state",
                 "bloch_vector", "constellation_distance", "constellation_to_state",
                 "find_roots", "polynomial_to_state", "projective_fidelity",
                 "state_to_constellation", "state_to_polynomial"),
    "moebius": ("MoebiusMap", "RotationMatrix", "UnitaryMatrix", "apply_point", "compose",
                "from_su2", "inverse", "is_special_unitary", "lift_to_unitary",
                "phase_aligned_distance", "projective_distance", "standard_gate",
                "to_rotation", "transform_constellation"),
    "render": ("render_constellation_svg",),
    "sphere": ("INFINITY", "ExtendedComplex", "SpherePoint", "antipode", "as_point",
               "chordal_distance", "to_plane", "to_sphere"),
    "verify": ("SuiteConfig", "SuiteReport", "equivariance_trial", "oracle_roots",
               "run_suite"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
