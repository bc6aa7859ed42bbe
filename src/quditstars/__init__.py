"""Qudit states as Majorana constellations on the Riemann sphere.

A d-level pure state maps to d - 1 points on the unit sphere (the roots of
its associated polynomial, projected stereographically); single-qudit gates
in the SU(2) family act as Moebius transformations of those points and lift
back to exact d x d unitaries on the amplitudes.
"""

from .errors import (
    ArityError,
    DimensionMismatch,
    GateSyntaxError,
    NonUnitaryGate,
    NotOnSphere,
    NotUnitary,
    QuditStarsError,
    ScriptError,
    SingularMatrix,
    UnknownGate,
    WrongDimension,
    ZeroInput,
    ZeroPolynomial,
)
from .gatescript import GateProgram, GateTerm, compile_program, compile_source, parse
from .majorana import (
    Constellation,
    MajoranaPolynomial,
    QuditState,
    basis_state,
    bloch_vector,
    constellation_match,
    constellation_pairing,
    constellation_to_state,
    expand_roots,
    find_roots,
    polynomial_to_state,
    projective_fidelity,
    state_to_constellation,
    state_to_polynomial,
)
from .moebius import (
    MoebiusMap,
    RotationMatrix,
    UnitaryMatrix,
    apply_point,
    compose,
    from_su2,
    inverse,
    is_special_unitary,
    lift_to_unitary,
    make,
    phase_aligned_distance,
    projective_distance,
    projectively_equal,
    standard_gate,
    to_rotation,
    transform_constellation,
)
from .render import RenderSpec, render_constellation_svg, render_state_svg
from .sphere import (
    INFINITY,
    ExtendedComplex,
    SpherePoint,
    antipode,
    as_point,
    chordal_distance,
    to_plane,
    to_sphere,
)
from .verify import SuiteConfig, SuiteReport, equivariance_trial, oracle_roots, run_suite

__version__ = "0.1.0"
