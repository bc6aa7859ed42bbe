"""Root cross-checks and the randomized property suite.

The suite re-checks every invariant the library promises, over random
instances drawn from streams seeded by (seed, property index, trial index):
identical configurations give identical reports, independent of execution
order.  Random states are normalized complex Gaussians; random SU(2) maps
come from a normalized complex Gaussian pair.

Roots are checked independently of the method that finds them by their
backward error: the state rebuilt from the found roots must be the state
the polynomial encodes.  ``oracle_roots`` is a secondary check only.

The cross-method comparisons (root finder vs oracle, lift-vs-Moebius
equivariance) match roots within the chordal bound 1e-8; algebraic
identities keep their own tighter bounds.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ScriptError
from .formats import _pair, moebius_to_doc, root_to_doc, state_to_doc
from .gatescript import GateProgram, GateTerm, compile_source, parse, render
from .majorana import (
    Constellation,
    MajoranaPolynomial,
    QuditState,
    _companion_roots,
    _constellation,
    _effective_degree,
    basis_state,
    bloch_vector,
    constellation_distance,
    constellation_to_state,
    find_roots,
    polynomial_to_state,
    projective_fidelity,
    state_to_constellation,
    state_to_polynomial,
)
from .moebius import (
    _GATES,
    MoebiusMap,
    compose,
    from_su2,
    inverse,
    lift_to_unitary,
    phase_aligned_distance,
    projective_distance,
    standard_gate,
    to_rotation,
    transform_constellation,
)
from .sphere import (
    INFINITY,
    ExtendedComplex,
    antipode,
    chordal_distance,
    to_plane,
    to_sphere,
)

__all__ = [
    "SuiteConfig",
    "PropertyReport",
    "SuiteReport",
    "oracle_roots",
    "equivariance_trial",
    "run_suite",
    "random_state",
    "random_su2",
]

_MAX_COUNTEREXAMPLES = 10
# Chordal bound for matching the roots of two methods.
_MATCH_TOL = 1e-8


@dataclass(frozen=True)
class SuiteConfig:
    dims: tuple[int, ...]
    trials: int
    seed: int

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError(f"dims must be nonempty integers >= 2, got {self.dims!r}")
        if int(self.trials) < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "trials", int(self.trials))
        object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class PropertyReport:
    name: str
    trials: int
    passes: int
    worst_deviation: float
    counterexamples: tuple[dict, ...]

    @property
    def failures(self) -> int:
        return self.trials - self.passes


@dataclass(frozen=True)
class SuiteReport:
    properties: tuple[PropertyReport, ...]

    @property
    def all_passed(self) -> bool:
        return all(p.failures == 0 for p in self.properties)

    def to_doc(self) -> dict:
        return asdict(self)


# -- root cross-checks -----------------------------------------------------

def oracle_roots(poly: MajoranaPolynomial) -> Constellation:
    """Roots via companion-matrix eigenvalues (LAPACK QR iteration).

    A secondary check only: ``find_roots`` runs the same eigenvalue method
    and differs only in rescaling the coefficients by an exact power of two
    and in deflating exact trailing zeros, so agreement with it shows
    little.  The independent check is the ``root_backward_error`` property.
    """
    coeffs = poly.as_vector()
    return _constellation(poly.dim, _companion_roots(coeffs[: _effective_degree(coeffs) + 1]))


def equivariance_trial(m: MoebiusMap, state: QuditState):
    """Check lift-then-roots against roots-then-Moebius on one instance.

    Returns (passed, worst matched chordal distance), passing at a distance
    of at most 1e-8; a map that is not special-unitary raises NotUnitary
    from ``lift_to_unitary``.
    """
    lifted = lift_to_unitary(m, state.dim)
    via_hilbert = state_to_constellation(QuditState(tuple(lifted.apply(state.as_vector()))))
    via_sphere = transform_constellation(m, state_to_constellation(state))
    worst = constellation_distance(via_hilbert, via_sphere)
    return worst <= _MATCH_TOL, worst


# -- random instance generators ---------------------------------------------

def random_state(rng: np.random.Generator, dim: int) -> QuditState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return QuditState(tuple(v / np.linalg.norm(v)))


def random_su2(rng: np.random.Generator) -> MoebiusMap:
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return from_su2(a, b)


def _random_moebius(rng: np.random.Generator) -> MoebiusMap:
    return MoebiusMap(*(rng.standard_normal(4) + 1j * rng.standard_normal(4)))


def _random_point(rng: np.random.Generator) -> ExtendedComplex:
    u = rng.uniform()
    if u < 0.04:
        return INFINITY
    if u < 0.08:
        return ExtendedComplex(0.0)
    modulus = 10.0 ** rng.uniform(-6.0, 6.0)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    return ExtendedComplex(modulus * np.exp(1j * phase))


def _random_polynomial(rng: np.random.Generator, dim: int):
    """A polynomial plus the matching tolerance its roots deserve.

    A quarter of draws double one root (clusters are the hard case, matched
    at 1e-6), planted as ``state_to_polynomial`` of the state
    ``constellation_to_state`` rebuilds from the drawn stars; a quarter
    zero out leading coefficients to force roots at infinity.
    """
    style = rng.uniform()
    if style < 0.25 and dim >= 3:
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        roots = [ExtendedComplex(alpha), ExtendedComplex(alpha)]
        for _ in range(dim - 3):
            roots.append(ExtendedComplex(complex(rng.standard_normal(), rng.standard_normal())))
        state = constellation_to_state(Constellation(dim, tuple(roots)))
        return state_to_polynomial(state), 1e-6
    coeffs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if style > 0.75 and dim >= 3:
        k = int(rng.integers(1, min(3, dim - 1) + 1))
        coeffs[-k:] = 0.0
    return MajoranaPolynomial(tuple(coeffs)), _MATCH_TOL


def _random_term(rng: np.random.Generator) -> GateTerm:
    kind = list(_GATES)[int(rng.integers(len(_GATES)))]
    args = tuple(float(a) for a in rng.standard_normal(_GATES[kind][0]))
    return GateTerm(kind, args)


def _random_program(rng: np.random.Generator) -> GateProgram:
    n = int(rng.integers(1, 6))
    return GateProgram(tuple(_random_term(rng) for _ in range(n)))


# -- the property catalog ----------------------------------------------------

@dataclass(frozen=True)
class _Property:
    name: str
    run: Callable  # (rng, dim) -> (deviation, limit, payload dict)
    fixed_dim: int | None = None


def _sphere_vec(z) -> np.ndarray:
    return np.array(to_sphere(z).as_tuple())


def _prop_sphere_round_trip(rng, dim):
    z = _random_point(rng)
    dev = chordal_distance(z, to_plane(to_sphere(z)))
    return dev, 1e-12, {"point": root_to_doc(z)}


def _prop_chordal_is_euclidean(rng, dim):
    z, w = _random_point(rng), _random_point(rng)
    dev = abs(chordal_distance(z, w) - float(np.linalg.norm(_sphere_vec(z) - _sphere_vec(w))))
    return dev, 1e-12, {"point": root_to_doc(z), "other": root_to_doc(w)}


def _prop_antipodal_reflection(rng, dim):
    z = _random_point(rng)
    dev = float(np.linalg.norm(_sphere_vec(antipode(z)) + _sphere_vec(z)))
    return dev, 1e-12, {"point": root_to_doc(z)}


def _prop_antipode_involution(rng, dim):
    z = _random_point(rng)
    dev = chordal_distance(antipode(antipode(z)), z)
    return dev, 1e-14, {"point": root_to_doc(z)}


def _prop_scale_invariance(rng, dim):
    psi = random_state(rng, dim)
    scalar = (10.0 ** rng.uniform(-3.0, 3.0)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    scaled = QuditState(tuple(np.array(psi.amplitudes) * scalar))
    worst = constellation_distance(state_to_constellation(psi), state_to_constellation(scaled))
    return worst, 1e-9, {"state": state_to_doc(psi), "scalar": _pair(scalar)}


def _prop_reconstruction_fidelity(rng, dim):
    psi = random_state(rng, dim)
    back = constellation_to_state(state_to_constellation(psi))
    dev = 1.0 - projective_fidelity(psi, back)
    return dev, 1e-10, {"state": state_to_doc(psi)}


def _prop_qubit_ratio(rng, dim):
    psi = random_state(rng, dim)
    a0, a1 = psi.amplitudes
    expected = INFINITY if a1 == 0 else ExtendedComplex(a0 / a1)
    root = state_to_constellation(psi).roots[0]
    dev = chordal_distance(root, expected)
    return dev, 1e-12, {"state": state_to_doc(psi)}


def _prop_bloch_equivalence(rng, dim):
    psi = random_state(rng, dim)
    root = state_to_constellation(psi).roots[0]
    dev = float(np.linalg.norm(_sphere_vec(root) - np.array(bloch_vector(psi).as_tuple())))
    return dev, 1e-10, {"state": state_to_doc(psi)}


def _prop_orthogonal_antipodality(rng, dim):
    psi = random_state(rng, dim)
    a0, a1 = psi.amplitudes
    perp = QuditState((-a1.conjugate(), a0.conjugate()))
    dev = chordal_distance(state_to_constellation(perp).roots[0],
                           antipode(state_to_constellation(psi).roots[0]))
    return dev, 1e-10, {"state": state_to_doc(psi)}


def _prop_basis_constellations(rng, dim):
    level = int(rng.integers(dim))
    expected = Constellation(dim, tuple([ExtendedComplex(0.0)] * level
                                        + [INFINITY] * (dim - 1 - level)))
    worst = constellation_distance(state_to_constellation(basis_state(dim, level)), expected)
    return worst, 1e-12, {"state": state_to_doc(basis_state(dim, level))}


def _prop_group_laws(rng, dim):
    m1, m2, m3 = (_random_moebius(rng) for _ in range(3))
    ident = MoebiusMap(1.0, 0.0, 0.0, 1.0)
    dev = max(
        projective_distance(compose(compose(m1, m2), m3), compose(m1, compose(m2, m3))),
        projective_distance(compose(m1, inverse(m1)), ident),
        projective_distance(compose(inverse(m1), m1), ident),
    )
    return dev, 1e-12, {"map": moebius_to_doc(m1), "second": moebius_to_doc(m2)}


def _prop_central_equivariance(rng, dim):
    m = random_su2(rng)
    psi = random_state(rng, dim)
    _, worst = equivariance_trial(m, psi)
    return worst, _MATCH_TOL, {"map": moebius_to_doc(m), "state": state_to_doc(psi)}


def _prop_lift_homomorphism(rng, dim):
    m1, m2 = random_su2(rng), random_su2(rng)
    u12 = lift_to_unitary(compose(m1, m2), dim).matrix
    u1u2 = lift_to_unitary(m1, dim).matrix @ lift_to_unitary(m2, dim).matrix
    dev = phase_aligned_distance(u12, u1u2)
    return dev, 1e-9, {"map": moebius_to_doc(m1), "second": moebius_to_doc(m2)}


def _prop_qubit_lift_faithful(rng, dim):
    m = random_su2(rng)
    dev = phase_aligned_distance(lift_to_unitary(m, dim).matrix, m.matrix)
    return dev, 1e-10, {"map": moebius_to_doc(m)}


def _prop_rotation_double_cover(rng, dim):
    m1, m2 = random_su2(rng), random_su2(rng)
    r1 = to_rotation(m1).matrix
    negated = MoebiusMap(-m1.a, -m1.b, -m1.c, -m1.d)
    dev = max(
        float(np.linalg.norm(to_rotation(negated).matrix - r1)),
        float(np.linalg.norm(to_rotation(compose(m1, m2)).matrix - r1 @ to_rotation(m2).matrix)),
    )
    return dev, 1e-10, {"map": moebius_to_doc(m1), "second": moebius_to_doc(m2)}


def _prop_not_involution(rng, dim):
    u = lift_to_unitary(standard_gate("not"), dim).matrix
    dev = phase_aligned_distance(u @ u, np.eye(dim))
    return dev, 1e-9, {"dim_checked": dim}


def _prop_oracle_agreement(rng, dim):
    poly, limit = _random_polynomial(rng, dim)
    worst = constellation_distance(find_roots(poly), oracle_roots(poly))
    return worst, limit, {"state": state_to_doc(polynomial_to_state(poly))}


def _prop_root_backward_error(rng, dim):
    # The unit state the polynomial encodes against the state rebuilt from
    # its found roots, after optimal global phase: no second root finder.
    poly, _ = _random_polynomial(rng, dim)
    state = polynomial_to_state(poly)
    want = state.normalized().as_vector()
    got = constellation_to_state(find_roots(poly)).as_vector()
    dev = phase_aligned_distance(got[:, None], want[:, None])
    return dev, 1e-10, {"state": state_to_doc(state)}


def _prop_script_round_trip(rng, dim):
    program = _random_program(rng)
    dev = 0.0 if parse(render(program)) == program else 1.0
    return dev, 0.5, {"program": render(program)}


def _prop_script_compose_law(rng, dim):
    t1, t2 = _random_term(rng), _random_term(rng)
    src1 = render(GateProgram((t1,)))
    src2 = render(GateProgram((t2,)))
    combined = compile_source(f"{src1}; {src2}", allow_nonunitary=True)
    split = compose(compile_source(src2, allow_nonunitary=True),
                    compile_source(src1, allow_nonunitary=True))
    dev = projective_distance(combined, split)
    return dev, 1e-12, {"program": f"{src1}; {src2}"}


def _prop_script_error_positions(rng, dim):
    program = _random_program(rng)
    text = render(program)
    if rng.uniform() < 0.5:
        text = text.replace("; ", ";\n")
    corrupt = "(" if rng.uniform() < 0.5 else "?"
    at = int(rng.integers(0, len(text) + 1))
    broken = text[:at] + corrupt + text[at:]
    try:
        parse(broken)
    except ScriptError as err:
        lines = broken.split("\n")
        in_bounds = (1 <= err.line <= len(lines)
                     and 1 <= err.column <= len(lines[err.line - 1]) + 1)
        return (0.0 if in_bounds else 1.0), 0.5, {"program": broken}
    return 1.0, 0.5, {"program": broken}


_PROPERTIES: tuple[_Property, ...] = (
    _Property("sphere_round_trip", _prop_sphere_round_trip),
    _Property("chordal_equals_euclidean", _prop_chordal_is_euclidean),
    _Property("antipodal_reflection", _prop_antipodal_reflection),
    _Property("antipode_involution", _prop_antipode_involution),
    _Property("constellation_scale_invariance", _prop_scale_invariance),
    _Property("reconstruction_fidelity", _prop_reconstruction_fidelity),
    _Property("qubit_ratio_consistency", _prop_qubit_ratio, fixed_dim=2),
    _Property("bloch_equivalence", _prop_bloch_equivalence, fixed_dim=2),
    _Property("orthogonal_antipodality", _prop_orthogonal_antipodality, fixed_dim=2),
    _Property("basis_state_constellations", _prop_basis_constellations),
    _Property("moebius_group_laws", _prop_group_laws),
    _Property("central_equivariance", _prop_central_equivariance),
    _Property("lift_homomorphism", _prop_lift_homomorphism),
    _Property("qubit_lift_faithfulness", _prop_qubit_lift_faithful, fixed_dim=2),
    _Property("rotation_double_cover", _prop_rotation_double_cover),
    _Property("not_gate_involution", _prop_not_involution),
    _Property("root_finder_vs_oracle", _prop_oracle_agreement),
    _Property("root_backward_error", _prop_root_backward_error),
    _Property("script_render_round_trip", _prop_script_round_trip),
    _Property("script_compose_law", _prop_script_compose_law),
    _Property("script_error_positions", _prop_script_error_positions),
)


def run_suite(config: SuiteConfig) -> SuiteReport:
    """Run every property ``config.trials`` times and collect a report.

    The per-trial generator is seeded by (seed, property index, trial
    index), so the report depends only on the configuration: trials could
    run in any order, or in parallel, without changing a byte.  Dimensions
    cycle through ``config.dims`` (qubit-only properties pin dim 2).  Up to
    10 counterexamples per property are kept, serialized in the public file
    formats so they can be replayed through the CLI.
    """
    reports = []
    for prop_index, prop in enumerate(_PROPERTIES):
        passes = 0
        worst = 0.0
        examples: list[dict] = []
        for trial in range(config.trials):
            rng = np.random.default_rng((config.seed, prop_index, trial))
            dim = prop.fixed_dim or config.dims[trial % len(config.dims)]
            deviation, limit, payload = prop.run(rng, dim)
            deviation = float(deviation)
            worst = max(worst, deviation)
            if deviation <= limit:
                passes += 1
            elif len(examples) < _MAX_COUNTEREXAMPLES:
                examples.append({"trial": trial, "dim": dim,
                                 "deviation": deviation, "limit": limit, **payload})
        reports.append(PropertyReport(prop.name, config.trials, passes, worst, tuple(examples)))
    return SuiteReport(tuple(reports))
