"""State <-> polynomial <-> constellation pipeline for d-level systems.

A d-level state with amplitudes a_0..a_{d-1} is encoded as the polynomial

    p(z) = sum_mu a_mu * (-1)^mu * sqrt(C(n, mu)) * z^mu,      n = d - 1,

whose n roots (counting roots at infinity when leading coefficients vanish)
are the d - 1 points of the constellation on the Riemann sphere.  The root
multiset is invariant under rescaling the state by any nonzero complex
number, so the constellation represents the projective state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, WrongDimension, ZeroPolynomial
from .sphere import (INFINITY, ExtendedComplex, SpherePoint, _spinor, as_point, chordal_distance,
                     to_sphere)

__all__ = [
    "QuditState",
    "MajoranaPolynomial",
    "Constellation",
    "basis_state",
    "state_to_polynomial",
    "polynomial_to_state",
    "find_roots",
    "expand_roots",
    "state_to_constellation",
    "constellation_to_state",
    "projective_fidelity",
    "bloch_vector",
    "constellation_match",
    "constellation_pairing",
]

# Leading amplitudes at or below this fraction of the largest amplitude
# modulus are treated as exactly zero (roots at infinity) before root finding.
_LEADING_ZERO_REL = 1e-13


def _validated_amplitudes(values, what: str) -> tuple[complex, ...]:
    amps = tuple(complex(a) for a in values)
    if len(amps) < 2:
        raise ValueError(f"{what} needs at least 2 entries, got {len(amps)}")
    for a in amps:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"{what} entries must be finite, got {a!r}")
    if max(abs(a) for a in amps) == 0.0:
        raise ValueError(f"{what} must not be all zero")
    return amps


@dataclass(frozen=True)
class QuditState:
    """d complex amplitudes a_0..a_{d-1}; not necessarily normalized.

    The representation downstream is projective, so any nonzero overall
    scale is admissible; ``constellation_to_state`` always returns the
    canonical unit-norm member of the ray.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "amplitudes",
                           _validated_amplitudes(self.amplitudes, "QuditState"))

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @property
    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes))

    def as_vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def normalized(self) -> "QuditState":
        n = self.norm
        return QuditState(tuple(a / n for a in self.amplitudes))


@dataclass(frozen=True)
class MajoranaPolynomial:
    """Coefficients c_0..c_{d-1} of p(z) = sum c_mu z^mu (low to high)."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if coeffs and max(abs(c) for c in coeffs) == 0.0:
            raise ZeroPolynomial("all coefficients are zero")
        object.__setattr__(self, "coefficients",
                           _validated_amplitudes(coeffs, "MajoranaPolynomial"))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def as_vector(self) -> np.ndarray:
        return np.array(self.coefficients, dtype=complex)

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc


@dataclass(frozen=True)
class Constellation:
    """Multiset of exactly dim - 1 points on the Riemann sphere."""

    dim: int
    roots: tuple[ExtendedComplex, ...]

    def __post_init__(self):
        d = int(self.dim)
        if d < 2:
            raise ValueError(f"Constellation dim must be >= 2, got {d}")
        roots = tuple(as_point(r) for r in self.roots)
        if len(roots) != d - 1:
            raise ValueError(f"expected {d - 1} roots for dim {d}, got {len(roots)}")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "roots", roots)

    def sphere_points(self) -> tuple[SpherePoint, ...]:
        return tuple(to_sphere(r) for r in self.roots)


def basis_state(dim: int, level: int) -> QuditState:
    """The computational basis state |level> of a d-level system."""
    if not 0 <= level < dim:
        raise ValueError(f"level {level} outside 0..{dim - 1}")
    amps = [0j] * dim
    amps[level] = 1.0 + 0j
    return QuditState(tuple(amps))


@functools.lru_cache(maxsize=64)
def _signed_weights(n: int) -> np.ndarray:
    """(-1)^mu sqrt(C(n, mu)) for mu = 0..n, by incremental products of ratios.

    Never forms factorials, so there is no overflow for large n.  The
    encodings multiply by a weight's sign and modulus as two exact factors:
    one complex product with the signed weight would give zero amplitudes
    other signs of zero ("-0" for "0" in state and constellation files).
    Cached per n and read-only, since every caller shares the array.
    """
    w = np.empty(n + 1)
    w[0] = 1.0
    for mu in range(n):
        w[mu + 1] = -w[mu] * math.sqrt((n - mu) / (mu + 1))
    w.flags.writeable = False
    return w


def state_to_polynomial(state: QuditState) -> MajoranaPolynomial:
    """c_mu = a_mu * (-1)^mu * sqrt(C(n, mu)), n = dim - 1."""
    w = _signed_weights(state.dim - 1)
    return MajoranaPolynomial(tuple(state.as_vector() * np.sign(w) * np.abs(w)))


def polynomial_to_state(poly: MajoranaPolynomial) -> QuditState:
    """Exact inverse of ``state_to_polynomial`` (no normalization applied)."""
    w = _signed_weights(poly.dim - 1)
    return QuditState(tuple(poly.as_vector() * np.sign(w) / np.abs(w)))


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Finite roots via eigenvalues of the companion matrix (LAPACK path)."""
    m = len(coeffs) - 1
    if m == 0:
        return np.empty(0, dtype=complex)
    if m == 1:
        return np.array([-coeffs[0] / coeffs[1]])
    comp = np.eye(m, k=-1, dtype=complex)
    comp[:, -1] -= np.asarray(coeffs[:-1], dtype=complex) / coeffs[-1]
    return np.linalg.eigvals(comp)


def _effective_degree(coeffs: np.ndarray) -> int:
    """Index of the highest coefficient that counts as nonzero.

    The cut is made in amplitude units, |c_mu| / sqrt(C(n, mu)) = |a_mu|:
    leading amplitudes within 1e-13 (relative to the largest) of zero are
    degeneracies encoding roots at infinity, not tiny numbers.  Raw
    coefficients would not do, since at large d the middle weights exceed
    the end ones by ~2^(n/2) and real leading amplitudes would read as zero.
    """
    mags = np.abs(coeffs) / np.abs(_signed_weights(len(coeffs) - 1))
    top = mags.max()
    if top == 0.0:
        raise ZeroPolynomial("all coefficients are zero")
    threshold = _LEADING_ZERO_REL * top
    deg = len(coeffs) - 1
    while deg > 0 and mags[deg] <= threshold:
        deg -= 1
    if mags[deg] <= threshold:
        raise ZeroPolynomial("all coefficients are below the zero threshold")
    return deg


def _sort_key(root: ExtendedComplex):
    """South pole to north pole: by modulus, then (re, im); infinity last."""
    if root.is_infinite:
        return (math.inf, 0.0, 0.0)
    z = root.value
    return (abs(z), z.real, z.imag)


def _finite_roots(coeffs: np.ndarray) -> list[complex]:
    """Roots of the degree-reduced polynomial (leading zeros already cut)."""
    # Exact trailing zeros are roots at the origin; deflating them is exact.
    k0 = 0
    while k0 < len(coeffs) - 1 and coeffs[k0] == 0:
        k0 += 1
    return [0j] * k0 + list(_companion_roots(coeffs[k0:]))


def find_roots(poly: MajoranaPolynomial) -> Constellation:
    """The d - 1 roots of the polynomial, including roots at infinity.

    (d - 1) - deg(p) roots sit at infinity, one per leading amplitude that
    reads as zero, and exact trailing zeros give exact roots at 0.  The
    other finite roots are the eigenvalues of the companion matrix (LAPACK's
    balanced QR iteration, normwise backward stable).  Output order is
    deterministic, south pole to north pole: finite roots by (|z|, re, im),
    infinities last; the meaning is a multiset.
    """
    coeffs = poly.as_vector()
    deg = _effective_degree(coeffs)
    n_infinite = (poly.dim - 1) - deg
    finite = _finite_roots(coeffs[: deg + 1]) if deg > 0 else []
    roots = [ExtendedComplex(r) for r in finite] + [INFINITY] * n_infinite
    roots.sort(key=_sort_key)
    return Constellation(poly.dim, tuple(roots))


def expand_roots(constellation: Constellation, scale: complex) -> MajoranaPolynomial:
    """scale * prod over finite roots (z - alpha), padded with zero leading
    coefficients so roots at infinity are re-encoded as degree deficits.

    The factors are multiplied in ``_sort_key`` order (smallest modulus
    first) whatever the input order: at large d some orders, such as by
    real part, lose the expansion to rounding, and this one keeps it
    accurate.
    """
    scale = complex(scale)
    if scale == 0:
        raise ValueError("scale must be nonzero")
    coeffs = np.array([scale], dtype=complex)
    for root in sorted(constellation.roots, key=_sort_key):
        if not root.is_infinite:
            coeffs = np.convolve(coeffs, np.array([-root.value, 1.0], dtype=complex))
    if not np.isfinite(coeffs).all():
        raise ValueError(f"expanding this {constellation.dim}-level constellation "
                         "overflows double precision")
    padded = np.zeros(constellation.dim, dtype=complex)
    padded[: len(coeffs)] = coeffs
    return MajoranaPolynomial(tuple(padded))


def state_to_constellation(state: QuditState) -> Constellation:
    return find_roots(state_to_polynomial(state))


def _unit_phase(v: np.ndarray) -> complex:
    """The unit factor that makes v's first entry above 1e-12 times its
    largest modulus real positive: the global-phase convention of
    ``constellation_to_state`` and, on column 0, of ``lift_to_unitary``."""
    significant = np.flatnonzero(np.abs(v) > 1e-12 * np.abs(v).max())
    lead = v[significant[0]]
    return lead.conjugate() / abs(lead)


def constellation_to_state(constellation: Constellation) -> QuditState:
    """Reconstruct the canonical (unit-norm, phase-fixed) state of a
    constellation; inverse of ``state_to_constellation`` up to overall scale.

    Multiplies the stars' spinor factors (v z - u) in ``_sort_key`` order (a
    star at infinity is the constant -1): |coefficient mu| <= C(n, mu), so
    only d past ~1000 overflows."""
    coeffs = np.ones(1, dtype=complex)
    for root in sorted(constellation.roots, key=_sort_key):
        u, v = _spinor(root)
        coeffs = np.convolve(coeffs, np.array([-u, v], dtype=complex))
    if not np.isfinite(coeffs).all():
        raise ValueError(f"expanding this {constellation.dim}-level constellation "
                         "overflows double precision")
    w = _signed_weights(constellation.dim - 1)
    amps = coeffs * np.sign(w) / np.abs(w)
    # Scale by the power of two at the largest modulus first: exact, and the
    # squares inside the norm can no longer underflow.
    amps = amps / 2.0 ** math.frexp(np.abs(amps).max())[1]
    amps = amps / np.linalg.norm(amps)
    return QuditState(tuple(amps * _unit_phase(amps)))


def projective_fidelity(psi: QuditState, chi: QuditState) -> float:
    """|<psi|chi>| / (|psi| |chi|): 1 iff the states agree up to scale."""
    if psi.dim != chi.dim:
        raise DimensionMismatch(f"dims {psi.dim} and {chi.dim} differ")
    a, b = psi.as_vector(), chi.as_vector()
    return abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def bloch_vector(state: QuditState) -> SpherePoint:
    """The Bloch vector of a 2-level state, straight from the amplitudes.

    Equivalent to (sin(phi) cos(theta), sin(phi) sin(theta), cos(phi)) for
    the polar parametrization cos(phi/2) = |a0|/|psi|,
    theta = arg(a1) - arg(a0), but computed via expectation values so no
    inverse trigonometry is involved.
    """
    if state.dim != 2:
        raise WrongDimension(f"bloch_vector needs dim 2, got {state.dim}")
    a0, a1 = state.amplitudes
    n2 = abs(a0) ** 2 + abs(a1) ** 2
    cross = a0.conjugate() * a1
    return SpherePoint(2.0 * cross.real / n2, 2.0 * cross.imag / n2,
                       (abs(a0) ** 2 - abs(a1) ** 2) / n2)


def constellation_pairing(c1: Constellation, c2: Constellation):
    """Minimum-cost perfect matching between the two root multisets.

    Returns (pairs, worst) where pairs is a list of (index_in_c1,
    index_in_c2, chordal_distance) and worst is the largest matched
    distance.  Optimal assignment, not greedy: near multiple roots a greedy
    pairing can cross the cluster and overstate the distance.
    """
    # Deferred: scipy.optimize takes longer to import than a CLI call needs.
    from scipy.optimize import linear_sum_assignment

    if c1.dim != c2.dim:
        raise DimensionMismatch(f"dims {c1.dim} and {c2.dim} differ")
    cost = np.array([[chordal_distance(a, b) for b in c2.roots] for a in c1.roots])
    rows, cols = linear_sum_assignment(cost)
    pairs = [(int(i), int(j), float(cost[i, j])) for i, j in zip(rows, cols)]
    worst = max(d for _, _, d in pairs)
    return pairs, worst


def constellation_match(c1: Constellation, c2: Constellation, tol: float) -> bool:
    """True iff an optimal pairing matches every root within chordal tol."""
    _, worst = constellation_pairing(c1, c2)
    return worst <= tol
