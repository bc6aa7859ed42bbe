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
from .sphere import INFINITY, ExtendedComplex, SpherePoint, _pow2, _spinor, as_point, to_sphere

__all__ = [
    "QuditState",
    "MajoranaPolynomial",
    "Constellation",
    "basis_state",
    "state_to_polynomial",
    "polynomial_to_state",
    "find_roots",
    "state_to_constellation",
    "constellation_to_state",
    "projective_fidelity",
    "bloch_vector",
    "constellation_distance",
]

# Leading amplitudes at or below this fraction of the largest amplitude
# modulus are treated as exactly zero (roots at infinity) before root finding.
_LEADING_ZERO_REL = 1e-13


def _validated_amplitudes(amps: tuple[complex, ...], what: str) -> tuple[complex, ...]:
    """amps, at least two and all finite; the callers reject all zeros."""
    if len(amps) < 2:
        raise ValueError(f"{what} needs at least 2 entries, got {len(amps)}")
    for a in amps:
        if not (math.isfinite(a.real) and math.isfinite(a.imag)):
            raise ValueError(f"{what} entries must be finite, got {a!r}")
    return amps


@dataclass(frozen=True)
class QuditState:
    """d complex amplitudes a_0..a_{d-1}; not necessarily normalized.

    Projective downstream, so any nonzero finite scale is admissible: functions
    take the state at unit scale (``_unit_scaled``); ``norm`` alone is inf, when
    it exceeds ~1.8e308.  ``constellation_to_state`` returns the unit-norm member.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self):
        amps = _validated_amplitudes(tuple(map(complex, self.amplitudes)), "QuditState")
        if not any(amps):  # exact, where a modulus could overflow
            raise ValueError("QuditState must not be all zero")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    @property
    def norm(self) -> float:
        unit, s = _unit_scaled(self)
        return math.sqrt(sum(r * r for r in map(abs, unit.amplitudes))) / s

    def as_vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)

    def normalized(self) -> "QuditState":
        unit, _ = _unit_scaled(self)
        n = unit.norm
        return QuditState(tuple(a / n for a in unit.amplitudes))


def _unit_scaled(state: QuditState) -> tuple[QuditState, float]:
    """(s state, s), s = ``_pow2`` of its largest real or imaginary part;
    the state itself when s is 1."""
    amps = state.amplitudes
    s = _pow2(max([abs(a.real) for a in amps] + [abs(a.imag) for a in amps]))
    if s == 1.0:
        return state, s
    return QuditState(tuple(complex(a.real * s, a.imag * s) for a in amps)), s


@dataclass(frozen=True)
class MajoranaPolynomial:
    """Coefficients c_0..c_{d-1} of p(z) = sum c_mu z^mu (low to high)."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(map(complex, self.coefficients))
        if coeffs and not any(coeffs):
            raise ZeroPolynomial("all coefficients are zero")
        object.__setattr__(self, "coefficients",
                           _validated_amplitudes(coeffs, "MajoranaPolynomial"))

    @property
    def dim(self) -> int:
        return len(self.coefficients)

    def as_vector(self) -> np.ndarray:
        return np.array(self.coefficients, dtype=complex)


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
def _weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The weights (-1)^mu sqrt(C(n, mu)), mu = 0..n, as (sign, modulus).

    The modulus comes by incremental products of ratios and never forms
    factorials, so there is no overflow for large n; it is the diagonal of
    D = diag sqrt(C(n, mu)).  The encodings multiply by sign and modulus as
    two exact factors: one complex product with the signed weight would give
    zero amplitudes other signs of zero ("-0" for "0" in state and
    constellation files).  Cached per n and read-only, since every caller
    shares both arrays.
    """
    mod = np.empty(n + 1)
    mod[0] = 1.0
    for mu in range(n):
        mod[mu + 1] = mod[mu] * math.sqrt((n - mu) / (mu + 1))
    sign = np.resize((1.0, -1.0), n + 1)
    sign.flags.writeable = mod.flags.writeable = False
    return sign, mod


def state_to_polynomial(state: QuditState) -> MajoranaPolynomial:
    """c_mu = a_mu * (-1)^mu * sqrt(C(n, mu)), n = dim - 1."""
    sign, mod = _weights(state.dim - 1)
    return MajoranaPolynomial(tuple((state.as_vector() * sign * mod).tolist()))


def _amplitudes(coeffs: np.ndarray) -> np.ndarray:
    """a_mu = c_mu * (-1)^mu / sqrt(C(n, mu)): the encoding undone."""
    sign, mod = _weights(len(coeffs) - 1)
    return coeffs * sign / mod


def polynomial_to_state(poly: MajoranaPolynomial) -> QuditState:
    """Exact inverse of ``state_to_polynomial`` (no normalization applied)."""
    return QuditState(tuple(_amplitudes(poly.as_vector()).tolist()))


def _companion_roots(coeffs: np.ndarray) -> list[complex]:
    """Finite roots via eigenvalues of the companion matrix (LAPACK path)."""
    m = len(coeffs) - 1
    if m == 0:
        return []
    if m == 1:
        return [complex(-coeffs[0] / coeffs[1])]
    comp = np.eye(m, k=-1, dtype=complex)
    comp[:, -1] -= np.asarray(coeffs[:-1], dtype=complex) / coeffs[-1]
    return np.linalg.eigvals(comp).tolist()


def _effective_degree(coeffs: np.ndarray) -> int:
    """Index of the highest coefficient that counts as nonzero.

    The cut is made in amplitude units, |c_mu| / sqrt(C(n, mu)) = |a_mu|:
    leading amplitudes within 1e-13 (relative to the largest) of zero are
    degeneracies encoding roots at infinity, not tiny numbers.  Raw
    coefficients would not do, since at large d the middle weights exceed
    the end ones by ~2^(n/2) and real leading amplitudes would read as zero.
    """
    mags = (np.abs(coeffs) / _weights(len(coeffs) - 1)[1]).tolist()
    top = max(mags)
    if top == 0.0:  # a zero polynomial is rejected on construction
        raise ZeroPolynomial("every amplitude |c_mu| / sqrt(C(n, mu)) underflows to zero; "
                             "rescale the coefficients first")
    threshold = _LEADING_ZERO_REL * top
    deg = len(mags) - 1
    while deg > 0 and mags[deg] <= threshold:  # stops at or above the argmax
        deg -= 1
    return deg


def _sort_key(root: ExtendedComplex):
    """South pole to north pole: by modulus, then (re, im); infinity last."""
    if root.is_infinite:
        return (math.inf, 0.0, 0.0)
    z = root.value
    return (abs(z * 0.5), z.real, z.imag)  # |z| may overflow, |z/2| cannot


def _finite_roots(coeffs: np.ndarray) -> list[complex]:
    """Roots of the degree-reduced polynomial (leading zeros already cut)."""
    # Exact trailing zeros are roots at the origin; deflating them is exact.
    k0 = 0
    while k0 < len(coeffs) - 1 and coeffs[k0] == 0:
        k0 += 1
    return [0j] * k0 + _companion_roots(coeffs[k0:])


def _constellation(dim: int, finite: list[complex]) -> Constellation:
    """The finite roots plus infinities up to dim - 1, in ``_sort_key`` order."""
    roots = [ExtendedComplex(r) for r in finite] + [INFINITY] * (dim - 1 - len(finite))
    roots.sort(key=_sort_key)
    return Constellation(dim, tuple(roots))


def find_roots(poly: MajoranaPolynomial) -> Constellation:
    """The d - 1 roots of the polynomial, including roots at infinity.

    (d - 1) - deg(p) roots sit at infinity, one per leading amplitude that
    reads as zero, and exact trailing zeros give exact roots at 0.  The
    other finite roots are the eigenvalues of the companion matrix (LAPACK's
    balanced QR iteration, normwise backward stable).  Output order is
    deterministic, south pole to north pole: finite roots by (|z|, re, im),
    infinities last; the meaning is a multiset.
    """
    # Roots ignore scale; at unit scale no modulus or quotient overflows.
    coeffs = poly.as_vector()
    parts = coeffs.view(float)
    s = _pow2(np.abs(parts).max())
    if s != 1.0:
        coeffs = (parts * s).view(complex)
    return _constellation(poly.dim, _finite_roots(coeffs[: _effective_degree(coeffs) + 1]))


def state_to_constellation(state: QuditState) -> Constellation:
    return find_roots(state_to_polynomial(_unit_scaled(state)[0]))


def _unit_phase(v: np.ndarray) -> complex:
    """The unit factor that makes v's first entry above 1e-12 times its
    largest modulus real positive: the global-phase convention of
    ``constellation_to_state`` and, on column 0, of ``lift_to_unitary``."""
    mags = np.abs(v).tolist()
    cut = 1e-12 * max(mags)
    lead = v[next(k for k, r in enumerate(mags) if r > cut)]
    return lead.conjugate() / abs(lead)


def constellation_to_state(constellation: Constellation) -> QuditState:
    """Reconstruct the canonical (unit-norm, phase-fixed) state of a
    constellation; inverse of ``state_to_constellation`` up to overall scale.

    Multiplies the stars' spinor factors (v z - u) in ``_sort_key`` order (a
    star at infinity is the constant -1), whatever the input order: at large
    d some orders, such as by real part, lose the expansion to rounding, and
    this one keeps it accurate.  |coefficient mu| <= C(n, mu), so only d
    past ~1000 overflows."""
    coeffs = np.ones(1, dtype=complex)
    for root in sorted(constellation.roots, key=_sort_key):
        u, v = _spinor(root)
        coeffs = np.convolve(coeffs, np.array([-u, v], dtype=complex))
    if not np.isfinite(coeffs).all():
        raise ValueError(f"expanding this {constellation.dim}-level constellation "
                         "overflows double precision")
    amps = _amplitudes(coeffs)
    # An exact power-of-two division first: no square in the norm underflows.
    amps = amps / (1.0 / _pow2(np.abs(amps).max()))
    amps = amps / np.linalg.norm(amps)
    return QuditState(tuple((amps * _unit_phase(amps)).tolist()))


def projective_fidelity(psi: QuditState, chi: QuditState) -> float:
    """|<psi|chi>| / (|psi| |chi|): 1 iff the states agree up to scale."""
    if psi.dim != chi.dim:
        raise DimensionMismatch(f"dims {psi.dim} and {chi.dim} differ")
    a, b = _unit_scaled(psi)[0].as_vector(), _unit_scaled(chi)[0].as_vector()
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
    a0, a1 = _unit_scaled(state)[0].amplitudes
    r0, r1 = abs(a0), abs(a1)
    n2 = r0 * r0 + r1 * r1
    cross = a0.conjugate() * a1
    return SpherePoint(2.0 * cross.real / n2, 2.0 * cross.imag / n2,
                       (r0 * r0 - r1 * r1) / n2)


def _spinor_arrays(points):
    """The points' spinors (u, v) as two arrays, and hypot(v, |u|) per point."""
    spinors = [_spinor(z) for z in points]
    return (np.array([u for u, _ in spinors], dtype=complex), np.array([v for _, v in spinors]),
            np.array([math.hypot(v, abs(u)) for u, v in spinors]))


def _chordal_matrix(p, q) -> np.ndarray:
    """chordal_distance(p[i], q[j]) for every pair, bitwise.

    The same operations on the same spinors: a t - b s by separately rounded
    real products (numpy's complex multiply rounds otherwise), its modulus
    by hypot, then the two per-point hypots in ``chordal_distance``'s order.
    """
    (a, s, h1), (b, t, h2) = _spinor_arrays(p), _spinor_arrays(q)
    re = np.multiply.outer(a.real, t) - np.multiply.outer(s, b.real)
    im = np.multiply.outer(a.imag, t) - np.multiply.outer(s, b.imag)
    return 2.0 * (np.hypot(re, im) / h1[:, None]) / h2


def _assignment(cost: np.ndarray) -> np.ndarray:
    """The column of each row in a minimum-sum perfect matching of a square
    cost matrix, by shortest augmenting paths (Jonker & Volgenant 1987, as
    restated by Crouse 2016): optimal, not approximate.

    Each row first takes its nearest column unless an earlier row took it;
    the row minima and zero column duals are feasible and tight on those
    pairs, so the start is optimal for the rows it places.  Every row left
    then gets a Dijkstra search over reduced costs to a free column, one
    numpy step per path edge, and the path is flipped along its edges.
    """
    n = len(cost)
    u, v = cost.min(axis=1), np.zeros(n)
    nearest = cost.argmin(axis=1)
    cols, rows = np.unique(nearest, return_index=True)
    col4row, row4col = np.full(n, -1), np.full(n, -1)
    col4row[rows], row4col[cols] = cols, rows
    for start in np.flatnonzero(col4row < 0):
        dist, path = np.full(n, np.inf), np.empty(n, dtype=int)
        scanned = np.zeros(n, dtype=bool)
        i, low = start, 0.0
        while True:
            reduced = low + cost[i] - u[i] - v
            closer = (reduced < dist) & ~scanned
            dist[closer], path[closer] = reduced[closer], i
            # The nearest unscanned column; on a tie, a free one ends the path.
            open_dist = np.where(scanned, np.inf, dist)
            low = open_dist.min()
            ties = np.flatnonzero(open_dist == low)
            free = ties[row4col[ties] < 0]
            j = free[0] if len(free) else ties[0]
            scanned[j] = True
            if row4col[j] < 0:
                break
            i = row4col[j]
        # Duals stay feasible and tight on the matched pairs and the path.
        done = np.flatnonzero(scanned)
        v[done] -= low - dist[done]
        u[start] += low
        inner = done[done != j]
        u[row4col[inner]] += low - dist[inner]
        while True:  # flip the path back from the free column j to the start
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == start:
                break
    return col4row


def constellation_distance(c1: Constellation, c2: Constellation) -> float:
    """The largest chordal distance in a minimum-sum pairing of the roots.

    ``_assignment`` minimises the sum of the chordal distances, not their
    maximum, so this is not a bottleneck distance.  Optimal, not greedy: near
    multiple roots a greedy pairing can cross the cluster and overstate it.
    """
    if c1.dim != c2.dim:
        raise DimensionMismatch(f"dims {c1.dim} and {c2.dim} differ")
    cost = _chordal_matrix(c1.roots, c2.roots)
    return float(cost[np.arange(len(cost)), _assignment(cost)].max())
