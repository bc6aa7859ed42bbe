"""Extended complex plane, unit sphere, and the stereographic bridge.

The plane-to-sphere map used everywhere in this package is

    pi(z) = (2 Re z, -2 Im z, |z|^2 - 1) / (|z|^2 + 1),     pi(inf) = (0, 0, 1)

i.e. the conjugated orientation, chosen so that for a qubit the single
Majorana point lands exactly on the Bloch vector (see ``majorana.bloch_vector``
and the tests pinning that correspondence).  The chordal metric below is the
Euclidean distance between sphere images and is the uniform tolerance metric
for everything in C u {inf}.

``_pow2`` is the one (exact) scale rule for points, maps and amplitude vectors,
and ``_spinor`` the one place that handles infinity: the point functions here,
Moebius transport and reconstruction compute on its spinors (u, v), z = u/v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotOnSphere

__all__ = [
    "ExtendedComplex",
    "INFINITY",
    "SpherePoint",
    "as_point",
    "to_sphere",
    "to_plane",
    "antipode",
    "chordal_distance",
]

# |v| may deviate from 1 by this much before construction is rejected;
# accepts accumulated floating drift from products of rotations.
_SPHERE_NORM_TOL = 1e-9
# Distance from the north pole below which to_plane answers infinity.
_POLE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class ExtendedComplex:
    """A point of C u {inf}: either a finite complex value or infinity.

    ``value`` is the finite complex number, or ``None`` for the point at
    infinity.  NaN components are rejected; infinite components collapse to
    the (single) point at infinity.  Use the module constant ``INFINITY``
    rather than spelling ``ExtendedComplex(None)``.
    """

    value: complex | None = None

    def __post_init__(self):
        v = self.value
        if v is None:
            return
        v = complex(v)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            if math.isnan(v.real) or math.isnan(v.imag):
                raise ValueError("ExtendedComplex rejects NaN components")
            v = None
        object.__setattr__(self, "value", v)

    @property
    def is_infinite(self) -> bool:
        return self.value is None

    @property
    def finite(self) -> complex:
        """The finite complex value; raises on the point at infinity."""
        if self.value is None:
            raise ValueError("point at infinity has no finite value")
        return self.value

    def __complex__(self) -> complex:
        return self.finite

    def __repr__(self) -> str:
        if self.value is None:
            return "ExtendedComplex(infinity)"
        return f"ExtendedComplex({self.value!r})"


INFINITY = ExtendedComplex(None)


def as_point(z) -> ExtendedComplex:
    """Coerce a complex number (or ExtendedComplex) to an ExtendedComplex."""
    if isinstance(z, ExtendedComplex):
        return z
    return ExtendedComplex(complex(z))


@dataclass(frozen=True, slots=True)
class SpherePoint:
    """A point on the unit sphere.

    Construction renormalizes (x, y, z) to exact unit length, rejecting
    inputs whose norm deviates from 1 by more than 1e-9 with ``NotOnSphere``.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        x, y, z = float(self.x), float(self.y), float(self.z)
        norm = math.sqrt(x * x + y * y + z * z)
        if not math.isfinite(norm) or abs(norm - 1.0) > _SPHERE_NORM_TOL:
            raise NotOnSphere(f"|({x}, {y}, {z})| = {norm!r} is not 1 within {_SPHERE_NORM_TOL}")
        object.__setattr__(self, "x", x / norm)
        object.__setattr__(self, "y", y / norm)
        object.__setattr__(self, "z", z / norm)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def __neg__(self) -> "SpherePoint":
        return SpherePoint(-self.x, -self.y, -self.z)


def _pow2(x: float) -> float:
    """The power of two that takes x > 0 into [1/2, 1), capped at 2^1023; 1 at 0."""
    return math.ldexp(1.0, min(1023, -math.frexp(x)[1]))


def _spinor(z) -> tuple[complex, float]:
    """(z, 1) times ``_pow2(|z|)`` where |z| >= 1, and (1, 0) at infinity.

    Formulas on (u, v) round as on (z, 1), and max(|u|, |v|) in [1/2, 1] keeps
    their products in range; |z| is read as 2|z/2|, which cannot overflow."""
    z = as_point(z).value
    if z is None:
        return 1.0, 0.0
    r = abs(z * 0.5)  # halving is exact for every part that can change |z|
    if r < 0.5:
        return z, 1.0
    s = 0.5 * _pow2(r)
    return z * s, s


def _point(u: complex, v: complex) -> ExtendedComplex:
    """The point u/v of a spinor; infinity when v is zero."""
    return INFINITY if v == 0 else ExtendedComplex(u / v)


def to_sphere(z) -> SpherePoint:
    """Stereographic image of a point of C u {inf} on the unit sphere.

    The origin maps to the south pole (0, 0, -1), the unit circle to the
    equator, and infinity to the north pole (0, 0, 1).  Total function.
    """
    u, v = _spinor(z)
    r = abs(u)
    denom = r * r + v * v
    return SpherePoint(2.0 * u.real * v / denom, -2.0 * u.imag * v / denom,
                       (r * r - v * v) / denom)


def to_plane(v: SpherePoint) -> ExtendedComplex:
    """Inverse stereographic projection; exact inverse of ``to_sphere``.

    Points within 1e-12 of the north pole map to infinity.  ``SpherePoint``
    construction already renormalizes and raises ``NotOnSphere`` for vectors
    off the sphere by more than 1e-9.
    """
    x, y, z = v.x, v.y, v.z
    if math.sqrt(x * x + y * y + (z - 1.0) * (z - 1.0)) <= _POLE_TOL:
        return INFINITY
    if z > 0.0:
        # (x - iy)/(1 - z) == (1 + z)/(x + iy) on the sphere; the second form
        # stays accurate near the pole where 1 - z cancels.
        return ExtendedComplex((1.0 + z) / complex(x, y))
    return ExtendedComplex(complex(x, -y) / (1.0 - z))


def antipode(z) -> ExtendedComplex:
    """The diametrically opposite point: z -> -1/conj(z), swapping 0 and inf."""
    u, v = _spinor(z)
    return _point(-v, u.conjugate())


def chordal_distance(z, w) -> float:
    """Chordal metric on C u {inf}: Euclidean distance between sphere images.

    2|z - w| / sqrt((1 + |z|^2)(1 + |w|^2)) for finite arguments; range [0, 2]
    with antipodal points at distance 2.
    """
    (a, s), (b, t) = _spinor(z), _spinor(w)
    return 2.0 * (abs(a * t - b * s) / math.hypot(s, abs(a))) / math.hypot(t, abs(b))
