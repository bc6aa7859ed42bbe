import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditstars.errors import NotOnSphere
from quditstars.sphere import (
    INFINITY,
    ExtendedComplex,
    SpherePoint,
    antipode,
    as_point,
    chordal_distance,
    to_plane,
    to_sphere,
)


def vec(p: SpherePoint) -> np.ndarray:
    return np.array(p.as_tuple())


finite_points = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                   allow_subnormal=False, max_magnitude=1e6)
any_points = st.one_of(finite_points.map(ExtendedComplex), st.just(INFINITY))


class TestExtendedComplex:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ExtendedComplex(complex(float("nan"), 0.0))
        with pytest.raises(ValueError):
            ExtendedComplex(complex(0.0, float("nan")))

    def test_infinite_component_collapses_to_infinity(self):
        assert ExtendedComplex(complex(float("inf"), 1.0)).is_infinite

    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0.0, np.inf),
                                       complex(1.0, -np.inf), complex(np.inf, -np.inf)])
    def test_infinity_is_the_point_at_infinity(self, value):
        assert ExtendedComplex(value) == INFINITY

    def test_nan_beside_infinity_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ExtendedComplex(complex(np.inf, np.nan))

    def test_exactly_one_branch(self):
        z = ExtendedComplex(1 + 2j)
        assert not z.is_infinite
        assert z.value == 1 + 2j
        assert INFINITY.is_infinite
        assert INFINITY.value is None

    def test_complex_and_repr(self):
        assert repr(ExtendedComplex(1 + 2j)) == "ExtendedComplex((1+2j))"
        assert repr(INFINITY) == "ExtendedComplex(infinity)"

    def test_as_point_coerces_numbers(self):
        assert as_point(2).value == 2 + 0j
        assert as_point(INFINITY) is INFINITY


class TestSpherePoint:
    def test_renormalizes(self):
        p = SpherePoint(0.0, 0.0, 1.0 + 5e-10)
        assert p.z == 1.0

    def test_rejects_off_sphere(self):
        with pytest.raises(NotOnSphere):
            SpherePoint(0.0, 0.0, 1.1)
        with pytest.raises(NotOnSphere):
            SpherePoint(0.0, 0.0, 0.0)


class TestToSphere:
    def test_origin_is_south_pole(self):
        assert vec(to_sphere(0)) == pytest.approx([0.0, 0.0, -1.0], abs=0)

    def test_infinity_is_north_pole(self):
        assert vec(to_sphere(INFINITY)) == pytest.approx([0.0, 0.0, 1.0], abs=0)

    def test_one_on_equator(self):
        assert vec(to_sphere(1)) == pytest.approx([1.0, 0.0, 0.0], abs=0)

    def test_i_maps_with_conjugated_orientation(self):
        assert vec(to_sphere(1j)) == pytest.approx([0.0, -1.0, 0.0], abs=0)

    def test_huge_modulus_does_not_overflow(self):
        p = to_sphere(1e200 + 0j)
        assert p.z == pytest.approx(1.0, abs=1e-12)


class TestToPlane:
    def test_south_pole(self):
        assert to_plane(SpherePoint(0, 0, -1)).value == 0

    def test_north_pole(self):
        assert to_plane(SpherePoint(0, 0, 1)).is_infinite

    def test_equator_x(self):
        assert to_plane(SpherePoint(1, 0, 0)).value == pytest.approx(1 + 0j)


class TestAntipode:
    def test_poles_swap_exactly(self):
        assert antipode(0).is_infinite
        assert antipode(INFINITY).value == 0

    def test_examples(self):
        assert antipode(1).value == -1
        assert antipode(1j).value == -1j

    def test_involution_exact_on_poles(self):
        assert antipode(antipode(0)).value == 0
        assert antipode(antipode(INFINITY)).is_infinite


class TestChordal:
    def test_poles_are_antipodal(self):
        assert chordal_distance(0, INFINITY) == pytest.approx(2.0, abs=1e-15)

    def test_plus_minus_one(self):
        assert chordal_distance(1, -1) == pytest.approx(2.0, abs=1e-12)

    def test_identity(self):
        assert chordal_distance(3 - 4j, 3 - 4j) == 0.0
        assert chordal_distance(INFINITY, INFINITY) == 0.0

    def test_range(self):
        assert 0.0 <= chordal_distance(5, INFINITY) <= 2.0


@given(any_points)
@settings(max_examples=300)
def test_round_trip(z):
    assert chordal_distance(z, to_plane(to_sphere(z))) <= 1e-12


@given(any_points, any_points)
@settings(max_examples=300)
def test_chordal_matches_euclidean_on_sphere(z, w):
    euclid = float(np.linalg.norm(vec(to_sphere(z)) - vec(to_sphere(w))))
    assert abs(chordal_distance(z, w) - euclid) <= 1e-12


@given(any_points)
@settings(max_examples=300)
def test_antipode_projects_to_negation(z):
    assert np.linalg.norm(vec(to_sphere(antipode(z))) + vec(to_sphere(z))) <= 1e-12


@given(finite_points)
@settings(max_examples=300)
def test_antipode_involution(z):
    assert chordal_distance(antipode(antipode(ExtendedComplex(z))), z) <= 1e-14


def test_round_trip_near_north_pole_stays_accurate():
    # 1 - z cancels badly here; the inversion switches formulas to cope.
    z = ExtendedComplex(1e8 + 3e7j)
    assert chordal_distance(z, to_plane(to_sphere(z))) <= 1e-12


def test_sphere_norm_invariant():
    for z in (0, 1j, 5 - 2j, 1e-7, INFINITY):
        p = to_sphere(z)
        assert abs(p.x**2 + p.y**2 + p.z**2 - 1.0) <= 1e-12
