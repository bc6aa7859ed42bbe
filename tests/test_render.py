import pytest

from quditstars.majorana import Constellation, QuditState, state_to_constellation
from quditstars.render import render_constellation_svg
from quditstars.sphere import INFINITY, ExtendedComplex


def const(dim, *roots):
    return Constellation(dim, tuple(
        INFINITY if r == "inf" else ExtendedComplex(complex(r)) for r in roots))


def test_deterministic_bytes():
    c = const(4, 0.5 + 0.5j, -1, "inf")
    assert render_constellation_svg(c) == render_constellation_svg(c)


def test_has_outline_and_equator():
    svg = render_constellation_svg(const(2, 1))
    assert svg.count("<circle") >= 2  # outline + one marker
    assert "ellipse" in svg and "stroke-dasharray" in svg


def test_north_pole_faces_viewer_filled():
    svg = render_constellation_svg(const(2, "inf"))
    assert 'fill="black" stroke="none"' in svg


def test_south_pole_is_hollow():
    svg = render_constellation_svg(const(2, 0))
    assert 'fill="white" stroke="black"' in svg


def test_coincident_points_merge_with_label():
    svg = render_constellation_svg(const(3, 1.0, 1.0 + 1e-9))
    assert "&#215;2" in svg
    # one merged marker, not two
    assert svg.count('r="6.00"') == 1


def test_distinct_points_do_not_merge():
    svg = render_constellation_svg(const(3, 1.0, -1.0))
    assert "&#215;" not in svg
    assert svg.count('r="6.00"') == 2


def test_size_flows_through():
    svg = render_constellation_svg(const(2, 1), 256)
    assert 'width="256"' in svg


def test_size_validation():
    with pytest.raises(ValueError):
        render_constellation_svg(const(2, 1), 32)


def test_state_render_matches_constellation_render():
    psi = QuditState((0, 1, 0))
    assert (render_constellation_svg(state_to_constellation(psi))
            == render_constellation_svg(const(3, 0, "inf")))
