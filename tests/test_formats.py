import json
import math

import numpy as np
import pytest

from quditstars import formats
from quditstars.majorana import Constellation, QuditState
from quditstars.moebius import lift_to_unitary, standard_gate, to_rotation
from quditstars.sphere import INFINITY, ExtendedComplex, SpherePoint


def test_format_real_17_digits():
    assert formats.format_real(math.pi) == "3.1415926535897931"
    assert formats.format_real(1.0) == "1"
    assert formats.format_real(-0.5) == "-0.5"
    # 17 significant digits round-trip every double exactly
    for x in (1 / 3, 1e-300, 123456.789, 2**0.5):
        assert float(formats.format_real(x)) == x


def test_format_real_writes_zero_without_sign():
    assert formats.format_real(-0.0) == "0"
    assert formats.dumps_canonical([-0.0, [0.0, -0.0]]) == "[0, [0, 0]]"


def test_format_real_rejects_nonfinite():
    with pytest.raises(ValueError):
        formats.format_real(float("inf"))


def test_dumps_canonical_scalars():
    doc = {"i": 3, "f": 0.5, "s": "x", "b": True, "n": None, "l": [1, 2.5]}
    assert formats.dumps_canonical(doc) == '{"i": 3, "f": 0.5, "s": "x", "b": true, "n": null, "l": [1, 2.5]}'


def test_dumps_canonical_pinned_bytes():
    doc = {"n": np.int64(-7), "f32": np.float32(0.1), "t": (1, (2.5, [-0.0])),
           "s": 'st\u00e4rs "q"', "deep": [[[{"z": -0.0}]]], "tiny": 5e-324,
           "max": 1.7976931348623157e308, "flags": [True, False, None]}
    assert formats.dumps_canonical(doc) == (
        '{"n": -7, "f32": 0.10000000149011612, "t": [1, [2.5, [0]]], '
        '"s": "st\\u00e4rs \\"q\\"", "deep": [[[{"z": 0}]]], "tiny": 4.9406564584124654e-324, '
        '"max": 1.7976931348623157e+308, "flags": [true, false, null]}')


def test_dumps_canonical_rejects_nan_and_unknown_types():
    with pytest.raises(ValueError):
        formats.dumps_canonical({"a": [1.0, [float("nan")]]})
    for value in ({1.0}, 1 + 2j):
        with pytest.raises(TypeError):
            formats.dumps_canonical({"a": [value]})


def test_dumps_parses_back():
    doc = {"dim": 2, "amplitudes": [[1.0, 0.0], [0.25, -0.125]]}
    assert json.loads(formats.dumps_canonical(doc)) == doc


class TestStateDocs:
    def test_round_trip(self):
        psi = QuditState((0.1 + 0.2j, -0.3j, 0.977))
        doc = formats.state_to_doc(psi)
        assert doc["dim"] == 3
        assert formats.state_from_doc(doc) == psi

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            formats.state_from_doc({"dim": 3, "amplitudes": [[1, 0]]})

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError):
            formats.state_from_doc({"amplitudes": [[1, 0], [0, 0]]})

    def test_rejects_bad_pair(self):
        with pytest.raises(ValueError):
            formats.state_from_doc({"dim": 2, "amplitudes": [[1, 0], [0]]})

    @pytest.mark.parametrize("dim", [-3, 0, 1])
    def test_rejects_dim_below_2(self, dim):
        # The rule, not the count it would imply, even when the count matches.
        doc = {"dim": dim, "amplitudes": [[1, 0]] * max(dim, 0)}
        with pytest.raises(ValueError, match=f"^state dim must be >= 2, got {dim}$"):
            formats.state_from_doc(doc)


class TestConstellationDocs:
    def test_round_trip_with_infinity(self):
        c = Constellation(3, (ExtendedComplex(1 - 2j), INFINITY))
        doc = formats.constellation_to_doc(c)
        assert doc["roots"][1] == {"inf": True}
        assert formats.constellation_from_doc(doc) == c

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError):
            formats.constellation_from_doc({"dim": 4, "roots": [{"re": 0, "im": 0}]})

    @pytest.mark.parametrize("dim", [-3, 0, 1])
    def test_rejects_dim_below_2(self, dim):
        doc = {"dim": dim, "roots": [{"re": 0, "im": 0}] * max(dim - 1, 0)}
        with pytest.raises(ValueError, match=f"^constellation dim must be >= 2, got {dim}$"):
            formats.constellation_from_doc(doc)

    def test_rejects_malformed_root(self):
        with pytest.raises(ValueError):
            formats.root_from_doc({"re": 1.0})

    def test_only_literal_true_is_infinity(self):
        assert formats.root_from_doc({"inf": True}).is_infinite
        assert formats.root_from_doc({"inf": False, "re": 2, "im": 0}).value == 2
        for flag in (1, "false"):
            with pytest.raises(ValueError):
                formats.root_from_doc({"inf": flag})


class TestMapDocs:
    def test_unitary_round_trip(self):
        # 17 digits write every entry's real and imaginary part exactly.
        for dim in (4, 101):
            u = lift_to_unitary(standard_gate("hadamard"), dim)
            doc = json.loads(formats.dumps_canonical(formats.unitary_to_doc(u)))
            assert doc["dim"] == dim
            np.testing.assert_array_equal(np.array(doc["rows"]),
                                          np.stack([u.matrix.real, u.matrix.imag], axis=-1))

    def test_rotation_doc_shape(self):
        doc = formats.rotation_to_doc(to_rotation(standard_gate("not")))
        assert len(doc["rows"]) == 3 and all(len(r) == 3 for r in doc["rows"])


class TestSpherePoints:
    def test_csv_rows(self):
        pts = [SpherePoint(0, 0, 1), SpherePoint(1, 0, 0)]
        csv = formats.sphere_points_to_csv(pts)
        assert csv == "0,0,1\n1,0,0\n"

    def test_csv_17_digits(self):
        p = SpherePoint(math.sqrt(0.5), 0.0, math.sqrt(0.5))
        row = formats.sphere_points_to_csv([p]).strip().split(",")
        assert row[0] == format(p.x, ".17g")
        assert float(row[0]) == p.x
        assert len(row[0].lstrip("-0.").replace(".", "")) >= 16

    def test_doc(self):
        doc = formats.sphere_points_to_doc([SpherePoint(0, 1, 0)])
        assert doc == {"points": [[0.0, 1.0, 0.0]]}


def test_save_and_load(tmp_path):
    path = tmp_path / "doc.json"
    formats.save_doc(path, {"dim": 2, "amplitudes": [[1.0, 0.0], [0.0, 0.0]]})
    text = path.read_text()
    assert text.endswith("\n")
    assert formats.load_doc(path)["dim"] == 2
