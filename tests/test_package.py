"""The package namespace: each public name comes from its submodule on first use."""

import importlib

import pytest

import quditstars

# Every name the package exports, by the submodule that defines it.
EXPORTS = {
    "errors": ["ArityError", "DimensionMismatch", "GateSyntaxError", "NonUnitaryGate",
               "NotOnSphere", "NotUnitary", "QuditStarsError", "ScriptError", "SingularMatrix",
               "UnknownGate", "WrongDimension", "ZeroInput", "ZeroPolynomial"],
    "gatescript": ["GateProgram", "GateTerm", "compile_program", "compile_source", "parse"],
    "majorana": ["Constellation", "MajoranaPolynomial", "QuditState", "basis_state",
                 "bloch_vector", "constellation_match", "constellation_pairing",
                 "constellation_to_state", "find_roots", "polynomial_to_state",
                 "projective_fidelity", "state_to_constellation", "state_to_polynomial"],
    "moebius": ["MoebiusMap", "RotationMatrix", "UnitaryMatrix", "apply_point", "compose",
                "from_su2", "inverse", "is_special_unitary", "lift_to_unitary",
                "phase_aligned_distance", "projective_distance", "projectively_equal",
                "standard_gate", "to_rotation", "transform_constellation"],
    "render": ["render_constellation_svg"],
    "sphere": ["INFINITY", "ExtendedComplex", "SpherePoint", "antipode", "as_point",
               "chordal_distance", "to_plane", "to_sphere"],
    "verify": ["SuiteConfig", "SuiteReport", "equivariance_trial", "oracle_roots", "run_suite"],
}
NAMES = {name: module for module, names in EXPORTS.items() for name in names}


def test_exports_are_pinned():
    assert len(NAMES) == 60
    assert sorted(quditstars.__all__) == sorted(NAMES)


def test_each_name_is_its_submodules():
    for name, module in NAMES.items():
        owner = importlib.import_module(f"quditstars.{module}")
        assert getattr(quditstars, name) is getattr(owner, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from quditstars import *", namespace)
    for name in NAMES:
        assert namespace[name] is getattr(quditstars, name), name


def test_dir_lists_names_and_submodules():
    listed = set(dir(quditstars))
    assert set(NAMES) <= listed
    assert {*EXPORTS, "formats", "__version__"} <= listed


def test_submodules_are_attributes():
    for module in [*EXPORTS, "formats"]:
        assert getattr(quditstars, module) is importlib.import_module(f"quditstars.{module}")


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        quditstars.no_such_name
    with pytest.raises(ImportError):
        exec("from quditstars import no_such_name", {})
