"""Readers and writers for the on-disk file formats.

All real numbers are emitted with 17 significant digits, which round-trips
every double exactly, and the writer is deterministic: identical documents
serialize to identical bytes, and zero is written "0", never "-0".  The
standard library's ``json`` module is used for parsing; writing goes through
a small canonical emitter so the digit count is under our control.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .majorana import Constellation, QuditState
from .moebius import MoebiusMap, RotationMatrix, UnitaryMatrix, make
from .sphere import INFINITY, ExtendedComplex

__all__ = [
    "format_real",
    "dumps_canonical",
    "save_doc",
    "load_doc",
    "state_to_doc",
    "state_from_doc",
    "root_to_doc",
    "root_from_doc",
    "constellation_to_doc",
    "constellation_from_doc",
    "moebius_to_doc",
    "moebius_from_doc",
    "unitary_to_doc",
    "unitary_from_doc",
    "rotation_to_doc",
    "sphere_points_to_csv",
    "sphere_points_to_doc",
]


def format_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    return format(x + 0.0, ".17g")  # -0.0 + 0.0 is 0.0


def _emit(value, out: list[str]) -> None:
    if isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(format_real(value))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, v in enumerate(value):
            if i:
                out.append(", ")
            _emit(v, out)
        out.append("]")
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(doc) -> str:
    out: list[str] = []
    _emit(doc, out)
    return "".join(out)


def save_doc(path, doc) -> None:
    Path(path).write_text(dumps_canonical(doc) + "\n", encoding="utf-8")


def load_doc(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_from(value, what: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise ValueError(f"{what} must be a [re, im] pair, got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _require(doc, key: str, what: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} document is missing {key!r}")
    return doc[key]


# -- states ---------------------------------------------------------------

def state_to_doc(state: QuditState) -> dict:
    return {"dim": state.dim,
            "amplitudes": [_pair(a) for a in state.amplitudes]}


def state_from_doc(doc) -> QuditState:
    dim = _require(doc, "dim", "state")
    amps = _require(doc, "amplitudes", "state")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"state dim must be an integer, got {dim!r}")
    if not isinstance(amps, list) or len(amps) != dim:
        raise ValueError(f"state needs exactly {dim} amplitude pairs")
    return QuditState(tuple(_complex_from(a, "amplitude") for a in amps))


# -- constellations -------------------------------------------------------

def root_to_doc(root: ExtendedComplex) -> dict:
    if root.is_infinite:
        return {"inf": True}
    return {"re": float(root.value.real), "im": float(root.value.imag)}


def root_from_doc(doc) -> ExtendedComplex:
    if not isinstance(doc, dict):
        raise ValueError(f"root must be an object, got {doc!r}")
    if doc.get("inf") is True:
        return INFINITY
    return ExtendedComplex(_complex_from([doc.get("re"), doc.get("im")], "root re/im"))


def constellation_to_doc(constellation: Constellation) -> dict:
    return {"dim": constellation.dim,
            "roots": [root_to_doc(r) for r in constellation.roots]}


def constellation_from_doc(doc) -> Constellation:
    dim = _require(doc, "dim", "constellation")
    roots = _require(doc, "roots", "constellation")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"constellation dim must be an integer, got {dim!r}")
    if not isinstance(roots, list) or len(roots) != dim - 1:
        raise ValueError(f"constellation needs exactly {dim - 1} roots")
    return Constellation(dim, tuple(root_from_doc(r) for r in roots))


# -- Moebius maps and matrices --------------------------------------------

def moebius_to_doc(m: MoebiusMap) -> dict:
    return {"a": _pair(m.a), "b": _pair(m.b), "c": _pair(m.c), "d": _pair(m.d)}


def moebius_from_doc(doc) -> MoebiusMap:
    entries = [_complex_from(_require(doc, k, "moebius map"), f"entry {k!r}")
               for k in ("a", "b", "c", "d")]
    return make(*entries)


def unitary_to_doc(u: UnitaryMatrix) -> dict:
    return {"dim": u.dim,
            "rows": [[_pair(v) for v in row] for row in u.matrix]}


def unitary_from_doc(doc) -> UnitaryMatrix:
    dim = _require(doc, "dim", "unitary")
    rows = _require(doc, "rows", "unitary")
    if not isinstance(rows, list) or len(rows) != dim:
        raise ValueError(f"unitary needs exactly {dim} rows")
    mat = [[_complex_from(v, "matrix entry") for v in row] for row in rows]
    if any(len(row) != dim for row in mat):
        raise ValueError(f"unitary rows must each have {dim} entries")
    return UnitaryMatrix(np.array(mat, dtype=complex))


def rotation_to_doc(r: RotationMatrix) -> dict:
    return {"rows": [[float(v) for v in row] for row in r.matrix]}


# -- sphere points --------------------------------------------------------

def sphere_points_to_csv(points) -> str:
    lines = [",".join(format_real(v) for v in p.as_tuple()) for p in points]
    return "\n".join(lines) + "\n"


def sphere_points_to_doc(points) -> dict:
    return {"points": [[float(v) for v in p.as_tuple()] for p in points]}
