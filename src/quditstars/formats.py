"""Readers and writers for the on-disk file formats.

All real numbers are emitted with 17 significant digits, which round-trips
every double exactly, and the writer is deterministic: identical documents
serialize to identical bytes, and zero is written "0", never "-0".  The
standard library's ``json`` parses and writes every scalar but a real, which
``dumps_canonical`` formats itself; it joins lists and objects with ", ".
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .majorana import Constellation, QuditState
from .sphere import INFINITY, ExtendedComplex

if TYPE_CHECKING:  # the map writers only read attributes of moebius's types
    from .moebius import MoebiusMap, RotationMatrix, UnitaryMatrix

__all__ = [
    "format_real",
    "dumps_canonical",
    "save_doc",
    "read_text",
    "load_doc",
    "state_to_doc",
    "state_from_doc",
    "root_to_doc",
    "root_from_doc",
    "constellation_to_doc",
    "constellation_from_doc",
    "moebius_to_doc",
    "unitary_to_doc",
    "rotation_to_doc",
    "sphere_points_to_csv",
    "sphere_points_to_doc",
]


def format_real(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite real {x!r}")
    return format(x + 0.0, ".17g")  # -0.0 + 0.0 is 0.0


_encode = json.JSONEncoder().encode


def dumps_canonical(doc) -> str:
    if type(doc) is float or isinstance(doc, (float, np.floating)):
        return format_real(doc)
    if isinstance(doc, (list, tuple)):
        return "[" + ", ".join([dumps_canonical(v) for v in doc]) + "]"
    if isinstance(doc, dict):
        return "{" + ", ".join([_encode(str(k)) + ": " + dumps_canonical(v)
                                for k, v in doc.items()]) + "}"
    if type(doc) is int or isinstance(doc, np.integer):
        return repr(int(doc))  # as json writes an int
    return _encode(doc)  # str, int subclasses, bool and None; TypeError on anything else


def save_doc(path, doc) -> None:
    Path(path).write_text(dumps_canonical(doc) + "\n", encoding="utf-8")


def read_text(path) -> str:
    """The file's text as UTF-8; a file that is not UTF-8 names itself in the error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def load_doc(path):
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: {err}") from None
    except RecursionError:  # the parser recurses once per nested array or object
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _complex_from(value, what: str) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        re, im = value
        if (isinstance(re, (int, float)) and isinstance(im, (int, float))
                and not isinstance(re, bool) and not isinstance(im, bool)):
            return complex(float(re), float(im))
    raise ValueError(f"{what} must be a [re, im] pair, got {value!r}")


def _require(doc, key: str, what: str):
    if not isinstance(doc, dict) or key not in doc:
        raise ValueError(f"{what} document is missing {key!r}")
    return doc[key]


def _dim_and_list(doc, what: str, key: str, offset: int, noun: str):
    # The one reader rule: an integer ``dim`` and a list of dim - offset items.
    dim = _require(doc, "dim", what)
    items = _require(doc, key, what)
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ValueError(f"{what} dim must be an integer, got {dim!r}")
    if not isinstance(items, list) or len(items) != dim - offset:
        raise ValueError(f"{what} needs exactly {dim - offset} {noun}")
    return dim, items


# -- states ---------------------------------------------------------------

def state_to_doc(state: QuditState) -> dict:
    return {"dim": state.dim,
            "amplitudes": [_pair(a) for a in state.amplitudes]}


def state_from_doc(doc) -> QuditState:
    _, amps = _dim_and_list(doc, "state", "amplitudes", 0, "amplitude pairs")
    return QuditState(tuple(_complex_from(a, "amplitude") for a in amps))


# -- constellations -------------------------------------------------------

def root_to_doc(root: ExtendedComplex) -> dict:
    if root.is_infinite:
        return {"inf": True}
    return {"re": root.value.real, "im": root.value.imag}


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
    dim, roots = _dim_and_list(doc, "constellation", "roots", 1, "roots")
    return Constellation(dim, tuple(root_from_doc(r) for r in roots))


# -- Moebius maps and matrices --------------------------------------------

def moebius_to_doc(m: MoebiusMap) -> dict:
    return {"a": _pair(m.a), "b": _pair(m.b), "c": _pair(m.c), "d": _pair(m.d)}


def unitary_to_doc(u: UnitaryMatrix) -> dict:
    return {"dim": u.dim,
            "rows": [[_pair(v) for v in row] for row in u.matrix.tolist()]}


def rotation_to_doc(r: RotationMatrix) -> dict:
    return {"rows": r.matrix.tolist()}


# -- sphere points --------------------------------------------------------

def sphere_points_to_csv(points) -> str:
    lines = [",".join(format_real(v) for v in p.as_tuple()) for p in points]
    return "\n".join(lines) + "\n"


def sphere_points_to_doc(points) -> dict:
    return {"points": [list(p.as_tuple()) for p in points]}
