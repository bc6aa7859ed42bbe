"""Fixed gate-script corpus: valid programs with their canonical terms, and
invalid programs with the exact error class and 1-based position."""

import math

from quditstars.errors import ArityError, GateSyntaxError

PI = math.pi

# (source, [(kind, args), ...])
VALID = [
    ("not", [("not", ())]),
    ("hadamard", [("hadamard", ())]),
    ("h", [("hadamard", ())]),
    ("NOT", [("not", ())]),
    ("HaDaMaRd", [("hadamard", ())]),
    ("not; not", [("not", ()), ("not", ())]),
    ("not;", [("not", ())]),
    ("rotx(1.5)", [("rotx", (1.5,))]),
    ("rx(0.5)", [("rotx", (0.5,))]),
    ("roty(-2)", [("roty", (-2.0,))]),
    ("ry(+0.25)", [("roty", (0.25,))]),
    ("rotz(pi)", [("rotz", (PI,))]),
    ("rz(pi/2)", [("rotz", (PI / 2,))]),
    ("rotx(-pi/4)", [("rotx", (-PI / 4,))]),
    ("rotz(1e-3)", [("rotz", (1e-3,))]),
    ("roty(2.5E+2)", [("roty", (250.0,))]),
    ("rotx(.5)", [("rotx", (0.5,))]),
    ("su2(1,0,0,0)", [("su2", (1.0, 0.0, 0.0, 0.0))]),
    ("su2( 0.6 , 0 , 0 , 0.8 )", [("su2", (0.6, 0.0, 0.0, 0.8))]),
    ("raw(1,0, 1,0, 1,0, -1,0)", [("raw", (1.0, 0.0, 1.0, 0.0, 1.0, 0.0, -1.0, 0.0))]),
    ("raw(2,0,0,0,0,0,1,0)", [("raw", (2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0))]),
    ("not ;\n rz( pi/4 ) ; h",
     [("not", ()), ("rotz", (PI / 4,)), ("hadamard", ())]),
    ("su2(0,1,0,0); not", [("su2", (0.0, 1.0, 0.0, 0.0)), ("not", ())]),
    ("rotz(-pi)", [("rotz", (-PI,))]),
    ("rotx(0)", [("rotx", (0.0,))]),
]

# (source, error class, line, column)
INVALID = [
    ("not(", GateSyntaxError, 1, 4),
    ("", GateSyntaxError, 1, 1),
    (";", GateSyntaxError, 1, 1),
    ("foo", GateSyntaxError, 1, 1),
    ("rotx", GateSyntaxError, 1, 5),
    ("rotx 1.5", GateSyntaxError, 1, 6),
    ("rotx(1.5", GateSyntaxError, 1, 9),
    ("rotx(1,2)", ArityError, 1, 1),
    ("su2(1,2,3)", ArityError, 1, 1),
    ("raw(1,2,3,4,5,6,7)", ArityError, 1, 1),
    ("rotz(pi/3)", GateSyntaxError, 1, 9),
    ("rotx(pi/)", GateSyntaxError, 1, 9),
    ("not & h", GateSyntaxError, 1, 5),
    ("rz(--1)", GateSyntaxError, 1, 5),
    ("not; ; not", GateSyntaxError, 1, 6),
    ("rotx(1))", GateSyntaxError, 1, 8),
    ("not;\nh;\nrotx(", GateSyntaxError, 3, 6),
    ("su2(1 2, 3, 4)", GateSyntaxError, 1, 7),
    ("rotx(1e999)", GateSyntaxError, 1, 6),
    ("not;\r\n\trotx(", GateSyntaxError, 2, 7),
    ("h;\u00a0&", GateSyntaxError, 1, 4),
]
