"""A tiny textual language for gate sequences.

Grammar (keywords case-insensitive, whitespace free-form)::

    program  := term (';' term)* [';']
    term     := 'not' | 'hadamard' | 'h'
              | ('rotx'|'roty'|'rotz'|'rx'|'ry'|'rz') '(' number ')'
              | 'su2' '(' number ',' number ',' number ',' number ')'
              | 'raw' '(' number ',' ... ')'        # exactly 8 numbers
    number   := signed decimal (fraction/exponent allowed)
              | 'pi' | 'pi/2' | 'pi/4' | '-pi' | '-pi/2' | '-pi/4'

Angles are radians.  Numbers must be finite: a literal that overflows a
double (``1e999``) is a syntax error at its line:column.  ``su2`` takes
(a_re, a_im, b_re, b_im); ``raw`` takes the four matrix entries as re/im
pairs.  A program compiles to one Moebius map with the FIRST listed term
acting first (circuit order), i.e.
compile("A; B") == compose(compile("B"), compile("A")).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .errors import ArityError, GateSyntaxError, NonUnitaryGate
from .moebius import _ALIASES, _GATES, MoebiusMap, compose, is_special_unitary

__all__ = [
    "GateTerm",
    "GateProgram",
    "parse",
    "render",
    "compile_program",
    "compile_source",
]

@dataclass(frozen=True)
class GateTerm:
    """One gate of a program, in canonical form."""

    kind: str
    args: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in _GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        args = tuple(map(float, self.args))
        arity = _GATES[self.kind][0]
        if len(args) != arity:
            raise ValueError(f"{self.kind} takes {arity} args, got {len(args)}")
        if not all(map(math.isfinite, args)):
            raise ValueError(f"{self.kind} args must be finite, got {args}")
        object.__setattr__(self, "args", args)


@dataclass(frozen=True)
class GateProgram:
    terms: tuple[GateTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("a gate program has at least one term")
        object.__setattr__(self, "terms", terms)


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[();,/+-])
  | (?P<end>\Z)
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


class _Parser:
    """Recursive descent with single-token lookahead at ``tokens[index]``.

    A token is a (kind, text, offset) tuple; kind is 'number', 'name', 'end'
    or the punctuation character itself.  The whole source is tokenized
    first, so a bad character is reported ahead of any grammar error.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = []
        for m in _TOKEN_RE.finditer(source):
            kind = m.lastgroup
            if kind == "ws":
                continue
            text = m.group()
            if kind == "bad":
                raise GateSyntaxError(f"unexpected character {text!r}", *self.position(m.start()))
            self.tokens.append((text if kind == "punct" else kind, text, m.start()))
        self.index = 0

    def position(self, offset: int) -> tuple[int, int]:
        """1-based (line, column) of a token's offset (never a line break)."""
        return (self.source.count("\n", 0, offset) + 1,
                offset - self.source.rfind("\n", 0, offset))

    def fail(self, message: str, tok: tuple[str, str, int] | None = None):
        kind, text, offset = tok or self.tokens[self.index]
        shown = text if kind != "end" else "end of input"
        raise GateSyntaxError(f"{message} (got {shown!r})", *self.position(offset))

    def expect(self, kind: str, what: str) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != kind:
            self.fail(f"expected {what}")
        self.index += 1
        return tok

    def program(self) -> GateProgram:
        tokens = self.tokens
        terms = [self.term()]
        while tokens[self.index][0] == ";":
            self.index += 1
            if tokens[self.index][0] == "end":
                break
            terms.append(self.term())
        if tokens[self.index][0] != "end":
            self.fail("expected ';' or end of program")
        return GateProgram(tuple(terms))

    def term(self) -> GateTerm:
        tok = self.tokens[self.index]
        if tok[0] != "name":
            self.fail("expected a gate name")
        self.index += 1
        name = tok[1].lower()
        kind = _ALIASES.get(name, name)
        if kind not in _GATES:
            self.fail(f"unknown gate {tok[1]!r}", tok)
        arity = _GATES[kind][0]
        if arity == 0:
            return GateTerm(kind)
        self.expect("(", "'('")
        args = []
        if self.tokens[self.index][0] != ")":
            args.append(self.number())
            while self.tokens[self.index][0] == ",":
                self.index += 1
                args.append(self.number())
        self.expect(")", "')'")
        if len(args) != arity:
            raise ArityError(f"{kind} takes {arity} argument(s), got {len(args)}",
                             *self.position(tok[2]))
        return GateTerm(kind, tuple(args))

    def number(self) -> float:
        tokens = self.tokens
        tok = tokens[self.index]
        sign = 1.0
        if tok[0] in ("-", "+"):
            sign = -1.0 if tok[0] == "-" else 1.0
            self.index += 1
            tok = tokens[self.index]
        if tok[0] == "number":
            self.index += 1
            value = float(tok[1])
            if not math.isfinite(value):
                self.fail("number out of range", tok)
            return sign * value
        if tok[0] == "name" and tok[1].lower() == "pi":
            self.index += 1
            if tokens[self.index][0] != "/":
                return sign * math.pi
            self.index += 1
            denom = self.expect("number", "'2' or '4' after 'pi/'")
            if denom[1] not in ("2", "4"):
                self.fail("pi may only be divided by 2 or 4", denom)
            return sign * math.pi / float(denom[1])
        self.fail("expected a number")


def parse(source: str) -> GateProgram:
    """Parse gate-script source into a program.

    Raises GateSyntaxError (with 1-based line/column and the offending
    token) for malformed input, ArityError for wrong argument counts.
    """
    return _Parser(source).program()


def _render_term(term: GateTerm) -> str:
    if not term.args:
        return term.kind
    return f"{term.kind}({', '.join(repr(a) for a in term.args)})"


def render(program: GateProgram) -> str:
    """Canonical textual form; parse(render(p)) == p."""
    return "; ".join(_render_term(t) for t in program.terms)


def compile_program(program: GateProgram, allow_nonunitary: bool = False) -> MoebiusMap:
    """Fold a program into one map, first term acting first.

    With allow_nonunitary false (the default), any term whose map is not
    special-unitary aborts compilation with NonUnitaryGate naming the term.
    """
    for i, term in enumerate(program.terms):
        # GateTerm has already resolved the name and checked the arity.
        m = _GATES[term.kind][1](*term.args)
        if not allow_nonunitary and not is_special_unitary(m):
            raise NonUnitaryGate(
                f"term {i + 1} ({_render_term(term)}) is not special-unitary; "
                f"pass allow_nonunitary (--allow-nonunitary on the command line) "
                f"to apply it to constellations anyway")
        result = compose(m, result) if i else m
    return result


def compile_source(source: str, allow_nonunitary: bool = False) -> MoebiusMap:
    return compile_program(parse(source), allow_nonunitary)
