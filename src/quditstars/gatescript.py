"""A tiny textual language for gate sequences.

Grammar (keywords case-insensitive, whitespace free-form)::

    program  := term (';' term)* [';']
    term     := 'not' | 'hadamard' | 'h'
              | ('rotx'|'roty'|'rotz'|'rx'|'ry'|'rz') '(' number ')'
              | 'su2' '(' number ',' number ',' number ',' number ')'
              | 'raw' '(' number ',' ... ')'        # exactly 8 numbers
    number   := signed decimal (fraction/exponent allowed)
              | 'pi' | 'pi/2' | 'pi/4' | '-pi' | '-pi/2' | '-pi/4'

Angles are radians.  ``su2`` takes (a_re, a_im, b_re, b_im); ``raw`` takes
the four matrix entries as re/im pairs.  A program compiles to one Moebius
map with the FIRST listed term acting first (circuit order), i.e.
compile("A; B") == compose(compile("B"), compile("A")).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

from .errors import ArityError, GateSyntaxError, NonUnitaryGate
from .moebius import _ALIASES, _GATES, MoebiusMap, compose, is_special_unitary, standard_gate

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
    # Source position (1-based line, column); ignored by equality so that
    # parse(render(program)) == program holds on the value level.
    pos: tuple[int, int] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in _GATES:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        args = tuple(float(a) for a in self.args)
        arity = _GATES[self.kind][0]
        if len(args) != arity:
            raise ValueError(f"{self.kind} takes {arity} args, got {len(args)}")
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
""", re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'number' | 'name' | one of '();,/+-' | 'end'
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise GateSyntaxError(f"unexpected character {source[i]!r}", line, col)
        text = m.group(0)
        if m.lastgroup == "ws":
            for ch in text:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
        else:
            kind = text if m.lastgroup == "punct" else m.lastgroup
            tokens.append(_Token(kind, text, line, col))
            col += len(text)
        i = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    """Recursive descent with single-token lookahead."""

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.current
        shown = tok.text if tok.kind != "end" else "end of input"
        raise GateSyntaxError(f"{message} (got {shown!r})", tok.line, tok.col)

    def expect(self, kind: str, what: str) -> _Token:
        if self.current.kind != kind:
            self.fail(f"expected {what}")
        return self.advance()

    def program(self) -> GateProgram:
        terms = [self.term()]
        while self.current.kind == ";":
            self.advance()
            if self.current.kind == "end":
                break
            terms.append(self.term())
        if self.current.kind != "end":
            self.fail("expected ';' or end of program")
        return GateProgram(tuple(terms))

    def term(self) -> GateTerm:
        tok = self.current
        if tok.kind != "name":
            self.fail("expected a gate name")
        self.advance()
        kind = _ALIASES.get(tok.text.lower(), tok.text.lower())
        if kind not in _GATES:
            self.fail(f"unknown gate {tok.text!r}", tok)
        arity = _GATES[kind][0]
        if arity == 0:
            return GateTerm(kind, (), pos=(tok.line, tok.col))
        self.expect("(", "'('")
        args = self.arguments()
        self.expect(")", "')'")
        if len(args) != arity:
            raise ArityError(f"{kind} takes {arity} argument(s), got {len(args)}",
                             tok.line, tok.col)
        return GateTerm(kind, tuple(args), pos=(tok.line, tok.col))

    def arguments(self) -> list[float]:
        if self.current.kind == ")":
            return []
        args = [self.number()]
        while self.current.kind == ",":
            self.advance()
            args.append(self.number())
        return args

    def number(self) -> float:
        sign = 1.0
        if self.current.kind in ("-", "+"):
            sign = -1.0 if self.advance().kind == "-" else 1.0
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return sign * float(tok.text)
        if tok.kind == "name" and tok.text.lower() == "pi":
            self.advance()
            if self.current.kind == "/":
                self.advance()
                denom = self.expect("number", "'2' or '4' after 'pi/'")
                if denom.text == "2":
                    return sign * math.pi / 2.0
                if denom.text == "4":
                    return sign * math.pi / 4.0
                self.fail("pi may only be divided by 2 or 4", denom)
            return sign * math.pi
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
    result: MoebiusMap | None = None
    for i, term in enumerate(program.terms):
        m = standard_gate(term.kind, *term.args)
        if not allow_nonunitary and not is_special_unitary(m):
            raise NonUnitaryGate(
                f"term {i + 1} ({_render_term(term)}) is not special-unitary; "
                f"pass allow_nonunitary to apply it to constellations anyway")
        result = m if result is None else compose(m, result)
    assert result is not None
    return result


def compile_source(source: str, allow_nonunitary: bool = False) -> MoebiusMap:
    return compile_program(parse(source), allow_nonunitary)
