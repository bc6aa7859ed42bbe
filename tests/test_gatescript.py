import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditstars
import quditstars.render as quditstars_render
import script_corpus
from quditstars.errors import (
    ArityError,
    GateSyntaxError,
    NonUnitaryGate,
    ScriptError,
    SingularMatrix,
)
from quditstars.gatescript import (
    GateProgram,
    GateTerm,
    compile_source,
    parse,
    render,
)
from quditstars.moebius import (
    _ALIASES,
    _GATES,
    MoebiusMap,
    apply_point,
    compose,
    from_su2,
    projectively_equal,
    standard_gate,
)

IDENT = MoebiusMap(1, 0, 0, 1)


@pytest.mark.parametrize("source,expected", script_corpus.VALID,
                         ids=[s.replace("\n", "??") or "<empty>" for s, _ in script_corpus.VALID])
def test_corpus_valid(source, expected):
    program = parse(source)
    got = [(t.kind, t.args) for t in program.terms]
    assert got == [(k, tuple(a)) for k, a in expected]


@pytest.mark.parametrize("source,err,line,col", script_corpus.INVALID,
                         ids=[repr(s) for s, *_ in script_corpus.INVALID])
def test_corpus_invalid(source, err, line, col):
    with pytest.raises(err) as info:
        parse(source)
    assert (info.value.line, info.value.column) == (line, col)


def test_two_term_program_shape():
    program = parse("not; rz(pi/2)")
    assert len(program.terms) == 2
    assert program.terms[0].kind == "not"
    assert program.terms[1] == GateTerm("rotz", (math.pi / 2,))


def test_raw_term_is_the_expected_map():
    gate = compile_source("raw(1,0, 1,0, 1,0, -1,0)")
    assert projectively_equal(gate, MoebiusMap(1, 1, 1, -1))


def test_arity_error_position_counts_line_breaks():
    for source in ("not ;\n  rx()", "not ;\r\n\t rx()"):
        with pytest.raises(ArityError) as info:
            parse(source)
        assert (info.value.line, info.value.column) == (2, 3)


def test_positions_do_not_affect_equality():
    assert parse("not ;\n  h") == parse("not;h")


class TestCompile:
    def test_not_twice_is_identity(self):
        assert projectively_equal(compile_source("not; not"), IDENT)

    def test_hadamard_twice_is_identity(self):
        assert projectively_equal(compile_source("h; h"), IDENT)

    def test_application_order_is_program_order(self):
        gate = compile_source("not; rotz(0.8)")
        split = compose(compile_source("rotz(0.8)"), compile_source("not"))
        assert projectively_equal(gate, split)

    def test_first_term_acts_first(self):
        # not sends 0 to infinity; hadamard then sends infinity to 1.
        gate = compile_source("not; h")
        assert apply_point(gate, 0).finite == pytest.approx(1.0)

    def test_nonunitary_rejected_by_default(self):
        with pytest.raises(NonUnitaryGate) as info:
            compile_source("raw(2,0, 0,0, 0,0, 1,0)")
        assert "raw" in str(info.value)

    def test_nonunitary_allowed_when_asked(self):
        gate = compile_source("raw(2,0, 0,0, 0,0, 1,0)", allow_nonunitary=True)
        assert projectively_equal(gate, MoebiusMap(2, 0, 0, 1))

    def test_singular_raw_rejected(self):
        for entry in ("1", "1e200", "1e-170"):
            with pytest.raises(SingularMatrix):
                compile_source(f"raw({entry},0, {entry},0, {entry},0, {entry},0)",
                               allow_nonunitary=True)

    def test_su2_term(self):
        # arguments are (a_re, a_im, b_re, b_im)
        gate = compile_source("su2(0.6, 0, 0, 0.8)")
        assert projectively_equal(gate, MoebiusMap(0.6, 0.8j, 0.8j, 0.6))
        gate = compile_source("su2(0.6, 0, 0.8, 0)")
        assert projectively_equal(gate, MoebiusMap(0.6, 0.8, -0.8, 0.6))

    def test_compose_law_for_term_pairs(self):
        sources = ["not", "h", "rotx(0.3)", "rotz(-1.2)", "su2(1,2,3,4)",
                   "raw(1,0,0,0,1,0,1,0)"]
        for s1 in sources:
            for s2 in sources:
                combined = compile_source(f"{s1}; {s2}", allow_nonunitary=True)
                split = compose(compile_source(s2, allow_nonunitary=True),
                                compile_source(s1, allow_nonunitary=True))
                assert projectively_equal(combined, split)


class TestRender:
    def test_corpus_round_trips(self):
        for source, _ in script_corpus.VALID:
            program = parse(source)
            assert parse(render(program)) == program

    def test_canonical_names(self):
        assert render(parse("rx(1.0); H")) == "rotx(1.0); hadamard"

    def test_package_render_is_the_submodule(self):
        assert quditstars.render is quditstars_render
        assert quditstars.gatescript.render(parse("rx(1.0); H")) == "rotx(1.0); hadamard"

    @pytest.mark.parametrize("arg", [math.inf, -math.inf, math.nan])
    def test_nonfinite_args_rejected(self, arg):
        with pytest.raises(ValueError):
            GateTerm("rotx", (arg,))

    @pytest.mark.parametrize("kind,args,match", [("h", (), "unknown gate kind"),
                                                 ("rotx", (), "takes 1 args, got 0"),
                                                 ("not", (0.5,), "takes 0 args, got 1")])
    def test_term_needs_kind_and_arity(self, kind, args, match):
        with pytest.raises(ValueError, match=match):
            GateTerm(kind, args)


class TestGateTable:
    """Scripts and ``standard_gate`` share one table of kinds and aliases."""

    ARGS = (0.3, -0.7, 1.1, 0.2, 0.5, -0.4, 0.9, 1.3)

    @pytest.mark.parametrize("name", [*_GATES, *_ALIASES])
    def test_script_compiles_to_standard_gate(self, name):
        kind = _ALIASES.get(name, name)
        args = self.ARGS[:_GATES[kind][0]]
        source = f"{name}({', '.join(map(repr, args))})" if args else name
        compiled = compile_source(source, allow_nonunitary=True)
        assert projectively_equal(compiled, standard_gate(kind, *args))
        assert projectively_equal(compiled, standard_gate(name, *args))

    def test_su2_and_raw_entries(self):
        a, b, c, d = 0.3 - 0.7j, 1.1 + 0.2j, 0.5 - 0.4j, 0.9 + 1.3j
        assert standard_gate("su2", *self.ARGS[:4]) == from_su2(a, b)
        assert standard_gate("raw", *self.ARGS) == MoebiusMap(a, b, c, d)

    def test_underscores_only_outside_scripts(self):
        assert projectively_equal(standard_gate("rot_x", 0.3), standard_gate("rx", 0.3))
        with pytest.raises(GateSyntaxError) as info:
            parse("rot_x(0.3)")
        assert (info.value.line, info.value.column) == (1, 1)


_kinds = st.sampled_from(["not", "hadamard", "rotx", "roty", "rotz", "su2", "raw"])
_arg = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)


@st.composite
def terms(draw):
    kind = draw(_kinds)
    arity = {"not": 0, "hadamard": 0, "rotx": 1, "roty": 1, "rotz": 1,
             "su2": 4, "raw": 8}[kind]
    return GateTerm(kind, tuple(draw(_arg) for _ in range(arity)))


@given(st.lists(terms(), min_size=1, max_size=6))
@settings(max_examples=200)
def test_render_parse_round_trip(term_list):
    program = GateProgram(tuple(term_list))
    assert parse(render(program)) == program


def test_error_positions_point_into_source():
    for source, _err, line, col in script_corpus.INVALID:
        if not source:
            continue
        lines = source.split("\n")
        assert 1 <= line <= len(lines)
        assert 1 <= col <= len(lines[line - 1]) + 1


def test_empty_program_rejected():
    with pytest.raises(ScriptError):
        parse("   ")
    with pytest.raises(ValueError):
        GateProgram(())
