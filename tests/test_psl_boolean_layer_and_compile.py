"""Tests for the typed Boolean layer, SignalHistory, and the
Boolean-layer source generator (generated-vs-interpreted equivalence)."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.asm import Bit, BitVector
from repro.psl import (
    EvalContext,
    PslBit,
    PslBitVector,
    PslBoolean,
    PslEvaluationError,
    PslNumeric,
    PslString,
    PslTypeError,
    SignalHistory,
    coerce,
    parse_bool,
)
from repro.psl import (
    Directive,
    DirectiveKind,
    FlBool,
    Property,
    compile_properties,
)
from repro.psl.codegen import bool_function


class TestTypedLayer:
    def test_boolean_ops(self):
        assert PslBoolean(True).land(PslBoolean(False)) == PslBoolean(False)
        assert PslBoolean(False).lor(PslBoolean(True)) == PslBoolean(True)
        assert PslBoolean(False).lnot() == PslBoolean(True)
        assert PslBoolean(False).implies(PslBoolean(False)) == PslBoolean(True)
        assert PslBoolean(True).iff(PslBoolean(True)) == PslBoolean(True)

    def test_boolean_coercion_limits(self):
        assert PslBoolean(1).value is True
        with pytest.raises(PslTypeError):
            PslBoolean("yes")
        with pytest.raises(PslTypeError):
            PslBoolean(2)

    def test_bit_algebra(self):
        assert PslBit(1).band(PslBit(0)) == PslBit(0)
        assert PslBit(1).bor(PslBit(0)) == PslBit(1)
        assert PslBit(1).bxor(PslBit(1)) == PslBit(0)
        assert PslBit(0).bnot() == PslBit(1)

    def test_bitvector_wrappers(self):
        vector = PslBitVector(BitVector("1010"))
        assert vector.width == 4
        assert vector.countones() == PslNumeric(2)
        assert vector.onehot() == PslBoolean(False)
        assert vector.bit(0) == PslBit(1)
        joined = vector.concat(PslBitVector(BitVector("1")))
        assert joined.width == 5

    def test_numeric(self):
        assert PslNumeric(2).add(PslNumeric(3)) == PslNumeric(5)
        assert PslNumeric(2).less(PslNumeric(3)) == PslBoolean(True)
        with pytest.raises(PslTypeError):
            PslNumeric(True)

    def test_string(self):
        assert PslString("a").concat(PslString("b")) == PslString("ab")
        with pytest.raises(PslTypeError):
            PslString(3)

    def test_coerce_dispatch(self):
        assert isinstance(coerce(True), PslBoolean)
        assert isinstance(coerce(Bit(1)), PslBit)
        assert isinstance(coerce(BitVector("01")), PslBitVector)
        assert isinstance(coerce(5), PslNumeric)
        assert isinstance(coerce("x"), PslString)
        with pytest.raises(PslTypeError):
            coerce(object())


class TestSignalHistory:
    def test_record_and_access(self):
        history = SignalHistory("req")
        history.record(False)
        history.record(True)
        assert history.current() is True
        assert history.prev() is False
        assert history.rose()
        assert not history.fell()
        assert not history.stable()

    def test_prev_depth(self):
        history = SignalHistory("v")
        for value in (1, 2, 3):
            history.record(value)
        assert history.prev(2) == 1
        with pytest.raises(PslEvaluationError):
            history.prev(5)

    def test_next_with_preloaded_trace(self):
        history = SignalHistory("v")
        history.load([10, 20, 30])
        assert history.current() == 10
        assert history.next() == 20
        history.seek(2)
        assert history.current() == 30
        with pytest.raises(PslEvaluationError):
            history.next()

    def test_first_cycle_edges_false(self):
        history = SignalHistory("v")
        history.record(True)
        assert not history.rose()
        assert not history.fell()
        assert not history.stable()

    def test_empty_history_raises(self):
        with pytest.raises(PslEvaluationError):
            SignalHistory("v").current()

    def test_seek_bounds(self):
        history = SignalHistory("v")
        history.record(1)
        with pytest.raises(PslEvaluationError):
            history.seek(5)


NAMES = ("a", "b", "count")

letters = st.fixed_dictionaries(
    {"a": st.booleans(), "b": st.booleans(), "count": st.integers(0, 7)}
)
histories = st.lists(letters, min_size=1, max_size=4)

def _implies_ab():
    return parse_bool("a").implies(parse_bool("b"))


def _iff_ab():
    return parse_bool("a").iff(parse_bool("b"))


EXPRESSIONS = [
    "a", "!a", "a && b", "a || b", "a ^ b",
    "count == 3", "count + 1 > 2", "count * 2 <= 14", "count % 2 == 0",
    "rose(a)", "fell(b)", "stable(count)", "prev(count) == count",
    "prev(count, 2) < count", "rose(a) && !fell(b)", "true", "false",
    # implication/equivalence live in the Boolean layer too (paper
    # Section 2.1.2) but are spelled at the FL level in concrete
    # syntax, so we build them through the node API:
    _implies_ab, _iff_ab,
]


def _reference(expression, history):
    """The AST interpreter at the window's end, missing values False."""
    try:
        return bool(expression.eval_bool(EvalContext(history, len(history) - 1)))
    except PslEvaluationError:
        return False


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPRESSIONS), histories)
def test_compiled_matches_interpreter(text, history):
    expression = text() if callable(text) else parse_bool(text)
    compiled = bool_function(expression)
    assert compiled(history) == _reference(expression, history), text


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(EXPRESSIONS), histories)
def test_fused_lowering_matches_interpreter(text, history):
    """The fused set's hoisted, unguarded lowering of the same atom:
    a ``cover`` member counts a hit exactly when the atom holds."""
    expression = text() if callable(text) else parse_bool(text)
    directive = Directive(
        kind=DirectiveKind.COVER, prop=Property(name="c", formula=FlBool(expression))
    )
    cover, = compile_properties([directive], engine="compiled")
    for position, letter in enumerate(history):
        before = cover.hits
        cover.step(letter)
        truth = _reference(expression, history[: position + 1])
        assert (cover.hits - before == 1) == truth, (text, position)


def test_compiler_fallback_on_exotic_nodes():
    expression = parse_bool("isunknown(zz)")
    compiled = bool_function(expression)
    assert compiled([{"a": 1}]) is True  # zz missing -> unknown


def test_compiled_missing_signal_is_false():
    compiled = bool_function(parse_bool("ghost && a"))
    assert compiled([{"a": True}]) is False


def test_prev_with_nonconstant_depth_falls_back():
    expression = parse_bool("prev(count, count) == 0")
    compiled = bool_function(expression)  # must not crash at build time
    assert callable(compiled)


def test_short_history_is_false_not_an_error():
    assert bool_function(parse_bool("rose(a)"))([{"a": True}]) is False
    assert bool_function(parse_bool("prev(a, 2)"))([{"a": True}] * 2) is False


def test_type_errors_still_propagate():
    with pytest.raises(PslTypeError):
        bool_function(parse_bool("a"))([{"a": 1.5}])
