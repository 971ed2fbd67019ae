"""Recursive-descent parser for a substantial PSL subset.

Grammar (simplified; precedence low to high):

.. code-block:: text

    vunit        := 'vunit' NAME '{' item* '}'
    item         := property_decl | directive
    property_decl:= 'property' NAME '=' formula [report] ';'
    directive    := ('assert'|'assume'|'restrict'|'cover')
                    (NAME | formula) [report] ';'
    report       := 'report' STRING

    formula      := clocked
    clocked      := aborted ('@' primary_bool)?
    aborted      := iff ('abort' primary_bool)?
    iff          := impl ('<->' impl)*
    impl         := or_f ('->' impl)?            (right associative)
    or_f         := and_f ('||' and_f)*
    and_f        := until_f ('&&' until_f)*
    until_f      := unary (('until'|'until!'|'until_'|'until!_'
                          |'before'|'before!'|'before_'|'before!_') unary)*
    unary        := 'always' unary | 'never' unary | 'eventually!' unary
                  | ('next'|'next!') ('[' NUM ']')? unary
                  | ('next_a'|'next_a!'|'next_e'|'next_e!')
                        '[' NUM (':'|'..') NUM ']' unary
                  | ('next_event'|'next_event!') '(' bool ')'
                        ('[' NUM ']')? '(' formula ')'
                  | sere_block | '(' formula ')' | bool_expr
    sere_block   := '{' sere '}' ('!' | ('|->'|'|=>') unary)?

    sere         := sere_or
    sere_or      := sere_and ('|' sere_and)*
    sere_and     := sere_within (('&&'|'&') sere_within)*
    sere_within  := sere_concat ('within' sere_concat)*
    sere_concat  := sere_fusion (';' sere_fusion)*
    sere_fusion  := sere_rep (':' sere_rep)*
    sere_rep     := sere_prim repeat*
    repeat       := '[*' (NUM ((':'|'..') (NUM|'inf'))?)? ']' | '[+]'
                  | '[->' (NUM ((':'|'..') NUM)?)? ']'
                  | '[=' NUM ((':'|'..') NUM)? ']'
    sere_prim    := '{' sere '}' | bool_expr

Boolean expressions use C-style precedence (``||``, ``&&``, comparison,
additive, multiplicative, unary ``!``/``-``, primary).  ``posedge e`` and
``negedge e`` are sugar for ``rose(e)`` / ``fell(e)``.

Note that inside a formula, ``a && b`` over plain booleans binds at the
Boolean layer -- semantically identical to the FL conjunction, so the
ambiguity is harmless (and resolved the same way by real PSL tools).
"""

from __future__ import annotations

import functools
from typing import List, Optional

from .ast_nodes import (
    Arith,
    Compare,
    Const,
    Directive,
    DirectiveKind,
    Expr,
    FlAbort,
    FlAlways,
    FlAnd,
    FlBefore,
    FlBool,
    FlClocked,
    FlEventually,
    FlIff,
    FlImplies,
    FlNever,
    FlNext,
    FlNextA,
    FlNextE,
    FlNextEvent,
    FlNot,
    FlOr,
    FlSere,
    FlSuffixImpl,
    FlUntil,
    Formula,
    Func,
    Index,
    Not,
    Property,
    Sere,
    SereAnd,
    SereBool,
    SereConcat,
    SereFusion,
    SereGoto,
    SereNonConsec,
    SereOr,
    SereRepeat,
    Var,
    VUnit,
    sere_within,
)
from .errors import PslParseError
from .lexer import EOF, Token, tokenize


class Parser:
    """Token-stream parser; use the module-level helpers for one-shots."""

    def __init__(self, source: str):
        self.tokens: List[Token] = tokenize(source)
        self.position = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        index = self.position + ahead
        return self.tokens[index] if index < len(self.tokens) else EOF

    def advance(self) -> Token:
        token = self.peek()
        self.position += 1
        return token

    def expect_op(self, text: str) -> Token:
        token = self.peek()
        if not token.is_op(text):
            raise PslParseError(
                f"expected {text!r}, found {token.text!r}", token.line, token.column
            )
        return self.advance()

    def expect_kw(self, word: str) -> Token:
        token = self.peek()
        if not token.is_kw(word):
            raise PslParseError(
                f"expected {word!r}, found {token.text!r}", token.line, token.column
            )
        return self.advance()

    def expect_ident(self) -> Token:
        token = self.peek()
        if token.kind != "ident":
            raise PslParseError(
                f"expected identifier, found {token.text!r}", token.line, token.column
            )
        return self.advance()

    def expect_number(self) -> int:
        token = self.peek()
        if token.kind != "number":
            raise PslParseError(
                f"expected number, found {token.text!r}", token.line, token.column
            )
        self.advance()
        return int(token.text)

    def at_end(self) -> bool:
        return self.position >= len(self.tokens)

    def _fail(self, message: str) -> PslParseError:
        token = self.peek()
        return PslParseError(message, token.line, token.column)

    # -- verification layer --------------------------------------------------

    def parse_vunit(self) -> VUnit:
        self.expect_kw("vunit")
        name = self.expect_ident().text
        self.expect_op("{")
        unit = VUnit(name)
        named: dict[str, Property] = {}
        counter = 0
        while not self.peek().is_op("}"):
            token = self.peek()
            if token.is_kw("property"):
                prop = self.parse_property_decl()
                named[prop.name] = prop
            elif token.is_kw(*DirectiveKind.ALL):
                kind = self.advance().text
                counter += 1
                prop = self._parse_directive_body(kind, named, counter)
                unit.add(Directive(kind, prop))
            else:
                raise self._fail(f"unexpected token {token.text!r} in vunit")
        self.expect_op("}")
        return unit

    def parse_property_decl(self) -> Property:
        self.expect_kw("property")
        name = self.expect_ident().text
        self.expect_op("=")
        formula = self.parse_formula()
        report = self._maybe_report()
        self.expect_op(";")
        return Property(name, formula, report=report)

    def parse_directive(self) -> Directive:
        token = self.peek()
        if not token.is_kw(*DirectiveKind.ALL):
            raise self._fail(f"expected a directive, found {token.text!r}")
        kind = self.advance().text
        prop = self._parse_directive_body(kind, {}, 1)
        return Directive(kind, prop)

    def _parse_directive_body(
        self, kind: str, named: dict[str, Property], counter: int
    ) -> Property:
        token = self.peek()
        if token.kind == "ident" and self.peek(1).is_op(";"):
            name = self.advance().text
            if name not in named:
                raise self._fail(f"directive references unknown property {name!r}")
            self.expect_op(";")
            return named[name]
        formula = self.parse_formula()
        report = self._maybe_report()
        self.expect_op(";")
        return Property(f"{kind}_{counter}", formula, report=report)

    def _maybe_report(self) -> str:
        if self.peek().is_kw("report"):
            self.advance()
            token = self.peek()
            if token.kind != "string":
                raise self._fail("report needs a string literal")
            self.advance()
            return token.text
        return ""

    # -- FL formulas -------------------------------------------------------------

    def parse_formula(self) -> Formula:
        formula = self._parse_aborted()
        if self.peek().is_op("@"):
            self.advance()
            clock = self._parse_bool_primary_expr()
            formula = FlClocked(formula, clock)
        return formula

    def _parse_aborted(self) -> Formula:
        formula = self._parse_iff()
        while self.peek().is_kw("abort"):
            self.advance()
            condition = self._parse_bool_primary_expr()
            formula = FlAbort(formula, condition)
        return formula

    def _parse_iff(self) -> Formula:
        left = self._parse_impl()
        while self.peek().is_op("<->"):
            self.advance()
            right = self._parse_impl()
            left = FlIff(left, right)
        return left

    def _parse_impl(self) -> Formula:
        left = self._parse_or()
        if self.peek().is_op("->"):
            self.advance()
            right = self._parse_impl()  # right associative
            return FlImplies(left, right)
        return left

    def _parse_or(self) -> Formula:
        left = self._parse_and()
        while self.peek().is_op("||"):
            self.advance()
            left = FlOr(left, self._parse_and())
        return left

    def _parse_and(self) -> Formula:
        left = self._parse_until()
        while self.peek().is_op("&&"):
            self.advance()
            left = FlAnd(left, self._parse_until())
        return left

    _UNTIL_KWS = (
        "until",
        "until!",
        "until_",
        "until!_",
        "before",
        "before!",
        "before_",
        "before!_",
    )

    def _parse_until(self) -> Formula:
        left = self._parse_unary()
        while self.peek().is_kw(*self._UNTIL_KWS):
            word = self.advance().text
            right = self._parse_unary()
            strong = "!" in word
            inclusive = word.endswith("_")
            if word.startswith("until"):
                left = FlUntil(left, right, strong=strong, inclusive=inclusive)
            else:
                left = FlBefore(left, right, strong=strong, inclusive=inclusive)
        return left

    def _parse_unary(self) -> Formula:
        token = self.peek()
        if token.is_kw("always"):
            self.advance()
            return FlAlways(self._parse_unary_chain())
        if token.is_kw("never"):
            self.advance()
            return FlNever(self._parse_unary_chain())
        if token.is_kw("eventually!"):
            self.advance()
            return FlEventually(self._parse_unary_chain())
        if token.is_kw("next", "next!"):
            self.advance()
            count = 1
            if self.peek().is_op("["):
                self.advance()
                count = self.expect_number()
                self.expect_op("]")
            return FlNext(
                self._parse_unary_chain(), strong=token.text.endswith("!"), count=count
            )
        if token.is_kw("next_a", "next_a!", "next_e", "next_e!"):
            self.advance()
            self.expect_op("[")
            low = self.expect_number()
            self._expect_range_sep()
            high = self.expect_number()
            self.expect_op("]")
            operand = self._parse_unary_chain()
            strong = token.text.endswith("!")
            if token.text.startswith("next_a"):
                return FlNextA(operand, low, high, strong=strong)
            return FlNextE(operand, low, high, strong=strong)
        if token.is_kw("next_event", "next_event!"):
            self.advance()
            self.expect_op("(")
            trigger = self.parse_bool_expr()
            self.expect_op(")")
            count = 1
            if self.peek().is_op("["):
                self.advance()
                count = self.expect_number()
                self.expect_op("]")
            self.expect_op("(")
            operand = self.parse_formula()
            self.expect_op(")")
            return FlNextEvent(
                trigger, operand, count=count, strong=token.text.endswith("!")
            )
        if token.is_op("{"):
            return self._parse_sere_block()
        if token.is_op("!"):
            # Could be FL negation; parse the boolean expression first and
            # fall back to FL negation when a temporal operand follows.
            if self._looks_temporal(1):
                self.advance()
                return FlNot(self._parse_unary())
            return FlBool(self.parse_bool_expr())
        if token.is_op("("):
            # Parenthesised formula or boolean expression: try boolean
            # first (it covers pure-boolean parens), fall back to FL.
            saved = self.position
            try:
                expression = self.parse_bool_expr()
                return FlBool(expression)
            except PslParseError:
                self.position = saved
            self.advance()  # '('
            inner = self.parse_formula()
            self.expect_op(")")
            return inner
        # A boolean leaf.  The greedy boolean parser may swallow a
        # '&&'/'||' whose right operand turns out to be temporal (e.g.
        # "p && next q"); back off to the comparison level in that case
        # and let the FL connectives take over.
        saved = self.position
        try:
            return FlBool(self.parse_bool_expr())
        except PslParseError:
            self.position = saved
            return FlBool(self._parse_b_compare())

    def _parse_unary_chain(self) -> Formula:
        """Operand of a unary temporal operator: extends right as far as
        possible (PSL convention: ``always a -> b`` is ``always (a -> b)``)."""
        return self._parse_aborted()

    def _looks_temporal(self, ahead: int) -> bool:
        token = self.peek(ahead)
        return token.is_kw(
            "always",
            "never",
            "eventually!",
            "next",
            "next!",
            "next_a",
            "next_a!",
            "next_e",
            "next_e!",
            "next_event",
            "next_event!",
        ) or token.is_op("{")

    def _parse_sere_block(self) -> Formula:
        self.expect_op("{")
        inner = self.parse_sere()
        self.expect_op("}")
        token = self.peek()
        if token.is_op("|->", "|=>"):
            self.advance()
            consequent = self._parse_unary()
            return FlSuffixImpl(inner, consequent, overlapping=token.text == "|->")
        if token.is_op("!"):
            self.advance()
            return FlSere(inner, strong=True)
        return FlSere(inner, strong=False)

    def _expect_range_sep(self) -> None:
        token = self.peek()
        if token.is_op(":") or token.is_op(".."):
            self.advance()
            return
        raise self._fail(f"expected ':' or '..', found {token.text!r}")

    # -- SEREs -----------------------------------------------------------------

    def parse_sere(self) -> Sere:
        return self._parse_sere_or()

    def _parse_sere_or(self) -> Sere:
        left = self._parse_sere_and()
        while self.peek().is_op("|"):
            self.advance()
            left = SereOr(left, self._parse_sere_and())
        return left

    def _parse_sere_and(self) -> Sere:
        left = self._parse_sere_within()
        while self.peek().is_op("&&", "&"):
            operator = self.advance().text
            right = self._parse_sere_within()
            left = SereAnd(left, right, length_matching=operator == "&&")
        return left

    def _parse_sere_within(self) -> Sere:
        left = self._parse_sere_concat()
        while self.peek().is_kw("within"):
            self.advance()
            outer = self._parse_sere_concat()
            left = sere_within(left, outer)
        return left

    def _parse_sere_concat(self) -> Sere:
        parts = [self._parse_sere_fusion()]
        while self.peek().is_op(";"):
            self.advance()
            parts.append(self._parse_sere_fusion())
        if len(parts) == 1:
            return parts[0]
        return SereConcat(tuple(parts))

    def _parse_sere_fusion(self) -> Sere:
        left = self._parse_sere_repeat()
        while self.peek().is_op(":"):
            self.advance()
            left = SereFusion(left, self._parse_sere_repeat())
        return left

    def _parse_sere_repeat(self) -> Sere:
        base = self._parse_sere_primary()
        while True:
            token = self.peek()
            if token.is_op("[*"):
                self.advance()
                low, high = 0, None
                if self.peek().kind == "number":
                    low = self.expect_number()
                    high = low
                    if self.peek().is_op(":") or self.peek().is_op(".."):
                        self.advance()
                        if self.peek().is_kw("inf"):
                            self.advance()
                            high = None
                        else:
                            high = self.expect_number()
                self.expect_op("]")
                base = SereRepeat(base, low, high)
            elif token.is_op("[+]"):
                self.advance()
                base = SereRepeat(base, 1, None)
            elif token.is_op("[->"):
                self.advance()
                low, high = 1, None
                if self.peek().kind == "number":
                    low = self.expect_number()
                    if self.peek().is_op(":") or self.peek().is_op(".."):
                        self.advance()
                        high = self.expect_number()
                self.expect_op("]")
                base = SereGoto(self._sere_to_expr(base), low, high)
            elif token.is_op("[="):
                self.advance()
                low = self.expect_number()
                high = None
                if self.peek().is_op(":") or self.peek().is_op(".."):
                    self.advance()
                    high = self.expect_number()
                self.expect_op("]")
                base = SereNonConsec(self._sere_to_expr(base), low, high)
            else:
                return base

    def _sere_to_expr(self, item: Sere) -> Expr:
        if isinstance(item, SereBool):
            return item.expr
        raise self._fail("goto/non-consecutive repetition applies to booleans only")

    def _parse_sere_primary(self) -> Sere:
        if self.peek().is_op("{"):
            self.advance()
            inner = self.parse_sere()
            self.expect_op("}")
            return inner
        return SereBool(self.parse_bool_expr())

    # -- Boolean layer -------------------------------------------------------------

    def parse_bool_expr(self) -> Expr:
        return self._parse_b_or()

    def _parse_b_or(self) -> Expr:
        left = self._parse_b_and()
        while self.peek().is_op("||"):
            self.advance()
            from .ast_nodes import Or

            left = Or(left, self._parse_b_and())
        return left

    def _parse_b_and(self) -> Expr:
        left = self._parse_b_xor()
        while self.peek().is_op("&&"):
            self.advance()
            from .ast_nodes import And

            left = And(left, self._parse_b_xor())
        return left

    def _parse_b_xor(self) -> Expr:
        left = self._parse_b_compare()
        while self.peek().is_op("^"):
            self.advance()
            from .ast_nodes import Xor

            left = Xor(left, self._parse_b_compare())
        return left

    def _parse_b_compare(self) -> Expr:
        left = self._parse_b_additive()
        token = self.peek()
        if token.is_op("==", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self._parse_b_additive()
            return Compare(token.text, left, right)
        return left

    def _parse_b_additive(self) -> Expr:
        left = self._parse_b_multiplicative()
        while self.peek().is_op("+", "-"):
            operator = self.advance().text
            left = Arith(operator, left, self._parse_b_multiplicative())
        return left

    def _parse_b_multiplicative(self) -> Expr:
        left = self._parse_b_unary()
        while self.peek().is_op("*", "/", "%"):
            operator = self.advance().text
            left = Arith(operator, left, self._parse_b_unary())
        return left

    def _parse_b_unary(self) -> Expr:
        token = self.peek()
        if token.is_op("!"):
            self.advance()
            return Not(self._parse_b_unary())
        if token.is_op("-"):
            self.advance()
            operand = self._parse_b_unary()
            return Arith("-", Const(0), operand)
        return self._parse_b_postfix()

    def _parse_b_postfix(self) -> Expr:
        base = self._parse_bool_primary_expr()
        while self.peek().is_op("["):
            # Bit select; reject when it is actually a repetition suffix
            # (handled by the SERE layer) -- those use '[*', '[+]' etc.
            self.advance()
            index = self.parse_bool_expr()
            self.expect_op("]")
            base = Index(base, index)
        return base

    def _parse_bool_primary_expr(self) -> Expr:
        token = self.peek()
        if token.is_op("("):
            self.advance()
            inner = self.parse_bool_expr()
            self.expect_op(")")
            return inner
        if token.kind == "number":
            self.advance()
            return Const(int(token.text))
        if token.is_kw("true"):
            self.advance()
            return Const(True)
        if token.is_kw("false"):
            self.advance()
            return Const(False)
        if token.is_kw("posedge", "negedge"):
            self.advance()
            operand = self._parse_bool_primary_expr()
            return Func("rose" if token.text == "posedge" else "fell", (operand,))
        if token.is_kw(
            "prev", "rose", "fell", "stable", "countones", "onehot", "onehot0", "isunknown"
        ) or (token.kind == "ident" and self.peek(1).is_op("(")):
            name = self.advance().text
            self.expect_op("(")
            args = [self.parse_bool_expr()]
            while self.peek().is_op(","):
                self.advance()
                args.append(self.parse_bool_expr())
            self.expect_op(")")
            return Func(name, tuple(args))
        if token.kind == "ident":
            self.advance()
            return Var(token.text)
        raise self._fail(f"unexpected token {token.text!r} in boolean expression")


# -- module-level one-shot helpers ------------------------------------------------


@functools.lru_cache(maxsize=4096)
def parse_formula(source: str) -> Formula:
    """Parse a single FL formula, e.g. ``"always {req} |=> {gnt}"``.

    Memoized by text: formulas are immutable, and model property
    suites re-parse the same texts for every scenario they monitor.
    """
    parser = Parser(source)
    formula = parser.parse_formula()
    if not parser.at_end():
        leftover = parser.peek()
        raise PslParseError(
            f"trailing input {leftover.text!r}", leftover.line, leftover.column
        )
    return formula


def parse_sere(source: str) -> Sere:
    """Parse a single SERE, e.g. ``"req ; !req[*] ; gnt"``."""
    parser = Parser(source)
    result = parser.parse_sere()
    if not parser.at_end():
        leftover = parser.peek()
        raise PslParseError(
            f"trailing input {leftover.text!r}", leftover.line, leftover.column
        )
    return result


def parse_bool(source: str) -> Expr:
    """Parse a Boolean-layer expression."""
    parser = Parser(source)
    result = parser.parse_bool_expr()
    if not parser.at_end():
        leftover = parser.peek()
        raise PslParseError(
            f"trailing input {leftover.text!r}", leftover.line, leftover.column
        )
    return result


def parse_vunit(source: str) -> VUnit:
    """Parse a ``vunit NAME { ... }`` block."""
    parser = Parser(source)
    unit = parser.parse_vunit()
    if not parser.at_end():
        leftover = parser.peek()
        raise PslParseError(
            f"trailing input {leftover.text!r}", leftover.line, leftover.column
        )
    return unit


def parse_directive(source: str) -> Directive:
    """Parse a standalone ``assert/assume/restrict/cover`` directive."""
    parser = Parser(source)
    result = parser.parse_directive()
    if not parser.at_end():
        leftover = parser.peek()
        raise PslParseError(
            f"trailing input {leftover.text!r}", leftover.line, leftover.column
        )
    return result
