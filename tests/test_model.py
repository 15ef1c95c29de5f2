import copy
import math
import pickle
from dataclasses import replace

import pytest

from gsworkbench.model import (
    NONTERMINAL,
    TERMINAL,
    CdSystem,
    HcdSystem,
    Mode,
    ProgrammedGrammar,
    Rule,
    STAR,
    T_MODE,
    Symbol,
    at_least,
    at_most,
    between,
    conj,
    exactly,
    form_text,
    is_in_mode_set_d,
    is_terminal_form,
    mode_window,
    mode_text,
    nonterminal,
    nonterminal_count,
    t_and,
    terminal,
    validate,
)
from gsworkbench.engine import Bounds, mode_predicate, mode_step

S = nonterminal("S")
A = nonterminal("A")
a = terminal("a")
b = terminal("b")


def simple_cd(components, **kw):
    defaults = dict(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a, b}),
        axiom=S,
        components=components,
    )
    defaults.update(kw)
    return CdSystem(**defaults)


def one_label_pg(**kw):
    """A programmed grammar with the one label p, S -> a, fields replaced by `kw`."""
    fields = dict(
        nonterminals=frozenset({S}),
        terminals=frozenset({a}),
        axiom=S,
        labels=("p",),
        rule_of={"p": Rule(S, (a,))},
        success={"p": frozenset({"p"})},
        failure={"p": frozenset()},
    )
    fields.update(kw)
    return ProgrammedGrammar(**fields)


class TestSymbolsAndForms:
    def test_symbol_kinds(self):
        assert a.is_terminal() and not S.is_terminal()
        assert (S.name, S.kind) == ("S", NONTERMINAL) and a.kind == TERMINAL
        with pytest.raises(ValueError):
            nonterminal("")
        with pytest.raises(ValueError):
            Symbol("S", "X")
        assert terminal("S") != nonterminal("S")
        again = Symbol("S", NONTERMINAL)
        assert again == S and hash(again) == hash(S)
        for sym in (S, a):
            for copied in (pickle.loads(pickle.dumps(sym)), copy.deepcopy(sym)):
                assert copied == sym and type(copied) is Symbol
                assert copied.is_terminal() == sym.is_terminal()
        # ordered by name, then kind ("N" before "T")
        mixed = [b, terminal("S"), a, S, A]
        assert sorted(mixed) == [A, S, terminal("S"), a, b]

    def test_rule_rhs_must_be_symbols(self):
        assert Rule(S, iter((a, S))).rhs == (a, S)
        # a bare symbol is a tuple too; it must not pass as the rhs ("a", "T")
        with pytest.raises(TypeError):
            Rule(S, a)
        with pytest.raises(TypeError):
            Rule(S, ("a", "T"))

    def test_form_text_lambda(self):
        assert form_text(()) == "#"
        assert form_text((a, S, b)) == "a S b"

    def test_counts(self):
        assert nonterminal_count((a, S, A)) == 2
        assert is_terminal_form((a, b)) and not is_terminal_form((a, S))


class TestModes:
    def test_constructors_reject_nonpositive(self):
        for ctor in (at_most, exactly, at_least, lambda k: between(k, 2)):
            with pytest.raises(ValueError, match="mode bound must be positive"):
                ctor(0)

    def test_between_requires_order(self):
        with pytest.raises(ValueError):
            between(3, 2)

    @pytest.mark.parametrize("inner", [STAR, T_MODE, t_and(exactly(1))], ids=mode_text)
    def test_t_and_nests_only_a_comparison(self, inner):
        with pytest.raises(ValueError, match="t_and nests only"):
            t_and(inner)

    def test_mode_text_roundtrip_shapes(self):
        assert mode_text(STAR) == "*"
        assert mode_text(T_MODE) == "t"
        assert mode_text(exactly(2)) == "=2"
        assert mode_text(between(1, 3)) == "(>=1 & <=3)"
        assert mode_text(t_and(at_most(2))) == "(t & <=2)"
        # True equals 1, so this value is at_most(1) and prints as it
        assert Mode("le", True) == at_most(1) and mode_text(Mode("le", True)) == "<=1"

    def test_mode_set_d(self):
        for m in (STAR, T_MODE, exactly(1), at_most(2), at_least(3),
                  between(1, 2), t_and(exactly(2))):
            assert is_in_mode_set_d(m)
        assert not is_in_mode_set_d(Mode("and", left=STAR, right=T_MODE))
        # a field its kind does not use, or a bound that is not an int: the
        # text reads back as another value
        for m in (Mode("*", 2), Mode("t", 1), Mode("le", 2, left=STAR),
                  Mode("and", 1, T_MODE, exactly(1)), Mode("eq", 1.5)):
            assert not is_in_mode_set_d(m)

    def test_step_caps(self):
        inf = math.inf
        table = [
            (STAR, (0, inf, False)),
            (T_MODE, (0, inf, True)),
            (at_most(2), (0, 2, False)),
            (exactly(3), (3, 3, False)),
            (at_least(2), (2, inf, False)),
            (between(2, 5), (2, 5, False)),
            (t_and(at_most(2)), (0, 2, True)),
            (t_and(exactly(3)), (3, 3, True)),
            (t_and(at_least(2)), (2, inf, True)),
            # a conjunction: the larger lo, the smaller hi, either t
            (conj(exactly(2), at_most(1)), (2, 1, False)),
            (conj(conj(T_MODE, at_least(1)), conj(at_least(3), STAR)), (3, inf, True)),
        ]
        for mode, window in table:
            assert mode_window(mode) == window, mode
        with pytest.raises(ValueError):
            mode_window(Mode("?"))

    @pytest.mark.parametrize("mode", [Mode("and"), Mode("and", left=T_MODE)],
                             ids=["no operands", "no right operand"])
    def test_conjunction_without_an_operand_raises_value_error(self, mode):
        # as an unknown kind does, not AttributeError from the missing operand
        rules = (Rule(S, (a,)),)
        with pytest.raises(ValueError, match="lacks an operand"):
            mode_window(mode)
        with pytest.raises(ValueError, match="lacks an operand"):
            mode_step((S,), rules, mode, Bounds(3, 3))
        with pytest.raises(ValueError, match="lacks an operand"):
            mode_predicate(mode, 1, rules, (a,))


class TestValidation:
    def test_valid_system_is_clean(self):
        g = simple_cd(((Rule(S, (a, A)), Rule(A, (b,))),))
        assert validate(g) == []

    def test_zero_components(self):
        g = simple_cd(())
        assert any(v.startswith("degree:") for v in validate(g))

    def test_axiom_must_be_nonterminal(self):
        g = simple_cd(((Rule(S, (a,)),),), axiom=nonterminal("Z"))
        assert any(v.startswith("axiom:") for v in validate(g))

    def test_erasing_rule_flagged_when_lambda_free(self):
        g = simple_cd(((Rule(S, ()),),), lambda_free=True)
        assert any(v.startswith("erasing-rule:") for v in validate(g))
        g2 = simple_cd(((Rule(S, ()),),), lambda_free=False)
        assert not any(v.startswith("erasing-rule:") for v in validate(g2))

    def test_alien_symbol(self):
        g = simple_cd(((Rule(S, (terminal("z"),)),),))
        assert any(v.startswith("alien-symbol:") for v in validate(g))

    def test_alphabet_overlap(self):
        g = simple_cd(
            ((Rule(S, (a,)),),),
            nonterminals=frozenset({S, nonterminal("a")}),
        )
        assert any(v.startswith("alphabet-overlap:") for v in validate(g))

    def test_hcd_mode_count_and_set(self):
        g = HcdSystem(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (a,)),),),
            modes=(Mode("and", left=STAR, right=STAR),),
        )
        out = validate(g)
        assert any(v.startswith("mode-invalid:") for v in out)

    @pytest.mark.parametrize("mode", [
        Mode("le", 0),
        Mode("ge", 0),
        conj(T_MODE, Mode("eq", 0)),
        conj(Mode("ge", 0), Mode("le", 2)),
    ], ids=mode_text)
    def test_hcd_mode_bounds_must_be_positive(self, mode):
        g = HcdSystem(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (a,)),),),
            modes=(mode,),
        )
        assert validate(g) == [
            "mode-invalid: component 1 mode %s outside the mode set" % mode_text(mode)
        ]

    @pytest.mark.parametrize("mode", [
        Mode("and"),
        Mode("and", left=T_MODE),
        Mode("and", right=exactly(2)),
    ], ids=["no operands", "no right operand", "no left operand"])
    def test_hcd_conjunction_without_an_operand_is_invalid(self, mode):
        g = HcdSystem(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (a,)),),),
            modes=(mode,),
        )
        assert validate(g) == [
            "mode-invalid: component 1 mode %s outside the mode set" % mode_text(mode)
        ]

    @pytest.mark.parametrize("kind", ["?", "bogus"])
    def test_hcd_unknown_kind_is_named_by_its_kind(self, kind):
        # not as the conjunction "(? & ?)"
        g = HcdSystem(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (a,)),),),
            modes=(Mode(kind),),
        )
        assert validate(g) == [
            "mode-invalid: component 1 mode %s outside the mode set" % kind
        ]

    @pytest.mark.parametrize("mode, text", [
        (Mode("le", None), "<=None"),
        (Mode("eq", 1.5), "=1.5"),
    ], ids=["None bound", "float bound"])
    def test_hcd_bound_that_is_not_an_int_is_named_as_it_is(self, mode, text):
        # neither a TypeError from formatting None nor "=1", another mode
        g = HcdSystem(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (a,)),),),
            modes=(mode,),
        )
        assert validate(g) == [
            "mode-invalid: component 1 mode %s outside the mode set" % text
        ]

    def test_programmed_field_targets(self):
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            labels=("p",),
            rule_of={"p": Rule(S, (a,))},
            success={"p": frozenset({"ghost"})},
            failure={"p": frozenset()},
        )
        assert any(v.startswith("field-target:") for v in validate(pg))

    def test_programmed_missing_rule(self):
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            labels=("p", "q"),
            rule_of={"p": Rule(S, (a,))},
            success={"p": frozenset(), "q": frozenset()},
            failure={"p": frozenset(), "q": frozenset()},
        )
        assert any(v.startswith("rule-missing:") for v in validate(pg))

    @pytest.mark.parametrize(
        "grammar, message",
        [
            (one_label_pg(labels=()), "labels: at least one label required"),
            (one_label_pg(labels=("p", "p")), "labels: duplicate labels"),
            (one_label_pg(success={}), "field-missing: succ field not defined for label p"),
            (one_label_pg(failure={}), "field-missing: fail field not defined for label p"),
            (
                HcdSystem(frozenset({S}), frozenset({a}), S, ((Rule(S, (a,)),),), (T_MODE, STAR)),
                "modes: one mode per component required",
            ),
            (simple_cd(((Rule(S, (b,)),),), nonterminals={S, a}, terminals={b}), "kind-mismatch: a listed as nonterminal"),
            (simple_cd(((Rule(S, (a,)),),), nonterminals={S}, terminals={a, A}), "kind-mismatch: A listed as terminal"),
            (
                simple_cd(((Rule(S, (a,)),),), terminals={a, terminal("b#")}),
                "bad-name: symbol name 'b#' not an identifier",
            ),
            (
                simple_cd(((Rule(S, (a,)), Rule(a, (S,))),)),
                "lhs-not-nonterminal: component 1 rule a -> S has lhs outside the nonterminal alphabet",
            ),
            (
                one_label_pg(rule_of={"p": Rule(A, (a,))}, nonterminals={S}),
                "lhs-not-nonterminal: programmed rule A -> a has lhs outside the nonterminal alphabet",
            ),
        ],
        ids=[
            "no label",
            "duplicate label",
            "no success field",
            "no failure field",
            "two modes for one component",
            "terminal listed as nonterminal",
            "nonterminal listed as terminal",
            "symbol name",
            "terminal lhs",
            "programmed lhs outside the alphabet",
        ],
    )
    def test_violation_table(self, grammar, message):
        assert validate(grammar) == [message]

    def test_validation_is_pure_and_never_raises(self, pg_abc):
        assert validate(pg_abc) == []


class TestReadOnlyProgrammedGrammar:
    def test_mappings_reject_edits(self, pg_abc):
        # the searches cache a grammar's compile by its id, so an edit in
        # place would leave them answering for the old rules
        with pytest.raises(TypeError):
            pg_abc.rule_of["p6"] = Rule(pg_abc.rule_of["p6"].lhs, (a, a))
        for field_map in (pg_abc.success, pg_abc.failure):
            with pytest.raises(TypeError):
                field_map["p6"] = frozenset()
        assert replace(pg_abc) == pg_abc
        assert copy.deepcopy(pg_abc) == pg_abc
        with pytest.raises(TypeError):
            hash(pg_abc)
        assert pickle.loads(pickle.dumps(pg_abc)) == pg_abc
