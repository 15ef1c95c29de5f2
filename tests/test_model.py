import copy
import math
import pickle

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
        for ctor in (at_most, exactly, at_least):
            with pytest.raises(ValueError):
                ctor(0)

    def test_between_requires_order(self):
        with pytest.raises(ValueError):
            between(3, 2)

    def test_mode_text_roundtrip_shapes(self):
        assert mode_text(STAR) == "*"
        assert mode_text(T_MODE) == "t"
        assert mode_text(exactly(2)) == "=2"
        assert mode_text(between(1, 3)) == "(>=1 & <=3)"
        assert mode_text(t_and(at_most(2))) == "(t & <=2)"

    def test_mode_set_d(self):
        for m in (STAR, T_MODE, exactly(1), at_most(2), at_least(3),
                  between(1, 2), t_and(exactly(2))):
            assert is_in_mode_set_d(m)
        assert not is_in_mode_set_d(Mode("and", left=STAR, right=T_MODE))

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

    def test_validation_is_pure_and_never_raises(self, pg_abc):
        assert validate(pg_abc) == []
