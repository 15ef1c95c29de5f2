from itertools import permutations
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from gsworkbench import constructions as C
from gsworkbench.engine import Bounds, enumerate_grammar
from gsworkbench.fileformat import serialize
from gsworkbench.model import (
    STAR,
    T_MODE,
    CdSystem,
    Mode,
    Rule,
    at_least,
    at_most,
    between,
    conj,
    exactly,
    mode_text,
    nonterminal,
    t_and,
    terminal,
    validate,
)

from conftest import cf_bounded, make_pg_abc, words_of

S = nonterminal("S")
A = nonterminal("A")
B = nonterminal("B")
a = terminal("a")
b = terminal("b")


def assert_alphabets_are_those_of_its_rules(g):
    rules = [rule for comp in g.components for rule in comp]
    symbols = {g.axiom} | {r.lhs for r in rules} | {s for r in rules for s in r.rhs}
    assert g.nonterminals == {s for s in symbols if not s.is_terminal()}
    assert g.terminals == {s for s in symbols if s.is_terminal()}
    assert g.lambda_free == (not any(r.is_erasing() for r in rules))


@pytest.mark.parametrize("build, args", [
    pytest.param(C.build_example1, (k,), id="example1-%d" % k) for k in range(2, 6)
] + [
    pytest.param(C.build_anbnambm, (), id="anbnambm"),
    pytest.param(C.build_s3_cd3, (), id="s3"),
] + [
    pytest.param(C.build_snk_cdgs, (n, k, v), id="snk-%d-%d-%s" % (n, k, v))
    for n in (1, 2, 3) for k in (1, 2, 3) for v in C._VARIANTS
])
def test_a_named_system_declares_exactly_the_symbols_of_its_rules(build, args):
    assert_alphabets_are_those_of_its_rules(build(*args))


@settings(max_examples=50, deadline=None)
@given(
    st.sets(
        st.lists(st.sampled_from(["a", "b", "S__1", "S__2_x"]), min_size=1, max_size=4).map(tuple),
        min_size=1,
        max_size=5,
    ),
    st.integers(1, 3),
)
def test_a_finite_system_declares_exactly_the_symbols_of_its_rules(words, k):
    assert_alphabets_are_those_of_its_rules(C.finite_to_cd1(words, k))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: C.finite_to_cd1([], 1), "empty word set", id="finite_to_cd1-no-words"),
    pytest.param(lambda: C.build_example1(1), "k must be at least 2", id="build_example1-1"),
    pytest.param(lambda: C.IndexedCfGrammar(frozenset({S}), frozenset({a}), S, (Rule(S, (a,)),), 0),
                 "index must be positive", id="IndexedCfGrammar-0"),
    pytest.param(lambda: C.cd_to_programmed(C.build_example1(2), 0), "k must be positive",
                 id="cd_to_programmed-0"),
    pytest.param(lambda: C.cd_to_programmed(CdSystem(frozenset({S}), frozenset({a}), S, ((),)), 2),
                 "the system has no rule", id="cd_to_programmed-no-rule"),
    pytest.param(lambda: C.prolong(C.build_anbnambm(), 0), "ell must be positive", id="prolong-0"),
    pytest.param(lambda: C.nsf_programmed_to_cdgs(make_pg_abc(), 0, t_and(exactly(3))),
                 "m must be positive", id="nsf_programmed_to_cdgs-0"),
    pytest.param(lambda: C.nsf_programmed_to_cdgs(make_pg_abc(), 2, t_and(exactly(2))),
                 "index exceeds m at label p1", id="nsf_programmed_to_cdgs-index-3-as-2"),
] + [
    pytest.param(build, "variant must be one of", id=name + "-bogus") for name, build in [
        ("snk_mode", lambda: C.snk_mode(1, "bogus")),
        ("build_snk_cdgs", lambda: C.build_snk_cdgs(1, 1, "bogus")),
        ("cd_to_programmed", lambda: C.cd_to_programmed(C.build_example1(2), 1, "bogus")),
    ]
])
def test_rejects_an_argument_out_of_range(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestFiniteToCd1:
    def test_chain_and_both_modes(self):
        words = {("a", "b"), ("b",)}
        g = C.finite_to_cd1(words, 3)
        assert g.degree == 1
        assert words_of(g, t_and(exactly(3)), 8) == words
        assert words_of(g, t_and(at_most(3)), 8) == words

    def test_serializes_the_same_however_the_words_are_listed(self):
        # one rule per distinct word, in length-lexicographic order
        words = [("a", "b"), ("b",), ("a",)]
        texts = {serialize(C.finite_to_cd1(list(order) + [order[0]] * n, 2))
                 for order in permutations(words) for n in (0, 1)}
        assert len(texts) == 1
        assert [r.rhs for r in C.finite_to_cd1(words, 2).components[0][1:]] == [(a,), (b,), (a, b)]

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            C.finite_to_cd1({()}, 1)

    def test_rejects_a_terminal_name_that_is_not_an_identifier(self):
        with pytest.raises(ValueError, match="'b#' is not an identifier"):
            C.finite_to_cd1({("a", "b#")}, 1)


class TestLinearToCd2:
    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            C.LinearGrammar(
                frozenset({S, A}), frozenset({a}), S, (Rule(S, (A, A)),)
            )

    def test_structure(self):
        lg = C.LinearGrammar(
            frozenset({S}), frozenset({a, b}),
            S, (Rule(S, (a, S, b)), Rule(S, (a, b))),
        )
        g = C.linear_to_cd2(lg)
        assert g.degree == 2
        assert len(g.components[0]) == 1  # one priming rule per nonterminal
        assert len(g.components[1]) == 2  # one rule per source production


class TestCfIndexkToCd2:
    @pytest.mark.xfail(
        strict=True,
        reason="known defect (ROADMAP item 12): every round rewrites all "
        "nonterminals at once, so b b b b, of index 3, needs B B B B in one "
        "round; the system gives a a, a b b and b b a only",
    )
    @pytest.mark.parametrize("mode", [t_and(exactly(3)), t_and(at_most(3))], ids=mode_text)
    def test_keeps_every_word_of_index_k(self, mode):
        rules = (Rule(S, (A, A)), Rule(A, (B, B)), Rule(A, (a,)), Rule(B, (b,)))
        src = C.IndexedCfGrammar(frozenset({S, A, B}), frozenset({a, b}), S, rules, 3)
        assert words_of(C.cf_indexk_to_cd2(src), mode, 6) == cf_bounded(rules, S, 6)

    def test_requires_every_nonterminal_productive_lhs(self):
        with pytest.raises(ValueError):
            C.IndexedCfGrammar(
                frozenset({S, A}), frozenset({a}), S, (Rule(S, (a,)),), 2
            )


class TestCdToProgrammed:
    def test_minimal_label_structure(self):
        g = C.finite_to_cd1({("a",)}, 1)
        pg = C.cd_to_programmed(g, 1)
        assert set(pg.labels) == {"1_1_1", "1_1"}
        lang = enumerate_grammar(pg, Bounds.for_words(3)).language
        assert lang.words == (("a",),)

    def test_atmost_variant_duplicates_success_into_failure(self):
        g = C.build_example1(2)
        pg = C.cd_to_programmed(g, 2, "atmost")
        # stepping labels may stop early: failure equals success there
        assert pg.failure["1_1_1"] == pg.success["1_1_1"]
        pg_eq = C.cd_to_programmed(g, 2, "exactly")
        assert pg_eq.failure["1_1_1"] == frozenset()


class TestProlong:
    def test_ell_one_is_identity(self):
        g = C.build_anbnambm()
        assert C.prolong(g, 1) is g

    def test_fresh_chain_symbols_are_private(self):
        g = C.build_anbnambm()
        gp = C.prolong(g, 2)
        new = gp.nonterminals - g.nonterminals
        # one intermediate per (component, rule) at ell=2
        assert len(new) == sum(len(comp) for comp in g.components)


class TestNsfToCdgs:
    def test_rejects_non_multiple_parameter(self, pg_abc):
        with pytest.raises(ValueError):
            C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(4)))

    @pytest.mark.parametrize(
        "target, name, rules",
        [(mode, "pg_abc_cdgs", 46) for mode in (
            T_MODE, exactly(3), at_least(3), between(3, 5),
            t_and(at_most(3)), t_and(exactly(3)), t_and(at_least(3)),
        )] + [(mode, "pg_abc_cdgs_x2", 92) for mode in (exactly(6), t_and(at_most(6)))],
        ids=lambda value: mode_text(value) if isinstance(value, Mode) else None,
    )
    def test_every_usable_target_mode(self, pg_abc, target, name, rules):
        g = C.nsf_programmed_to_cdgs(pg_abc, 3, target)
        assert (g.name, g.degree, sum(map(len, g.components))) == (name, 10, rules)
        # the target only picks the prolongation factor: a mode of parameter
        # 3 gives the (t & =3) system, and one of 6 that system prolonged
        base = C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(3)))
        assert g == (base if rules == 46 else C.prolong(base, 2))

    @pytest.mark.parametrize(
        "target, message",
        [(exactly(4), "not a multiple of the index bound 3")]
        + [(mode, "not usable for the NSF simulation")
           for mode in (STAR, at_most(3), conj(STAR, exactly(3)))],
        ids=lambda value: mode_text(value) if isinstance(value, Mode) else None,
    )
    def test_rejects_unusable_target_modes(self, pg_abc, target, message):
        with pytest.raises(ValueError, match=message):
            C.nsf_programmed_to_cdgs(pg_abc, 3, target)

    def test_rejects_non_nsf_input(self):
        from gsworkbench.model import ProgrammedGrammar
        # S appears in two productions: violates the unique-start property
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            labels=("p", "q"),
            rule_of={"p": Rule(S, (a, S)), "q": Rule(S, (a,))},
            success={"p": frozenset({"p", "q"}), "q": frozenset({"q"})},
            failure={"p": frozenset(), "q": frozenset()},
        )
        with pytest.raises(ValueError, match="not in NSF"):
            C.nsf_programmed_to_cdgs(pg, 1, t_and(exactly(1)))

    def test_rejects_appearance_checking(self, pg_ac):
        # the components simulate success fields only, so a grammar whose
        # derivations take a failure field would get a system that derives
        # none of its words; it is rejected before the NSF check runs
        assert validate(pg_ac) == []
        assert words_of(pg_ac, None, 10) == {tuple("a" * n + "b" * n) for n in range(2, 6)}
        with patch.object(C, "nsf_check") as nsf_check:
            with pytest.raises(ValueError, match="label\\(s\\) p1 have a failure field"):
                C.nsf_programmed_to_cdgs(pg_ac, 2, t_and(exactly(2)))
        nsf_check.assert_not_called()
