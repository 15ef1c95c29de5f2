"""Property-based checks for the mode algebra and the engine basics."""

from hypothesis import given, settings, strategies as st

from gsworkbench import fileformat as F
from gsworkbench.engine import (
    Bounds,
    enumerate_grammar,
    make_language,
    mode_predicate,
    one_step,
)
from gsworkbench.model import (
    CdSystem,
    Rule,
    STAR,
    T_MODE,
    at_least,
    at_most,
    between,
    conj,
    exactly,
    mode_text,
    nonterminal,
    t_and,
    terminal,
)

from conftest import naive_one_step

NTS = [nonterminal(n) for n in "SAB"]
TS = [terminal(n) for n in "ab"]

symbols = st.sampled_from(NTS + TS)
forms = st.tuples(*[]) | st.lists(symbols, max_size=6).map(tuple)
rules = st.builds(
    Rule,
    st.sampled_from(NTS),
    st.lists(symbols, min_size=1, max_size=3).map(tuple),
)
rulesets = st.lists(rules, min_size=1, max_size=4).map(tuple)
ks = st.integers(min_value=1, max_value=4)
ms = st.integers(min_value=0, max_value=6)
basic_bounded = st.one_of(
    ks.map(at_most), ks.map(exactly), ks.map(at_least)
)
modes = st.one_of(
    st.just(STAR), st.just(T_MODE), basic_bounded,
    basic_bounded.map(t_and),
    st.tuples(ks, st.integers(min_value=0, max_value=3)).map(
        lambda p: between(p[0], p[0] + p[1])
    ),
)


def conj_trees(depth):
    """Conjunction trees over every basic mode, nested at most `depth` deep."""
    leaves = st.one_of(st.just(STAR), st.just(T_MODE), basic_bounded)
    if depth == 0:
        return leaves
    sub = conj_trees(depth - 1)
    return leaves | st.builds(conj, sub, sub)


mode_trees = conj_trees(3)


def reference_predicate(f, m, rs, y):
    """The mode predicate by recursion on the mode tree."""
    if f.kind == "and":
        return reference_predicate(f.left, m, rs, y) and reference_predicate(f.right, m, rs, y)
    return {
        "*": True,
        "t": not any(rule.lhs == s for rule in rs for s in y),
        "le": m <= f.k,
        "eq": m == f.k,
        "ge": m >= f.k,
    }[f.kind]


class TestModeAlgebra:
    @given(forms, rulesets, ms, ks)
    def test_between_kk_is_exactly_k(self, y, rs, m, k):
        assert mode_predicate(between(k, k), m, rs, y) == mode_predicate(
            exactly(k), m, rs, y
        )

    @given(forms, rulesets, ms, modes)
    def test_star_absorption(self, y, rs, m, f):
        want = mode_predicate(f, m, rs, y)
        assert mode_predicate(conj(STAR, f), m, rs, y) == want
        assert mode_predicate(conj(f, STAR), m, rs, y) == want

    @given(forms, rulesets, ms, basic_bounded)
    def test_t_and_decomposition(self, y, rs, m, inner):
        assert mode_predicate(t_and(inner), m, rs, y) == (
            mode_predicate(T_MODE, m, rs, y) and mode_predicate(inner, m, rs, y)
        )

    @given(forms, rulesets, ms, ks)
    def test_exactly_implies_both_inequalities(self, y, rs, m, k):
        if mode_predicate(exactly(k), m, rs, y):
            assert mode_predicate(at_most(k), m, rs, y)
            assert mode_predicate(at_least(k), m, rs, y)

    @given(modes)
    def test_mode_text_parses_back(self, f):
        assert F.parse_mode(mode_text(f)) == f

    @given(forms, rulesets, ms, mode_trees)
    def test_predicate_matches_recursive_reference(self, y, rs, m, f):
        assert mode_predicate(f, m, rs, y) == reference_predicate(f, m, rs, y)


any_rules = st.builds(
    Rule,
    st.sampled_from(NTS),
    st.lists(symbols, max_size=3).map(tuple),
)


class TestEngineBasics:
    @given(forms, st.lists(any_rules, max_size=5).map(tuple))
    def test_one_step_order_matches_naive_reference(self, x, rs):
        # as an ordered list: the order fixes the BFS visiting order, and
        # with it the witnesses in traces
        assert one_step(x, rs) == naive_one_step(x, rs)

    @given(forms, rulesets)
    def test_one_step_is_length_monotone_without_erasing(self, x, rs):
        # the strategies never build erasing rules
        for y in one_step(x, rs):
            assert len(y) >= len(x)

    @given(st.lists(st.lists(st.sampled_from(["a", "b"]), max_size=5).map(tuple)))
    def test_make_language_is_sorted_and_lambda_free(self, raw):
        lang = make_language(raw, Bounds(4, 4))
        assert list(lang.words) == sorted(set(lang.words), key=lambda w: (len(w), w))
        assert all(0 < len(w) <= 4 for w in lang.words)

    @settings(max_examples=25, deadline=None)
    @given(rulesets, modes, st.integers(min_value=2, max_value=6))
    def test_enumeration_monotone_in_word_cap(self, rs, f, cap):
        g = CdSystem(
            nonterminals=frozenset(NTS),
            terminals=frozenset(TS),
            axiom=NTS[0],
            components=(rs,),
        )
        small = enumerate_grammar(g, Bounds(cap, cap), mode=f).language
        large = enumerate_grammar(g, Bounds(cap + 2, cap + 2), mode=f).language
        assert set(small.words) <= set(large.words)
        assert {w for w in large.words if len(w) <= cap} == set(small.words)
