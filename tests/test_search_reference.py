"""Differential checks of the engine's searches on random tiny CD systems.

The reference for `mode_step` expands the forms reachable in exactly m
steps, level by level, for m up to k + N: k is the mode's largest constant
and N the number of forms within the form cap.  That is enough, because a
longer derivation repeats a form after its first k steps, and cutting out
the cycle leaves a derivation of at least k steps to the same form.

The reference for the one multi-target index search (`word_indices`, and
`certify_index_bound` on top of it) is one single-target `word_index`
search per word.
"""

import pytest
from hypothesis import given, settings, strategies as st

from gsworkbench.engine import (
    Bounds,
    enumerate_cd,
    enumerate_grammar,
    mode_predicate,
    mode_step,
    WordIndexResult,
    validate_trace,
    word_index,
    word_indices,
)
from gsworkbench.model import (
    CdSystem,
    ProgrammedGrammar,
    Rule,
    STAR,
    T_MODE,
    at_least,
    at_most,
    between,
    exactly,
    nonterminal,
    t_and,
    terminal,
)
from gsworkbench.verifier import certify_index_bound

S, A = nonterminal("S"), nonterminal("A")
a = terminal("a")
ALPHABET = (S, A, a)
BOUNDS = Bounds(4, 4)

symbols = st.sampled_from(ALPHABET)
rules = st.builds(
    Rule, st.sampled_from((S, A)), st.lists(symbols, min_size=1, max_size=3).map(tuple)
)
components = st.lists(rules, min_size=1, max_size=3).map(tuple)
ks = st.integers(min_value=1, max_value=3)
counting = st.one_of(ks.map(at_most), ks.map(exactly), ks.map(at_least))
modes = st.one_of(
    st.just(STAR),
    st.just(T_MODE),
    counting,
    counting.map(t_and),
    st.tuples(ks, st.integers(min_value=0, max_value=2)).map(
        lambda p: between(p[0], p[0] + p[1])
    ),
)
forms = st.lists(symbols, min_size=1, max_size=BOUNDS.max_form_len).map(tuple)


def largest_constant(mode) -> int:
    if mode.kind == "and":
        return max(largest_constant(mode.left), largest_constant(mode.right))
    return mode.k


def successors(form, ruleset):
    for i, s in enumerate(form):
        for rule in ruleset:
            if rule.lhs == s:
                yield form[:i] + rule.rhs + form[i + 1 :]


def reference_mode_step(form, ruleset, mode, max_len):
    n_forms = sum(len(ALPHABET) ** n for n in range(max_len + 1))
    level, accepted = {form}, set()
    for m in range(largest_constant(mode) + n_forms + 1):
        accepted |= {y for y in level if mode_predicate(mode, m, ruleset, y)}
        level = {z for y in level for z in successors(y, ruleset) if len(z) <= max_len}
        if not level:
            break
    return accepted


@settings(max_examples=100, deadline=None)
@given(forms, components, modes)
def test_mode_step_matches_reference(form, ruleset, mode):
    res = mode_step(form, ruleset, mode, BOUNDS)
    assert set(res.results) == reference_mode_step(form, ruleset, mode, BOUNDS.max_form_len)
    for y, path in res.results.items():
        assert mode_predicate(mode, len(path), ruleset, y)
        for x, z in zip((form,) + path, path):
            assert z in set(successors(x, ruleset))
        assert (path[-1] if path else form) == y


@settings(max_examples=50, deadline=None)
@given(st.lists(components, min_size=1, max_size=2), modes)
def test_enumerated_words_are_traced_and_indexed(comps, mode):
    g = CdSystem(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        components=tuple(comps),
    )
    res = enumerate_cd(g, mode, BOUNDS, with_traces=True)
    assert not res.language.truncated
    assert set(res.traces) == set(res.language.words)
    for word, trace in res.traces.items():
        assert validate_trace(g, trace, mode) == []
        assert word_index(g, word, BOUNDS, mode=mode).index is not None


# rules that may erase, for systems that are not λ-free
erasing_components = st.lists(
    st.builds(Rule, st.sampled_from((S, A)), st.lists(symbols, max_size=3).map(tuple)),
    min_size=1,
    max_size=3,
).map(tuple)
ALL_WORDS = tuple(("a",) * n for n in range(1, BOUNDS.max_word_len + 1))


def per_word(grammar, words, bounds, mode=None):
    results = [word_index(grammar, w, bounds, mode=mode) for w in words]
    return [r.index for r in results], any(r.truncated for r in results)


def check_against_per_word(grammar, bounds, mode=None):
    """word_indices and certify_index_bound agree with one search per word."""
    language = enumerate_grammar(grammar, bounds, mode=mode).language
    for words in (language.words, ALL_WORDS[::-1]):
        assert word_indices(grammar, words, bounds, mode=mode) == per_word(
            grammar, words, bounds, mode=mode
        )
    indices, truncated = per_word(grammar, language.words, bounds, mode=mode)
    bound = max([i for i in indices if i is not None], default=1) - 1
    cert = certify_index_bound(grammar, bound, bounds, mode=mode)
    assert cert.checked_words == len(language)
    assert cert.counterexamples == [
        (w, i) for w, i in zip(language.words, indices) if i is not None and i > bound
    ]
    assert cert.truncated == (language.truncated or truncated or None in indices)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.data(), modes)
def test_word_indices_match_one_search_per_word(lambda_free, data, mode):
    comps = data.draw(
        st.lists(components if lambda_free else erasing_components, min_size=1, max_size=2)
    )
    g = CdSystem(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        components=tuple(comps),
        lambda_free=lambda_free,
    )
    check_against_per_word(g, BOUNDS, mode)


def test_word_indices_on_programmed_grammar(pg_abc):
    bounds = Bounds.for_words(9)
    check_against_per_word(pg_abc, bounds)
    words = [tuple("abc"), tuple("aabbcc"), tuple("ab"), tuple("aaabbbccc")]
    assert word_indices(pg_abc, words, bounds) == ([3, 3, None, 3], False)
    assert word_indices(pg_abc, [], bounds) == ([], False)


def test_word_indices_check_every_word(pg_abc):
    bounds = Bounds.for_words(3)
    with pytest.raises(ValueError, match="longer"):
        word_indices(pg_abc, [tuple("abc"), tuple("aabbcc")], bounds)
    with pytest.raises(ValueError, match="unknown terminal"):
        word_indices(pg_abc, [tuple("abc"), tuple("abd")], bounds)


@pytest.mark.parametrize(
    "q_rule, r_rule, truncated",
    [
        # (S, q), queued before the word at its cost, is cut before a pops
        (Rule(S, (A, A, a)), Rule(A, ()), True),
        # the cut comes after a pops, from (A A, r) at cost 2
        (Rule(S, (A, A)), Rule(A, (A, A, a)), False),
    ],
    ids=["cut before the pop", "cut after the pop"],
)
def test_search_stops_when_the_last_word_is_popped(q_rule, r_rule, truncated):
    # A word costs the same whether taken when pushed or when popped, since
    # its parents pop in cost order; what the pop decides is where the
    # search stops, and so whether it met a cut.  Of the starts (S, p),
    # (S, q), (S, r), all of cost 1, (S, p) pushes the word a at cost 1.
    pg = ProgrammedGrammar(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        labels=("p", "q", "r"),
        rule_of={"p": Rule(S, (a,)), "q": q_rule, "r": r_rule},
        success={"p": frozenset({"p"}), "q": frozenset({"r"}), "r": frozenset({"r"})},
        failure={"p": frozenset(), "q": frozenset(), "r": frozenset()},
        lambda_free=False,
    )
    bounds = Bounds(1, 2)
    assert word_indices(pg, [("a",)], bounds) == ([1], truncated)
    assert word_index(pg, ("a",), bounds) == WordIndexResult(1, truncated)
