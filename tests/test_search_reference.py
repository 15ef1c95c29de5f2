"""Differential checks of the engine's searches on random tiny CD systems.

The reference for `mode_step` expands the forms reachable in exactly m
steps, level by level, for m up to k + N: k is the mode's largest constant
and N the number of forms within the form cap.  That is enough, because a
longer derivation repeats a form after its first k steps, and cutting out
the cycle leaves a derivation of at least k steps to the same form.
"""

from hypothesis import given, settings, strategies as st

from gsworkbench.engine import (
    Bounds,
    enumerate_cd,
    mode_predicate,
    mode_step,
    validate_trace,
    word_index,
)
from gsworkbench.model import (
    CdSystem,
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
