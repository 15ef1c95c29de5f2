"""Shared fixtures and test oracles.

The fixtures are the NSF programmed grammar for a^n b^n c^n and a
programmed grammar whose derivations take a failure field.  Each oracle
and shared input is written once, here: the engine's bounded language as
a word set (`words_of`), a plain context-free enumerator (`cf_bounded`),
a naive one step (`naive_one_step`) and a reference mode step
(`reference_mode_step`) on symbol tuples, five context-free grammars of
index 2 (`index2_cf_grammars`), and the random tiny CD systems
(`cd_systems`) with the rule strategies they draw from.  Only `words_of`
calls the engine.
"""

from collections import deque

import pytest
from hypothesis import strategies as st

from gsworkbench.constructions import IndexedCfGrammar
from gsworkbench.engine import Bounds, enumerate_grammar
from gsworkbench.model import CdSystem, ProgrammedGrammar, Rule, mode_window, nonterminal, terminal

S, A = nonterminal("S"), nonterminal("A")
a = terminal("a")
ALPHABET = (S, A, a)

symbols = st.sampled_from(ALPHABET)
rules = st.builds(
    Rule, st.sampled_from((S, A)), st.lists(symbols, min_size=1, max_size=3).map(tuple)
)
components = st.lists(rules, min_size=1, max_size=3).map(tuple)
# rules that may erase, for systems that are not λ-free
any_rules = st.builds(Rule, st.sampled_from((S, A)), st.lists(symbols, max_size=3).map(tuple))
erasing_components = st.lists(any_rules, min_size=1, max_size=3).map(tuple)


@st.composite
def cd_systems(draw):
    """One or two components over `ALPHABET`; half of the systems may erase."""
    lambda_free = draw(st.booleans())
    comps = draw(
        st.lists(components if lambda_free else erasing_components, min_size=1, max_size=2)
    )
    return CdSystem(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        components=tuple(comps),
        lambda_free=lambda_free,
    )


def words_of(grammar, mode, max_len):
    """The engine's words of `grammar` in `mode` (None for a programmed
    grammar) of at most `max_len` symbols, as a set."""
    return set(enumerate_grammar(grammar, Bounds.for_words(max_len), mode=mode).language.words)


def naive_one_step(form, rules):
    """Every form one rule application gives: positions left to right and,
    at each, the rules in order."""
    return [
        form[:i] + rule.rhs + form[i + 1 :]
        for i, s in enumerate(form)
        for rule in rules
        if not s.is_terminal() and rule.lhs == s
    ]


def reference_mode_step(form, ruleset, mode, max_len):
    """Each form a component of `ruleset` may hand back from `form` in
    `mode`, over forms of at most `max_len` symbols, mapped to its least
    step count.

    It reads the mode as its step window ``(lo, hi, t)``
    (`model.mode_window`), not through the engine, and expands the forms
    reachable in exactly m steps, level by level, for m up to
    min(hi, lo + N): N is the number of forms within the cap over the
    symbols of `form` and `ruleset`.  That is enough for an unbounded
    window, because a longer derivation repeats a form after its first lo
    steps, and cutting out the cycle leaves a derivation of at least lo
    steps to the same form.  The least accepting m of a form is the length
    of its shortest witness.
    """
    lo, hi, t = mode_window(mode)
    lhs = {rule.lhs for rule in ruleset}
    alphabet = set(form).union(lhs, *(rule.rhs for rule in ruleset))
    n_forms = sum(len(alphabet) ** n for n in range(max_len + 1))
    level, accepted = {form}, {}
    for m in range(min(hi, lo + n_forms) + 1):
        for y in level:
            if y not in accepted and lo <= m and not (t and lhs.intersection(y)):
                accepted[y] = m
        level = {z for y in level for z in naive_one_step(y, ruleset) if len(z) <= max_len}
        if not level:
            break
    return accepted


def index2_cf_grammars():
    """Five context-free grammars of index 2 over {S, A, B} and {a, b, c}."""
    B, b, c = nonterminal("B"), terminal("b"), terminal("c")
    instances = [
        ((Rule(S, (a, S, b)), Rule(S, (a, b))), (S,), (a, b)),
        ((Rule(S, (a, S, b)), Rule(S, (c,))), (S,), (a, b, c)),
        ((Rule(S, (A, B)), Rule(A, (a, A)), Rule(A, (a,)),
          Rule(B, (b, B)), Rule(B, (b,))), (S, A, B), (a, b)),
        ((Rule(S, (A, A)), Rule(A, (a, A)), Rule(A, (a,))), (S, A), (a,)),
        ((Rule(S, (A, B)), Rule(A, (a, A, b)), Rule(A, (a, b)),
          Rule(B, (b, B, a)), Rule(B, (b, a))), (S, A, B), (a, b)),
    ]
    return [IndexedCfGrammar(frozenset(nts), frozenset(ts), S, rules, 2) for rules, nts, ts in instances]


def cf_bounded(rules, axiom, max_len, index=None):
    """Bounded language of a plain context-free grammar, by naive BFS; with
    `index`, of the forms with at most that many nonterminals only, which
    gives the words of index <= `index` (L_index).

    Independent of the engine module on purpose: it is the oracle the
    engine's constructions are checked against.
    """
    seen = {(axiom,)}
    queue = deque(seen)
    words = set()
    while queue:
        x = queue.popleft()
        for i, s in enumerate(x):
            if s.is_terminal():
                continue
            for r in rules:
                if r.lhs != s:
                    continue
                y = x[:i] + r.rhs + x[i + 1 :]
                if len(y) > max_len or y in seen:
                    continue
                if index is not None and sum(not t.is_terminal() for t in y) > index:
                    continue
                seen.add(y)
                if all(t.is_terminal() for t in y):
                    words.add(tuple(t.name for t in y))
                queue.append(y)
    return words


def make_pg_abc() -> ProgrammedGrammar:
    """NSF programmed grammar for {a^n b^n c^n : n >= 1}, index 3.

    One growth cycle p1 -> p2 -> p3 and one termination pass p4 -> p5 -> p6;
    every reachable form carries each of A, B, C at most once.  The final
    label self-loops (its success field must be nonempty for the last rule
    to be applicable at all).
    """
    S, A, B, C = (nonterminal(n) for n in "SABC")
    a, b, c = terminal("a"), terminal("b"), terminal("c")
    labels = ("p0", "p1", "p2", "p3", "p4", "p5", "p6")
    rule_of = {
        "p0": Rule(S, (A, B, C)),
        "p1": Rule(A, (a, A)),
        "p2": Rule(B, (b, B)),
        "p3": Rule(C, (c, C)),
        "p4": Rule(A, (a,)),
        "p5": Rule(B, (b,)),
        "p6": Rule(C, (c,)),
    }
    success = {
        "p0": frozenset({"p1", "p4"}),
        "p1": frozenset({"p2"}),
        "p2": frozenset({"p3"}),
        "p3": frozenset({"p1", "p4"}),
        "p4": frozenset({"p5"}),
        "p5": frozenset({"p6"}),
        "p6": frozenset({"p6"}),
    }
    failure = {p: frozenset() for p in labels}
    return ProgrammedGrammar(
        nonterminals=frozenset({S, A, B, C}),
        terminals=frozenset({a, b, c}),
        axiom=S,
        labels=labels,
        rule_of=rule_of,
        success=success,
        failure=failure,
        lambda_free=True,
        name="pg_abc",
    )


@pytest.fixture
def pg_abc():
    return make_pg_abc()


@pytest.fixture
def pg_ac():
    """A programmed grammar for {a^n b^n : n >= 2} whose every derivation
    takes the failure field of p1: C never occurs, so p1 always fails on
    to p2, which starts the growth cycle p2 -> p3 -> p1."""
    S, A, B, C = (nonterminal(n) for n in "SABC")
    a, b, c = terminal("a"), terminal("b"), terminal("c")
    labels = ("p0", "p1", "p2", "p3", "p4", "p5")
    rule_of = {
        "p0": Rule(S, (A, B)),
        "p1": Rule(C, (c,)),
        "p2": Rule(A, (a, A)),
        "p3": Rule(B, (b, B)),
        "p4": Rule(A, (a,)),
        "p5": Rule(B, (b,)),
    }
    success = {
        "p0": frozenset({"p1"}),
        "p1": frozenset(),
        "p2": frozenset({"p3"}),
        "p3": frozenset({"p1", "p4"}),
        "p4": frozenset({"p5"}),
        "p5": frozenset({"p5"}),
    }
    failure = {p: frozenset({"p2"} if p == "p1" else ()) for p in labels}
    return ProgrammedGrammar(
        nonterminals=frozenset({S, A, B, C}),
        terminals=frozenset({a, b, c}),
        axiom=S,
        labels=labels,
        rule_of=rule_of,
        success=success,
        failure=failure,
        lambda_free=True,
        name="pg_ac",
    )
