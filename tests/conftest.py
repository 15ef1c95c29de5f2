"""Shared fixtures: the NSF programmed grammar for a^n b^n c^n, a
programmed grammar whose derivations take a failure field, and an
independent plain context-free enumerator used as a differential oracle."""

from collections import deque

import pytest

from gsworkbench.model import ProgrammedGrammar, Rule, nonterminal, terminal


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
