"""The searches' string encoding on an alphabet that stresses it.

Each symbol of a search space becomes one character, the nonterminals
first, and rule tables and the nonterminal count are regex character
classes.  Here 300 nonterminals put reachable ones on the code points of
``-``, ``\\``, ``]`` and ``^``, which a character class must escape, and
others above 255; a terminal shares its name with a nonterminal.  Answers
are checked against closed forms and against naive steps on symbol tuples.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gsworkbench.engine import (
    Bounds,
    _compile,
    enumerate_grammar,
    mode_step,
    one_step,
    validate_trace,
    word_index,
    WordIndexResult,
)
from gsworkbench.model import (
    CdSystem,
    ProgrammedGrammar,
    Rule,
    T_MODE,
    at_most,
    exactly,
    nonterminal,
    t_and,
    terminal,
)

from conftest import naive_one_step, reference_mode_step

NONTERMINALS = tuple(nonterminal("N%03d" % i) for i in range(300))
DASH, BACKSLASH, BRACKET, CARET = (NONTERMINALS[ord(c)] for c in "-\\]^")
HIGH = NONTERMINALS[280]
TWIN = terminal(CARET.name)  # a terminal named like a nonterminal
T7 = terminal("t7")
TERMINALS = (TWIN,) + tuple(terminal("t%d" % i) for i in range(10))

# the language: t7^n TWIN TWIN for n >= 1, every word of index 2
RULES = (
    Rule(CARET, (TWIN,)),  # listed first, so a rule table's class starts with ^
    Rule(DASH, (BACKSLASH, BRACKET)),
    Rule(BACKSLASH, (T7, BACKSLASH)),
    Rule(BACKSLASH, (T7,)),
    Rule(BRACKET, (HIGH,)),
    Rule(HIGH, (CARET, CARET)),
)
CD = CdSystem(
    nonterminals=frozenset(NONTERMINALS),
    terminals=frozenset(TERMINALS),
    axiom=DASH,
    components=(RULES,),
)
PROGRAMMED = ProgrammedGrammar(
    nonterminals=frozenset(NONTERMINALS),
    terminals=frozenset(TERMINALS),
    axiom=DASH,
    labels=("p1", "p2", "p3", "p4", "p5", "p6"),
    rule_of=dict(zip(("p6", "p1", "p2", "p3", "p4", "p5"), RULES)),
    success={
        "p1": frozenset({"p2", "p3"}),
        "p2": frozenset({"p2", "p3"}),
        "p3": frozenset({"p4"}),
        "p4": frozenset({"p5"}),
        "p5": frozenset({"p6"}),
        "p6": frozenset({"p6"}),
    },
    failure={p: frozenset() for p in ("p1", "p2", "p3", "p4", "p5", "p6")},
)
MAX_LEN = 7
BOUNDS = Bounds.for_words(MAX_LEN)


def closed_form(max_len):
    return tuple(("t7",) * n + (TWIN.name,) * 2 for n in range(1, max_len - 1))


def test_the_alphabet_reaches_the_awkward_code_points():
    code = _compile(CD, T_MODE)[0]
    assert [code.char[s] for s in (DASH, BACKSLASH, BRACKET, CARET)] == list("-\\]^")
    assert ord(code.char[HIGH]) > 255 and ord(code.char[T7]) > 255
    assert code.char[TWIN] != code.char[CARET]
    assert code.cost(code.encode((DASH, BACKSLASH, BRACKET, CARET, HIGH, TWIN, T7))) == 5


@pytest.mark.parametrize(
    "grammar, mode", [(CD, T_MODE), (PROGRAMMED, None)], ids=["cd", "programmed"]
)
def test_language_traces_and_indices(grammar, mode):
    res = enumerate_grammar(grammar, BOUNDS, mode=mode, with_traces=True)
    words = closed_form(MAX_LEN)
    assert res.language.words == words
    assert not res.language.truncated
    for word, trace in res.traces.items():
        assert validate_trace(grammar, trace, mode) == []
        assert tuple(s.name for s in trace.final_form()) == word
        assert all(s.is_terminal() for s in trace.final_form())  # TWIN, not ^
    assert [word_index(grammar, w, BOUNDS, mode=mode) for w in words + (("t7",), ("N094",))] == (
        [WordIndexResult(2)] * len(words) + [WordIndexResult(None)] * 2
    )


def test_a_trace_with_a_symbol_outside_the_grammar_is_rejected():
    trace = enumerate_grammar(CD, BOUNDS, mode=T_MODE, with_traces=True).traces[closed_form(4)[0]]
    (segment,) = trace.segments
    stranger = (*segment.forms[-1][:-1], terminal("zz"))
    bad = replace(trace, segments=(replace(segment, forms=(*segment.forms[:-1], stranger)),))
    assert validate_trace(CD, bad, T_MODE) == [
        "segment 0: form not reachable in one step of component 1"
    ]


def test_mode_step_from_the_axiom():
    # under t one turn runs to a terminal form: n steps of \ -> t7 \ or t7,
    # then - -> \ ], ] -> HIGH, HIGH -> ^ ^ and ^ -> TWIN twice
    res = mode_step((DASH,), RULES, T_MODE, BOUNDS)
    assert {tuple(s.name for s in y) for y in res.results} == set(closed_form(MAX_LEN))
    for y, path in res.results.items():
        assert len(path) == y.count(T7) + 5
        for x, z in zip(((DASH,),) + path, path):
            assert z in naive_one_step(x, RULES)


SPECIAL = (DASH, BACKSLASH, BRACKET, CARET, HIGH)
symbols = st.sampled_from(SPECIAL + (TWIN, T7))
rules = st.builds(
    Rule, st.sampled_from(SPECIAL), st.lists(symbols, min_size=1, max_size=2).map(tuple)
)
forms = st.lists(symbols, min_size=1, max_size=4).map(tuple)
ks = st.integers(min_value=1, max_value=3)
bounded_modes = st.one_of(ks.map(at_most), ks.map(exactly), ks.map(at_most).map(t_and))


@settings(max_examples=60, deadline=None)
@given(forms, st.lists(rules, min_size=1, max_size=4).map(tuple), bounded_modes)
def test_steps_match_naive_symbol_steps(form, ruleset, mode):
    assert one_step(form, ruleset) == naive_one_step(form, ruleset)
    res = mode_step(form, ruleset, mode, Bounds(5, 5))
    least = reference_mode_step(form, ruleset, mode, 5)
    assert {y: len(path) for y, path in res.results.items()} == least
