"""Differential checks of the engine's searches on random tiny grammars.

The reference for `mode_step` is `conftest.reference_mode_step`, a
level-by-level expansion of symbol tuples that reads the mode's step
window and calls nothing from the engine; the reference for a rewrite is
`conftest.naive_one_step`.

The reference for a CD turn (`_turn`, under enumeration and `mode_step`)
is the turn as a nested breadth-first search over the state-level
successors (form, active component, step count), one search per opened
component, which stops at the states between turns.  It must give the
same words, truncation flag, traces and `mode_step` results in the same
order.

The reference for `_turn` itself, a `_bfs` over `_inner_steps`, is a turn
as its own loop over (form, step count) rows, with one seen set per step
count and `_accepts` on every row, on components whose rules meet a form
at several step counts; it must give the same forms, witnesses, pruned
flag and longest row, in the same order.

The reference for the bucket queue inside the index search (`_minimax`) is
a heap-based Dijkstra search, which must pop the same states in the same
order, with one target word or none.  The reference for
`indexed_language` and `certify_index_bound`, one exhaustive index
search, is an enumeration followed by one `word_index` search per word it
found.  The reference for `word_index`'s successor function, which keeps
each form's rewrites for the whole search, is a fresh `_inner_steps` on
each state it expands.  The reference for `nsf_check` is a
level-by-level search over symbol tuples.

The reference for the exhaustive index search of a CD or hybrid system,
which walks whole turns priced once per skeleton (`_turn_walk`), and for
that of a programmed grammar, which walks whole rewrites and follows the
appearance-checking steps before each inside the walk (`_programmed_walk`),
is the state-by-state search: `_minimax` over the space's successors,
priced by the nonterminal count.  On random grammars, erasing ones among
them, and under form caps equal to and above the word cap, it must give
every form between turns the same least cost and the same pruned flag,
and price exactly the forms between turns that enumeration visits.

The reference for `enumerate_grammar` on a programmed grammar, which
walks whole rewrites too and gives a trace one appearance-checking
segment per label that failed before a rewrite, is `_bfs` over the step
successors, one row per (form, label).  On random grammars, erasing ones
among them, it must give the same words, truncation flag and forms, and
traces that validate, with no more rewrites than its own, whose runs of
appearance-checking segments stay on one form and follow failure fields
into the rewrite after them.  Only `word_index`, `nsf_check` and
`validate_trace` take programmed steps.

The reference for a programmed step, which finds its label's one lhs with
``str.find`` and tests the form cap once, is the step on that label's
one-rule table (`_rhs_table`, `_rewrites`): on random forms and caps, at
every label, it must give the same edges in the same order, one rewrite
per occurrence of the lhs, and the same pruned flag.

Only the two search loops drop a repeated successor.  With every successor
function they walk handing back each edge twice, enumeration by whole
turns, the exhaustive index search, `word_index` and `nsf_check` must give
the same rows, costs, answers and pruned flags on random CD, hybrid and
programmed grammars.

The reference for the one-step test of `validate_trace` (`_is_rewrite`) is
membership in the list of all rewrites (`_rewrites`).  The reference for
`validate_trace` on CD and hybrid traces, whose segments keep the verdict
of the compile that passed them, is the check of a fresh compile, which
reads no kept verdict: enumerated traces and tampered copies of them,
checked in a random order and then in another, must get its verdicts.

The reference for the turns of a state, shared by skeleton (`_turns`), is
`_turn` on the full form, per component: two forms with one skeleton and
different terminal runs, run through one turn memo and one rewrite memo,
as in a search, each under a cap of its own, must each get the forms of
every live component's own `_turn` on a fresh rewrite memo, in
component order, the witnesses filled from the edge labels, and the OR of
the components' pruned flags, once each repeat of a (component, form)
after its first is dropped, as the search drops it.

The reference for `word_index` on a λ-free grammar, which caps forms at
its word's length and never pushes a form whose terminal ends disagree
with the word, is the search of every form within the form cap: on random
CD, hybrid and programmed grammars over the terminals a and b (over a
alone the end test never bites), erasing ones among them, every word up to
length 4 must get its index and truncation flag.  On a λ-free grammar the
search must expand the same states under a larger cap, and only forms that
fit the word; otherwise it must expand the states of the uncut search.
"""

import heapq
import math
from collections import Counter
from dataclasses import replace
from itertools import count, product, takewhile
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from gsworkbench import constructions as C, engine
from gsworkbench.engine import (
    Bounds,
    DerivationTrace,
    TraceSegment,
    _accepts,
    _between_turns,
    _bfs,
    _compile,
    _compiled,
    _component,
    _inner_steps,
    _is_rewrite,
    _local_encoding,
    _minimax,
    _path,
    _rewrites,
    _rhs_table,
    _turn,
    _turns,
    enumerate_grammar,
    indexed_language,
    make_language,
    mode_predicate,
    mode_step,
    trace_index,
    WordIndexResult,
    validate_trace,
    word_index,
)
from gsworkbench.model import (
    CdSystem,
    HcdSystem,
    ProgrammedGrammar,
    Rule,
    STAR,
    T_MODE,
    at_least,
    at_most,
    between,
    conj,
    exactly,
    form_text,
    mode_window,
    nonterminal,
    nonterminal_count,
    t_and,
    terminal,
)
from gsworkbench.verifier import certify_index_bound, nsf_check

from conftest import (
    ALPHABET,
    A,
    S,
    a,
    any_rules,
    cd_systems,
    components,
    erasing_components,
    naive_one_step,
    reference_mode_step,
    rules,
    symbols,
)

BOUNDS = Bounds(4, 4)

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


@settings(max_examples=100, deadline=None)
@given(forms, components, modes)
def test_mode_step_matches_reference(form, ruleset, mode):
    res = mode_step(form, ruleset, mode, BOUNDS)
    least = reference_mode_step(form, ruleset, mode, BOUNDS.max_form_len)
    assert set(res.results) == set(least)
    for y, path in res.results.items():
        assert len(path) == least[y]  # the witness is a shortest one
        assert mode_predicate(mode, len(path), ruleset, y)
        for x, z in zip((form,) + path, path):
            assert z in naive_one_step(x, ruleset)
        assert (path[-1] if path else form) == y


def test_a_cut_form_that_comes_back_keeps_the_cut():
    # Under (t & =3) at form cap 2, a S is met at counts 1, 2 and 3, and its
    # rewrite a a S is cut each time; a turn builds its rewrites once
    rules = (Rule(S, (S,)), Rule(S, (a, S)), Rule(S, (a,)))
    mode = t_and(exactly(3))
    bounds = Bounds(2, 2)
    got = mode_step((S,), rules, mode, bounds)
    assert got.length_pruned
    assert set(got.results) == {(a,), (a, a)}
    assert (list(got.results.items()), got.length_pruned) == (
        reference_turn_results((S,), rules, mode, bounds)
    )
    least = reference_mode_step((S,), rules, mode, bounds.max_form_len)
    assert {y: len(path) for y, path in got.results.items()} == least


@settings(max_examples=50, deadline=None)
@given(st.lists(components, min_size=1, max_size=2), modes)
def test_enumerated_words_are_traced_and_indexed(comps, mode):
    g = CdSystem(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        components=tuple(comps),
    )
    res = enumerate_grammar(g, BOUNDS, mode=mode, with_traces=True)
    assert not res.language.truncated
    assert set(res.traces) == set(res.language.words)
    for word, trace in res.traces.items():
        assert validate_trace(g, trace, mode) == []
        assert word_index(g, word, BOUNDS, mode=mode).index is not None


@st.composite
def programmed_grammars(draw, rules=any_rules):
    """Up to 4 labels with rules that may erase and drawn failure fields."""
    labels = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
    fields = st.frozensets(st.sampled_from(labels))
    rule_of = {p: draw(rules) for p in labels}
    return ProgrammedGrammar(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        labels=tuple(labels),
        rule_of=rule_of,
        success={p: draw(fields) for p in labels},
        failure={p: draw(fields) for p in labels},
        lambda_free=all(rule.rhs for rule in rule_of.values()),
    )


@settings(max_examples=100, deadline=None)
@given(programmed_grammars())
def test_programmed_words_are_traced_and_indexed(pg):
    res = enumerate_grammar(pg, BOUNDS, with_traces=True)
    words = res.language.words
    assert set(res.traces) == set(words)
    for word in words:
        trace = res.traces[word]
        assert validate_trace(pg, trace) == []
        index = word_index(pg, word, BOUNDS).index
        assert index is not None and index <= trace_index(trace)


def reference_nsf(pg, depth):
    """Properties 2 and 3 of the NSF check, on symbol tuples.

    A breadth-first search level by level from (axiom, r) for every label
    r, which does not expand the states on level `depth`.  Returns the
    violations in the order found, the vector of the first form each label
    rewrote, and whether a state on level `depth` was reached.
    """
    nonterminals = sorted(pg.nonterminals)
    violations, vectors = [], {}

    def report(item, detail):
        if (item, detail) not in violations:
            violations.append((item, detail))

    start = (pg.axiom,)
    frontier = [(start, r) for r in pg.labels]
    visited, seen_forms = set(frontier), {start}
    for _ in range(depth):
        reached = []
        for form, label in frontier:
            rule = pg.rule_of[label]
            if rule.lhs in form:
                vector = {s: form.count(s) for s in nonterminals}
                if vectors.setdefault(label, vector) != vector:
                    report(2, "label %s applied to forms with different nonterminal vectors" % label)
            ys = list(dict.fromkeys(naive_one_step(form, (rule,))))
            nexts = pg.success[label] if ys else pg.failure[label]
            for y in ys or [form]:
                for q in sorted(nexts):
                    if y not in seen_forms:
                        seen_forms.add(y)
                        for s in nonterminals:
                            if y.count(s) > 1:
                                text = " ".join(z.name for z in y) or "#"
                                report(3, "nonterminal %s occurs %d times in form %s"
                                       % (s.name, y.count(s), text))
                    if (y, q) not in visited:
                        visited.add((y, q))
                        reached.append((y, q))
        frontier = reached
    return violations, vectors, bool(frontier)


@settings(max_examples=150, deadline=None)
@given(programmed_grammars(), st.integers(min_value=0, max_value=6))
def test_nsf_check_matches_reference(pg, depth):
    report = nsf_check(pg, depth)
    violations, vectors, inconclusive = reference_nsf(pg, depth)
    assert [v for v in report.violations if v[0] != 1] == violations
    assert report.inferred_counts == vectors
    assert list(report.inferred_counts) == list(vectors)
    for vector in report.inferred_counts.values():  # in name order
        assert list(vector) == sorted(pg.nonterminals)
    assert report.inconclusive == inconclusive


@pytest.mark.parametrize("variant", [C.VARIANT_EXACTLY, C.VARIANT_ATMOST])
def test_nsf_check_matches_reference_on_constructed_grammars(variant):
    # the grammars of the benchmark's nsf-check jobs, whose derivations
    # never run out: every state within the depth is expanded
    pg = C.cd_to_programmed(C.build_example1(2), 2, variant)
    report = nsf_check(pg, 80)
    violations, vectors, inconclusive = reference_nsf(pg, 80)
    assert [v for v in report.violations if v[0] != 1] == violations
    assert report.inferred_counts == vectors
    assert report.inconclusive == inconclusive


def reference_programmed_step(code, pg, max_form_len):
    """The programmed successor function on one-rule tables: every rewrite
    built by `_rewrites`, one per occurrence of the lhs even where two are
    one form, and the cap tested per rewrite."""
    labels = {
        p: (_rhs_table(code, (pg.rule_of[p],)), sorted(pg.success[p]), sorted(pg.failure[p]))
        for p in pg.labels
    }

    def successors(state):
        form, label = state
        table, success, failure = labels[label]
        ys = _rewrites(form, table)
        if ys:
            nexts, ac = success, False
        else:  # the rule does not apply: an appearance-checking step
            ys, nexts, ac = (form,), failure, True
        edges, pruned = [], False
        for y in ys:
            if len(y) <= max_form_len:
                edge = label, (y,), (), ac
                edges += [((y, q), y, edge) for q in nexts]
            elif nexts:  # an edge is dropped
                pruned = True
        return edges, pruned

    return successors


@st.composite
def repeating_rules(draw):
    """A rule whose rhs holds its lhs, so that two rewrites may be one form."""
    lhs = draw(st.sampled_from((S, A)))
    rhs = draw(st.lists(symbols, max_size=2))
    rhs.insert(draw(st.integers(min_value=0, max_value=len(rhs))), lhs)
    return Rule(lhs, tuple(rhs))


@st.composite
def programmed_steps(draw):
    """A programmed grammar, a form over its symbols and a cap from 1 to
    past the form's length."""
    pg = draw(programmed_grammars(st.one_of(any_rules, repeating_rules())))
    form = tuple(draw(st.lists(symbols, max_size=5)))
    return pg, form, draw(st.integers(min_value=1, max_value=len(form) + 3))


def step_grammar(rule, success, failure):
    """Label p with `rule` and the fields given, and label q with A -> a.
    Built without `validate`, so a rule with a terminal lhs passes."""
    return ProgrammedGrammar(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        labels=("p", "q"),
        rule_of={"p": rule, "q": Rule(A, (a,))},
        success={"p": success, "q": {"p"}},
        failure={"p": failure, "q": set()},
        lambda_free=bool(rule.rhs),
    )


@settings(max_examples=300, deadline=None)
# S -> S S on S S: two occurrences give one form, handed back twice
@example((step_grammar(Rule(S, (S, S)), {"p", "q"}, set()), (S, S), 3))
# a cap that cuts every rewrite: pruned with a success field, not without
@example((step_grammar(Rule(S, (a, S, a)), {"q"}, {"p"}), (S, a), 3))
@example((step_grammar(Rule(S, (a, S, a)), set(), {"p"}), (S, a), 3))
# appearance checking with an empty failure field, below and above the cap
@example((step_grammar(Rule(A, (a,)), {"p"}, set()), (S, a), 2))
@example((step_grammar(Rule(A, (a,)), {"p"}, set()), (S, a), 1))
# appearance checking above the cap with a failure field
@example((step_grammar(Rule(A, (a,)), {"p"}, {"p", "q"}), (S, a), 1))
# an erasing rule
@example((step_grammar(Rule(S, ()), {"p", "q"}, {"q"}), (a, S, S), 3))
# a rule with a terminal lhs never applies
@example((step_grammar(Rule(a, (S,)), {"p"}, {"q"}), (a, S), 3))
@given(programmed_steps())
def test_programmed_step_matches_rule_table_step(case):
    pg, form, cap = case
    code, space, _ = _compile(pg, None)
    successors = space(cap)[1]
    reference = reference_programmed_step(code, pg, cap)
    x = code.encode(form)
    for label in pg.labels:
        got, want = successors((x, label)), reference((x, label))
        assert got == want and repr(got) == repr(want)


def per_word(grammar, words, bounds, mode=None):
    results = [word_index(grammar, w, bounds, mode=mode) for w in words]
    return [r.index for r in results], any(r.truncated for r in results)


def enumerate_then_index(grammar, bound, bounds, mode=None):
    """A certificate the two-search way: enumerate, then index the words."""
    language = enumerate_grammar(grammar, bounds, mode=mode).language
    indices, truncated = per_word(grammar, language.words, bounds, mode=mode)
    counterexamples = [
        (w, i) for w, i in zip(language.words, indices) if i is not None and i > bound
    ]
    truncated = language.truncated or truncated or None in indices
    return len(language), counterexamples, not counterexamples, truncated


def check_against_per_word(grammar, bounds, mode=None):
    """indexed_language and certify_index_bound agree with an enumeration
    plus one word_index search per word."""
    language = enumerate_grammar(grammar, bounds, mode=mode).language
    indices, _ = per_word(grammar, language.words, bounds, mode=mode)
    assert indexed_language(grammar, bounds, mode=mode) == (
        language,
        dict(zip(language.words, indices)),
    )
    top = max([i for i in indices if i is not None], default=1)
    for bound in range(top + 1):
        cert = certify_index_bound(grammar, bound, bounds, mode=mode)
        assert (cert.checked_words, cert.counterexamples, cert.passed, cert.truncated) == (
            enumerate_then_index(grammar, bound, bounds, mode=mode)
        )


@settings(max_examples=100, deadline=None)
@given(cd_systems(), modes)
def test_certificates_on_cd_systems(g, mode):
    check_against_per_word(g, BOUNDS, mode)


@settings(max_examples=100, deadline=None)
@given(programmed_grammars())
def test_certificates_on_programmed_grammars(pg):
    check_against_per_word(pg, BOUNDS)


def heap_minimax(starts, successors, form_of, cost_of, target=None):
    """`_minimax` as a Dijkstra search on a heap ordered by (cost, push)."""
    costs = {}
    best = {}
    heap = []
    tie = count()
    for state, form in starts:
        best[state] = cost_of(form)
        heap.append((best[state], next(tie), state))
    heapq.heapify(heap)
    pruned = False
    while heap:
        cost, _, state = heapq.heappop(heap)
        if cost > best[state]:
            continue
        form = form_of(state)
        if form is not None and form not in costs and (target is None or form == target):
            costs[form] = cost
            if target is not None:
                break
        edges, cut = successors(state)
        pruned = pruned or cut
        for nxt, form, _ in edges:
            ncost = max(cost, cost_of(form))
            if ncost < best.get(nxt, ncost + 1):
                best[nxt] = ncost
                heapq.heappush(heap, (ncost, next(tie), nxt))
    return costs, pruned


def logged(successors, log):
    def expand(state):
        log.append(state)
        return successors(state)

    return expand


def check_against_heap(grammar, mode=None):
    """`_minimax` expands the states the heap search expands, in its order,
    and gives the same costs and pruned flag, without a target, with each of
    the first enumerated words, and with a word it never reaches.  Both run
    on the space's encoded forms and its cost function."""
    code, space, _ = _compile(grammar, mode)
    starts, successors, form_of = space(BOUNDS.max_form_len)[:3]
    language = enumerate_grammar(grammar, BOUNDS, mode=mode).language
    beyond = ("a",) * (BOUNDS.max_form_len + 1)  # longer than any form in the space
    words = list(language.words[:3]) + [beyond]
    for target in [None] + [code.encode(map(terminal, w)) for w in words]:
        got_log, ref_log = [], []
        got = _minimax(starts, logged(successors, got_log), form_of, code.cost, target)
        ref = heap_minimax(starts, logged(successors, ref_log), form_of, code.cost, target)
        assert got == ref
        assert got_log == ref_log
        decode = code.decoder()
        for state in got_log:  # the encoded cost is the nonterminal count
            assert code.cost(state[0]) == nonterminal_count(decode(state[0]))


@settings(max_examples=100, deadline=None)
@given(cd_systems(), modes)
def test_minimax_matches_heap_search_on_cd_systems(g, mode):
    check_against_heap(g, mode)


@settings(max_examples=100, deadline=None)
@given(programmed_grammars())
def test_minimax_matches_heap_search_on_programmed_grammars(pg):
    check_against_heap(pg)


def reference_inner_steps(components, max_form_len):
    """Successors of (form, active component or 0, step count), where every
    component opens on every form.  `components` holds (rule table, step
    window) pairs."""
    compiled = []
    for table, window in components:
        lo, hi, _ = window
        compiled.append((table, window, hi, hi if hi < math.inf else lo))
    opened = range(1, len(compiled) + 1)

    def successors(state):
        form, i, m = state
        if i == 0:
            return [((form, j, 0), form, j) for j in opened], False
        table, window, hi, top = compiled[i - 1]
        edges, pruned = [], False
        if _accepts(window, m, table, form):
            edges.append(((form, 0, 0), form, None))
        if m < hi:
            n = min(m + 1, top)
            for y in _rewrites(form, table):
                if len(y) > max_form_len:
                    pruned = True
                else:
                    edges.append(((y, i, n), y, y))
        return edges, pruned

    return successors


def reference_turns(successors, form_of):
    """Successors of the states between turns, by whole turns: an edge into
    a turn starts a breadth-first search that stops at the states between
    turns, each reached by its shortest path, labelled with the labels on
    that path."""

    def within(state):
        return successors(state) if form_of(state) is None else ((), False)

    def turns(state):
        edges, pruned = successors(state)
        out = []
        for nxt, form, label in edges:
            if form_of(nxt) is not None:
                out.append((nxt, form, (label,)))
                continue
            rows, cut = _bfs([(nxt, form)], within)
            pruned = pruned or cut
            for j, (y, yform, _, _) in enumerate(rows):
                if form_of(y) is not None:
                    out.append((y, yform, (label, *_path(rows, j, 3))))
        return out, pruned

    return turns


def erases(grammar) -> bool:
    """Whether some rule of `grammar` erases: only then may a form cut for
    its length have shrunk back to a word, whatever ``lambda_free`` says."""
    if isinstance(grammar, ProgrammedGrammar):
        return any(rule.is_erasing() for rule in grammar.rule_of.values())
    return any(rule.is_erasing() for rules in grammar.components for rule in rules)


def reference_enumerate(g, mode, modes, bounds):
    """The bounded language and traces by `reference_turns` of a CD system
    in `mode` or a hybrid system, whose components run in `modes`."""
    code, space, _ = _compile(g, mode)
    starts = space(bounds.max_form_len)[0]
    components = [(_rhs_table(code, rules), mode_window(m)) for rules, m in zip(g.components, modes)]
    steps = reference_inner_steps(components, bounds.max_form_len)
    rows, pruned = _bfs(starts, reference_turns(steps, _between_turns))
    word_rows = {}
    for i, (_, form, _, _) in enumerate(rows):
        if code.is_word(form):
            word_rows.setdefault(code.word(form), i)
    language = make_language(word_rows, bounds, pruned and erases(g))
    decode = code.decoder()
    traces = {}
    for word in language.words:
        segments = tuple(
            # the component index, the inner forms and the closing None
            TraceSegment(labels[0], tuple(map(decode, labels[1:-1])))
            for labels in _path(rows, word_rows[word], 3)
        )
        traces[word] = DerivationTrace((g.axiom,), segments)
    return language, traces


def reference_turn_results(form, ruleset, mode, bounds):
    """`mode_step`'s results in order, and its pruned flag, by `reference_turns`."""
    code = _local_encoding((form,), ruleset)
    steps = reference_inner_steps([(_rhs_table(code, ruleset), mode_window(mode))], bounds.max_form_len)
    edges, pruned = reference_turns(steps, _between_turns)((code.encode(form), 0, 0))
    decode = code.decoder()
    return [(decode(y), tuple(map(decode, labels[1:-1]))) for _, y, labels in edges], pruned


TURN_BOUNDS = Bounds(4, 5)


def check_turns_against_reference(grammar, form, mode=None):
    res = enumerate_grammar(grammar, TURN_BOUNDS, mode=mode, with_traces=True)
    modes = grammar.modes if mode is None else (mode,) * grammar.degree
    language, traces = reference_enumerate(grammar, mode, modes, TURN_BOUNDS)
    assert res.language == language
    assert list(res.traces.items()) == list(traces.items())
    for rules, m in zip(grammar.components, modes):
        for x in ((grammar.axiom,), form):
            got = mode_step(x, rules, m, TURN_BOUNDS)
            assert (list(got.results.items()), got.length_pruned) == (
                reference_turn_results(x, rules, m, TURN_BOUNDS)
            )


@settings(max_examples=150, deadline=None)
@given(cd_systems(), modes, forms)
def test_turns_match_nested_reference_on_cd_systems(g, mode, form):
    check_turns_against_reference(g, form, mode)


@st.composite
def hybrid_systems(draw):
    """One to three components, each in its own mode; a quarter may erase."""
    lambda_free = draw(st.integers(min_value=0, max_value=3)) > 0
    comps = draw(
        st.lists(components if lambda_free else erasing_components, min_size=1, max_size=3)
    )
    return HcdSystem(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        components=tuple(comps),
        modes=tuple(draw(modes) for _ in comps),
        lambda_free=lambda_free,
    )


@settings(max_examples=150, deadline=None)
@given(hybrid_systems(), forms)
def test_turns_match_nested_reference_on_hybrid_systems(g, form):
    check_turns_against_reference(g, form)


def check_memoized_steps(grammar, mode=None):
    """Every state that a `word_index` search expands gets, from the
    search's successor function, whose rewrites are kept for the whole
    search, the edges and pruned flag of a fresh `_inner_steps` called on
    that state alone.  The words are the last enumerated ones and a word
    of the longest length, which the search may not reach."""
    code, space, _ = _compiled(grammar, mode)
    components = space.args[0]
    words = list(enumerate_grammar(grammar, BOUNDS, mode=mode).language.words[-3:])
    words.append(("a",) * BOUNDS.max_word_len)
    real_minimax = engine._minimax
    expanded = []
    for word in words:
        # a λ-free grammar's search caps forms at its word's length
        cap = len(word) if code.lambda_free else BOUNDS.max_form_len

        def checked_minimax(starts, successors, *rest):
            def expand(state):
                got = successors(state)
                assert got == _inner_steps(components, cap, [{} for _ in components])(state)
                expanded.append(state)
                return got

            return real_minimax(starts, expand, *rest)

        with patch.object(engine, "_minimax", checked_minimax):
            word_index(grammar, word, BOUNDS, mode=mode)
    assert expanded


@settings(max_examples=100, deadline=None)
@given(cd_systems(), modes)
def test_memoized_steps_match_fresh_steps_on_cd_systems(g, mode):
    check_memoized_steps(g, mode)


@settings(max_examples=100, deadline=None)
@given(hybrid_systems())
def test_memoized_steps_match_fresh_steps_on_hybrid_systems(g):
    check_memoized_steps(g)


def test_word_index_on_programmed_grammar(pg_abc):
    bounds = Bounds.for_words(9)
    check_against_per_word(pg_abc, bounds)
    words = [tuple("abc"), tuple("aabbcc"), tuple("ab"), tuple("aaabbbccc")]
    assert per_word(pg_abc, words, bounds) == ([3, 3, None, 3], False)


def test_word_index_checks_its_word(pg_abc):
    bounds = Bounds.for_words(3)
    with pytest.raises(ValueError, match="longer"):
        word_index(pg_abc, tuple("aabbcc"), bounds)
    with pytest.raises(ValueError, match="unknown terminal 'd'"):
        word_index(pg_abc, tuple("abd"), bounds)
    # bounded languages are λ-normalized, so the empty word is never listed
    with pytest.raises(ValueError, match="empty word"):
        word_index(pg_abc, (), bounds)


@pytest.mark.parametrize(
    "q_rule, r_rule, truncated",
    [
        # (S, q), queued before the word at its cost, is cut before a pops
        (Rule(S, (A, A, a)), Rule(A, ()), True),
        # the cut comes after a pops, from (A A, r) at cost 2; the erasing
        # rule of label e, which never fires, keeps the search uncut
        (Rule(S, (A, A)), Rule(A, (A, A, a)), False),
    ],
    ids=["cut before the pop", "cut after the pop"],
)
def test_search_stops_when_the_last_word_is_popped(q_rule, r_rule, truncated):
    # A word costs the same whether taken when pushed or when popped, since
    # its parents pop in cost order; what the pop decides is where the
    # search stops, and so whether it met a cut.  Of the starts (S, p),
    # (S, q), (S, r), (S, e), all of cost 1, (S, p) pushes the word a at
    # cost 1.
    pg = ProgrammedGrammar(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        labels=("p", "q", "r", "e"),
        rule_of={"p": Rule(S, (a,)), "q": q_rule, "r": r_rule, "e": Rule(A, ())},
        success={"p": frozenset({"p"}), "q": frozenset({"r"}), "r": frozenset({"r"}), "e": frozenset()},
        failure={"p": frozenset(), "q": frozenset(), "r": frozenset(), "e": frozenset()},
        lambda_free=False,
    )
    bounds = Bounds(1, 2)
    assert word_index(pg, ("a",), bounds) == WordIndexResult(1, truncated)


b = terminal("b")
STEP_ALPHABET = ALPHABET + (b,)
step_rules = st.one_of(
    any_rules,  # erasing rules among them
    st.sampled_from((S, A)).map(lambda s: Rule(s, (s,))),  # unit self-loops
    st.builds(  # a rhs that holds its own lhs
        lambda s, pre, post: Rule(s, (*pre, s, *post)),
        st.sampled_from((S, A)),
        st.lists(st.sampled_from(STEP_ALPHABET), max_size=1).map(tuple),
        st.lists(st.sampled_from(STEP_ALPHABET), max_size=1).map(tuple),
    ),
)


def one_symbol_edits(form: str, chars: str):
    """Every string one substitution, insertion or deletion away from `form`."""
    out = set()
    for i in range(len(form) + 1):
        out.update(form[:i] + c + form[i:] for c in chars)
        if i < len(form):
            out.update(form[:i] + c + form[i + 1 :] for c in chars)
            out.add(form[:i] + form[i + 1 :])
    return out


def check_is_rewrite(x, ruleset):
    code = _local_encoding((STEP_ALPHABET,), ruleset)
    table = _rhs_table(code, ruleset)
    x = code.encode(x)
    ys = _rewrites(x, table)
    chars = "".join(map(code.char.get, STEP_ALPHABET))
    candidates = set(ys).union(*(one_symbol_edits(y, chars) for y in ys + [x]))
    for y in sorted(candidates):
        assert _is_rewrite(x, y, table) == (y in ys), (x, y)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(STEP_ALPHABET), max_size=5).map(tuple),
    st.lists(step_rules, min_size=1, max_size=4).map(tuple),
)
def test_is_rewrite_matches_rewrites(x, ruleset):
    check_is_rewrite(x, ruleset)


def test_is_rewrite_tries_every_occurrence():
    # the two occurrences of A in A A give two different rewrites
    rule = Rule(A, (a, A))
    code = _local_encoding((STEP_ALPHABET,), (rule,))
    table = _rhs_table(code, (rule,))
    x = code.encode((A, A))
    for y, expected in [
        ((a, A, A), True),
        ((A, a, A), True),
        ((A, A, a), False),
        ((a, A), False),
        ((A, A), False),
    ]:
        assert _is_rewrite(x, code.encode(y), table) is expected
    check_is_rewrite((A, A), (rule,))


def one_turn(component, x: str, max_form_len):
    """`_turn` of a compiled component, alone in its system, on form x
    under `max_form_len`, on a fresh rewrite memo: each form it hands back
    with its witness, its pruned flag and its longest row."""
    forms, payloads, pruned, longest = _turn(_inner_steps([component], max_form_len, [{}], False), [1], x)
    return [(y, witness) for y, (_, witness) in zip(forms, payloads)], pruned, longest


def reference_turn_per_count(component, x: str, max_form_len):
    """A CD turn as its own loop: one seen set per step count and `_accepts`
    on every row.  It must give what `_turn` gives."""
    table, window, hi, top = component
    rows = [(x, 0, -1)]  # (form, step count, parent row)
    seen = [{x}]  # seen[n]: the forms reached with step count n
    accepted = {}  # handed-back form -> its first accepting row
    steps = {}  # form -> its rewrites
    pruned = False
    for i, (form, m, _) in enumerate(rows):  # the loop visits the rows it appends
        if form not in accepted and _accepts(window, m, table, form):
            accepted[form] = i
        if m < hi:
            n = min(m + 1, top)
            if n == len(seen):  # counts never drop along the rows
                seen.append(set())
            level = seen[n]
            ys = steps.get(form)
            if ys is None:
                ys = steps[form] = _rewrites(form, table)
            for y in ys:
                if len(y) > max_form_len:
                    pruned = True
                elif y not in level:
                    level.add(y)
                    rows.append((y, n, i))
    longest = max(len(form) for form, _, _ in rows)
    return [(y, _path(rows, i, 0)) for y, i in accepted.items()], pruned, longest


@st.composite
def turn_cases(draw):
    """A component of `step_rules`, which meet a form at several step
    counts, a mode, a form of 1-4 symbols and a form cap of at least its length."""
    form = draw(st.lists(st.sampled_from(STEP_ALPHABET), min_size=1, max_size=4).map(tuple))
    ruleset = draw(st.lists(step_rules, min_size=1, max_size=4).map(tuple))
    return form, ruleset, draw(modes), draw(st.integers(min_value=len(form), max_value=7))


@settings(max_examples=300, deadline=None)
# a window with lo > hi, outside the mode set D, hands back nothing
@example(((S,), (Rule(S, (S,)),), conj(exactly(2), at_most(1)), 3))
@given(turn_cases())
def test_turn_matches_one_seen_set_per_count(case):
    form, ruleset, mode, cap = case
    code = _local_encoding((form,), ruleset)
    component = _component(code, ruleset, mode)
    x = code.encode(form)
    assert one_turn(component, x, cap) == reference_turn_per_count(component, x, cap)


@settings(max_examples=300, deadline=None)
# S => a S => a a S under =2: the longest row, a a S, is longer than S
@example(((S,), (Rule(S, (a, S)),), exactly(2), 5))
@given(turn_cases())
def test_a_whole_turn_holds_from_its_longest_row(case):
    form, ruleset, mode, cap = case
    code = _local_encoding((form,), ruleset)
    component = _component(code, ruleset, mode)
    x = code.encode(form)
    handed, pruned, longest = one_turn(component, x, cap)
    assert len(x) <= longest <= cap
    if not pruned:
        assert one_turn(component, x, longest) == (handed, False, longest)
        if longest > len(x):
            assert one_turn(component, x, longest - 1)[1]


@st.composite
def skeleton_cases(draw):
    """One to three components of `step_rules`, each with a mode, two forms
    with one skeleton, each with its own terminal runs, and a form cap for
    the first form, the second and the first again, each at least that
    form's length."""
    slots = draw(st.lists(st.sampled_from((S, A, None)), min_size=1, max_size=4))
    runs = st.lists(st.sampled_from((a, b)), min_size=1, max_size=3)

    def form():  # each None slot is one maximal terminal run
        out = []
        for slot in slots:
            if slot is not None:
                out.append(slot)
            elif not out or not out[-1].is_terminal():
                out += draw(runs)
        return tuple(out)

    x, y = form(), form()
    rulesets = st.lists(step_rules, min_size=1, max_size=4).map(tuple)
    components = draw(st.lists(st.tuples(rulesets, modes), min_size=1, max_size=3).map(tuple))
    caps = tuple(draw(st.integers(min_value=len(f), max_value=8)) for f in (x, y, x))
    return x, y, components, caps


@settings(max_examples=300, deadline=None)
# the cap cuts the turn on the longer form only
@example(((S, a), (S, a, a, a), (((Rule(S, (a, S)),), t_and(exactly(2))),), (4, 4, 4)))
# erasing rules: M a and a M, both in the skeleton's turn, fill to a a
# with the run a, so the turn hands back a a twice and the search drops the
# second; with the run b they do not
@example(((S, a, A), (S, b, A), (((Rule(S, ()), Rule(S, (a,)), Rule(A, (a,)), Rule(A, ())), exactly(2)),), (5, 5, 5)))
# under =2 the turn on the skeleton S M (M the mark) has longest row
# a a S M, of length 4.  The turn of S a under cap 4 is whole and serves
# S a a a under cap 6 and S a under cap 7, on the skeleton at caps 4 and 7
@example(((S, a), (S, a, a, a), (((Rule(S, (a, S)),), exactly(2)),), (4, 6, 7)))
# ... but not S a a a under cap 5, on the skeleton at cap 3, which cuts it
@example(((S, a), (S, a, a, a), (((Rule(S, (a, S)),), exactly(2)),), (4, 5, 4)))
# the turn of S a under cap 3 is cut; it serves S a a a under cap 5, on
# the skeleton at cap 3 too, but not S a under cap 4, where it is whole
@example(((S, a), (S, a, a, a), (((Rule(S, (a, S)),), exactly(2)),), (3, 5, 4)))
# three components on the skeleton S M: under cap 4 the first, whose
# longest row a a S M is the entry's, and the second (S => S) are whole,
# and the third, dead, is left out.  S a a a under cap 5, on the skeleton
# at cap 3, cuts the first, so both live components run again at that cap;
# S a under cap 3 is a hit on their entry
@example(
    (
        (S, a),
        (S, a, a, a),
        (((Rule(S, (a, S)),), exactly(2)), ((Rule(S, (S,)),), exactly(1)), ((Rule(A, (a,)),), T_MODE)),
        (4, 5, 3),
    )
)
@given(skeleton_cases())
def test_turns_match_turn_per_component(case):
    x, y, components, caps = case
    code = _local_encoding((STEP_ALPHABET,), [r for ruleset, _ in components for r in ruleset])
    compiled = [_component(code, ruleset, mode) for ruleset, mode in components]
    memo, steps = {}, [{} for _ in compiled]  # one of each for all three, as in a search
    for form, cap in zip((x, y, x), caps):  # the second x may be a memo hit
        form = code.encode(form)
        expected, pruned = [], False
        for j, component in enumerate(compiled, 1):
            if component[0][1].search(form) is not None:  # a live component
                handed, cut, _ = one_turn(component, form, cap)
                expected += [(j, z, witness) for z, witness in handed]
                pruned = pruned or cut
        edges, got_pruned = _turns(memo, steps, compiled, code, cap, (form, 0, 0))
        assert [(nxt, label[3]) for nxt, _, label in edges] == [((z, 0, 0), ()) for _, z, _ in edges]
        # each witness is filled on demand, one template per skeleton form,
        # from the runs; a (component, form) may repeat, and the search
        # keeps its first
        firsts = {}
        for _, z, (j, forms, runs, _) in edges:
            firsts.setdefault((j, z), [code.template(f) % runs for f in forms])
        got = [(j, z, witness) for (j, z), witness in firsts.items()]
        assert (got, got_pruned) == (expected, pruned)


def wide_system(n_nonterminals, n_terminals):
    """A CD system over exactly the given number of symbols, among them a
    terminal #, whose words hold runs of # and of other terminals."""
    hash_ = terminal("#")
    nonterminals = {S, A} | {nonterminal("N%02d" % i) for i in range(n_nonterminals - 2)}
    terminals = {hash_, a, b} | {terminal("t%02d" % i) for i in range(n_terminals - 3)}
    return CdSystem(
        nonterminals=frozenset(nonterminals),
        terminals=frozenset(terminals),
        axiom=S,
        components=(
            (Rule(S, (hash_, S, a)), Rule(S, (a, A, hash_)), Rule(S, (A,))),
            (Rule(A, (b, A, hash_)), Rule(A, (hash_, b)), Rule(A, (a,))),
        ),
    )


@pytest.mark.parametrize(
    "n_nonterminals, n_terminals, mark",
    [
        # 36 symbols: the separator after the mark is "%"
        (10, 26, "$"),
        # 37 symbols: the mark is "%" itself
        (10, 27, "%"),
        # 92 symbols: the mark is a backslash, and # is encoded as "%"
        (37, 55, "\\"),
    ],
    ids=["separator %", "mark %", "mark backslash, # encoded as %"],
)
@pytest.mark.parametrize("mode", [t_and(exactly(2)), t_and(at_most(2)), STAR])
def test_mark_cannot_collide_with_a_symbol(n_nonterminals, n_terminals, mark, mode):
    g = wide_system(n_nonterminals, n_terminals)
    code = _compile(g, mode)[0]
    assert code.mark == mark
    assert len(code.symbol) == n_nonterminals + n_terminals
    if "%" in code.symbol:  # the runs of # hold it
        assert code.symbol["%"] == terminal("#")
    bounds = Bounds.for_words(9)
    res = enumerate_grammar(g, bounds, mode=mode, with_traces=True)
    language, traces = reference_enumerate(g, mode, (mode,) * g.degree, bounds)
    assert res.language == language and len(language) > 3
    assert any("#" in word and len(set(word)) == 3 for word in language.words)
    assert list(res.traces.items()) == list(traces.items())
    # the exhaustive index search prices the turns on a skeleton as
    # %-templates too
    answer = state_by_state_index(g, bounds, mode)[0]
    assert indexed_language(g, bounds, mode=mode) == answer and answer[0] == language


def cf3_cd2():
    """The CD system of S -> AB, A -> aA | a | AB, B -> bB | b, of index 3."""
    B = nonterminal("B")
    rules = (Rule(S, (A, B)), Rule(A, (a, A)), Rule(A, (a,)), Rule(A, (A, B)), Rule(B, (b, B)), Rule(B, (b,)))
    return C.cf_indexk_to_cd2(C.IndexedCfGrammar(frozenset({S, A, B}), frozenset({a, b}), S, rules, 3))


def test_a_search_shares_turns_by_skeleton(monkeypatch):
    # cf3-cd2 has index 3, so it meets many forms that differ only in their
    # terminal runs
    g = cf3_cd2()
    turns, builds, fills = [], [], []
    states = []  # per state between turns, the number of its live components
    real_turn, real_turns, real_inner_steps = engine._turn, engine._turns, engine._inner_steps
    real_template = engine._Encoding.template

    class Witness(str):
        """A witness form, whose templates are counted as fills."""

    def counted_turn(*args):
        turns.append(args)
        forms, payloads, pruned, longest = real_turn(*args)
        return forms, [(j, list(map(Witness, witness))) for j, witness in payloads], pruned, longest

    def counted_template(code, form):
        if isinstance(form, Witness):
            fills.append(form)
        return real_template(code, form)

    def counted_inner_steps(components, max_form_len, steps, opens=True):
        if not opens:  # the successors of a skeleton's turns
            builds.append(max_form_len)
        return real_inner_steps(components, max_form_len, steps, opens)

    def counted_turns(memo, steps, components, code, max_form_len, state):
        states.append(sum(c[0][1].search(state[0]) is not None for c in components))
        return real_turns(memo, steps, components, code, max_form_len, state)

    monkeypatch.setattr(engine, "_turn", counted_turn)
    monkeypatch.setattr(engine._Encoding, "template", counted_template)
    monkeypatch.setattr(engine, "_inner_steps", counted_inner_steps)
    monkeypatch.setattr(engine, "_turns", counted_turns)
    mode, bounds = t_and(exactly(3)), Bounds.for_words(10)
    enumerate_grammar(g, bounds, mode=mode)
    # without sharing, a turn runs for nearly every state between turns and
    # live component
    assert 2 * sum(len(live) for _, live, _ in turns) < sum(states) and 2 * len(turns) < len(states)
    # a skeleton's turns are built over one step relation, and only where
    # some component is live: no word's skeleton is, and none gets one
    assert len(builds) == len(turns) and all(live for _, live, _ in turns) and 0 in states
    # an enumeration without traces fills no witness; one with traces fills
    # the forms of each segment it builds once
    assert fills == []
    traces = enumerate_grammar(g, bounds, mode=mode, with_traces=True).traces
    segments = {id(seg): seg for trace in traces.values() for seg in trace.segments}
    assert len(fills) == sum(len(seg.forms) for seg in segments.values()) > 0
    # the forms of s3 and snk(2,2,exactly) grow their terminal runs every
    # turn, so their turns are shared across form lengths or not at all
    for g, mode, max_len in [
        (C.build_s3_cd3(), t_and(exactly(2)), 25),
        (C.build_snk_cdgs(2, 2, "exactly"), C.snk_mode(2, "exactly"), 37),
    ]:
        turns.clear()
        builds.clear()
        states.clear()
        enumerate_grammar(g, Bounds.for_words(max_len), mode=mode)
        assert 2 * sum(len(live) for _, live, _ in turns) < sum(states) and 2 * len(turns) < len(states)
        assert len(builds) == len(turns)


def test_the_index_search_rewrites_and_counts_each_form_once(monkeypatch):
    # the exhaustive index search prices the turns of many skeletons, each
    # under one or more caps, and meets a form at many step counts and in
    # many states; it rewrites a (component, skeleton form) once, whatever
    # the cap, and each search over the states inside turns or between
    # them counts a form's nonterminals once
    g, mode = cf3_cd2(), t_and(exactly(3))
    real_rewrites, real_minimax = engine._rewrites, engine._minimax
    rewrites, searches = Counter(), []

    def counted_rewrites(form, table):
        rewrites[id(table), form] += 1
        return real_rewrites(form, table)

    def counted_minimax(starts, successors, form_of, cost_of, target=None):
        counts = Counter()
        searches.append(counts)

        def counted_cost(form):
            counts[form] += 1
            return cost_of(form)

        return real_minimax(starts, successors, form_of, counted_cost, target)

    monkeypatch.setattr(engine, "_rewrites", counted_rewrites)
    monkeypatch.setattr(engine, "_minimax", counted_minimax)
    indexed_language(g, Bounds.for_words(9), mode=mode)
    assert sum(rewrites.values()) == len(rewrites) > 0
    assert len(searches) > 1  # the walk between turns and the turn pricings
    assert all(sum(counts.values()) == len(counts) for counts in searches)
    assert sum(map(len, searches)) > 0


def state_by_state_index(grammar, bounds, mode=None):
    """`indexed_language` by the state-by-state search: `_minimax` over
    the successors of the compiled space, priced by ``code.cost``.  Returns
    its answer, its costs and pruned flag, and the states it expanded."""
    code, space, _ = _compile(grammar, mode)
    starts, successors, form_of = space(bounds.max_form_len)[:3]
    log = []
    costs, pruned = _minimax(starts, logged(successors, log), form_of, code.cost)
    indices = {code.word(form): cost for form, cost in costs.items() if code.is_word(form)}
    language = make_language(indices, bounds, pruned and erases(grammar))
    return (language, {word: indices[word] for word in language.words}), (costs, pruned), log


INDEX_BOUNDS = (Bounds(4, 4), Bounds(3, 6), Bounds(4, 5))  # form caps at and above the word cap


@settings(max_examples=200, deadline=None)
@example((cf3_cd2(), t_and(exactly(3))), Bounds.for_words(9))
@given(st.one_of(st.tuples(cd_systems(), modes), st.tuples(hybrid_systems(), st.none())), st.sampled_from(INDEX_BOUNDS))
def test_turn_walk_matches_state_by_state_search(case, bounds):
    g, mode = case
    code, space, _ = _compile(g, mode)
    _, _, _, (starts, turns), walk = space(bounds.max_form_len)
    answer, (costs, pruned), _ = state_by_state_index(g, bounds, mode)
    # the same least cost of every form between turns, and the same cuts
    assert _minimax(*walk) == (costs, pruned)
    assert indexed_language(g, bounds, mode=mode) == answer
    # the forms it prices are those between turns of the enumeration
    rows, _ = _bfs(starts, turns)
    assert set(costs) == {form for _, form, _, _ in rows}


def labelled(*specs):
    """A programmed grammar over S, A and a with one label per ``(label,
    rule, success field, failure field)``.  Built without `validate`."""
    return ProgrammedGrammar(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a}),
        axiom=S,
        labels=tuple(p for p, _, _, _ in specs),
        rule_of={p: rule for p, rule, _, _ in specs},
        success={p: frozenset(fields) for p, _, fields, _ in specs},
        failure={p: frozenset(fields) for p, _, _, fields in specs},
        lambda_free=all(rule.rhs for _, rule, _, _ in specs),
    )


def cd2_programmed():
    """The benchmark's programmed grammar: `example1(2)` under (t & <=2),
    mostly appearance-checking check labels."""
    return C.cd_to_programmed(C.build_example1(2), 2, C.VARIANT_ATMOST)


@settings(max_examples=300, deadline=None)
@example(cd2_programmed(), Bounds.for_words(12))
# a two-label ac cycle: at a a, q fails to p and p fails back to q
@example(labelled(("p", Rule(S, (A, A)), {"q"}, {"q"}), ("q", Rule(A, (a,)), {"q"}, {"p"})), Bounds(4, 4))
# a rewrite with an empty success field goes nowhere, so its form is unpriced
@example(step_grammar(Rule(S, (a,)), set(), {"q"}), Bounds(4, 4))
# an erasing rule, and a cap that cuts a S S's rewrite a a S S S
@example(labelled(("p", Rule(S, (a, S, S)), {"p", "q"}, set()), ("q", Rule(S, ()), {"p", "q"}, set())), Bounds(4, 4))
@given(programmed_grammars(), st.sampled_from(INDEX_BOUNDS))
def test_programmed_walk_matches_state_by_state_search(pg, bounds):
    code, space, _ = _compile(pg, None)
    _, _, _, (starts, turns), walk = space(bounds.max_form_len)
    answer, (costs, pruned), _ = state_by_state_index(pg, bounds)
    # the same least cost of every form, and the same cuts
    assert _minimax(*walk) == (costs, pruned)
    assert indexed_language(pg, bounds) == answer
    # the forms it prices are those of the enumeration's rows; the
    # enumeration walks from the same space call, on a walk of its own
    rows, _ = _bfs(starts, turns)
    assert set(costs) == {form for _, form, _, _ in rows}


def twice(successors):
    """`successors` with each edge handed back twice in a row."""

    def expand(state):
        edges, pruned = successors(state)
        return [edge for edge in edges for _ in (0, 1)], pruned

    return expand


def search_answers(grammar, mode):
    """What the searches on a fresh compile of `grammar` give: the rows and
    pruned flag of the search by whole turns, the costs and pruned flag of
    the exhaustive index search, the `word_index` answers of the last
    enumerated words and of a word of the longest length, which the search
    may not reach, and the NSF report of a programmed grammar."""
    code, space, _ = _compile(grammar, mode)
    _, _, _, (starts, turns), walk = space(BOUNDS.max_form_len)
    rows, pruned = engine._bfs(starts, turns)
    words = [code.word(form) for _, form, _, _ in rows if form and code.is_word(form)][-3:]
    words.append(("a",) * BOUNDS.max_word_len)
    indices = [word_index(grammar, word, BOUNDS, mode=mode) for word in words]
    nsf = nsf_check(grammar, 6) if isinstance(grammar, ProgrammedGrammar) else None
    return (rows, pruned), engine._minimax(*walk), indices, nsf


@settings(max_examples=150, deadline=None)
# S -> S S on S S rewrites both occurrences to S S S
@example((step_grammar(Rule(S, (S, S)), {"p", "q"}, {"q"}), None))
@example((CdSystem(frozenset({S, A}), frozenset({a}), S, ((Rule(S, (S, S)), Rule(S, (a,))),)), t_and(at_most(2))))
@given(
    st.one_of(
        st.tuples(cd_systems(), modes),
        st.tuples(hybrid_systems(), st.none()),
        st.tuples(programmed_grammars(), st.none()),
    )
)
def test_searches_drop_repeated_successors(case):
    # only the two search loops drop a repeated successor: with every
    # successor function they walk handing back each edge twice, the turns
    # and their pricings inside the searches among them, every search keeps
    # the first edge into each state and gives the same answer
    g, mode = case
    plain = search_answers(g, mode)
    real_bfs, real_minimax = engine._bfs, engine._minimax

    def bfs(starts, successors):
        return real_bfs(starts, twice(successors))

    def minimax(starts, successors, *rest):
        return real_minimax(starts, twice(successors), *rest)

    with patch.object(engine, "_bfs", bfs), patch.object(engine, "_minimax", minimax):
        with patch("gsworkbench.verifier._bfs", bfs):
            assert search_answers(g, mode) == plain


def test_a_search_prices_each_skeleton_once(monkeypatch):
    # cf3-cd2 has index 3, so many forms between its turns share a
    # skeleton: 486 forms have 39 skeletons at max_len 9
    g, mode, bounds = cf3_cd2(), t_and(exactly(3)), Bounds.for_words(9)
    real_by_skeleton, real_minimax = engine._by_skeleton, engine._minimax
    priced, memos, pops, searches = [], [], [], []

    def counted_by_skeleton(memo, components, steps, code, max_form_len, x, turn):
        def counted_turn(successors, live, skeleton):
            entry = turn(successors, live, skeleton)
            cap = max_form_len - len(x) + len(skeleton)
            priced.append((skeleton, cap) if entry[-2] else skeleton)
            return entry

        memos.append(memo)
        return real_by_skeleton(memo, components, steps, code, max_form_len, x, counted_turn)

    def counted_minimax(starts, successors, *rest):
        searches.append(starts)
        return real_minimax(starts, logged(successors, pops), *rest)

    monkeypatch.setattr(engine, "_by_skeleton", counted_by_skeleton)
    monkeypatch.setattr(engine, "_minimax", counted_minimax)
    got = indexed_language(g, bounds, mode=mode)
    monkeypatch.undo()
    # no skeleton is priced twice under one key of the memo, and the memo
    # keeps both whole and cut entries
    assert len(priced) == len(set(priced)) > 0
    memo = memos[0]
    assert all(m is memo for m in memos)
    assert {type(key) for key in memo} == {str, tuple}
    # the walk and every pricing search start somewhere: a skeleton on
    # which no component is live is priced without a search
    assert len(searches) > 1 and all(searches)
    # the walk and the pricings pop fewer than half the states of the
    # state-by-state search, for the same answer
    answer, _, log = state_by_state_index(g, bounds, mode)
    assert got == answer
    assert 2 * len(pops) < len(log)


def test_the_programmed_walk_rewrites_each_form_and_label_once(monkeypatch):
    # cd2_programmed's check labels fail on most forms, so the step-by-step
    # search meets a form at many labels; the walk follows their failure
    # fields without pushing a state and rewrites a (form, label) once
    g, bounds = cd2_programmed(), Bounds.for_words(12)
    code = _compile(g, None)[0]
    real_minimax = engine._minimax
    pops, edges = [], []

    def counted_minimax(starts, successors, *rest):
        def expand(state):
            pops.append(state)
            out = successors(state)
            edges.extend((state[0], y) for _, y, _ in out[0])
            return out

        return real_minimax(starts, expand, *rest)

    monkeypatch.setattr(engine, "_minimax", counted_minimax)
    got = indexed_language(g, bounds)
    monkeypatch.undo()
    # no popped state is reached by an appearance-checking step, which
    # keeps the form: every edge rewrites it
    assert pops and all(x != y for x, y in edges)
    # each edge is one rewrite at one occurrence of the lhs of one (form,
    # label) met at a popped state, so no (form, label) is rewritten twice
    # when there are no more edges than those occurrences
    met = set()
    for form, nexts in pops:
        chain = list(nexts)
        for p in chain:
            lhs = code.char[g.rule_of[p].lhs]
            if lhs not in form:
                chain += [q for q in sorted(g.failure[p]) if q not in chain]
            elif g.success[p] and len(form) + len(g.rule_of[p].rhs) <= bounds.max_form_len + 1:
                met.add((form, p))
    assert len(edges) == sum(form.count(code.char[g.rule_of[p].lhs]) for form, p in met)
    # the walk pops under a quarter of the states of the state-by-state
    # search, for the same answer
    answer, _, log = state_by_state_index(g, bounds)
    assert got == answer
    assert 4 * len(pops) < len(log)


def step_enumeration(pg, bounds):
    """The bounded language of a programmed grammar by the state-by-state
    search: `_bfs` over the step successors, one row per (form, label),
    every appearance-checking step among them.  Returns the language, each
    word's trace, one segment per row, and the rows."""
    code, space, _ = _compile(pg, None)
    rows, pruned = _bfs(*space(bounds.max_form_len)[:2])
    word_rows = {}
    for i, (_, form, _, _) in enumerate(rows):
        if code.is_word(form):
            word_rows.setdefault(code.word(form), i)
    language = make_language(word_rows, bounds, pruned and erases(pg))
    decode = code.decoder()
    traces = {
        word: DerivationTrace(
            (pg.axiom,),
            tuple(TraceSegment(p, tuple(map(decode, forms)), ac) for p, forms, _, ac in _path(rows, word_rows[word], 3)),
        )
        for word in language.words
    }
    return language, traces, rows


def enumeration_rows(grammar, bounds, mode=None):
    """`enumerate_grammar` with traces, and the rows of its search between
    turns, the last `_bfs` to return."""
    searches, real = [], engine._bfs

    def spy(starts, successors):
        searches.append(real(starts, successors))
        return searches[-1]

    with patch.object(engine, "_bfs", spy):
        return enumerate_grammar(grammar, bounds, mode=mode, with_traces=True), searches[-1][0]


def rewrite_count(trace) -> int:
    return sum(not seg.appearance_checking for seg in trace.segments)


@settings(max_examples=300, deadline=None)
# most labels fail on most forms, so traces hold runs of several [ac] segments
@example(cd2_programmed(), Bounds.for_words(9))
# a two-label ac cycle: at a a, q fails to p and p fails back to q
@example(labelled(("p", Rule(S, (A, A)), {"q"}, {"q"}), ("q", Rule(A, (a,)), {"q"}, {"p"})), Bounds(4, 4))
# a rewrite with an empty success field goes nowhere
@example(step_grammar(Rule(S, (a,)), set(), {"q"}), Bounds(4, 4))
# an erasing rule, and a cap that cuts a S S's rewrite a a S S S
@example(labelled(("p", Rule(S, (a, S, S)), {"p", "q"}, set()), ("q", Rule(S, ()), {"p", "q"}, set())), Bounds(4, 4))
@given(programmed_grammars(), st.sampled_from(INDEX_BOUNDS))
def test_programmed_enumeration_matches_state_by_state_search(pg, bounds):
    got, rows = enumeration_rows(pg, bounds)
    language, traces, step_rows = step_enumeration(pg, bounds)
    # the same words, truncation flag and forms
    assert got.language == language
    assert {form for _, form, _, _ in rows} == {form for _, form, _, _ in step_rows}
    assert set(got.traces) == set(language.words)
    for word, trace in got.traces.items():
        assert validate_trace(pg, trace) == []
        # a shortest path by whole rewrites
        assert rewrite_count(trace) <= rewrite_count(traces[word])
        # a run of [ac] segments stays on the form before it, and each
        # label's failure field leads to the next label, up to a rewrite
        current, after = trace.start, trace.segments[1:] + (None,)
        for seg, nxt in zip(trace.segments, after):
            if seg.appearance_checking:
                assert seg.forms == (current,) and pg.rule_of[seg.actor].lhs not in current
                assert nxt is not None and nxt.actor in pg.failure[seg.actor]
            else:
                current = seg.forms[0]


def test_programmed_enumeration_makes_a_row_per_rewrite():
    # the step-by-step search makes a row per appearance-checking step too
    g, bounds = cd2_programmed(), Bounds.for_words(12)
    got, rows = enumeration_rows(g, bounds)
    language, _, step_rows = step_enumeration(g, bounds)
    assert got.language == language and len(language) == 30
    assert (len(rows), len(step_rows)) == (199, 2263)


def test_only_word_index_nsf_check_and_trace_checks_take_programmed_steps():
    steps, real = [], engine._programmed_space

    def counted_space(*args):
        starts, successors, *rest = real(*args)

        def step(state):
            steps.append(state)
            return successors(state)

        return (starts, step, *rest)

    def steps_taken(call, *args, **kwargs):
        before = len(steps)
        call(*args, **kwargs)
        return len(steps) - before

    g, bounds = cd2_programmed(), Bounds.for_words(9)  # a new grammar, so a new compile
    with patch.object(engine, "_programmed_space", counted_space):
        res = enumerate_grammar(g, bounds, with_traces=True)
        assert steps_taken(enumerate_grammar, g, bounds, with_traces=True) == 0
        assert steps_taken(indexed_language, g, bounds) == 0
        assert steps_taken(word_index, g, res.language.words[-1], bounds) > 0
        assert steps_taken(nsf_check, g, 6) > 0
        assert steps_taken(validate_trace, g, res.traces[res.language.words[-1]]) > 0


def fresh_trace_check(grammar, trace, mode):
    """`validate_trace` on a fresh compile, which reads no kept verdict."""
    problems = []
    if trace.start != (grammar.axiom,):
        problems.append("start: trace starts at %s, not at the axiom" % form_text(trace.start))
    problems += _compile(grammar, mode)[2](trace)
    last = list(trace.all_forms())[-1]
    if not all(s.is_terminal() for s in last):
        problems.append("end: final form %s is not terminal" % form_text(last))
    return problems


@st.composite
def tampered_traces(draw):
    """A CD or hybrid system, its mode, and its enumerated traces with
    tampered copies (a segment dropped, two swapped, one given another
    actor, one form of one replaced, or the last form of one dropped), in
    two random orders.

    The system gets a last component that derives words under every mode,
    so that there are traces to check."""
    g, mode = draw(st.one_of(st.tuples(cd_systems(), modes), st.tuples(hybrid_systems(), st.none())))
    last = (Rule(S, (a, S)), Rule(S, (a,)), Rule(A, (a,)))
    if mode is None:
        g = replace(g, components=g.components + (last,), modes=g.modes + (draw(modes),))
    else:
        g = replace(g, components=g.components + (last,))
    traces = list(enumerate_grammar(g, BOUNDS, mode=mode, with_traces=True).traces.values())
    for trace in draw(st.lists(st.sampled_from(traces), max_size=6)) if traces else ():
        segs = list(trace.segments)
        i = draw(st.integers(min_value=0, max_value=len(segs) - 1))
        tamper = draw(st.sampled_from(("drop", "swap", "re-actor", "replace", "shorten")))
        if tamper == "drop":
            del segs[i]
        elif tamper == "shorten":  # its steps still hold, but its mode may not
            segs[i] = replace(segs[i], forms=segs[i].forms[:-1])
        elif tamper == "swap":
            j = draw(st.integers(min_value=0, max_value=len(segs) - 1))
            segs[i], segs[j] = segs[j], segs[i]
        elif tamper == "re-actor":
            actor = draw(st.integers(min_value=0, max_value=len(g.components) + 1) | st.just(True))
            segs[i] = replace(segs[i], actor=actor)
        else:  # a zero-step segment gets its first form
            inner = list(segs[i].forms)
            k = draw(st.integers(min_value=0, max_value=max(len(inner) - 1, 0)))
            inner[k : k + 1] = [draw(forms)]
            segs[i] = replace(segs[i], forms=tuple(inner))
        traces.append(replace(trace, segments=tuple(segs)))
    return g, mode, draw(st.permutations(traces)), draw(st.permutations(traces))


@settings(max_examples=150, deadline=None)
@given(tampered_traces())
def test_remembered_segments_change_no_verdict(case):
    g, mode, first, second = case
    expected = {id(t): fresh_trace_check(g, t, mode) for t in first}
    for traces in (first, second):
        for trace in traces:
            assert validate_trace(g, trace, mode) == expected[id(trace)]


TWO_LETTER = (S, A, a, b)
GOAL_BOUNDS = Bounds(4, 5)
TWO_LETTER_WORDS = [w for n in range(1, 5) for w in product("ab", repeat=n)]


@st.composite
def two_letter_grammars(draw):
    """A CD system with its mode, a hybrid system or a programmed grammar
    over the terminals a and b.  About 30% may erase, and half of those are
    still declared λ-free, as an unvalidated grammar may be."""
    erasing = draw(st.integers(min_value=0, max_value=9)) < 3
    rhss = st.lists(st.sampled_from(TWO_LETTER), min_size=0 if erasing else 1, max_size=3)
    rules = st.builds(Rule, st.sampled_from((S, A)), rhss.map(tuple))
    fixed = dict(
        nonterminals=frozenset({S, A}),
        terminals=frozenset({a, b}),
        axiom=S,
        lambda_free=not erasing or draw(st.booleans()),
    )
    kind = draw(st.sampled_from(("cd", "hybrid", "programmed")))
    if kind == "programmed":
        labels = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
        fields = st.frozensets(st.sampled_from(labels))
        return ProgrammedGrammar(
            labels=tuple(labels),
            rule_of={p: draw(rules) for p in labels},
            success={p: draw(fields) for p in labels},
            failure={p: draw(fields) for p in labels},
            **fixed,
        ), None
    comps = tuple(draw(st.lists(st.lists(rules, min_size=1, max_size=3).map(tuple), min_size=1, max_size=2)))
    if kind == "hybrid":
        return HcdSystem(components=comps, modes=tuple(draw(modes) for _ in comps), **fixed), None
    return CdSystem(components=comps, **fixed), draw(modes)


def uncut_word_index(grammar, word, bounds, mode=None):
    """`word_index` by the search of every form within the form cap, and
    the states it expanded, in order."""
    code, space, _ = _compile(grammar, mode)
    starts, successors, form_of = space(bounds.max_form_len)[:3]
    target = code.encode(map(terminal, word))
    log = []
    costs, pruned = _minimax(starts, logged(successors, log), form_of, code.cost, target)
    return WordIndexResult(costs.get(target), pruned and erases(grammar)), log


def index_search(grammar, word, bounds, mode=None):
    """`word_index`, and the states its search expanded, in order."""
    log, real = [], engine._minimax

    def spy(starts, successors, *rest):
        return real(starts, logged(successors, log), *rest)

    with patch.object(engine, "_minimax", spy):
        return word_index(grammar, word, bounds, mode=mode), log


def fits(form, word) -> bool:
    """Whether `form` is no longer than `word`, the terminals before its
    first nonterminal start `word`, and those after its last end it."""
    names = [s.name if s.is_terminal() else None for s in form]
    head = list(takewhile(lambda name: name is not None, names))
    tail = list(takewhile(lambda name: name is not None, reversed(names)))
    return len(form) <= len(word) and head == list(word[: len(head)]) and tail == list(reversed(word))[: len(tail)]


@settings(max_examples=300, deadline=None)
@example((cf3_cd2(), t_and(exactly(3))))  # of a+ b+, so b a is no member
@given(two_letter_grammars())
def test_goal_directed_index_matches_uncut_search(case):
    g, mode = case
    code = _compiled(g, mode)[0]
    decode = code.decoder()
    wider = Bounds(GOAL_BOUNDS.max_word_len, GOAL_BOUNDS.max_form_len + 3)
    for word in TWO_LETTER_WORDS:
        got, log = index_search(g, word, GOAL_BOUNDS, mode)
        ref, ref_log = uncut_word_index(g, word, GOAL_BOUNDS, mode)
        assert got == ref
        if code.lambda_free:  # the search reads no cap and expands only forms that fit
            assert index_search(g, word, wider, mode)[1] == log
            assert all(fits(decode(state[0]), word) for state in log)
        else:  # it is the uncut search
            assert log == ref_log


def test_index_search_cost_does_not_grow_with_max_len():
    g, mode = cf3_cd2(), t_and(exactly(3))
    for word, index in [(("b", "a"), None), (tuple("aabbb"), 2)]:
        runs = [index_search(g, word, Bounds.for_words(n), mode) for n in (5, 8, 14, 40)]
        assert runs[0][0] == WordIndexResult(index)
        assert all(run == runs[0] for run in runs)
        # the rules decide, not the flag: declared not λ-free, it is the same search
        assert index_search(replace(g, lambda_free=False), word, Bounds.for_words(40), mode) == runs[0]
    # with a rule that erases, declared λ-free or not, a search expands the
    # states that the uncut search expands
    erasing = replace(g, components=(g.components[0] + (Rule(A, ()),), g.components[1]))
    for grammar in [erasing, replace(erasing, lambda_free=False)]:
        for word in [("b", "a"), tuple("aabbb")]:
            assert index_search(grammar, word, Bounds.for_words(8), mode) == uncut_word_index(
                grammar, word, Bounds.for_words(8), mode
            )
