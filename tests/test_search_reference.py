"""Differential checks of the engine's searches on random tiny grammars.

The reference for `mode_step` expands the forms reachable in exactly m
steps, level by level, for m up to k + N: k is the mode's largest constant
and N the number of forms within the form cap.  That is enough, because a
longer derivation repeats a form after its first k steps, and cutting out
the cycle leaves a derivation of at least k steps to the same form.  The
least accepting m of a form is the length of its shortest witness.

The reference for a CD turn (`_turn`, under enumeration and `mode_step`)
is the turn as a nested breadth-first search over the state-level
successors (form, active component, step count), one search per opened
component, which stops at the states between turns.  It must give the
same words, truncation flag, traces and `mode_step` results in the same
order.

The reference for the one multi-target index search (`word_indices`) is
one single-target `word_index` search per word.  The reference for the
bucket queue inside them is a heap-based Dijkstra search, which must pop
the same states in the same order.  The reference for
`certify_index_bound`, one exhaustive index search, is an enumeration
followed by `word_indices` over the words it found.  The reference for
`nsf_check` is a level-by-level search over symbol tuples.

The reference for the one-step test of `validate_trace` (`_is_rewrite`) is
membership in the list of all rewrites (`_rewrites`).

Criteria 2 and 6 of the acceptance suite are also checked here on the
random systems, not only on the named examples.
"""

import heapq
import math
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from gsworkbench import constructions as C
from gsworkbench.engine import (
    Bounds,
    DerivationTrace,
    TraceSegment,
    _accepts,
    _between_turns,
    _bfs,
    _compile,
    _is_rewrite,
    _labels_to,
    _local_encoding,
    _minimax,
    _rewrites,
    _rhs_table,
    enumerate_grammar,
    indexed_language,
    make_language,
    mode_predicate,
    mode_step,
    trace_index,
    WordIndexResult,
    validate_trace,
    word_index,
    word_indices,
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
    exactly,
    mode_window,
    nonterminal,
    nonterminal_count,
    t_and,
    terminal,
)
from gsworkbench.verifier import certify_index_bound, nsf_check

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
    """Each form accepted after some m steps, mapped to the least such m."""
    n_forms = sum(len(ALPHABET) ** n for n in range(max_len + 1))
    level, accepted = {form}, {}
    for m in range(largest_constant(mode) + n_forms + 1):
        for y in level:
            if y not in accepted and mode_predicate(mode, m, ruleset, y):
                accepted[y] = m
        level = {z for y in level for z in successors(y, ruleset) if len(z) <= max_len}
        if not level:
            break
    return accepted


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
            assert z in set(successors(x, ruleset))
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


# rules that may erase, for systems that are not λ-free
any_rules = st.builds(Rule, st.sampled_from((S, A)), st.lists(symbols, max_size=3).map(tuple))


@st.composite
def programmed_grammars(draw):
    """Up to 4 labels with rules that may erase and drawn failure fields."""
    labels = draw(st.lists(st.sampled_from("pqrs"), min_size=1, max_size=4, unique=True))
    fields = st.frozensets(st.sampled_from(labels))
    rule_of = {p: draw(any_rules) for p in labels}
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
    indices, _ = word_indices(pg, words, BOUNDS)
    for word, index in zip(words, indices):
        trace = res.traces[word]
        assert validate_trace(pg, trace) == []
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
            ys = list(dict.fromkeys(successors(form, (rule,))))
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


erasing_components = st.lists(any_rules, min_size=1, max_size=3).map(tuple)
ALL_WORDS = tuple(("a",) * n for n in range(1, BOUNDS.max_word_len + 1))


@st.composite
def cd_systems(draw):
    """One or two components; half of the systems may erase."""
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


def per_word(grammar, words, bounds, mode=None):
    results = [word_index(grammar, w, bounds, mode=mode) for w in words]
    return [r.index for r in results], any(r.truncated for r in results)


def enumerate_then_index(grammar, bound, bounds, mode=None):
    """A certificate the two-search way: enumerate, then index the words."""
    language = enumerate_grammar(grammar, bounds, mode=mode).language
    indices, truncated = word_indices(grammar, language.words, bounds, mode=mode)
    counterexamples = [
        (w, i) for w, i in zip(language.words, indices) if i is not None and i > bound
    ]
    truncated = language.truncated or truncated or None in indices
    return len(language), counterexamples, not counterexamples, truncated


def check_against_per_word(grammar, bounds, mode=None):
    """word_indices agrees with one search per word, and indexed_language
    and certify_index_bound with an enumeration plus word_indices."""
    language = enumerate_grammar(grammar, bounds, mode=mode).language
    for words in (language.words, ALL_WORDS[::-1]):
        assert word_indices(grammar, words, bounds, mode=mode) == per_word(
            grammar, words, bounds, mode=mode
        )
    indices, _ = word_indices(grammar, language.words, bounds, mode=mode)
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
def test_word_indices_match_one_search_per_word(g, mode):
    check_against_per_word(g, BOUNDS, mode)


@settings(max_examples=100, deadline=None)
@given(programmed_grammars())
def test_certificates_on_programmed_grammars(pg):
    check_against_per_word(pg, BOUNDS)


def heap_minimax(starts, successors, form_of, cost_of, targets=None):
    """`_minimax` as a Dijkstra search on a heap ordered by (cost, push)."""
    costs = {}
    left = None if targets is None else set(targets)
    best = {}
    heap = []
    tie = count()
    for state, form in starts:
        best[state] = cost_of(form)
        heap.append((best[state], next(tie), state))
    heapq.heapify(heap)
    pruned = False
    while heap and (left is None or left):
        cost, _, state = heapq.heappop(heap)
        if cost > best[state]:
            continue
        form = form_of(state)
        if form is not None and form not in costs and (left is None or form in left):
            costs[form] = cost
            if left is not None:
                left.remove(form)
                if not left:
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
    and gives the same costs and pruned flag, with and without targets.
    Both run on the space's encoded forms and its cost function."""
    code, space, _ = _compile(grammar, mode)
    starts, successors, form_of, _ = space(BOUNDS.max_form_len)
    language = enumerate_grammar(grammar, BOUNDS, mode=mode).language
    word_sets = [language.words, ALL_WORDS[::-1], ALL_WORDS[:1], ()]
    for targets in [None] + [[code.encode(map(terminal, w)) for w in ws] for ws in word_sets]:
        got_log, ref_log = [], []
        got = _minimax(starts, logged(successors, got_log), form_of, code.cost, targets)
        ref = heap_minimax(starts, logged(successors, ref_log), form_of, code.cost, targets)
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
                    out.append((y, yform, (label, *_labels_to(rows, j))))
        return out, pruned

    return turns


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
    language = make_language(word_rows, bounds, pruned and not g.lambda_free)
    decode = code.decoder()
    traces = {}
    for word in language.words:
        segments = tuple(
            # the component index, the inner forms and the closing None
            TraceSegment(labels[0], tuple(map(decode, labels[1:-1])))
            for labels in _labels_to(rows, word_rows[word])
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


hybrid = st.tuples(st.integers(min_value=1, max_value=2), st.sampled_from((C.VARIANT_EXACTLY, C.VARIANT_ATMOST)))


def hybrid_mode(k, variant):
    return t_and(exactly(k) if variant == C.VARIANT_EXACTLY else at_most(k))


@settings(max_examples=100, deadline=None)
@given(cd_systems(), hybrid, st.integers(min_value=2, max_value=3))
def test_criterion_6_prolongation_on_random_systems(g, k_variant, ell):
    k, variant = k_variant
    base = enumerate_grammar(g, BOUNDS, mode=hybrid_mode(k, variant)).language
    slow = enumerate_grammar(C.prolong(g, ell), BOUNDS, mode=hybrid_mode(ell * k, variant))
    assert slow.language.words == base.words


# S -> a b makes one step, so under (t & =2) it generates nothing
ONE_STEP = CdSystem(
    nonterminals=frozenset({S}),
    terminals=frozenset({a, terminal("b")}),
    axiom=S,
    components=((Rule(S, (a, terminal("b"))),),),
)


@pytest.mark.xfail(
    strict=True,
    reason="cd_to_programmed can stop on a terminal form with a turn half "
    "done: S -> a b under (t & =2) generates nothing, but its programmed "
    "grammar derives a b by the single step 1_1_1",
)
@settings(max_examples=100, deadline=None)
@example(ONE_STEP, (2, C.VARIANT_EXACTLY))
@given(cd_systems(), hybrid)
def test_criterion_2_cd_to_programmed_on_random_systems(g, k_variant):
    k, variant = k_variant
    base = enumerate_grammar(g, BOUNDS, mode=hybrid_mode(k, variant)).language
    pg = C.cd_to_programmed(g, k, variant)
    assert enumerate_grammar(pg, BOUNDS).language.words == base.words


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
    # bounded languages are λ-normalized, so the empty word is never listed
    with pytest.raises(ValueError, match="empty word"):
        word_indices(pg_abc, [tuple("abc"), ()], bounds)


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
