"""Derivation engine: single steps, mode predicate, bounded searches.

Each grammar kind has one search space, and a plain CD system is searched
as the hybrid system with its mode on every component.  A breadth-first
search with parent pointers walks the space turn by turn for mode steps,
enumeration and traces; a breadth-first search over one bucket per cost
walks it state by state for the index of any number of words at once, or,
run to exhaustion, for the bounded language with every word's index.
Forms are capped by ``max_form_len`` and inner step counts by their mode's
step window, so every search is finite and exact within the form cap.  For
λ-free systems the enumerated language is then exactly the generated
language intersected with the words of bounded length, because rule
application never shortens a form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (
    CdSystem,
    Form,
    HcdSystem,
    Mode,
    ProgrammedGrammar,
    Rule,
    Symbol,
    form_text,
    is_terminal_form,
    mode_window,
    nonterminal_count,
)

Word = Tuple[str, ...]


@dataclass(frozen=True)
class Bounds:
    """Desk-scale caps for enumeration.

    ``max_word_len`` caps emitted terminal words and ``max_form_len`` caps
    the sentential forms explored.
    """

    max_word_len: int
    max_form_len: int

    def __post_init__(self):
        if self.max_word_len < 1 or self.max_form_len < 1:
            raise ValueError("bounds must be positive")
        if self.max_form_len < self.max_word_len:
            raise ValueError("max_form_len must be >= max_word_len")

    @classmethod
    def for_words(cls, max_word_len: int) -> "Bounds":
        return cls(max_word_len, max_word_len)


@dataclass(frozen=True)
class BoundedLanguage:
    """A finite, λ-normalized, length-lexicographically ordered word set."""

    words: Tuple[Word, ...]
    bounds: Bounds
    truncated: bool = False

    def word_set(self) -> frozenset:
        return frozenset(self.words)

    def __contains__(self, word: Word) -> bool:
        return tuple(word) in self.word_set()

    def __len__(self):
        return len(self.words)


def length_lex(words) -> Tuple[Word, ...]:
    return tuple(sorted(set(words), key=lambda w: (len(w), w)))


def make_language(words, bounds: Bounds, truncated: bool = False) -> BoundedLanguage:
    """λ-normalize, order and package a raw word collection."""
    kept = [tuple(w) for w in words if len(w) > 0 and len(w) <= bounds.max_word_len]
    return BoundedLanguage(length_lex(kept), bounds, truncated)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceSegment:
    """One mode-step of a component (CD/HCD) or one programmed step.

    ``forms`` holds the form after each inner rule application.  For
    programmed grammars a segment is a single step; ``appearance_checking``
    marks failure-field steps, whose single form equals the previous one.
    """

    actor: object  # component index (int, 1-based) or label (str)
    forms: Tuple[Form, ...]
    appearance_checking: bool = False


@dataclass(frozen=True)
class DerivationTrace:
    start: Form
    segments: Tuple[TraceSegment, ...]

    def all_forms(self):
        yield self.start
        for seg in self.segments:
            for f in seg.forms:
                yield f

    def final_form(self) -> Form:
        *_, last = self.all_forms()
        return last


def trace_index(trace: DerivationTrace) -> int:
    """Maximum number of nonterminal occurrences in any form of the trace."""
    return max(nonterminal_count(f) for f in trace.all_forms())


# ---------------------------------------------------------------------------
# Single steps and the mode predicate
# ---------------------------------------------------------------------------


def apply_at(form: Form, rule: Rule, position: int) -> Form:
    """Replace the `position`-th occurrence (1-based) of rule.lhs in `form`."""
    if position < 1:
        raise ValueError("occurrence index is 1-based")
    seen = 0
    for i, s in enumerate(form):
        if s == rule.lhs:
            seen += 1
            if seen == position:
                return form[:i] + rule.rhs + form[i + 1 :]
    raise ValueError(
        "occurrence %d of %s not present in form" % (position, rule.lhs.name)
    )


def _rhs_table(ruleset: Sequence[Rule]) -> Dict[Symbol, List[Form]]:
    """Each nonterminal lhs of `ruleset` mapped to its rhs in rule order.

    A component is compiled to this table once per search: a rewrite then
    costs one dict lookup per position, and ``t`` one set test per form.
    Terminals are never rewritten, so a rule with a terminal lhs (which
    `validate` rejects) is left out.
    """
    table: Dict[Symbol, List[Form]] = {}
    for rule in ruleset:
        if not rule.lhs.is_terminal():
            table.setdefault(rule.lhs, []).append(rule.rhs)
    return table


def _rewrites(form: Form, table) -> List[Form]:
    """`one_step` on a compiled table: positions left to right, rules in order."""
    out = []
    for i, s in enumerate(form):
        rhss = table.get(s)
        if rhss:
            head, tail = form[:i], form[i + 1 :]
            for rhs in rhss:
                out.append(head + rhs + tail)
    return out


def _accepts(window, m: int, table, y: Form) -> bool:
    """`mode_predicate` on a compiled mode window and rule table."""
    lo, hi, t = window
    return lo <= m <= hi and (not t or table.keys().isdisjoint(y))


def one_step(form: Form, ruleset: Sequence[Rule]):
    """All forms reachable by one rule application at any occurrence."""
    return _rewrites(form, _rhs_table(ruleset))


def applicable(ruleset: Sequence[Rule], form: Form) -> bool:
    """True iff some rule's lhs occurs in `form`."""
    return not _rhs_table(ruleset).keys().isdisjoint(form)


def mode_predicate(f: Mode, m: int, ruleset: Sequence[Rule], y: Form) -> bool:
    """The predicate licensing a component to hand back `y` after m steps."""
    return _accepts(mode_window(f), m, _rhs_table(ruleset), y)


# ---------------------------------------------------------------------------
# The search core
# ---------------------------------------------------------------------------
#
# A successor function maps a state to ``(edges, pruned)``: the
# ``(next state, its form, edge label)`` triples, and whether a branch was
# dropped because its form exceeded ``max_form_len``.


def _bfs(starts, successors):
    """Breadth-first search with parent pointers.

    ``starts`` holds ``(state, form)`` pairs.  Returns the reached states in
    visiting order as ``(state, form, parent position, edge label)`` rows,
    where a start has parent position -1 and no label, and whether any
    branch was pruned.
    """
    rows = [(state, form, -1, None) for state, form in starts]
    seen = {row[0] for row in rows}
    pruned = False
    for i, row in enumerate(rows):  # the loop visits the rows it appends
        edges, cut = successors(row[0])
        pruned = pruned or cut
        for y, form, label in edges:
            if y not in seen:
                seen.add(y)
                rows.append((y, form, i, label))
    return rows, pruned


def _labels_to(rows, i: int) -> list:
    """Edge labels on the parent-pointer path from a start to rows[i]."""
    labels = []
    while rows[i][2] >= 0:
        labels.append(rows[i][3])
        i = rows[i][2]
    labels.reverse()
    return labels


def _minimax(starts, successors, form_of, targets=None):
    """Least cost of each reachable target form, and whether a branch was pruned.

    The cost of a path is the largest nonterminal count of a form on it.
    Costs are small integers that never drop along an edge, so the search
    is a breadth-first search over one FIFO bucket per cost, walked in
    increasing order: a state's first push already carries its least cost.
    ``form_of`` maps a state to its form, or to ``None`` where the state is
    not a place to stop (inside a CD turn).  A form's cost is recorded when
    the first state with that form is popped.  With ``targets`` the search
    returns as soon as every target has a cost, and unreached targets have
    no entry; without, it runs to exhaustion and prices every form between
    turns.
    """
    costs = {}
    left = None if targets is None else set(targets)
    if left is not None and not left:
        return costs, False
    buckets = []  # buckets[c]: the states first reached at cost c, in push order
    seen = set()
    for state, form in starts:
        seen.add(state)
        _push(buckets, nonterminal_count(form), state)
    pruned = False
    for cost, bucket in enumerate(buckets):  # the walk sees buckets appended later
        for state in bucket:  # and states appended to the bucket it walks
            form = form_of(state)
            if form is not None and form not in costs and (left is None or form in left):
                costs[form] = cost
                if left is not None:
                    left.remove(form)
                    if not left:
                        return costs, pruned
            edges, cut = successors(state)
            pruned = pruned or cut
            for nxt, form, _ in edges:
                if nxt not in seen:
                    seen.add(nxt)
                    ncost = nonterminal_count(form)
                    if ncost <= cost:
                        bucket.append(nxt)
                    else:
                        _push(buckets, ncost, nxt)
    return costs, pruned


def _push(buckets, cost: int, state) -> None:
    while len(buckets) <= cost:
        buckets.append([])
    buckets[cost].append(state)


def _turns(successors, form_of):
    """Successors of the states between turns, by whole turns.

    An edge from a state between turns to another is a one-edge turn (every
    programmed step).  An edge into a turn starts a breadth-first search
    that stops at the states between turns, each reached by its shortest
    path.  A turn's edge label is the tuple of the labels on its path.
    """

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


# ---------------------------------------------------------------------------
# Mode steps
# ---------------------------------------------------------------------------


@dataclass
class ModeStepResult:
    """Outcome of one component turn: target forms with witness inner paths.

    ``results[y]`` is the tuple of forms after each inner step of one
    shortest witness derivation x => ... => y (empty tuple when y was
    accepted with zero steps).
    """

    results: Dict[Form, Tuple[Form, ...]]
    # a live branch exceeded max_form_len; harmless for λ-free grammars
    # (forms never shrink) but a completeness loss otherwise
    length_pruned: bool = False


def mode_step(form: Form, ruleset: Sequence[Rule], f: Mode, bounds: Bounds) -> ModeStepResult:
    """All y with form =>^m y via `ruleset` and P(f, m, ruleset, y) true.

    The turns of a one-component system from `form`: breadth-first
    reachability over (form, tracked step count) states, finite because
    forms are capped by ``max_form_len`` and counts by the mode's step
    window, and exact within that form cap.
    """
    turns = _turns(_inner_steps([(ruleset, f)], bounds), _between_turns)
    edges, pruned = turns((form, 0, 0))
    return ModeStepResult({y: _turn_segment(labels).forms for _, y, labels in edges}, pruned)


# ---------------------------------------------------------------------------
# Search spaces
# ---------------------------------------------------------------------------


def _search_view(grammar, mode: Optional[Mode]):
    """The grammar as the searches see it: hybrid CD or programmed.

    A plain CD system becomes the hybrid system with `mode` on every
    component; the other kinds ignore `mode`.
    """
    if isinstance(grammar, CdSystem):
        if mode is None:
            raise ValueError("a CD system needs a derivation mode")
        return HcdSystem(
            nonterminals=grammar.nonterminals,
            terminals=grammar.terminals,
            axiom=grammar.axiom,
            components=grammar.components,
            modes=(mode,) * grammar.degree,
            lambda_free=grammar.lambda_free,
            name=grammar.name,
        )
    if isinstance(grammar, (HcdSystem, ProgrammedGrammar)):
        return grammar
    raise TypeError("not a grammar: %r" % (grammar,))


def programmed_successors(pg: ProgrammedGrammar, form: Form, label: str):
    """Yield (next form, next label, appearance checking flag)."""
    rule = pg.rule_of[label]
    if rule.lhs in form:
        seen = set()
        for i, s in enumerate(form):
            if s == rule.lhs:
                y = form[:i] + rule.rhs + form[i + 1 :]
                if y in seen:
                    continue
                seen.add(y)
                for q in sorted(pg.success[label]):
                    yield y, q, False
    else:
        for q in sorted(pg.failure[label]):
            yield form, q, True


def _space(g, bounds: Bounds):
    """The search space of a grammar from `_search_view`.

    Returns ``(starts, successors, form_of, segment)``: the start states
    with their forms, the successor function, the form of a state between
    turns (``None`` inside a CD turn), and the map from a turn's edge
    labels to its trace segment.

    A programmed grammar's states are (form, next label), and an edge is
    one derivation step.  The search starts from (axiom, r) for every label
    r, per the existential over the first label in the language definition.
    A hybrid CD system's states are those of `_inner_steps`.
    """
    start: Form = (g.axiom,)
    if isinstance(g, ProgrammedGrammar):

        def successors(state):
            form, label = state
            edges, pruned = [], False
            for y, q, ac in programmed_successors(g, form, label):
                if len(y) > bounds.max_form_len:
                    pruned = True
                else:
                    edges.append(((y, q), y, (label, y, ac)))
            return edges, pruned

        starts = [((start, r), start) for r in g.labels]
        return starts, successors, itemgetter(0), _programmed_segment
    steps = _inner_steps(zip(g.components, g.modes), bounds)
    return [((start, 0, 0), start)], steps, _between_turns, _turn_segment


def _programmed_segment(labels) -> TraceSegment:
    ((label, y, ac),) = labels
    return TraceSegment(label, (y,), ac)


def _turn_segment(labels) -> TraceSegment:
    # the component index, the inner forms and the closing None
    return TraceSegment(labels[0], labels[1:-1])


def _between_turns(state) -> Optional[Form]:
    form, i, _ = state
    return None if i else form


def _inner_steps(components, bounds: Bounds):
    """Successors of (form, active component or 0, tracked inner step count).

    `components` holds ``(rules, mode)`` pairs, each compiled once here to
    a rule table and a step window.  An edge opens a turn of any component
    between turns (labelled with its index), applies one rule of the active
    component (labelled with the new form), or closes the active turn when
    its mode predicate holds (labelled None).  A count below the window's
    top may take another step; it saturates at the top, or at the bottom
    when the window is unbounded, where the predicate gives the same
    verdict as on the true count.
    """
    compiled = []
    for rules, mode in components:
        lo, hi, _ = window = mode_window(mode)
        compiled.append((_rhs_table(rules), window, hi, hi if hi < math.inf else lo))
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
                if len(y) > bounds.max_form_len:
                    pruned = True
                else:
                    edges.append(((y, i, n), y, y))
        return edges, pruned

    return successors


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


@dataclass
class EnumerationResult:
    language: BoundedLanguage
    traces: Dict[Word, DerivationTrace] = field(default_factory=dict)


def enumerate_grammar(grammar, bounds: Bounds, mode: Optional[Mode] = None, with_traces: bool = False) -> EnumerationResult:
    """Bounded language of any grammar kind (mode required for CdSystem).

    Form-length pruning flags the language as truncated only when the
    grammar can erase; otherwise a pruned form can never shrink back to a
    word within the bound.
    """
    g = _search_view(grammar, mode)
    starts, successors, form_of, segment = _space(g, bounds)
    rows, pruned = _bfs(starts, _turns(successors, form_of))
    word_rows = {}
    for i, (_, form, _, _) in enumerate(rows):
        if is_terminal_form(form):
            word_rows.setdefault(tuple(s.name for s in form), i)
    language = make_language(word_rows, bounds, pruned and not g.lambda_free)
    result = EnumerationResult(language)
    if with_traces:
        start: Form = (g.axiom,)
        for word in language.words:
            segments = tuple(map(segment, _labels_to(rows, word_rows[word])))
            result.traces[word] = DerivationTrace(start, segments)
    return result


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------


def validate_trace(grammar, trace: DerivationTrace, mode: Optional[Mode] = None) -> list:
    """Re-check a derivation trace against the grammar's step semantics.

    Returns a list of violation strings (empty iff the trace is valid).  A
    valid trace starts at the axiom and ends on a terminal form.  For CD/HCD
    grammars every segment must be a legal mode-step of its component; for
    programmed grammars the label chaining through success and failure
    fields is verified.
    """
    g = _search_view(grammar, mode)
    problems = []
    if trace.start != (g.axiom,):
        problems.append("start: trace starts at %s, not at the axiom" % form_text(trace.start))
    if isinstance(g, ProgrammedGrammar):
        problems += _programmed_violations(g, trace)
    else:
        problems += _turn_violations(g, trace)
    if not is_terminal_form(trace.final_form()):
        problems.append("end: final form %s is not terminal" % form_text(trace.final_form()))
    return problems


def _turn_violations(system: HcdSystem, trace: DerivationTrace) -> list:
    # each component compiled once, as `_inner_steps` does
    compiled = [
        (_rhs_table(rules), mode_window(mode))
        for rules, mode in zip(system.components, system.modes)
    ]
    problems = []
    current = trace.start
    for n, seg in enumerate(trace.segments):
        if not isinstance(seg.actor, int) or not (1 <= seg.actor <= system.degree):
            problems.append("segment %d: bad component index %r" % (n, seg.actor))
            continue
        table, window = compiled[seg.actor - 1]
        prev = current
        ok = True
        for f in seg.forms:
            if f not in _rewrites(prev, table):
                problems.append(
                    "segment %d: form not reachable in one step of component %d"
                    % (n, seg.actor)
                )
                ok = False
                break
            prev = f
        if ok:
            final = seg.forms[-1] if seg.forms else current
            if not _accepts(window, len(seg.forms), table, final):
                problems.append(
                    "segment %d: mode predicate fails for component %d after %d steps"
                    % (n, seg.actor, len(seg.forms))
                )
            current = final
    return problems


def _programmed_violations(pg: ProgrammedGrammar, trace: DerivationTrace) -> list:
    # each segment must be a step that programmed_successors offers at its
    # label, leading to the next segment's label
    problems = []
    current = trace.start
    labels = [seg.actor for seg in trace.segments]
    for n, seg in enumerate(trace.segments):
        if seg.actor not in pg.rule_of:
            problems.append("segment %d: unknown label %r" % (n, seg.actor))
            continue
        if len(seg.forms) != 1:
            problems.append("segment %d: programmed steps are single steps" % n)
            continue
        nxt = labels[n + 1 : n + 2]  # the next label, if any
        steps = {
            (y, ac)
            for y, q, ac in programmed_successors(pg, current, seg.actor)
            if not nxt or q == nxt[0]
        }
        if (seg.forms[0], seg.appearance_checking) not in steps:
            problems.append(
                "segment %d: not a %s step at label %r%s"
                % (
                    n,
                    "appearance-checking" if seg.appearance_checking else "rewriting",
                    seg.actor,
                    " on to label %r" % nxt[0] if nxt else "",
                )
            )
        current = seg.forms[0]
    return problems


# ---------------------------------------------------------------------------
# Index metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WordIndexResult:
    index: Optional[int]  # None when no derivation was found within bounds
    truncated: bool = False


def word_indices(
    grammar, words: Sequence[Word], bounds: Bounds, mode: Optional[Mode] = None
) -> Tuple[List[Optional[int]], bool]:
    """`word_index` of every word in `words`, by one search.

    Returns the indices in the order of `words` (``None`` where no
    derivation was found within the bounds) and one truncation flag, set
    when the grammar can erase and a branch was pruned by form length.  The
    search stops as soon as every word has been reached.  An empty word, a
    word longer than ``max_word_len`` or an unknown terminal raises
    ValueError.
    """
    if any(len(word) > bounds.max_word_len for word in words):
        raise ValueError("word longer than max_word_len")
    if not all(words):
        raise ValueError("empty word: bounded languages never hold it")
    g = _search_view(grammar, mode)
    name_to_sym = {s.name: s for s in g.terminals}
    try:
        targets = [tuple(name_to_sym[n] for n in word) for word in words]
    except KeyError as e:
        raise ValueError("unknown terminal %s" % e)
    starts, successors, form_of, _ = _space(g, bounds)
    costs, pruned = _minimax(starts, successors, form_of, targets)
    return [costs.get(t) for t in targets], pruned and not g.lambda_free


def indexed_language(
    grammar, bounds: Bounds, mode: Optional[Mode] = None
) -> Tuple[BoundedLanguage, Dict[Word, int]]:
    """The bounded language of `grammar` and the `word_index` of each word.

    One exhaustive index search finds the words and prices them: it expands
    every state that `enumerate_grammar` expands, so the language and its
    truncation flag are the ones enumeration gives, and the pop order does
    not depend on targets, so each index is the one `word_indices` gives.
    """
    g = _search_view(grammar, mode)
    starts, successors, form_of, _ = _space(g, bounds)
    costs, pruned = _minimax(starts, successors, form_of)
    indices = {
        tuple(s.name for s in form): cost
        for form, cost in costs.items()
        if is_terminal_form(form)
    }
    language = make_language(indices, bounds, pruned and not g.lambda_free)
    return language, {word: indices[word] for word in language.words}


def word_index(grammar, word: Word, bounds: Bounds, mode: Optional[Mode] = None) -> WordIndexResult:
    """Minimum trace index over all bounded derivations of `word`.

    A ``None`` index means no derivation was found within the bounds; it
    does not prove the word lies outside the language.  The result is
    flagged as truncated when the grammar can erase and a branch was pruned
    by form length, since that branch might have derived the word.
    """
    (index,), truncated = word_indices(grammar, (word,), bounds, mode)
    return WordIndexResult(index, truncated)
