"""Derivation engine: single steps, mode predicate, bounded searches.

Two searches run over a successor function per grammar, and a plain CD
system is searched as the hybrid system with its mode on every component.
A breadth-first search with parent pointers gives mode steps, enumeration
and traces; a minimax search gives the index of any number of words at
once.  Forms are capped by ``max_form_len`` and inner step counts by their
mode, so every search is finite and exact within the form cap.  For
λ-free systems the enumerated language is then exactly the generated
language intersected with the words of bounded length, because rule
application never shortens a form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
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
    mode_step_cap,
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
    def for_words(cls, max_word_len: int, slack: int = 0) -> "Bounds":
        return cls(max_word_len, max_word_len + slack)


@dataclass(frozen=True)
class BoundedLanguage:
    """A finite, λ-normalized, length-lexicographically ordered word set."""

    words: Tuple[Word, ...]
    bounds: Bounds
    lambda_normalized: bool = True
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
    return BoundedLanguage(length_lex(kept), bounds, True, truncated)


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


def _accepts(f: Mode, m: int, table, y: Form) -> bool:
    """`mode_predicate` on a compiled table."""
    kind = f.kind
    if kind == "eq":
        return m == f.k
    if kind == "le":
        return m <= f.k
    if kind == "ge":
        return m >= f.k
    if kind == "*":
        return m >= 0
    if kind == "t":
        return table.keys().isdisjoint(y)
    if kind == "and":
        # a step-count test is cheaper than t's scan of the form: run it first
        first, second = (f.right, f.left) if f.left.kind == "t" else (f.left, f.right)
        return _accepts(first, m, table, y) and _accepts(second, m, table, y)
    raise ValueError("unknown mode kind %r" % kind)


def one_step(form: Form, ruleset: Sequence[Rule]):
    """All forms reachable by one rule application at any occurrence."""
    return _rewrites(form, _rhs_table(ruleset))


def applicable(ruleset: Sequence[Rule], form: Form) -> bool:
    """True iff some rule's lhs occurs in `form`."""
    return not _rhs_table(ruleset).keys().isdisjoint(form)


def mode_predicate(f: Mode, m: int, ruleset: Sequence[Rule], y: Form) -> bool:
    """The predicate licensing a component to hand back `y` after m steps."""
    return _accepts(f, m, _rhs_table(ruleset), y)


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


def _minimax(starts, successors, form_of, targets):
    """Least cost of each reachable target form, and whether a branch was pruned.

    The cost of a path is the largest nonterminal count of a form on it; the
    search is a Dijkstra search, sound because extending a path never lowers
    its cost.  ``form_of`` maps a state to its form, or to ``None`` where the
    state is not a place to stop (inside a CD turn).  A target's cost is
    recorded when a state with its form is popped, and the search returns as
    soon as every target has one; unreached targets have no entry.
    """
    costs = {}
    left = set(targets)
    best = {}
    heap = []
    tie = count()  # FIFO among equal costs; states are never compared
    for state, form in starts:
        best[state] = nonterminal_count(form)
        heap.append((best[state], next(tie), state))
    heapq.heapify(heap)
    pruned = False
    while heap and left:
        cost, _, state = heapq.heappop(heap)
        if cost > best[state]:
            continue
        form = form_of(state)
        if form in left:
            left.remove(form)
            costs[form] = cost
            if not left:
                break
        edges, cut = successors(state)
        pruned = pruned or cut
        for nxt, form, _ in edges:
            ncost = max(cost, nonterminal_count(form))
            if ncost < best.get(nxt, ncost + 1):
                best[nxt] = ncost
                heapq.heappush(heap, (ncost, next(tie), nxt))
    return costs, pruned


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


def _largest_at_least(f: Mode) -> int:
    if f.kind == "ge":
        return f.k
    if f.kind == "and":
        return max(_largest_at_least(f.left), _largest_at_least(f.right))
    return 0


def _count_limit(f: Mode) -> Tuple[int, bool]:
    """How far inner step counts are tracked in mode `f`: ``(limit, bounded)``.

    A bounded mode keeps the exact count and takes no step past its largest
    admissible count.  An unbounded mode only compares the count with its
    ``>=k`` constants, so the count saturates at the largest of them and the
    predicate gives the same verdict on it as on the true count.
    """
    cap = mode_step_cap(f)
    if cap is not None:
        return cap, True
    return _largest_at_least(f), False


def _next_count(m: int, limit: int, bounded: bool) -> Optional[int]:
    """The tracked count after one more inner step; None if none is allowed."""
    if m < limit:
        return m + 1
    return None if bounded else m


def mode_step(form: Form, ruleset: Sequence[Rule], f: Mode, bounds: Bounds) -> ModeStepResult:
    """All y with form =>^m y via `ruleset` and P(f, m, ruleset, y) true.

    Plain breadth-first reachability over (form, tracked step count)
    states: the search is finite because forms are capped by
    ``max_form_len`` and counts by `_count_limit`, and it is exact within
    that form cap.
    """
    limit, bounded = _count_limit(f)
    max_len = bounds.max_form_len
    table = _rhs_table(ruleset)

    def successors(state):
        y, m = state
        n = _next_count(m, limit, bounded)
        if n is None:
            return (), False
        edges, pruned = [], False
        for z in _rewrites(y, table):
            if len(z) > max_len:
                pruned = True
            else:
                edges.append(((z, n), z, z))
        return edges, pruned

    rows, length_pruned = _bfs([((form, 0), form)], successors)
    results: Dict[Form, Tuple[Form, ...]] = {}
    for i, ((y, m), _, _, _) in enumerate(rows):
        if y not in results and _accepts(f, m, table, y):
            results[y] = tuple(_labels_to(rows, i))
    return ModeStepResult(results, length_pruned)


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


def _programmed_steps(pg: ProgrammedGrammar, bounds: Bounds):
    """States are (form, next label); an edge is one derivation step.

    The search starts from (axiom, r) for every label r, per the existential
    over the first label in the language definition.  Edge labels are
    ``(label, forms, appearance checking flag)`` trace segments.
    """

    def successors(state):
        form, label = state
        edges, pruned = [], False
        for y, q, ac in programmed_successors(pg, form, label):
            if len(y) > bounds.max_form_len:
                pruned = True
            else:
                edges.append(((y, q), y, (label, (y,), ac)))
        return edges, pruned

    start: Form = (pg.axiom,)
    return [((start, r), start) for r in pg.labels], successors


def _turns(system: HcdSystem, bounds: Bounds):
    """States are inter-turn forms; an edge is one mode-step of a component.

    Edge labels are ``(component index, inner forms, False)`` trace segments.
    """
    components = list(enumerate(zip(system.components, system.modes), start=1))

    def successors(x):
        edges, pruned = [], False
        for i, (rules, mode) in components:
            step = mode_step(x, rules, mode, bounds)
            pruned = pruned or step.length_pruned
            for y, path in step.results.items():
                edges.append((y, y, (i, path, False)))
        return edges, pruned

    start: Form = (system.axiom,)
    return [(start, start)], successors


def _inner_steps(system: HcdSystem, bounds: Bounds):
    """States are (form, active component or 0, tracked inner step count).

    An edge applies one rule of the active component, or opens a turn of
    any component between turns, or closes the active turn when its mode
    predicate holds.
    """
    components = [
        (_rhs_table(rules), mode) + _count_limit(mode)
        for rules, mode in zip(system.components, system.modes)
    ]

    def successors(state):
        form, i, m = state
        if i == 0:
            return [((form, j, 0), form, None) for j in range(1, len(components) + 1)], False
        table, mode, limit, bounded = components[i - 1]
        edges, pruned = [], False
        if _accepts(mode, m, table, form):
            edges.append(((form, 0, 0), form, None))
        n = _next_count(m, limit, bounded)
        if n is not None:
            for y in _rewrites(form, table):
                if len(y) > bounds.max_form_len:
                    pruned = True
                else:
                    edges.append(((y, i, n), y, None))
        return edges, pruned

    start: Form = (system.axiom,)
    return [((start, 0, 0), start)], successors


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
    if isinstance(g, ProgrammedGrammar):
        starts, successors = _programmed_steps(g, bounds)
    else:
        starts, successors = _turns(g, bounds)
    rows, pruned = _bfs(starts, successors)
    word_rows = {}
    for i, (_, form, _, _) in enumerate(rows):
        if is_terminal_form(form) and 0 < len(form) <= bounds.max_word_len:
            word_rows.setdefault(tuple(s.name for s in form), i)
    language = make_language(word_rows, bounds, pruned and not g.lambda_free)
    result = EnumerationResult(language)
    if with_traces:
        start: Form = (g.axiom,)
        for word in language.words:
            segments = tuple(
                TraceSegment(actor, tuple(forms), ac)
                for actor, forms, ac in _labels_to(rows, word_rows[word])
            )
            result.traces[word] = DerivationTrace(start, segments)
    return result


def enumerate_cd(system: CdSystem, f: Mode, bounds: Bounds, with_traces: bool = False) -> EnumerationResult:
    """Bounded language of a CD system with every component in mode `f`."""
    return enumerate_grammar(system, bounds, f, with_traces)


def enumerate_hcd(system: HcdSystem, bounds: Bounds, with_traces: bool = False) -> EnumerationResult:
    """Bounded language of a hybrid CD system (per-component modes)."""
    return enumerate_grammar(system, bounds, with_traces=with_traces)


def enumerate_programmed(pg: ProgrammedGrammar, bounds: Bounds, with_traces: bool = False) -> EnumerationResult:
    """Bounded language of a programmed grammar, deduplicated on (form, label)."""
    return enumerate_grammar(pg, bounds, with_traces=with_traces)


# ---------------------------------------------------------------------------
# Trace validation
# ---------------------------------------------------------------------------


def _is_one_step(x: Form, y: Form, ruleset) -> bool:
    return any(y == z for z in one_step(x, ruleset))


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
    problems = []
    current = trace.start
    for n, seg in enumerate(trace.segments):
        if not isinstance(seg.actor, int) or not (1 <= seg.actor <= system.degree):
            problems.append("segment %d: bad component index %r" % (n, seg.actor))
            continue
        rules = system.components[seg.actor - 1]
        prev = current
        ok = True
        for f in seg.forms:
            if not _is_one_step(prev, f, rules):
                problems.append(
                    "segment %d: form not reachable in one step of component %d"
                    % (n, seg.actor)
                )
                ok = False
                break
            prev = f
        if ok:
            final = seg.forms[-1] if seg.forms else current
            if not mode_predicate(
                system.modes[seg.actor - 1], len(seg.forms), rules, final
            ):
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
    search stops as soon as every word has been reached.
    """
    if any(len(word) > bounds.max_word_len for word in words):
        raise ValueError("word longer than max_word_len")
    g = _search_view(grammar, mode)
    name_to_sym = {s.name: s for s in g.terminals}
    try:
        targets = [tuple(name_to_sym[n] for n in word) for word in words]
    except KeyError as e:
        raise ValueError("unknown terminal %s" % e)
    if isinstance(g, ProgrammedGrammar):
        starts, successors = _programmed_steps(g, bounds)
        form_of = itemgetter(0)
    else:
        starts, successors = _inner_steps(g, bounds)
        form_of = lambda state: None if state[1] else state[0]  # between turns
    costs, pruned = _minimax(starts, successors, form_of, targets)
    return [costs.get(t) for t in targets], pruned and not g.lambda_free


def word_index(grammar, word: Word, bounds: Bounds, mode: Optional[Mode] = None) -> WordIndexResult:
    """Minimum trace index over all bounded derivations of `word`.

    A ``None`` index means no derivation was found within the bounds; it
    does not prove the word lies outside the language.  The result is
    flagged as truncated when the grammar can erase and a branch was pruned
    by form length, since that branch might have derived the word.
    """
    (index,), truncated = word_indices(grammar, (word,), bounds, mode)
    return WordIndexResult(index, truncated)
