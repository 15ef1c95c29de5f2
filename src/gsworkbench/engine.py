"""Derivation engine: single steps, mode predicate, bounded searches.

Each grammar kind has one search space, and a plain CD system is searched
as the hybrid system with its mode on every component.  There are three
search loops.  `_turn` is one CD turn: a breadth-first search over the
(form, step count) pairs of one component, which gives the forms the
component may hand back with shortest witnesses; `mode_step` is `_turn`,
and a CD system's turn-level successors run it per component.  `_bfs`, a
breadth-first search with parent pointers, walks a space turn by turn for
enumeration and traces (a programmed step is a one-edge turn).  `_minimax`,
a breadth-first search over one bucket per cost, walks it state by state
for the index of any number of words at once, or, run to exhaustion, for
the bounded language with every word's index.

Forms are capped by ``max_form_len`` and inner step counts by their mode's
step window, so every search is finite and exact within the form cap.  For
λ-free systems the enumerated language is then exactly the generated
language intersected with the words of bounded length, because rule
application never shortens a form.

A search runs on forms encoded as strings: each symbol of the grammar is
one character, the nonterminals first.  Strings cache their hash, and
slicing, concatenation and scanning run in C.  Rule tables and the
nonterminal count are regex character classes over those characters.
Words, traces, mode-step results and index targets are encoded or decoded
at the boundary, each distinct form decoded once per search, and the
helpers on symbol tuples (`one_step`, `mode_predicate`, `mode_step`, ...)
encode on entry and decode on return.  `verifier.nsf_check` walks a
`_programmed_space` and decodes only the forms it reports.

Each piece of work is done once where it repeats.  `_compile` is the one
place that tells the grammar kinds apart: it compiles a grammar to its
encoding, its search space and its trace check.  Every search and
`validate_trace` read one cache of the compiles of the last few grammar
objects and modes, so an enumeration and the traces it gives compile their
grammar once.  A turn builds the rewrites of a form once, however many
step counts it meets the form at, and drops them when the turn ends.
`validate_trace` tests each step with `_is_rewrite` rather than building
every rewrite of the previous form.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .model import (
    CdSystem,
    Form,
    HcdSystem,
    Mode,
    ProgrammedGrammar,
    Rule,
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
# The encoding, single steps and the mode predicate
# ---------------------------------------------------------------------------


def _char_class(chars):
    """A compiled regex matching any one of `chars`; it never matches when empty."""
    chars = "".join(chars)
    return re.compile("[%s]" % re.escape(chars) if chars else "(?!)")


class _Encoding:
    """One character per symbol: ``chr(i)``, the nonterminals first.

    Searches run on forms encoded as strings, which cache their hash and
    slice, join and scan in C.  One character class of the nonterminals
    gives a form's nonterminal count (``cost``) and the terminal-form test.
    """

    def __init__(self, symbols):
        symbols = set(symbols)
        nonterminals = sorted(s for s in symbols if not s.is_terminal())
        ordered = nonterminals + sorted(symbols.difference(nonterminals))
        self.char = char = {s: chr(i) for i, s in enumerate(ordered)}
        self.symbol = dict(zip(char.values(), ordered))
        self.nonterminal = _char_class(map(char.get, nonterminals))
        # bound once, as the searches call them on every edge
        find_nonterminals = self.nonterminal.findall
        self.cost = lambda code: len(find_nonterminals(code))
        self.encode = lambda form: "".join(map(char.__getitem__, form))

    def decoder(self):
        """A decode function that maps each distinct string to one tuple.

        A search decodes through one decoder, so the forms it hands back
        share tuples as the forms of a search over tuples would.
        """
        symbol, forms = self.symbol.__getitem__, {}

        def decode(code: str) -> Form:
            form = forms.get(code)
            if form is None:
                form = forms[code] = tuple(map(symbol, code))
            return form

        return decode

    def is_word(self, code: str) -> bool:
        return self.nonterminal.search(code) is None

    def word(self, code: str) -> Word:
        return tuple(self.symbol[c].name for c in code)


def _rhs_table(code: _Encoding, ruleset: Sequence[Rule]):
    """Each nonterminal lhs of `ruleset` mapped to its rhs in rule order,
    all encoded, and the character class of those lhs.

    A component is compiled to this table once per search: a rewrite then
    costs one scan of the form and one dict lookup per match, and ``t`` one
    scan.  Terminals are never rewritten, so a rule with a terminal lhs
    (which `validate` rejects) is left out.
    """
    rhss: Dict[str, List[str]] = {}
    for rule in ruleset:
        if not rule.lhs.is_terminal():
            rhss.setdefault(code.char[rule.lhs], []).append(code.encode(rule.rhs))
    return rhss, _char_class(rhss)


def _local_encoding(forms, rules) -> _Encoding:
    """An encoding of the symbols of `forms` and `rules`."""
    return _Encoding(chain.from_iterable(chain(forms, ((r.lhs, *r.rhs) for r in rules))))


def _rewrites(form: str, table) -> List[str]:
    """`one_step` on a rule table: positions left to right, rules in order."""
    rhss, lhs = table
    out = []
    for match in lhs.finditer(form):
        i = match.start()
        head, tail = form[:i], form[i + 1 :]
        for rhs in rhss[form[i]]:
            out.append(head + rhs + tail)
    return out


def _is_rewrite(x: str, y: str, table) -> bool:
    """Whether `y` is in `_rewrites(x, table)`, without building that list.

    A rewrite at position i replaces x[i] by a rhs of d = len(y) - len(x) + 1
    symbols and keeps the prefix and suffix around it.
    """
    rhss, lhs = table
    d = len(y) - len(x) + 1
    if d < 0:
        return False
    for match in lhs.finditer(x):
        i = match.start()
        if y[i : i + d] in rhss[x[i]] and y[:i] == x[:i] and y[i + d :] == x[i + 1 :]:
            return True
    return False


def _accepts(window, m: int, table, y: str) -> bool:
    """`mode_predicate` on a step window and rule table."""
    lo, hi, t = window
    return lo <= m <= hi and (not t or table[1].search(y) is None)


def one_step(form: Form, ruleset: Sequence[Rule]):
    """All forms reachable by one rule application at any occurrence."""
    code = _local_encoding((form,), ruleset)
    return list(map(code.decoder(), _rewrites(code.encode(form), _rhs_table(code, ruleset))))


def applicable(ruleset: Sequence[Rule], form: Form) -> bool:
    """True iff some rule's lhs occurs in `form`."""
    code = _local_encoding((form,), ruleset)
    return _rhs_table(code, ruleset)[1].search(code.encode(form)) is not None


def mode_predicate(f: Mode, m: int, ruleset: Sequence[Rule], y: Form) -> bool:
    """The predicate licensing a component to hand back `y` after m steps."""
    code = _local_encoding((y,), ruleset)
    return _accepts(mode_window(f), m, _rhs_table(code, ruleset), code.encode(y))


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


def _minimax(starts, successors, form_of, cost_of, targets=None):
    """Least cost of each reachable target form, and whether a branch was pruned.

    The cost of a path is the largest `cost_of` (the nonterminal count) of
    a form on it.  Costs are small integers that never drop along an edge,
    so the search is a breadth-first search over one FIFO bucket per cost,
    walked in increasing order: a state's first push already carries its
    least cost.
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
        _push(buckets, cost_of(form), state)
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
                    ncost = cost_of(form)
                    if ncost <= cost:
                        bucket.append(nxt)
                    else:
                        _push(buckets, ncost, nxt)
    return costs, pruned


def _push(buckets, cost: int, state) -> None:
    while len(buckets) <= cost:
        buckets.append([])
    buckets[cost].append(state)


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

    One `_turn` of the component from `form`: breadth-first reachability
    over (form, tracked step count) states, finite because forms are capped
    by ``max_form_len`` and counts by the mode's step window, and exact
    within that form cap.
    """
    code = _local_encoding((form,), ruleset)
    handed, pruned = _turn(_component(code, ruleset, f), code.encode(form), bounds.max_form_len)
    decode = code.decoder()
    return ModeStepResult({decode(y): tuple(map(decode, forms)) for y, forms in handed}, pruned)


# ---------------------------------------------------------------------------
# Compiled grammars and their search spaces
# ---------------------------------------------------------------------------


def _compile(grammar, mode: Optional[Mode], forms=()):
    """`grammar` compiled for the searches: ``(code, space, violations)``.

    ``code`` is the `_Encoding` of the grammar's alphabets and rules and of
    the symbols of `forms`.  ``space(max_form_len)`` is the grammar's search
    space over encoded forms of at most `max_form_len` symbols, from
    `_programmed_space` or `_hybrid_space`.  ``violations(trace)`` lists
    the steps of `trace` that the grammar does not allow.

    This is the one place that tells the grammar kinds apart.  A plain CD
    system is compiled as the hybrid system with `mode` on every component;
    the other kinds ignore `mode`.
    """
    if isinstance(grammar, ProgrammedGrammar):
        modes, rules = None, grammar.rule_of.values()
    else:
        if isinstance(grammar, CdSystem):
            if mode is None:
                raise ValueError("a CD system needs a derivation mode")
            modes = (mode,) * len(grammar.components)
        elif isinstance(grammar, HcdSystem):
            modes = grammar.modes
        else:
            raise TypeError("not a grammar: %r" % (grammar,))
        rules = chain.from_iterable(grammar.components)
    code = _local_encoding((grammar.nonterminals, grammar.terminals, (grammar.axiom,), *forms), rules)
    start = code.encode((grammar.axiom,))
    if modes is None:
        labels = {
            p: (_rhs_table(code, (grammar.rule_of[p],)), sorted(grammar.success[p]), sorted(grammar.failure[p]))
            for p in grammar.labels
        }
        return code, partial(_programmed_space, labels, start), partial(_programmed_violations, code, labels)
    components = [_component(code, ruleset, m) for ruleset, m in zip(grammar.components, modes)]
    return code, partial(_hybrid_space, components, start), partial(_turn_violations, code, components)


# The compiles of the last few grammar objects and modes, so that the
# searches and trace checks on one grammar compile it once.  An entry holds
# its grammar, so that the grammar's id is not reused while the entry is
# cached.  The cache is emptied when full.
_COMPILED: Dict[tuple, tuple] = {}
_COMPILED_SIZE = 16


def _compiled(grammar, mode: Optional[Mode]) -> tuple:
    """`_compile(grammar, mode)`, from the cache."""
    key = id(grammar), mode
    hit = _COMPILED.get(key)
    if hit is None:
        hit = grammar, _compile(grammar, mode)
        if len(_COMPILED) >= _COMPILED_SIZE:
            _COMPILED.clear()
        _COMPILED[key] = hit
    return hit[1]


def _programmed_step(form: str, table, success, failure):
    """A step at one label: the next forms, the next labels, and whether it
    is an appearance-checking step.

    When the rule applies, each distinct rewrite goes on to every success
    label; otherwise the unchanged form goes on to every failure label.
    """
    ys = _rewrites(form, table)
    if ys:
        return list(dict.fromkeys(ys)), success, False
    return [form], failure, True


def _programmed_space(labels, start: str, max_form_len):
    """The search space of a programmed grammar: ``(starts, successors,
    form_of, turns)``.

    `labels` maps each label to its ``(table, success, failure)`` for
    `_programmed_step`.  A state is (form, next label), and an edge is one
    derivation step, which is also a whole turn, labelled with the label,
    the new form and whether the step is appearance checking.  The search
    starts from (axiom, r) for every label r, per the existential over the
    first label in the language definition.
    """

    def successors(state):
        form, label = state
        ys, nexts, ac = _programmed_step(form, *labels[label])
        edges, pruned = [], False
        for y in ys:
            if len(y) <= max_form_len:
                edge = label, (y,), ac
                edges += [((y, q), y, edge) for q in nexts]
            elif nexts:  # an edge is dropped
                pruned = True
        return edges, pruned

    return [((start, r), start) for r in labels], successors, itemgetter(0), successors


def _hybrid_space(components, start: str, max_form_len):
    """The search space of a hybrid CD system: ``(starts, successors,
    form_of, turns)``.

    `components` holds the `_component` of each component.  A state is one
    of `_inner_steps`, and ``successors`` is its successor function;
    ``form_of`` gives the form of a state between turns, ``None`` inside a
    turn.  ``turns`` gives the successors of a state between turns by whole
    turns: it runs `_turn` for each component in order, and labels each
    edge with the component index and the witness forms.
    """

    def turns(state):
        x = state[0]
        edges, pruned = [], False
        for j, component in enumerate(components, 1):
            if component[0][1].search(x) is None:
                continue  # a dead turn could only hand back x itself
            handed, cut = _turn(component, x, max_form_len)
            pruned = pruned or cut
            edges += [((y, 0, 0), y, (j, forms, False)) for y, forms in handed]
        return edges, pruned

    steps = _inner_steps(components, max_form_len)
    return [((start, 0, 0), start)], steps, _between_turns, turns


def _between_turns(state) -> Optional[str]:
    form, i, _ = state
    return None if i else form


def _component(code: _Encoding, rules: Sequence[Rule], mode: Mode):
    """A component compiled for the turn searches: ``(table, window, hi, top)``.

    ``table`` is its `_rhs_table` and ``window`` its mode's step window
    ``(lo, hi, t)``.  A step count below ``hi`` may take another step, and
    it saturates at ``top``: at ``hi``, or at ``lo`` when the window is
    unbounded, where the predicate gives the same verdict as on the true
    count.
    """
    lo, hi, _ = window = mode_window(mode)
    return _rhs_table(code, rules), window, hi, hi if hi < math.inf else lo


def _turn(component, x: str, max_form_len):
    """The turns of a compiled component on form `x`.

    A breadth-first search over (form, step count) pairs from ``(x, 0)``,
    with counts saturated as `_component` says.  Returns the forms the
    component may hand back, in the order their first accepting pair is
    visited, each with the forms of the shortest witness path to that pair
    (the forms after each step), and whether a rewrite was dropped because
    its form exceeded `max_form_len`.

    A form met again at another step count reuses the rewrites built for
    it.  That memo lives only as long as the turn's rows: kept for a whole
    search, it holds every form of every turn at once.
    """
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
    return [(y, _witness(rows, i)) for y, i in accepted.items()], pruned


def _witness(rows, i: int) -> list:
    """The forms on the parent-pointer path from the start row 0 to rows[i]."""
    forms = []
    while i:
        forms.append(rows[i][0])
        i = rows[i][2]
    forms.reverse()
    return forms


def _inner_steps(components, max_form_len):
    """Successors of (form, active component or 0, tracked inner step count).

    `components` holds the `_component` of each component.  An edge opens
    a turn of a component between turns (labelled with its index), applies
    one rule of the active component (labelled with the new form), or
    closes the active turn when its mode predicate holds (labelled None).
    A turn opens only when one of the component's rules applies: otherwise
    it could only close on the unchanged form, whose state is the one being
    expanded.  This is the state-by-state form of `_turn`, for `_minimax`,
    which must price the forms inside a turn.
    """
    opened = [(j, table[1].search) for j, (table, _, _, _) in enumerate(components, 1)]

    def successors(state):
        form, i, m = state
        if i == 0:
            return [((form, j, 0), form, j) for j, applies in opened if applies(form)], False
        table, window, hi, top = components[i - 1]
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
    code, space, _ = _compiled(grammar, mode)
    starts, _, _, turns = space(bounds.max_form_len)
    rows, pruned = _bfs(starts, turns)
    word_rows = {}
    for i, (_, form, _, _) in enumerate(rows):
        if code.is_word(form):
            word_rows.setdefault(code.word(form), i)
    language = make_language(word_rows, bounds, pruned and not grammar.lambda_free)
    result = EnumerationResult(language)
    if with_traces:
        start: Form = (grammar.axiom,)
        decode = code.decoder()  # one per search, so traces share tuples
        for word in language.words:
            segments = tuple(
                TraceSegment(actor, tuple(map(decode, forms)), ac)
                for actor, forms, ac in _labels_to(rows, word_rows[word])
            )
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
    try:
        found = _compiled(grammar, mode)[2](trace)
    except KeyError:  # a form of the trace has a symbol outside the grammar
        found = _compile(grammar, mode, trace.all_forms())[2](trace)
    problems = []
    if trace.start != (grammar.axiom,):
        problems.append("start: trace starts at %s, not at the axiom" % form_text(trace.start))
    problems += found
    if not is_terminal_form(trace.final_form()):
        problems.append("end: final form %s is not terminal" % form_text(trace.final_form()))
    return problems


def _turn_violations(code: _Encoding, components, trace: DerivationTrace) -> list:
    problems = []
    current = code.encode(trace.start)
    for n, seg in enumerate(trace.segments):
        if not isinstance(seg.actor, int) or not (1 <= seg.actor <= len(components)):
            problems.append("segment %d: bad component index %r" % (n, seg.actor))
            continue
        table, window, _, _ = components[seg.actor - 1]
        forms = list(map(code.encode, seg.forms))
        prev = current
        ok = True
        for f in forms:
            if not _is_rewrite(prev, f, table):
                problems.append(
                    "segment %d: form not reachable in one step of component %d"
                    % (n, seg.actor)
                )
                ok = False
                break
            prev = f
        if ok:
            final = forms[-1] if forms else current
            if not _accepts(window, len(forms), table, final):
                problems.append(
                    "segment %d: mode predicate fails for component %d after %d steps"
                    % (n, seg.actor, len(seg.forms))
                )
            current = final
    return problems


def _programmed_violations(code: _Encoding, labels, trace: DerivationTrace) -> list:
    # each segment must be a step that _programmed_step offers at its
    # label, leading to the next segment's label
    problems = []
    current = code.encode(trace.start)
    actors = [seg.actor for seg in trace.segments]
    for n, seg in enumerate(trace.segments):
        if seg.actor not in labels:
            problems.append("segment %d: unknown label %r" % (n, seg.actor))
            continue
        if len(seg.forms) != 1:
            problems.append("segment %d: programmed steps are single steps" % n)
            continue
        nxt = actors[n + 1 : n + 2]  # the next label, if any
        ys, nexts, ac = _programmed_step(current, *labels[seg.actor])
        form = code.encode(seg.forms[0])
        if not (
            (nxt[0] in nexts if nxt else nexts)
            and ac == seg.appearance_checking
            and form in ys
        ):
            problems.append(
                "segment %d: not a %s step at label %r%s"
                % (
                    n,
                    "appearance-checking" if seg.appearance_checking else "rewriting",
                    seg.actor,
                    " on to label %r" % nxt[0] if nxt else "",
                )
            )
        current = form
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
    code, space, _ = _compiled(grammar, mode)
    name_to_sym = {s.name: s for s in grammar.terminals}
    try:
        targets = [tuple(name_to_sym[n] for n in word) for word in words]
    except KeyError as e:
        raise ValueError("unknown terminal %s" % e)
    starts, successors, form_of, _ = space(bounds.max_form_len)
    targets = list(map(code.encode, targets))
    costs, pruned = _minimax(starts, successors, form_of, code.cost, targets)
    return [costs.get(t) for t in targets], pruned and not grammar.lambda_free


def indexed_language(
    grammar, bounds: Bounds, mode: Optional[Mode] = None
) -> Tuple[BoundedLanguage, Dict[Word, int]]:
    """The bounded language of `grammar` and the `word_index` of each word.

    One exhaustive index search finds the words and prices them: it expands
    every state that `enumerate_grammar` expands, so the language and its
    truncation flag are the ones enumeration gives, and the pop order does
    not depend on targets, so each index is the one `word_indices` gives.
    """
    code, space, _ = _compiled(grammar, mode)
    starts, successors, form_of, _ = space(bounds.max_form_len)
    costs, pruned = _minimax(starts, successors, form_of, code.cost)
    indices = {code.word(form): cost for form, cost in costs.items() if code.is_word(form)}
    language = make_language(indices, bounds, pruned and not grammar.lambda_free)
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
