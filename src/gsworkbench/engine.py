"""Derivation engine: single steps, mode predicate, bounded searches.

Each grammar kind has one search space, and a plain CD system is searched
as the hybrid system with its mode on every component.  There are two
search loops over one step relation.  A CD state is (form, active
component, step count), and `_inner_steps` is its successor function.
`_bfs`, a breadth-first search with parent pointers, walks a space turn by
turn for enumeration and traces; a programmed grammar's turn is one
rewrite after the failing steps before it.  One CD turn (`_turn`) is a
`_bfs` over `_inner_steps` from the state that opens it to the states
that close it, which gives the forms the component may hand back with
shortest witnesses.  `mode_step` is `_turn` on one component, and a CD
system's turn-level successors, `_turns`, run it over the live
components.  `_minimax`, a breadth-first search over one bucket per cost,
walks a space state by state for the index of one word.  Run to
exhaustion for the bounded language with every word's index, it walks a
CD system turn by turn (`_turn_walk`), the turns of the live components
priced by one `_minimax` over `_inner_steps` inside them (`_price`).
Enumeration and the exhaustive index search walk a programmed grammar
rewrite by rewrite (`_programmed_walk`, one walk per search): the failing
steps before each rewrite are followed inside the walk and never pushed.

Forms are capped by ``max_form_len`` and inner step counts by their mode's
step window, so every search is finite and exact within the form cap.  For
λ-free systems the enumerated language is then exactly the generated
language intersected with the words of bounded length, because rule
application never shortens a form.

A search runs on forms encoded as strings: each symbol of the grammar is
one character, the nonterminals first.  Strings cache their hash, and
slicing, concatenation and scanning run in C.  A CD component's rule
table and the nonterminal count are regex character classes over those
characters.  A programmed label has one rule, so it is no table: it is
its lhs character and encoded rhs, and a step finds the lhs with
``str.find`` and tests the form cap once, as every rewrite by one rule
has the same length.  Words, traces, mode-step results and index targets
are encoded or decoded at the boundary, each distinct form decoded once
per search, and the helpers on symbol tuples (`one_step`,
`mode_predicate`, `mode_step`, ...) encode on entry and decode on return.
`verifier.nsf_check` walks a `_programmed_space` and decodes only the
forms it reports.

Each piece of work is done once where it repeats.  `_compile` is the one
place that tells the grammar kinds apart: it compiles a grammar to its
encoding, its search space and its trace check.  A grammar object keeps
its compile per mode, read by every search and `validate_trace`, so an
enumeration and the traces it gives compile their grammar once.  Every
search on a CD space, its turns included, rewrites a (component, form)
once, under every cap and at every step count, through one rewrite memo
per component, and reads ``t`` off the rewrites.  Within one search the
turns of the components on a nonterminal skeleton run once: forms that
differ only in their terminal runs, which no rule rewrites, share them,
whatever their lengths, unless the form cap cut one of them; then they
all run again for each cap on the skeleton.  `_by_skeleton` builds, keeps
and fills a skeleton's turns, for enumeration with a witness per form
(`_turn`), filled only for a trace, and for the exhaustive index search
with a price per form (`_price`).  The index search,
which meets a form at many step counts and in many states, counts a
form's nonterminals once per state-by-state search; for one word of a
λ-free grammar it expands only the forms no longer than the word whose
terminal ends agree with it, each tested once.  `validate_trace` tests
each CD step with `_is_rewrite`, rather than building every rewrite of
the previous form, and each programmed step against the edges of its
state in the uncapped programmed space.  The traces of one enumeration share the
segments of each turn, and a CD segment that passed keeps its verdict, so
each shared segment is checked once by a compile.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
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
        """The words as a set, built on the first call and kept."""
        return self._word_set

    @cached_property
    def _word_set(self) -> frozenset:
        return frozenset(self.words)

    def __getstate__(self):  # pickle the fields, not the kept set
        return {k: v for k, v in self.__dict__.items() if k != "_word_set"}

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
    A CD segment that passed the trace check keeps its verdict in the
    instance attribute ``_passed`` (`_turn_violations`).
    """

    actor: object  # component index (int, 1-based) or label (str)
    forms: Tuple[Form, ...]
    appearance_checking: bool = False

    def __getstate__(self):  # pickle the fields, not the kept verdict
        return {k: v for k, v in self.__dict__.items() if k != "_passed"}


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
        """The last form of `all_forms`: that of the last segment with forms."""
        for seg in reversed(self.segments):
            if seg.forms:
                return seg.forms[-1]
        return self.start


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

    # set by `_compile`: no rule of the grammar erases
    lambda_free = False

    def __init__(self, symbols):
        symbols = set(symbols)
        nonterminals = sorted(s for s in symbols if not s.is_terminal())
        ordered = nonterminals + sorted(symbols.difference(nonterminals))
        self.char = char = {s: chr(i) for i, s in enumerate(ordered)}
        self.symbol = dict(zip(char.values(), ordered))
        self.nonterminal = _char_class(map(char.get, nonterminals))
        # the terminal characters, which `_goal_cost` strips off a form's ends
        self.terminals = "".join(map(char.get, ordered[len(nonterminals) :]))
        # for `_turns`: a form split at its maximal terminal runs, which
        # land at the odd positions, and two characters outside the
        # encoding, the mark that stands for a run and a separator
        self.split_runs = re.compile("(%s+)" % _char_class(self.terminals).pattern).split
        self.mark, self.sep = chr(len(ordered)), chr(len(ordered) + 1)
        # a "%" that is not the mark is a symbol or sep, escaped in a template
        self.escape = "%" if self.mark == "%" else "%%"
        # bound once, as the searches call them on every edge
        find_nonterminals = self.nonterminal.findall
        self.cost = lambda code: len(find_nonterminals(code))
        self.encode = lambda form: "".join(map(char.__getitem__, form))

    def decoder(self):
        """A decode function that maps each distinct string to one tuple.

        A search decodes through one decoder, so the forms it hands back
        share tuples as the forms of a search over tuples would.  Built from a
        list, a tuple reuses a free one of its length; ``tuple(map)`` does not.
        """
        symbol, forms = self.symbol.__getitem__, {}

        def decode(code: str) -> Form:
            form = forms.get(code)
            if form is None:
                form = forms[code] = tuple([*map(symbol, code)])
            return form

        return decode

    def template(self, form: str) -> str:
        """`form`, which may hold marks, as a ``%``-template with a ``%s`` per mark."""
        return form.replace("%", self.escape).replace(self.mark, "%s")

    def is_word(self, code: str) -> bool:
        return self.nonterminal.search(code) is None

    def word(self, code: str) -> Word:
        return tuple([self.symbol[c].name for c in code])  # from a list, as in `decoder`


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
# dropped because its form exceeded ``max_form_len``.  It may repeat a
# state, as two rewrites may be one form: `_bfs` and `_minimax` keep the
# first edge into each state, and nothing else drops a repeat.  A whole
# turn's label is ``(actor, forms, runs, failed)``: its witness (skeleton
# forms of a CD turn, a programmed rewrite's new form), the runs that fill
# it, as ``code.template(form) % runs``, for a trace, and the programmed
# labels whose appearance-checking steps came before it (empty for a CD
# turn).


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


def _path(rows, i: int, field: int) -> list:
    """`field` of each row on the parent-pointer path from a start to rows[i],
    the start left out: a row holds its parent at index 2, a start -1."""
    out = []
    row = rows[i]
    while row[2] >= 0:
        out.append(row[field])
        row = rows[row[2]]
    out.reverse()
    return out


_DEAD = math.inf  # the cost of a form that cannot derive the target word


def _minimax(starts, successors, form_of, cost_of, target=None):
    """Least cost of each reachable form, and whether a branch was pruned.

    The cost of a path is the largest `cost_of` (the nonterminal count) of
    a form on it.  Costs are small integers that never drop along an edge,
    so the search is a breadth-first search over one FIFO bucket per cost,
    walked in increasing order: a state's first push already carries its
    least cost.
    ``form_of`` maps a state to its form, or to ``None`` where the state is
    not a place to stop (inside a CD turn).  A form's cost is recorded when
    the first state with that form is popped.  With a ``target`` form the
    search records only the target and returns when it is popped, so an
    unreached target has no entry; without, it runs to exhaustion and
    prices every form between turns.  Many states share a form, so a
    form's ``cost_of`` is computed once per search and kept.  A
    ``cost_of`` of `_DEAD` says that the form cannot derive the target:
    a state with that form is never pushed.
    """
    costs = {}
    counts = {}  # form -> cost_of(form)
    buckets = []  # buckets[c]: the states first reached at cost c, in push order
    seen = set()
    for state, form in starts:
        seen.add(state)
        if form not in counts:
            counts[form] = cost_of(form)
        if counts[form] < _DEAD:
            _push(buckets, counts[form], state)
    pruned = False
    for cost, bucket in enumerate(buckets):  # the walk sees buckets appended later
        for state in bucket:  # and states appended to the bucket it walks
            form = form_of(state)
            if form is not None and form not in costs and (target is None or form == target):
                costs[form] = cost
                if form == target:
                    return costs, pruned
            edges, cut = successors(state)
            pruned = pruned or cut
            for nxt, form, _ in edges:
                if nxt not in seen:
                    seen.add(nxt)
                    ncost = counts.get(form)
                    if ncost is None:
                        ncost = counts[form] = cost_of(form)
                    if ncost <= cost:
                        bucket.append(nxt)
                    elif ncost < _DEAD:
                        _push(buckets, ncost, nxt)
    return costs, pruned


def _goal_cost(code: _Encoding, target: str):
    """``code.cost`` for the search for `target`, but `_DEAD` on a form whose
    terminal prefix (before its first nonterminal) is not a prefix of
    `target`, or whose terminal suffix (after its last) is not a suffix of
    it.  No rule rewrites a terminal, so every form derived from that form
    keeps both ends, and so does every word."""
    terminals, cost = code.terminals, code.cost

    def cost_of(form: str):
        head = form[: len(form) - len(form.lstrip(terminals))]
        tail = form[len(form.rstrip(terminals)) :]
        return cost(form) if target.startswith(head) and target.endswith(tail) else _DEAD

    return cost_of


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
    over (form, tracked step count) states (`_inner_steps` on a fresh
    rewrite memo), finite because forms are capped by ``max_form_len`` and
    counts by the mode's step window, and exact within that form cap.
    """
    code = _local_encoding((form,), ruleset)
    successors = _inner_steps([_component(code, ruleset, f)], bounds.max_form_len, [{}], False)
    forms, payloads, pruned, _ = _turn(successors, [1], code.encode(form))
    decode = code.decoder()
    return ModeStepResult({decode(y): tuple(map(decode, w)) for y, (_, w) in zip(forms, payloads)}, pruned)


# ---------------------------------------------------------------------------
# Compiled grammars and their search spaces
# ---------------------------------------------------------------------------


def _compile(grammar, mode: Optional[Mode], forms=()):
    """`grammar` compiled for the searches: ``(code, space, violations)``.

    ``code`` is the `_Encoding` of the grammar's alphabets and rules and of
    the symbols of `forms`.  ``space(max_form_len)`` is the grammar's search
    space over encoded forms of at most `max_form_len` symbols, from
    `_programmed_space` or `_hybrid_space`.  ``violations(trace)`` lists
    the steps of `trace` that the grammar does not allow; a programmed
    step is an edge of the space without a form cap.  Both read one
    compile of each programmed label (`_label`: its rule's lhs and rhs and
    its sorted fields) or of each CD component (`_component`).

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
        rules = list(chain.from_iterable(grammar.components))
    code = _local_encoding((grammar.nonterminals, grammar.terminals, (grammar.axiom,), *forms), rules)
    code.lambda_free = all(rule.rhs for rule in rules)
    start = code.encode((grammar.axiom,))
    if modes is None:
        labels = {p: _label(code, grammar.rule_of[p], grammar.success[p], grammar.failure[p]) for p in grammar.labels}
        space = partial(_programmed_space, code, labels, start)
        return code, space, partial(_programmed_violations, code, labels, space(math.inf)[1])
    components = [_component(code, ruleset, m) for ruleset, m in zip(grammar.components, modes)]
    return code, partial(_hybrid_space, components, code, start), partial(_turn_violations, code, components)


def _compiled(grammar, mode: Optional[Mode]) -> tuple:
    """`_compile(grammar, mode)`, kept on the grammar object in a dict by
    mode, so that the searches and trace checks on one grammar compile it
    once.  Copies and pickles of the grammar leave it out."""
    kept = getattr(grammar, "_compiles", {})
    hit = kept.get(mode)
    if hit is None:
        kept[mode] = hit = _compile(grammar, mode)
        object.__setattr__(grammar, "_compiles", kept)
    return hit


def _label(code: _Encoding, rule: Rule, success, failure):
    """A programmed label compiled for the searches: ``(lhs, rhs, success,
    failure)``, its rule's lhs character and encoded rhs, and its fields in
    sorted order.  A rule with a terminal lhs (which `validate` rejects)
    never applies, as no rule rewrites a terminal: its lhs is ``code.mark``,
    which no form holds."""
    lhs = code.mark if rule.lhs.is_terminal() else code.char[rule.lhs]
    return lhs, code.encode(rule.rhs), tuple(sorted(success)), tuple(sorted(failure))


def _programmed_space(code: _Encoding, labels, start: str, max_form_len):
    """The search space of a programmed grammar: ``(starts, successors,
    form_of, turns, walk)``.

    `labels` maps each label to its `_label`.  The step successors are
    those of one derivation step: a state is (form, next label), and an
    edge is labelled ``(label, (form,), (), ac)``, the new form and whether
    the step is appearance checking: when the label's rule applies, the
    rewrite at each occurrence of its lhs, left to right, goes on to every
    success label; otherwise the unchanged form goes on to every failure
    label.  The search starts from (axiom, r) for every label r, per the
    existential over the first label in the language definition.  Only
    `word_index`, `verifier.nsf_check` and the trace check read them.

    A step is one rule, not a rule table: ``str.find`` gives the
    occurrences of its lhs, and every rewrite has ``len(form) + len(rhs) -
    1`` symbols, so the form cap is one test per step.  Two occurrences may
    give one form, and the search keeps its first edge.  Enumeration,
    ``turns`` (the arguments of `_bfs`), and the exhaustive index search,
    ``walk`` (those of `_minimax`), walk whole rewrites instead
    (`_programmed_walk`), each on a walk of its own, as a walk remembers
    the rewrites it made.
    """

    def successors(state):
        form, label = state
        lhs, rhs, success, failure = labels[label]
        i = form.find(lhs)
        if i < 0:  # the rule does not apply: an appearance-checking step
            if len(form) > max_form_len:
                return [], bool(failure)
            edge = label, (form,), (), True
            return [((form, q), form, edge) for q in failure], False
        if len(form) + len(rhs) > max_form_len + 1:
            return [], bool(success)
        edges = []
        while i >= 0:
            y = form[:i] + rhs + form[i + 1 :]
            edge = label, (y,), (), False
            edges += [((y, q), y, edge) for q in success]
            i = form.find(lhs, i + 1)
        return edges, False

    starts = [((start, r), start) for r in labels]
    walk = partial(_programmed_walk, labels, start, max_form_len)
    return starts, successors, itemgetter(0), walk(), (*walk(), itemgetter(0), code.cost)


def _programmed_walk(labels, start: str, max_form_len):
    """The search of a programmed grammar by whole rewrites: its
    ``(starts, successors)``.

    A state is (form, the labels that may come next): every label at the
    axiom, then the success field of the label applied.  Its edges follow
    failure fields from those labels while their rule fails on the form,
    then rewrite the form at each occurrence of the lhs of each label
    reached whose rule applies, under the form cap of the step successors.
    An edge is labelled ``(label, (new form,), (), failed)``, where
    ``failed`` holds the labels whose appearance-checking steps led to the
    label from one that may come next, in order.  Whether a rule applies
    depends only on whether its lhs occurs, so the labels reached that
    apply, each with the shortest such chain, are kept per (next labels,
    which lhs occur).  An appearance-checking step keeps the form, so no
    state is pushed for it; and a (form, label) is rewritten once per
    search, as a later rewrite would reach only states already reached.  So
    a walk path is a step path with its appearance-checking steps left out:
    each form gets the least cost of the step-by-step search, and the same
    (form, label) pairs meet the cap.
    """
    lhss = tuple({lhs for lhs, *_ in labels.values()})
    applying, done = {}, set()

    def successors(state):
        form, nexts = state
        key = nexts, tuple([c in form for c in lhss])
        hit = applying.get(key)
        if hit is None:  # follow the failure fields; a success field may be empty
            hit, reached, failed = [], list(nexts), dict.fromkeys(nexts, ())
            for p in reached:  # the loop visits the labels it appends
                lhs, _, success, failure = labels[p]
                if lhs not in form:
                    before = failed[p] + (p,)
                    for q in failure:
                        if q not in failed:
                            failed[q] = before
                            reached.append(q)
                elif success:
                    hit.append((p, failed[p]))
            applying[key] = hit
        edges, pruned = [], False
        for p, before in hit:
            if (form, p) in done:
                continue
            done.add((form, p))
            lhs, rhs, success, _ = labels[p]
            if len(form) + len(rhs) > max_form_len + 1:
                pruned = True
                continue
            i = form.find(lhs)
            while i >= 0:
                y = form[:i] + rhs + form[i + 1 :]
                edges.append(((y, success), y, (p, (y,), (), before)))
                i = form.find(lhs, i + 1)
        return edges, pruned

    return [((start, tuple(labels)), start)] if labels else [], successors


def _hybrid_space(components, code: _Encoding, start: str, max_form_len):
    """The search space of a hybrid CD system: ``(starts, successors,
    form_of, turns, walk)``.

    `components` holds the `_component` of each component, over the
    encoding `code`.  A state is one of `_inner_steps`, and ``successors``
    is its successor function; ``form_of`` gives the form of a state between
    turns, ``None`` inside a turn; ``turns`` is the start and `_turns` on a
    new memo, for `_bfs`, and ``walk`` the exhaustive index search by whole
    turns (`_turn_walk`).  A search on the space, its turns included, reads
    one rewrite memo per component.
    """
    steps = [{} for _ in components]  # per component: form -> its rewrites
    starts = [((start, 0, 0), start)]
    turns = partial(_turns, {}, steps, components, code, max_form_len)
    walk = _turn_walk(components, code, start, max_form_len, steps)
    return starts, _inner_steps(components, max_form_len, steps), _between_turns, (starts, turns), walk


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


def _turn(successors, live, x: str):
    """The turns on form `x` of each component j in `live`, in order: a
    `_bfs` from ``(x, j, 0)`` over `successors`, an `_inner_steps` without
    ``opens``, which stops at the states ``(y, 0, 0)`` that close the turn.

    Returns the forms handed back in the order of their closing rows, a
    ``(j, witness)`` for each, the forms after each step of a shortest path
    there, whether the cap of `successors` dropped a rewrite, and the length
    of the longest row: a turn that dropped nothing is the same under every
    cap from that length up, and drops a rewrite under any smaller cap.
    """
    forms, payloads, pruned, longest = [], [], False, 0
    for j in live:
        rows, cut = _bfs([((x, j, 0), x)], successors)
        for i, row in enumerate(rows):
            if not row[0][1]:
                forms.append(row[1])
                payloads.append((j, _path(rows, i, 3)[:-1]))
        pruned, longest = pruned or cut, max(longest, *[len(row[1]) for row in rows])
    return forms, payloads, pruned, longest


def _price(cost, successors, live, x: str):
    """The turns on form `x` of the components in `live`, priced by one
    `_minimax` over `successors` (as in `_turn`) from every opening state.

    A form's price is the least cost of the turns' paths to it, a path
    costing the largest `cost` on it, its first form included.  Returns the
    forms handed back, their prices, the pruned flag and the longest form.
    """
    lengths = [len(x)]  # of the forms of the popped states

    def form_of(state):  # `_between_turns`, noting the longest form
        form, i, _ = state
        lengths.append(len(form))
        return None if i else form

    costs, pruned = _minimax([((x, j, 0), x) for j in live], successors, form_of, cost)
    return costs, list(costs.values()), pruned, max(lengths)


def _by_skeleton(memo, components, steps, code: _Encoding, max_form_len, x: str, turn):
    """The turns on form `x` of the components live on it by `turn`
    (`_turn` or `_price`), kept in `memo`: the forms handed back zipped with
    their payloads, whether the cap cut a rewrite, and the runs of x.

    A turn never rewrites a terminal, so the turn on x is the turn on its
    skeleton (x with one ``code.mark`` per maximal terminal run) under the
    cap less what the marks save, the marks filled by the runs.  Marks are
    terminals, so a skeleton form has the nonterminal count of its filling.
    On a miss `turn` runs over one `_inner_steps` under that cap on the
    rewrites `steps`, unless no component is live, and its forms are kept as
    one `code.template` joined by ``code.sep``.  `memo` keeps an entry whole,
    under the skeleton, for every cap from its longest row up, or cut, under
    (skeleton, cap), for that cap alone.
    """
    pieces = code.split_runs(x)  # the runs at odd positions
    runs = tuple(pieces[1::2])
    skeleton = code.mark.join(pieces[::2])
    cap = max_form_len - len(x) + len(skeleton)
    hit = memo.get(skeleton)
    if hit is None or hit[-1] > cap:
        hit = memo.get((skeleton, cap))
        if hit is None:
            live = [j for j, (table, *_) in enumerate(components, 1) if table[1].search(skeleton)]
            entry = turn(_inner_steps(components, cap, steps, False), live, skeleton) if live else ((), (), False, 0)
            forms, payloads, pruned, longest = entry
            hit = code.template(code.sep.join(forms)), len(forms), payloads, pruned, longest
            if runs:  # a form without runs shares no turn
                memo[(skeleton, cap) if pruned else skeleton] = hit
    template, n, payloads, pruned, _ = hit
    return zip((template % (runs * n)).split(code.sep), payloads), pruned, runs


def _turns(memo, steps, components, code: _Encoding, max_form_len, state):
    """The successors of a state between turns by the turns of each live
    component in order, labelled ``(j, witness, runs, ())``: the
    component, its witness's skeleton forms and the runs of x that fill them.

    `memo` keeps each skeleton's `_turn` (`_by_skeleton`), and `steps` the
    search's rewrites per component.  Two skeleton forms may fill to one
    (``M a`` and ``a M`` with the run ``a``): both edges are handed back,
    and the search keeps the first.
    """
    handed, pruned, runs = _by_skeleton(memo, components, steps, code, max_form_len, state[0], _turn)
    return [((y, 0, 0), y, (j, witness, runs, ())) for y, (j, witness) in handed], pruned


def _turn_walk(components, code: _Encoding, start: str, max_form_len, steps):
    """The exhaustive index search of a hybrid CD system by whole turns:
    the arguments ``(starts, successors, form_of, cost_of)`` of `_minimax`.

    A form's turns are priced by `_price` on the rewrites `steps`, once per
    entry of `_by_skeleton`.  A state is a pair (form between turns, price
    of a turn to it), priced at that price, so that its first push carries
    its least cost; a form's turns are expanded at its first pair, as a
    later pair would offer only pairs already pushed.  So the walk visits
    the forms between turns that `enumerate_grammar` visits, prices each as
    the state-by-state search does, and meets the same cuts.
    """
    memo, expanded, price = {}, set(), partial(_price, code.cost)

    def successors(state):
        x = state[0]
        if x in expanded:  # a later pair of x: its turns offer pairs already pushed
            return (), False
        expanded.add(x)
        pairs, pruned, _ = _by_skeleton(memo, components, steps, code, max_form_len, x, price)
        return [(pair, pair, None) for pair in pairs], pruned

    first = (start, code.cost(start))
    return [(first, first)], successors, itemgetter(0), itemgetter(1)


def _inner_steps(components, max_form_len, steps, opens=True):
    """Successors of (form, active component or 0, tracked inner step count).

    `components` holds the `_component` of each component.  An edge opens
    a turn of a component between turns (labelled with its index), applies
    one rule of the active component (labelled with the new form), or
    closes the active turn when its mode predicate holds (labelled None).
    A turn opens only when one of the component's rules applies: otherwise
    it could only close on the unchanged form, whose state is the one being
    expanded; without `opens` none does, so a search from inside a turn
    stops at the states that close it: `_turn` is a `_bfs` over it, and the
    index searches' `_minimax` prices the forms inside a turn with it.
    `steps` keeps per component the rewrites of each form it rewrote, so
    one search rewrites a (component, form) once under every cap; they
    depend on the form and table alone.  Every lhs of a table has a rhs, so
    a form is stuck, as ``t`` asks, iff its rewrite list is empty; only a
    state at ``hi``, never rewritten, scans for ``t``.
    """
    opened = [(j, table[1].search) for j, (table, _, _, _) in enumerate(components, 1)] if opens else []

    def successors(state):
        form, i, m = state
        if i == 0:
            return [((form, j, 0), form, j) for j, applies in opened if applies(form)], False
        table, (lo, _, t), hi, top = components[i - 1]
        if m >= hi:
            closes = lo <= m and not (t and table[1].search(form))
            return [((form, 0, 0), form, None)] if closes else [], False
        memo = steps[i - 1]
        ys = memo.get(form)
        if ys is None:
            ys = memo[form] = _rewrites(form, table)
        edges = [((form, 0, 0), form, None)] if lo <= m and not (t and ys) else []
        n, pruned = min(m + 1, top), False
        for y in ys:
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

    One `_bfs` walks the compiled space by whole turns (``turns``): a CD
    or hybrid system turn by turn, and a programmed grammar rewrite by
    rewrite (`_programmed_walk`), with no row for an appearance-checking
    step.  Form-length pruning flags the language as truncated only when
    some rule erases, whatever the grammar's ``lambda_free`` flag claims;
    otherwise a pruned form can never shrink back to a word within the bound.

    A trace holds one segment per turn, and a programmed rewrite's segment
    comes after one appearance-checking segment, at the form it rewrites,
    for each label that failed before it.
    """
    code, space, _ = _compiled(grammar, mode)
    rows, pruned = _bfs(*space(bounds.max_form_len)[3])
    word_rows = {}
    for i, (_, form, _, _) in enumerate(rows):
        if code.is_word(form):
            word_rows.setdefault(code.word(form), i)
    language = make_language(word_rows, bounds, pruned and not code.lambda_free)
    result = EnumerationResult(language)
    if with_traces:
        start: Form = (grammar.axiom,)
        decode = code.decoder()  # one per search, so traces share tuples
        segments = {}  # row -> its segment, shared by every trace through it
        checks = {}  # row -> its appearance-checking segments, if it has any
        for word in language.words:
            i = word_rows[word]
            trace = []
            # the rows from the start to row i, the start left out: the
            # parents of those rows are the start and the rows before i
            for j in _path(rows, i, 2)[1:] + [i]:
                seg = segments.get(j)
                if seg is None:
                    actor, forms, runs, failed = rows[j][3]
                    seg = segments[j] = TraceSegment(actor, tuple([decode(code.template(f) % runs) for f in forms]))
                    if failed:  # at the form of the parent row
                        x = (decode(rows[rows[j][2]][1]),)
                        checks[j] = [TraceSegment(q, x, True) for q in failed]
                if j in checks:
                    trace += checks[j]
                trace.append(seg)
            result.traces[word] = DerivationTrace(start, tuple(trace))
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
    """The problems of a CD/HCD trace, segment by segment.

    A segment that passes keeps its verdict under ``_passed``: this
    compile's `components`, the form it passed from, the form it ends on,
    and its actor and forms.  A segment met again by this compile from the
    same form is then not checked again.  Only a segment whose forms are a
    tuple of tuples keeps one, as a list could change after it passed; and
    a hit compares the actor and forms by identity, as a frozen dataclass
    can still be changed through ``object.__setattr__``.  A segment that
    failed is checked every time.
    """
    problems = []
    current = code.encode(trace.start)
    for n, seg in enumerate(trace.segments):
        actor, seg_forms = seg.actor, seg.forms
        hit = getattr(seg, "_passed", None)
        if hit is not None and hit[0] is components and hit[1] == current and hit[3] is actor and hit[4] is seg_forms:
            current = hit[2]
            continue
        # type, not isinstance: a bool is an int, but no component index
        if type(actor) is not int or not (1 <= actor <= len(components)):
            problems.append("segment %d: bad component index %r" % (n, actor))
            continue
        table, window, _, _ = components[actor - 1]
        forms = list(map(code.encode, seg_forms))
        prev = current
        ok = True
        for f in forms:
            if not _is_rewrite(prev, f, table):
                problems.append(
                    "segment %d: form not reachable in one step of component %d"
                    % (n, actor)
                )
                ok = False
                break
            prev = f
        if ok:
            final = forms[-1] if forms else current
            if not _accepts(window, len(forms), table, final):
                problems.append(
                    "segment %d: mode predicate fails for component %d after %d steps"
                    % (n, actor, len(seg_forms))
                )
            elif type(seg_forms) is tuple and all(type(f) is tuple for f in seg_forms):
                object.__setattr__(seg, "_passed", (components, current, final, actor, seg_forms))
            current = final
    return problems


def _programmed_violations(code: _Encoding, labels, step, trace: DerivationTrace) -> list:
    # each segment must be an edge that `step`, the successor function of
    # the uncapped programmed space, offers from (current form, its label),
    # leading to the next segment's label
    problems = []
    current = code.encode(trace.start)
    actors = [seg.actor for seg in trace.segments]
    for n, seg in enumerate(trace.segments):
        if not isinstance(seg.actor, str) or seg.actor not in labels:
            problems.append("segment %d: unknown label %r" % (n, seg.actor))
            continue
        if len(seg.forms) != 1:
            problems.append("segment %d: programmed steps are single steps" % n)
            continue
        nxt = actors[n + 1 : n + 2]  # the next label, if any
        form = code.encode(seg.forms[0])
        edges, _ = step((current, seg.actor))
        if not any(
            y == form and ac == seg.appearance_checking and (not nxt or q == nxt[0])
            for (y, q), _, (_, _, _, ac) in edges
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


def indexed_language(
    grammar, bounds: Bounds, mode: Optional[Mode] = None
) -> Tuple[BoundedLanguage, Dict[Word, int]]:
    """The bounded language of `grammar` and the `word_index` of each word.

    One exhaustive index search finds the words and prices them.  It visits
    the forms between turns that `enumerate_grammar` visits and meets every
    cut that enumeration meets, so the language and its truncation flag are
    the ones enumeration gives.  Each form gets the least cost over its
    derivations, so each index is the one `word_index` gives.  The compiled
    space hands it the search to run (``walk``): on a CD or hybrid system
    it walks whole turns, priced once per skeleton (`_turn_walk`), and on a
    programmed grammar whole rewrites, with no state for an
    appearance-checking step (`_programmed_walk`).
    """
    code, space, _ = _compiled(grammar, mode)
    costs, pruned = _minimax(*space(bounds.max_form_len)[4])
    indices = {code.word(form): cost for form, cost in costs.items() if code.is_word(form)}
    language = make_language(indices, bounds, pruned and not code.lambda_free)
    return language, {word: indices[word] for word in language.words}


def word_index(grammar, word: Word, bounds: Bounds, mode: Optional[Mode] = None) -> WordIndexResult:
    """Minimum trace index over all bounded derivations of `word`.

    A ``None`` index means no derivation was found within the bounds; it
    does not prove the word lies outside the language.  The result is
    flagged as truncated when some rule erases and a branch was pruned by
    form length, since that branch might have derived the word.

    When no rule erases, the search is directed at the word, and both cuts
    are exact: forms are capped at the word's length, as a form never
    shrinks, and a form whose terminal ends disagree with the word is dead
    (`_goal_cost`), as no rule rewrites a terminal.  So the bounds cost
    nothing there beyond the word's length, and the result is never
    truncated.  Otherwise every form within ``max_form_len`` is searched.
    """
    if len(word) > bounds.max_word_len:
        raise ValueError("word longer than max_word_len")
    if not word:
        raise ValueError("empty word: bounded languages never hold it")
    code, space, _ = _compiled(grammar, mode)
    name_to_sym = {s.name: s for s in grammar.terminals}
    try:
        symbols = tuple(name_to_sym[n] for n in word)
    except KeyError as e:
        raise ValueError("unknown terminal %s" % e)
    target = code.encode(symbols)
    cap, cost_of = bounds.max_form_len, code.cost
    if code.lambda_free:  # forms never shrink and keep their terminal ends
        cap, cost_of = len(target), _goal_cost(code, target)
    starts, successors, form_of = space(cap)[:3]
    costs, pruned = _minimax(starts, successors, form_of, cost_of, target)
    return WordIndexResult(costs.get(target), pruned and not code.lambda_free)
