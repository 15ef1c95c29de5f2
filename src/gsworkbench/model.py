"""Data model for symbols, rules, derivation modes and grammar formalisms.

Three formalisms share one context-free rule representation: plain CD
grammar systems (all components run in one mode), externally hybrid CD
systems (one mode per component), and programmed grammars (labelled rules
with success/failure fields).  All values are immutable after construction;
`validate` reports invariant violations as data instead of raising.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from operator import itemgetter
from types import MappingProxyType
from typing import FrozenSet, Mapping, Optional, Tuple

NAME_PATTERN = re.compile(r"[A-Za-z0-9_'<>,()\-]+\Z")
# the .gsw header name of a grammar whose name is "", so not a name itself
UNNAMED = "unnamed"

NONTERMINAL = "N"
TERMINAL = "T"

_kind_of = itemgetter(1)


class Symbol(tuple):
    """An interned grammar symbol: a name plus a fixed kind.

    A symbol is the pair ``(name, kind)``, so hashing, equality and ordering
    run in C, and it compares equal to that plain pair.
    """

    __slots__ = ()

    def __new__(cls, name: str, kind: str):
        if not name:
            raise ValueError("symbol name must be non-empty")
        if kind not in (NONTERMINAL, TERMINAL):
            raise ValueError("symbol kind must be %r or %r" % (NONTERMINAL, TERMINAL))
        return tuple.__new__(cls, (name, kind))

    def __getnewargs__(self):
        return tuple(self)

    name = property(itemgetter(0), doc="the symbol's name")
    kind = property(_kind_of, doc="NONTERMINAL or TERMINAL")

    def is_terminal(self) -> bool:
        return self.kind == TERMINAL

    def __repr__(self):
        return self.name if self.is_terminal() else "<%s>" % self.name


def nonterminal(name: str) -> Symbol:
    return Symbol(name, NONTERMINAL)


def terminal(name: str) -> Symbol:
    return Symbol(name, TERMINAL)


# A sentential form is simply a tuple of symbols; the empty tuple is lambda.
Form = Tuple[Symbol, ...]


def form_text(form: Form) -> str:
    """Render a form as space-separated symbol names (`#` for lambda)."""
    if not form:
        return "#"
    return " ".join(s.name for s in form)


@dataclass(frozen=True)
class Rule:
    """A context-free rule ``lhs -> rhs`` (empty rhs encodes lambda)."""

    lhs: Symbol
    rhs: Tuple[Symbol, ...]

    def __post_init__(self):
        # a Symbol is itself a tuple: Rule(S, a) must not pass as rhs ("a", "T")
        rhs = tuple(self.rhs)
        if not all(isinstance(s, Symbol) for s in rhs):
            raise TypeError("rule rhs must be a sequence of Symbols, got %r" % (rhs,))
        object.__setattr__(self, "rhs", rhs)

    def is_erasing(self) -> bool:
        return len(self.rhs) == 0

    def __repr__(self):
        return "%s -> %s" % (self.lhs.name, form_text(self.rhs))


RuleSet = Tuple[Rule, ...]


# ---------------------------------------------------------------------------
# Derivation modes
# ---------------------------------------------------------------------------

_COMPARISON_TEXT = {"le": "<=", "eq": "=", "ge": ">="}
_BASIC_BOUNDED = tuple(_COMPARISON_TEXT)


@dataclass(frozen=True)
class Mode:
    """A derivation mode: ``*``, ``t``, a step-count comparison, or a
    conjunction of two modes.

    The bounded comparisons carry the bound in ``k``.  Conjunctions keep
    their operands, so ``between(k, k)`` and ``exactly(k)`` stay distinct
    values even though they are semantically equivalent.
    """

    kind: str  # "*", "t", "le", "eq", "ge", "and"
    k: int = 0
    left: Optional["Mode"] = None
    right: Optional["Mode"] = None

    def __repr__(self):
        return mode_text(self)


STAR = Mode("*")
T_MODE = Mode("t")


def at_most(k: int) -> Mode:
    if k < 1:
        raise ValueError("mode bound must be positive")
    return Mode("le", k)


def exactly(k: int) -> Mode:
    if k < 1:
        raise ValueError("mode bound must be positive")
    return Mode("eq", k)


def at_least(k: int) -> Mode:
    if k < 1:
        raise ValueError("mode bound must be positive")
    return Mode("ge", k)


def between(k: int, l: int) -> Mode:
    if k < 1:
        raise ValueError("mode bound must be positive")
    if k > l:
        raise ValueError("between(k, l) requires k <= l")
    return Mode("and", left=at_least(k), right=at_most(l))


def t_and(inner: Mode) -> Mode:
    if inner.kind not in _BASIC_BOUNDED:
        raise ValueError("t_and nests only <=k, =k, >=k modes")
    return Mode("and", left=T_MODE, right=inner)


def conj(left: Mode, right: Mode) -> Mode:
    """General conjunction; used for predicate-level algebra checks."""
    return Mode("and", left=left, right=right)


def mode_text(mode: Optional[Mode]) -> str:
    """The mode's text; a missing conjunction operand reads ``?`` and an
    unknown kind reads as the kind itself."""
    if mode is None:
        return "?"
    if mode.kind in _BASIC_BOUNDED:
        # an int bound (True too, which equals 1) as a number, any other as itself
        k = mode.k
        return _COMPARISON_TEXT[mode.kind] + ("%d" % k if isinstance(k, int) else repr(k))
    if mode.kind == "and":
        return "(%s & %s)" % (mode_text(mode.left), mode_text(mode.right))
    return str(mode.kind)


def mode_window(mode: Mode) -> Tuple[int, float, bool]:
    """The mode as a step window ``(lo, hi, t)``.

    A component may hand back form y after m steps iff ``lo <= m <= hi``
    and, when ``t`` is set, no rule of the component applies to y.  ``hi``
    is ``math.inf`` for an unbounded mode.  A conjunction takes the larger
    ``lo``, the smaller ``hi`` and either ``t``.
    """
    if mode.kind == "and":
        if mode.left is None or mode.right is None:
            raise ValueError("conjunction mode %s lacks an operand" % mode_text(mode))
        (llo, lhi, lt), (rlo, rhi, rt) = mode_window(mode.left), mode_window(mode.right)
        return max(llo, rlo), min(lhi, rhi), lt or rt
    k, inf = mode.k, math.inf
    windows = {"*": (0, inf, False), "t": (0, inf, True), "le": (0, k, False),
               "eq": (k, k, False), "ge": (k, inf, False)}
    if mode.kind not in windows:
        raise ValueError("unknown mode kind %r" % mode.kind)
    return windows[mode.kind]


def is_in_mode_set_d(mode: Mode) -> bool:
    """True iff the mode belongs to the mode set D usable by components.

    D holds ``*``, ``t``, ``<=k``, ``=k``, ``>=k``, ``(>=k & <=l)`` with
    k <= l, and ``(t & cmp)`` for a comparison cmp; a bound is an int >= 1.  A
    value with a field its kind does not use (a bound on ``*``, operands on
    a comparison) is not in D: its text would read back as another value.
    """
    if mode.kind == "and":
        l, r = mode.left, mode.right
        if l is None or r is None:
            return False
        return mode.k == 0 and r.kind in _BASIC_BOUNDED and is_in_mode_set_d(r) and (
            l == T_MODE
            or (l.kind == "ge" and r.kind == "le" and is_in_mode_set_d(l) and l.k <= r.k)
        )
    if mode.left is not None or mode.right is not None:
        return False
    if mode.kind in _BASIC_BOUNDED:
        return isinstance(mode.k, int) and mode.k >= 1
    return mode in (STAR, T_MODE)


# ---------------------------------------------------------------------------
# Grammar formalisms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Grammar:
    """The fields every grammar kind shares: two alphabets and an axiom."""

    nonterminals: FrozenSet[Symbol]
    terminals: FrozenSet[Symbol]
    axiom: Symbol

    def __post_init__(self):
        object.__setattr__(self, "nonterminals", frozenset(self.nonterminals))
        object.__setattr__(self, "terminals", frozenset(self.terminals))

    def alphabet(self) -> FrozenSet[Symbol]:
        return self.nonterminals | self.terminals

    def __getstate__(self):  # pickle and copy the fields, not the kept compiles
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class _Components(_Grammar):
    """A grammar made of rule sets, one per component."""

    components: Tuple[RuleSet, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "components", tuple(tuple(c) for c in self.components))

    @property
    def degree(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class CdSystem(_Components):
    """A cooperating distributed grammar system of degree ``len(components)``."""

    lambda_free: bool = True
    name: str = ""


@dataclass(frozen=True)
class HcdSystem(_Components):
    """An externally hybrid CD system: each component carries its own mode."""

    modes: Tuple[Mode, ...]
    lambda_free: bool = True
    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "modes", tuple(self.modes))


@dataclass(frozen=True)
class ProgrammedGrammar(_Grammar):
    """A programmed grammar: labelled rules with success/failure fields.

    ``failure[p]`` transitions are taken in appearance-checking steps, with
    the sentential form left unchanged.
    """

    labels: Tuple[str, ...]
    rule_of: Mapping[str, Rule]
    success: Mapping[str, FrozenSet[str]]
    failure: Mapping[str, FrozenSet[str]]
    lambda_free: bool = True
    name: str = ""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "labels", tuple(self.labels))
        # read-only mappings: the searches keep a grammar's compile on it
        object.__setattr__(self, "rule_of", MappingProxyType(dict(self.rule_of)))
        for name in ("success", "failure"):
            fields = {p: frozenset(s) for p, s in getattr(self, name).items()}
            object.__setattr__(self, name, MappingProxyType(fields))

    def __reduce__(self):
        # a mappingproxy does not pickle, so the mappings go as plain dicts
        return ProgrammedGrammar, (self.nonterminals, self.terminals, self.axiom, self.labels,
                                   dict(self.rule_of), dict(self.success), dict(self.failure),
                                   self.lambda_free, self.name)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def nonterminal_count(form: Form) -> int:
    return list(map(_kind_of, form)).count(NONTERMINAL)


def is_terminal_form(form: Form) -> bool:
    return NONTERMINAL not in map(_kind_of, form)


def _check_rules(rules, nts, ts, lambda_free, where, out):
    alphabet = nts | ts
    for rule in rules:
        if rule.lhs not in nts:
            out.append(
                "lhs-not-nonterminal: %s rule %r has lhs outside the "
                "nonterminal alphabet" % (where, rule)
            )
        for s in rule.rhs:
            if s not in alphabet:
                out.append(
                    "alien-symbol: %s rule %r uses symbol %s not in the "
                    "grammar alphabets" % (where, rule, s.name)
                )
        if lambda_free and rule.is_erasing():
            out.append(
                "erasing-rule: erasing rule in λ-free grammar (%s rule %r)"
                % (where, rule)
            )


def _check_alphabets(g, out):
    nt_names = {s.name for s in g.nonterminals}
    t_names = {s.name for s in g.terminals}
    for name in sorted(nt_names & t_names):
        out.append(
            "alphabet-overlap: name %r is both nonterminal and terminal" % name
        )
    for s in g.nonterminals | g.terminals:
        if not NAME_PATTERN.match(s.name):
            out.append("bad-name: symbol name %r not an identifier" % s.name)
    for s in g.nonterminals:
        if s.is_terminal():
            out.append("kind-mismatch: %s listed as nonterminal" % s.name)
    for s in g.terminals:
        if not s.is_terminal():
            out.append("kind-mismatch: %s listed as terminal" % s.name)
    if g.axiom not in g.nonterminals:
        out.append("axiom: axiom %s not a nonterminal of the grammar" % g.axiom.name)
    if g.name == UNNAMED:
        out.append("bad-name: grammar name %r is reserved for the empty name" % g.name)
    elif g.name and not NAME_PATTERN.match(g.name):
        out.append("bad-name: grammar name %r not an identifier" % g.name)


def validate(grammar) -> list:
    """Validation report: an empty list iff all type invariants hold.

    Violations are returned as stable ``code: detail`` strings; validation
    never raises and is pure.
    """
    out = []
    if isinstance(grammar, _Components):
        _check_alphabets(grammar, out)
        if grammar.degree < 1:
            out.append("degree: degree ≥ 1 required")
        for i, rules in enumerate(grammar.components, start=1):
            _check_rules(
                rules,
                grammar.nonterminals,
                grammar.terminals,
                grammar.lambda_free,
                "component %d" % i,
                out,
            )
        if isinstance(grammar, HcdSystem):
            if len(grammar.modes) != grammar.degree:
                out.append("modes: one mode per component required")
            for i, mode in enumerate(grammar.modes, start=1):
                if not is_in_mode_set_d(mode):
                    out.append(
                        "mode-invalid: component %d mode %s outside the mode set"
                        % (i, mode_text(mode))
                    )
        return out
    if isinstance(grammar, ProgrammedGrammar):
        _check_alphabets(grammar, out)
        if not grammar.labels:
            out.append("labels: at least one label required")
        label_set = set(grammar.labels)
        if len(label_set) != len(grammar.labels):
            out.append("labels: duplicate labels")
        for p in grammar.labels:
            if not NAME_PATTERN.match(p):
                out.append("bad-name: label %r not an identifier" % p)
            if p not in grammar.rule_of:
                out.append("rule-missing: label %s has no rule" % p)
        _check_rules(
            [grammar.rule_of[p] for p in grammar.labels if p in grammar.rule_of],
            grammar.nonterminals,
            grammar.terminals,
            grammar.lambda_free,
            "programmed",
            out,
        )
        for field_name, mapping in (("succ", grammar.success), ("fail", grammar.failure)):
            for p in grammar.labels:
                if p not in mapping:
                    out.append(
                        "field-missing: %s field not defined for label %s"
                        % (field_name, p)
                    )
                    continue
                for q in mapping[p]:
                    if q not in label_set:
                        out.append(
                            "field-target: %s field of %s names unknown label %s"
                            % (field_name, p, q)
                        )
        return out
    raise TypeError("not a grammar: %r" % (grammar,))
