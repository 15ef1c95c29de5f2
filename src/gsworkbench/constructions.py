"""Grammar-to-grammar transformations and named example systems.

Every function here is pure: it consumes validated grammars (or plain
parameters) and produces a new, validated grammar.  Fresh symbols created
by a construction are flattened to identifier strings with the fixed
``<base>__<indices>`` scheme; collisions with user symbols are resolved by
suffixing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, TypeVar

from .model import (
    CdSystem,
    Form,
    Mode,
    NAME_PATTERN,
    ProgrammedGrammar,
    Rule,
    Symbol,
    _Grammar,
    at_most,
    exactly,
    is_in_mode_set_d,
    mode_window,
    nonterminal,
    t_and,
    terminal,
    validate,
)
from .verifier import nsf_check

VARIANT_EXACTLY = "exactly"
VARIANT_ATMOST = "atmost"
_VARIANTS = (VARIANT_EXACTLY, VARIANT_ATMOST)

_G = TypeVar("_G", CdSystem, ProgrammedGrammar)


def _fresh(base: str, taken: set) -> str:
    name = base
    while name in taken:
        name += "_x"
    taken.add(name)
    return name


def _checked(system: _G) -> _G:
    report = validate(system)
    if report:
        raise AssertionError("construction produced an invalid grammar: %s" % report)
    return system


def _system(axiom: Symbol, components: Sequence[Sequence[Rule]], name: str) -> CdSystem:
    """The checked CD system of these rules: its alphabets are the symbols
    of its rules and axiom, and it is λ-free iff no rule erases."""
    rules = [rule for comp in components for rule in comp]
    symbols = {axiom}.union((r.lhs for r in rules), *(r.rhs for r in rules))
    return _checked(
        CdSystem(
            nonterminals=frozenset(s for s in symbols if not s.is_terminal()),
            terminals=frozenset(s for s in symbols if s.is_terminal()),
            axiom=axiom,
            components=components,
            lambda_free=not any(r.is_erasing() for r in rules),
            name=name,
        )
    )


def _check_variant(variant: str) -> None:
    if variant not in _VARIANTS:
        raise ValueError("variant must be one of %r" % (_VARIANTS,))


# ---------------------------------------------------------------------------
# Plain context-free inputs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _CfGrammar(_Grammar):
    """A context-free grammar: the fields the CF -> CD2 inputs share."""

    rules: Tuple[Rule, ...]

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "rules", tuple(self.rules))


@dataclass(frozen=True)
class LinearGrammar(_CfGrammar):
    """A context-free grammar whose every right-hand side has <= 1 nonterminal."""

    def __post_init__(self):
        super().__post_init__()
        for rule in self.rules:
            if sum(1 for s in rule.rhs if not s.is_terminal()) > 1:
                raise ValueError("non-linear rule %r" % rule)


@dataclass(frozen=True)
class IndexedCfGrammar(_CfGrammar):
    """A context-free grammar together with a claimed derivation index."""

    index: int

    def __post_init__(self):
        super().__post_init__()
        if self.index < 1:
            raise ValueError("index must be positive")
        lhs_set = {r.lhs for r in self.rules}
        for nt in self.nonterminals:
            if nt not in lhs_set:
                raise ValueError(
                    "nonterminal %s never occurs as a left-hand side" % nt.name
                )


# ---------------------------------------------------------------------------
# Finite and linear languages
# ---------------------------------------------------------------------------


def finite_to_cd1(words: Iterable[Tuple[str, ...]], k: int) -> CdSystem:
    """One-component system generating a finite word set via a unit chain.

    The start symbol is renamed through k stages so that the single
    component makes exactly k steps before (and while) terminating; the
    result generates the input set in both the exactly-k and the at-most-k
    hybrid t-modes.
    """
    word_list = [tuple(w) for w in words]
    if not word_list:
        raise ValueError("empty word set")
    if any(len(w) == 0 for w in word_list):
        raise ValueError("the empty word cannot be generated without erasing rules")
    if k < 1:
        raise ValueError("k must be positive")
    term_names = sorted({name for w in word_list for name in w})
    bad = [name for name in term_names if not NAME_PATTERN.match(name)]
    if bad:
        raise ValueError("terminal name %r is not an identifier" % bad[0])
    taken = set(term_names)
    stages = [nonterminal(_fresh("S__%d" % i, taken)) for i in range(1, k + 1)]
    rules: List[Rule] = []
    for i in range(k - 1):
        rules.append(Rule(stages[i], (stages[i + 1],)))
    for w in word_list:
        rules.append(Rule(stages[-1], tuple(map(terminal, w))))
    return _system(stages[0], (rules,), "finite_cd1")


def _primed(nts: Sequence[Symbol], taken: set) -> Dict[Symbol, Symbol]:
    return {
        nt: nonterminal(_fresh(nt.name + "'", taken))
        for nt in sorted(nts)
    }


def linear_to_cd2(g: LinearGrammar) -> CdSystem:
    """Two-component simulation of a linear grammar via colouring unit rules.

    P1 primes every nonterminal, P2 applies the original productions to the
    primed copies; run in mode (t & =1) or (t & <=1).
    """
    return _cf_to_cd2(g, False, "linear_cd2")


def cf_indexk_to_cd2(g: IndexedCfGrammar) -> CdSystem:
    """Two-component simulation of an index-k context-free grammar.

    As linear_to_cd2, plus unit self-loops B -> B and B' -> B' that pad a
    component's step count up to k; run in mode (t & =k) or (t & <=k).
    Every round rewrites all currently present nonterminals, so the
    bounded language matches for words whose derivations stay within
    index k under that discipline.
    """
    return _cf_to_cd2(g, True, "cf_index%d_cd2" % g.index)


def _cf_to_cd2(g: _CfGrammar, self_loops: bool, name: str) -> CdSystem:
    """Both CF -> CD2 simulations; `self_loops` adds B -> B and B' -> B'."""
    taken = {s.name for s in g.alphabet()}
    primed = _primed(g.nonterminals, taken)
    p1: List[Rule] = []
    for nt in sorted(g.nonterminals):
        p1.append(Rule(nt, (primed[nt],)))
        if self_loops:
            p1.append(Rule(nt, (nt,)))
    p2 = [Rule(primed[r.lhs], r.rhs) for r in g.rules]
    if self_loops:
        p2 += [Rule(primed[nt], (primed[nt],)) for nt in sorted(g.nonterminals)]
    return _checked(
        CdSystem(
            nonterminals=g.nonterminals | frozenset(primed.values()),
            terminals=g.terminals,
            axiom=g.axiom,
            components=(tuple(p1), tuple(p2)),
            lambda_free=all(not r.is_erasing() for r in g.rules),
            name=name,
        )
    )


# ---------------------------------------------------------------------------
# CD system -> programmed grammar
# ---------------------------------------------------------------------------


def cd_to_programmed(g: CdSystem, k: int, variant: str = VARIANT_EXACTLY) -> ProgrammedGrammar:
    """Simulate a CD system in mode (t & =k) / (t & <=k) by a programmed grammar.

    Labels (i, j, kappa) apply the j-th rule of component i as its kappa-th
    step; labels (i, j) perform the t-check by trying to rewrite the j-th
    rule's left-hand side into the failure symbol, so only forms where no
    rule of component i applies survive the checking pass.  In the at-most
    variant the stepping labels get failure fields equal to their success
    fields, allowing the component to cut its turn short.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _check_variant(variant)
    if not any(g.components):
        raise ValueError("the system has no rule, so its programmed grammar would have no label")
    taken = {s.name for s in g.alphabet()}
    fail_sym = nonterminal(_fresh("F", taken))
    labels: List[str] = []
    rule_of: Dict[str, Rule] = {}
    success: Dict[str, FrozenSet[str]] = {}
    failure: Dict[str, FrozenSet[str]] = {}

    def step_label(i, j, kappa):
        return "%d_%d_%d" % (i, j, kappa)

    def check_label(i, j):
        return "%d_%d" % (i, j)

    n = g.degree
    counts = [len(comp) for comp in g.components]
    all_first = frozenset(
        step_label(i, j, 1)
        for i in range(1, n + 1)
        for j in range(1, counts[i - 1] + 1)
    )
    for i in range(1, n + 1):
        comp = g.components[i - 1]
        for j, rule in enumerate(comp, start=1):
            for kappa in range(1, k + 1):
                lab = step_label(i, j, kappa)
                labels.append(lab)
                rule_of[lab] = rule
                if kappa < k:
                    succ = frozenset(
                        step_label(i, jp, kappa + 1)
                        for jp in range(1, counts[i - 1] + 1)
                    )
                else:
                    succ = frozenset({check_label(i, 1)})
                success[lab] = succ
                failure[lab] = succ if variant == VARIANT_ATMOST else frozenset()
        for j, rule in enumerate(comp, start=1):
            lab = check_label(i, j)
            labels.append(lab)
            rule_of[lab] = Rule(rule.lhs, (fail_sym,))
            success[lab] = frozenset()
            if j < counts[i - 1]:
                failure[lab] = frozenset({check_label(i, j + 1)})
            else:
                failure[lab] = all_first
    return _checked(
        ProgrammedGrammar(
            nonterminals=g.nonterminals | {fail_sym},
            terminals=g.terminals,
            axiom=g.axiom,
            labels=tuple(labels),
            rule_of=rule_of,
            success=success,
            failure=failure,
            lambda_free=g.lambda_free,
            name=(g.name + "_prog") if g.name else "prog",
        )
    )


# ---------------------------------------------------------------------------
# Named example systems
# ---------------------------------------------------------------------------


def build_example1(k: int) -> CdSystem:
    """Two-component system generating a1^n a2^n ... a_{k+1}^n, k >= 2.

    Run in mode (t & =k); component 1 unfolds the start chain and unprimes,
    component 2 primes every block (or terminates all blocks at once).
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    S = [nonterminal("S%d" % i) for i in range(1, k + 1)]
    A = [nonterminal("A%d" % i) for i in range(1, k + 1)]
    Ap = [nonterminal("A%d'" % i) for i in range(1, k + 1)]
    a = [terminal("a%d" % i) for i in range(1, k + 2)]
    p1: List[Rule] = []
    for i in range(k - 1):
        p1.append(Rule(S[i], (S[i + 1],)))
    p1.append(Rule(S[k - 1], tuple(A)))
    for i in range(k):
        p1.append(Rule(Ap[i], (A[i],)))
    p2: List[Rule] = []
    for i in range(k - 1):
        p2.append(Rule(A[i], (a[i], Ap[i])))
    p2.append(Rule(A[k - 1], (a[k - 1], Ap[k - 1], a[k])))
    for i in range(k - 1):
        p2.append(Rule(A[i], (a[i],)))
    p2.append(Rule(A[k - 1], (a[k - 1], a[k])))
    return _system(S[0], (p1, p2), "example1_k%d" % k)


def build_anbnambm() -> CdSystem:
    """Three-component system for a^n b^n a^m b^m, run in mode (t & =1)."""
    S, A, B = nonterminal("S"), nonterminal("A"), nonterminal("B")
    Ap, Bp = nonterminal("A'"), nonterminal("B'")
    a, b = terminal("a"), terminal("b")
    p1 = (Rule(S, (A, B)), Rule(Ap, (A,)), Rule(Bp, (B,)))
    p2 = (Rule(A, (a, Ap, b)), Rule(A, (a, b)), Rule(Bp, (Bp,)))
    p3 = (Rule(B, (a, Bp, b)), Rule(B, (a, b)), Rule(A, (A,)), Rule(Ap, (Ap,)))
    return _system(S, (p1, p2, p3), "anbnambm")


def build_s3_cd3() -> CdSystem:
    """Three-component system for b(a^i b)^6, run in mode (t & =2).

    The start rule produces the A block already primed so that the opening
    turn of component 3 can make exactly two steps (prime, then unprime).
    """
    S = nonterminal("S")
    A, B, C = nonterminal("A"), nonterminal("B"), nonterminal("C")
    Ap, Bp, Cp = nonterminal("A'"), nonterminal("B'"), nonterminal("C'")
    Bpp = nonterminal("B''")
    F = nonterminal("F")
    a, b = terminal("a"), terminal("b")
    p1 = (
        Rule(A, (a, Ap, a)),
        Rule(A, (a, b, a)),
        Rule(B, (a, Bp, a)),
        Rule(B, (Bpp,)),
    )
    p2 = (
        Rule(Bp, (B,)),
        Rule(C, (a, Cp, a)),
        Rule(A, (F,)),
        Rule(Bpp, (a, b, a)),
        Rule(C, (a, b, a)),
    )
    p3 = (
        Rule(S, (b, Ap, b, B, b, C, b)),
        Rule(Cp, (C,)),
        Rule(Ap, (A,)),
        Rule(Bp, (F,)),
    )
    return _system(S, (p1, p2, p3), "s3_cd3")


def build_snk_cdgs(n: int, k: int, variant: str = VARIANT_EXACTLY) -> CdSystem:
    """System generating b(a^i b)^{2nk}, i >= 1.

    The exactly variant has n+1 components (a control component plus one
    per block group) and runs in mode (t & =k+1); the at-most variant
    splits each block component into its growing and terminating halves,
    giving 2n+1 components for mode (t & <=k+1).

    Beside the control cycle that starts in the growing phase, the start
    chain can also enter the terminating phase directly, which contributes
    the i = 1 words.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be positive")
    _check_variant(variant)
    a, b = terminal("a"), terminal("b")
    S = [nonterminal("S__%d" % i) for i in range(0, k + 1)]
    q0 = {i: nonterminal("q%d__0" % i) for i in range(1, n + 1)}
    q1 = {i: nonterminal("q%d__1" % i) for i in range(1, n + 1)}
    t0 = {i: nonterminal("t%d__0" % i) for i in range(1, n + 1)}
    tp = {
        (i, j): nonterminal("t%d'__%d" % (i, j))
        for i in range(1, n + 1)
        for j in range(0, k + 1)
    }
    A0 = {j: nonterminal("A%d__0" % j) for j in range(1, n * k + 1)}
    A1 = {j: nonterminal("A%d__1" % j) for j in range(1, n * k + 1)}

    blocks: Form = ()
    for j in range(1, n * k + 1):
        blocks += (A0[j], b)

    p0: List[Rule] = [Rule(S[0], (S[1],))]
    for i in range(1, k):
        p0.append(Rule(S[i], (S[i + 1],)))
    p0.append(Rule(S[k], (q0[1],) + blocks))
    p0.append(Rule(S[k], (t0[1],) + blocks))
    for j in range(1, n * k + 1):
        p0.append(Rule(A1[j], (A0[j],)))
    for i in range(1, n):
        p0.append(Rule(q1[i], (q0[i + 1],)))
    p0.append(Rule(q1[n], (q0[1],)))
    p0.append(Rule(q1[n], (t0[1],)))
    for i in range(1, n + 1):
        for j in range(0, k):
            p0.append(Rule(tp[(i, j)], (tp[(i, j + 1)],)))
    for i in range(1, n):
        p0.append(Rule(tp[(i, k)], (t0[i + 1],)))
    p0.append(Rule(tp[(n, k)], (b,)))

    grow_parts: List[Tuple[Rule, ...]] = []
    term_parts: List[Tuple[Rule, ...]] = []
    for i in range(1, n + 1):
        lo, hi = (i - 1) * k + 1, i * k
        grow: List[Rule] = [Rule(q0[i], (q1[i],))]
        for j in range(lo, hi + 1):
            grow.append(Rule(A0[j], (a, A1[j], a)))
        term: List[Rule] = [Rule(t0[i], (tp[(i, 0)],))]
        for j in range(lo, hi + 1):
            term.append(Rule(A0[j], (a, b, a)))
        grow_parts.append(tuple(grow))
        term_parts.append(tuple(term))

    if variant == VARIANT_EXACTLY:
        components = [tuple(p0)] + [
            grow_parts[i] + term_parts[i] for i in range(n)
        ]
    else:
        components = [tuple(p0)]
        for i in range(n):
            components.append(grow_parts[i])
            components.append(term_parts[i])
    return _system(S[0], components, "snk_n%d_k%d_%s" % (n, k, variant))


def snk_mode(k: int, variant: str = VARIANT_EXACTLY) -> Mode:
    """The derivation mode the block-pump system is meant to run in."""
    _check_variant(variant)
    if variant == VARIANT_EXACTLY:
        return t_and(exactly(k + 1))
    return t_and(at_most(k + 1))


# ---------------------------------------------------------------------------
# Prolongation
# ---------------------------------------------------------------------------


def prolong(g: CdSystem, ell: int) -> CdSystem:
    """Slow every rule down by a factor of `ell` with fresh unit chains.

    Each rule A -> w of component i becomes a chain of ell rules through
    per-(component, rule, stage) intermediates, so a started chain can only
    finish in that rule's right-hand side; under the t-conjunct this forces
    chain completion.  A system for mode (t & D k) then works in mode
    (t & D (ell*k)).  ell = 1 returns the system unchanged.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    if ell == 1:
        return g
    taken = {s.name for s in g.alphabet()}
    new_nts = set(g.nonterminals)
    components: List[Tuple[Rule, ...]] = []
    for i, comp in enumerate(g.components, start=1):
        rules: List[Rule] = []
        for j, rule in enumerate(comp, start=1):
            stages = [
                nonterminal(_fresh("%s__%d_%d_%d" % (rule.lhs.name, i, j, s), taken))
                for s in range(1, ell)
            ]
            new_nts.update(stages)
            chain = [rule.lhs] + stages
            for s in range(len(chain) - 1):
                rules.append(Rule(chain[s], (chain[s + 1],)))
            rules.append(Rule(chain[-1], rule.rhs))
        components.append(tuple(rules))
    return _checked(
        CdSystem(
            nonterminals=frozenset(new_nts),
            terminals=g.terminals,
            axiom=g.axiom,
            components=tuple(components),
            lambda_free=g.lambda_free,
            name=(g.name + "_x%d" % ell) if g.name else "prolonged_x%d" % ell,
        )
    )


# ---------------------------------------------------------------------------
# NSF programmed grammar -> CD grammar system
# ---------------------------------------------------------------------------

# nsf_check depth used to establish NSF before simulating a programmed grammar
NSF_DEPTH = 16


def _fi_parameter(target: Mode) -> Optional[int]:
    """Step parameter of a mode from the finite-index-compatible set: a
    mode of D whose step window has a positive ``lo`` or sets ``t``.  It is
    ``lo``, else the finite ``hi``, else None for the bare t-mode."""
    if is_in_mode_set_d(target):
        lo, hi, t = mode_window(target)
        if lo or t:
            return lo or (hi if hi < math.inf else None)
    raise ValueError("mode %r is not usable for the NSF simulation" % (target,))


def nsf_programmed_to_cdgs(pg: ProgrammedGrammar, m: int, target: Mode) -> CdSystem:
    """Simulate an NSF programmed grammar of index <= m by a CD system.

    One component per (label p, successor q) pair renames the state tag of
    every tracked nonterminal from p to q and replaces the rewritten symbol
    (through a counter chain when fewer than m nonterminals are present, so
    the component always makes exactly m steps); an initialization
    component unfolds the axiom.  Labels with an empty success field can
    never be applied under the programmed semantics and get no component.
    Appearance checking is not simulated: a grammar with a non-empty
    failure field raises ValueError, as its system would drop those steps.

    The returned system is meant to run with `target`; a target parameter
    that is a multiple of m is realized by composing with `prolong`.
    """
    if m < 1:
        raise ValueError("m must be positive")
    checking = " ".join(p for p in pg.labels if pg.failure[p])
    if checking:
        raise ValueError("appearance checking is not simulated: label(s) %s have a failure field" % checking)
    report = nsf_check(pg, NSF_DEPTH)
    if not report.holds:
        raise ValueError("not in NSF: %s" % "; ".join(d for _, d in report.violations))
    counts = report.inferred_counts
    param = _fi_parameter(target)
    if param is not None:
        if param < m or param % m != 0:
            raise ValueError(
                "target parameter %d is not a multiple of the index bound %d"
                % (param, m)
            )

    taken = {s.name for s in pg.terminals}
    tagged: Dict[Tuple[Symbol, str], Symbol] = {}
    for nt in sorted(pg.nonterminals):
        for p in pg.labels:
            tagged[(nt, p)] = nonterminal(_fresh("%s__at_%s" % (nt.name, p), taken))
    counter: Dict[Tuple[int, Symbol], Symbol] = {}
    for nt in sorted(pg.nonterminals):
        for j in range(1, m + 1):
            counter[(j, nt)] = nonterminal(_fresh("%s__ctr_%d" % (nt.name, j), taken))

    def homomorphic(rhs: Form, q: str) -> Form:
        return tuple(s if s.is_terminal() else tagged[(s, q)] for s in rhs)

    components: List[Tuple[Rule, ...]] = []

    # initialization: unfold the axiom into the start state(s) through a
    # private chain (private so no other component is applicable at the
    # axiom, keeping the 0-or-exactly-m step discipline)
    init_chain = [
        nonterminal(_fresh("%s__init_%d" % (pg.axiom.name, j), taken))
        for j in range(1, m + 1)
    ]
    init: List[Rule] = []
    for j in range(m - 1):
        init.append(Rule(init_chain[j], (init_chain[j + 1],)))
    start_labels = [
        p for p in pg.labels if counts.get(p, {}).get(pg.axiom, 0) == 1
    ]
    for p in start_labels:
        init.append(Rule(init_chain[-1], (tagged[(pg.axiom, p)],)))
    components.append(tuple(init))

    for p in pg.labels:
        rule = pg.rule_of[p]
        vec = counts.get(p, {})
        n_present = sum(vec.values())
        if n_present > m:
            raise ValueError("index exceeds m at label %s" % p)
        for q in sorted(pg.success[p]):
            comp: List[Rule] = []
            for nt in sorted(pg.nonterminals):
                if nt != rule.lhs:
                    comp.append(Rule(tagged[(nt, p)], (tagged[(nt, q)],)))
            target_rhs = homomorphic(rule.rhs, q)
            if n_present == m:
                comp.append(Rule(tagged[(rule.lhs, p)], target_rhs))
            else:
                gap = m - n_present
                comp.append(Rule(tagged[(rule.lhs, p)], (counter[(1, rule.lhs)],)))
                for j in range(1, gap):
                    comp.append(
                        Rule(counter[(j, rule.lhs)], (counter[(j + 1, rule.lhs)],))
                    )
                comp.append(Rule(counter[(gap, rule.lhs)], target_rhs))
            components.append(tuple(comp))

    system = CdSystem(
        nonterminals=frozenset(tagged.values())
        | frozenset(counter.values())
        | frozenset(init_chain),
        terminals=pg.terminals,
        axiom=init_chain[0],
        components=tuple(components),
        lambda_free=pg.lambda_free,
        name=(pg.name + "_cdgs") if pg.name else "nsf_cdgs",
    )
    system = _checked(system)
    if param is not None and param > m:
        system = prolong(system, param // m)
    return system
