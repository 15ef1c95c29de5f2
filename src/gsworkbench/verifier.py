"""Reference languages, bounded-equivalence oracle and structural checks.

The reference generators are closed-form expansions, independent of the
derivation engine, so language-preservation claims about grammar
constructions can be checked differentially at desk scale.  Non-membership
beyond the bound is never claimed: a passing check is evidence, not proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .engine import (
    Bounds,
    BoundedLanguage,
    Word,
    _bfs,
    _compiled,
    indexed_language,
    length_lex,
    make_language,
    word_index,  # re-exported: the benchmark's tracer patches this binding
)
from .model import ProgrammedGrammar, form_text


# ---------------------------------------------------------------------------
# Reference languages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReferenceLanguage:
    """A closed-form word-set description.

    kinds:
      finite        -- an explicit word set (``words`` parameter)
      an_bn         -- a^n b^n, n >= 1
      equal_powers  -- a1^n a2^n ... a_{k+1}^n, n >= 1 (``k`` parameter)
      block_pump    -- b (a^i b)^{2m}, i >= 1 (``m`` parameter)
      two_block     -- a^n b^n a^m b^m, n, m >= 1
    """

    kind: str
    k: int = 0
    words: Tuple[Word, ...] = ()

    def __post_init__(self):
        if self.kind not in ("finite", "an_bn", "equal_powers", "block_pump", "two_block"):
            raise ValueError("unknown reference language kind %r" % self.kind)
        if self.kind in ("equal_powers", "block_pump") and self.k < 1:
            raise ValueError("parameter must be positive")
        object.__setattr__(self, "words", tuple(tuple(w) for w in self.words))


def finite(words) -> ReferenceLanguage:
    return ReferenceLanguage("finite", words=tuple(tuple(w) for w in words))


def an_bn() -> ReferenceLanguage:
    return ReferenceLanguage("an_bn")


def equal_powers(k: int) -> ReferenceLanguage:
    """{a1^n a2^n ... a_{k+1}^n | n >= 1} over terminals a1..a_{k+1}."""
    return ReferenceLanguage("equal_powers", k=k)


def block_pump(m: int) -> ReferenceLanguage:
    """{b (a^i b)^{2m} | i >= 1} over terminals a, b."""
    return ReferenceLanguage("block_pump", k=m)


def two_block() -> ReferenceLanguage:
    """{a^n b^n a^m b^m | n, m >= 1}."""
    return ReferenceLanguage("two_block")


def expand(ref: ReferenceLanguage, max_len: int) -> BoundedLanguage:
    """Exact closed-form expansion of all words of length <= max_len."""
    bounds = Bounds.for_words(max_len)
    words: List[Word] = []
    if ref.kind == "finite":
        words = [w for w in ref.words if len(w) <= max_len]
    elif ref.kind == "an_bn":
        n = 1
        while 2 * n <= max_len:
            words.append(("a",) * n + ("b",) * n)
            n += 1
    elif ref.kind == "equal_powers":
        k = ref.k
        names = tuple("a%d" % i for i in range(1, k + 2))
        n = 1
        while n * (k + 1) <= max_len:
            word: Word = ()
            for name in names:
                word += (name,) * n
            words.append(word)
            n += 1
    elif ref.kind == "block_pump":
        m = ref.k
        i = 1
        while 1 + 2 * m * (i + 1) <= max_len:
            words.append(("b",) + (("a",) * i + ("b",)) * (2 * m))
            i += 1
    elif ref.kind == "two_block":
        n = 1
        while 2 * n + 2 <= max_len:
            m = 1
            while 2 * n + 2 * m <= max_len:
                words.append(("a",) * n + ("b",) * n + ("a",) * m + ("b",) * m)
                m += 1
            n += 1
    return make_language(words, bounds)


def member(ref: ReferenceLanguage, word) -> bool:
    """Per-word membership predicate, implemented separately from expand."""
    w = tuple(word)
    if not w:
        return False
    if ref.kind == "finite":
        return w in ref.words
    if ref.kind == "an_bn":
        n = len(w) // 2
        return len(w) == 2 * n and w == ("a",) * n + ("b",) * n and n >= 1
    if ref.kind == "equal_powers":
        k = ref.k
        if len(w) % (k + 1) != 0:
            return False
        n = len(w) // (k + 1)
        if n < 1:
            return False
        for j in range(k + 1):
            block = w[j * n : (j + 1) * n]
            if any(s != "a%d" % (j + 1) for s in block):
                return False
        return True
    if ref.kind == "block_pump":
        m = ref.k
        if w[0] != "b":
            return False
        rest = w[1:]
        # split the tail at each 'b'; expect 2m runs of equal positive length
        runs = []
        run = 0
        for s in rest:
            if s == "a":
                run += 1
            elif s == "b":
                runs.append(run)
                run = 0
            else:
                return False
        if run != 0:  # must end on 'b'
            return False
        return len(runs) == 2 * m and len(set(runs)) == 1 and runs[0] >= 1
    if ref.kind == "two_block":
        # a^n b^n a^m b^m: parse four alternating runs
        runs = []
        cur, count = None, 0
        for s in w:
            if s not in ("a", "b"):
                return False
            if s == cur:
                count += 1
            else:
                if cur is not None:
                    runs.append((cur, count))
                cur, count = s, 1
        runs.append((cur, count))
        if len(runs) != 4:
            return False
        (s1, n1), (s2, n2), (s3, n3), (s4, n4) = runs
        return (
            (s1, s2, s3, s4) == ("a", "b", "a", "b")
            and n1 == n2 >= 1
            and n3 == n4 >= 1
        )
    raise ValueError("unknown reference language kind %r" % ref.kind)


# ---------------------------------------------------------------------------
# Bounded equality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityReport:
    equal: bool
    missing: Tuple[Word, ...]  # in the first language only
    extra: Tuple[Word, ...]  # in the second language only

    def lines(self) -> List[str]:
        out = []
        for w in self.missing:
            out.append("MISSING %s" % " ".join(w))
        for w in self.extra:
            out.append("EXTRA %s" % " ".join(w))
        return out


def bounded_equal(l1: BoundedLanguage, l2: BoundedLanguage) -> EqualityReport:
    """Compare two λ-normalized bounded languages computed at the same cap."""
    if l1.bounds.max_word_len != l2.bounds.max_word_len:
        raise ValueError("bounded languages computed under different word caps")
    s1, s2 = l1.word_set(), l2.word_set()
    return EqualityReport(
        equal=s1 == s2,
        missing=length_lex(s1 - s2),
        extra=length_lex(s2 - s1),
    )


# ---------------------------------------------------------------------------
# NSF checking
# ---------------------------------------------------------------------------


@dataclass
class NsfReport:
    """Outcome of the bounded nonterminal-separation-form check.

    ``violations`` holds (item, detail) pairs for the three properties:
    1 unique start production, 2 per-label fixed nonterminal vector,
    3 at most one occurrence of each nonterminal in any reachable form.
    ``inferred_counts`` is the function f recovered from property 2.
    """

    violations: List[Tuple[int, str]] = field(default_factory=list)
    inferred_counts: Dict[str, Dict] = field(default_factory=dict)
    inconclusive: bool = False

    @property
    def holds(self) -> bool:
        return not self.violations

    def lines(self) -> List[str]:
        return ["VIOLATION %d %s" % (item, detail) for item, detail in self.violations]


def nsf_check(pg: ProgrammedGrammar, depth: int) -> NsfReport:
    """Check the three NSF properties by bounded exploration.

    Exploration runs from (axiom, r) for every label r, like enumeration,
    up to `depth` derivation steps, as a breadth-first search that does not
    expand states `depth` steps from a start; ``inconclusive`` is set when
    such a state was reached.  It walks the engine's programmed search space
    without a form cap, on encoded forms, and decodes only the forms it
    reports.
    """
    report = NsfReport()
    axiom = pg.axiom
    start_mentions = [
        p
        for p in pg.labels
        if pg.rule_of[p].lhs == axiom or axiom in pg.rule_of[p].rhs
    ]
    if len(start_mentions) != 1:
        report.violations.append(
            (1, "start symbol appears in %d productions (%s)"
             % (len(start_mentions), " ".join(start_mentions) or "-"))
        )
    elif pg.rule_of[start_mentions[0]].lhs != axiom:
        report.violations.append(
            (1, "the only production mentioning the start symbol does not rewrite it")
        )

    code, space, _ = _compiled(pg, None)
    starts, steps = space(math.inf)[:2]
    decode = code.decoder()
    # every start is on level 0 before the search: an appearance-checking
    # step can reach another start before that start is visited
    level = {state: 0 for state, _ in starts}
    applied_vectors: Dict[str, Tuple[int, ...]] = {}
    seen_forms = {form for _, form in starts}
    # in name order, so the report does not depend on the string hash seed
    nonterminals = sorted(pg.nonterminals)
    chars = [code.char[n] for n in nonterminals]
    lhs = {p: code.char[pg.rule_of[p].lhs] for p in pg.labels}

    def successors(state):
        form, label = state
        n = level[state]
        if n >= depth:
            return (), False
        if lhs[label] in form:
            vec = tuple(map(form.count, chars))
            if applied_vectors.setdefault(label, vec) != vec:
                report.violations.append(
                    (2, "label %s applied to forms with different nonterminal "
                        "vectors" % label)
                )
        edges, _ = steps(state)
        for st, y, _ in edges:
            level.setdefault(st, n + 1)
            if y not in seen_forms:
                seen_forms.add(y)
                for sym, c in zip(nonterminals, map(y.count, chars)):
                    if c > 1:
                        report.violations.append(
                            (3, "nonterminal %s occurs %d times in form %s"
                             % (sym.name, c, form_text(decode(y))))
                        )
        return edges, False

    _bfs(starts, successors)
    report.inconclusive = any(n >= depth for n in level.values())
    report.violations = list(dict.fromkeys(report.violations))  # dedupe, keep order
    report.inferred_counts = {
        label: dict(zip(nonterminals, vec)) for label, vec in applied_vectors.items()
    }
    return report


# ---------------------------------------------------------------------------
# Index-bound certification
# ---------------------------------------------------------------------------


@dataclass
class IndexCertificate:
    bound: int
    checked_words: int
    counterexamples: List[Tuple[Word, int]] = field(default_factory=list)
    truncated: bool = False

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def lines(self) -> List[str]:
        return [
            "VIOLATION index-bound %s %d" % (" ".join(w), idx)
            for w, idx in self.counterexamples
        ]


def certify_index_bound(grammar, bound: int, bounds: Bounds, mode=None) -> IndexCertificate:
    """Check that every word found within bounds has word index <= bound.

    One exhaustive index search finds the words and gives their indices
    (`indexed_language`); on a CD or hybrid system it walks whole turns and
    prices the turns on each nonterminal skeleton once, and on a programmed
    grammar it walks whole rewrites and pushes no appearance-checking step.
    A pass is desk-scale evidence, not a proof: only words and derivations
    inside the bounds are examined.
    """
    language, indices = indexed_language(grammar, bounds, mode=mode)
    cert = IndexCertificate(bound, len(language), truncated=language.truncated)
    for word in language.words:
        if indices[word] > bound:
            cert.counterexamples.append((word, indices[word]))
    return cert
