"""The constructions' claims, each checked on every small input.

Each row of `CLAIMS` is one claim: on every input (x, k), a source x and
the construction's step parameter k, the output of `build` run in
`mode(k)` (None for a programmed grammar) has `degree` components (labels,
for a programmed grammar) and, at word length `max_len`, the bounded
language `source` of x.

A construction's language is checked in two places: on the paper's named
systems in `tests/test_acceptance.py`, and on generated inputs in
`tests/test_claims.py`.  `tests/test_constructions.py` checks the
constructions' structure, names, alphabets and argument errors, and keeps
the strict xfail of ROADMAP item 12.

The small inputs are every λ-free one-component CD system over the
nonterminals {S, A} and the terminals {a, b}, with axiom S and one or two
rules whose right-hand side has one or two symbols and which are not
``X -> X`` (its alphabets are the symbols of its rules and axiom), every
set of one or two words over {a, b} of length 1 to 3, and the block
pump's n, k in {1, 2}.  A row whose claim holds also checks inputs drawn
at a length of their own (`drawn`).  A row whose claim is known to fail
is a strict xfail that names its ROADMAP item and draws nothing, since a
drawn input may miss the defect.  The finite and context-free oracles
(the word set, `conftest.cf_bounded`) do not use the engine.
"""

from functools import partial
from itertools import combinations, product
from typing import Callable, List, NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from gsworkbench import constructions as C
from gsworkbench import verifier as V
from gsworkbench.model import (
    ProgrammedGrammar,
    Rule,
    at_most,
    exactly,
    nonterminal,
    nonterminal_count,
    t_and,
    terminal,
)

from conftest import cd_systems, cf_bounded, make_pg_abc, words_of

S, A = nonterminal("S"), nonterminal("A")
a, b = terminal("a"), terminal("b")
MAX_LEN = 6
VARIANTS = ((exactly, "exactly"), (at_most, "atmost"))


def small_rules():
    """The 38 rules: a lhs in {S, A}, a rhs of one or two symbols, no ``X -> X``."""
    symbols = (S, A, a, b)
    rhss = [(x,) for x in symbols] + list(product(symbols, repeat=2))
    return [Rule(lhs, rhs) for lhs in (S, A) for rhs in rhss if rhs != (lhs,)]


def one_component_systems():
    """The 741 systems: 38 of one rule and 703 of two."""
    rules = small_rules()
    return [C._system(S, (comp,), "") for size in (1, 2) for comp in combinations(rules, size)]


def as_cf(g, kind, *index):
    """A one-component system's rules as a context-free grammar of `kind`."""
    return kind(g.nonterminals, g.terminals, g.axiom, g.components[0], *index)


SYSTEMS = one_component_systems()
# the 465 systems whose rules have at most one nonterminal on the right
LINEAR = [as_cf(g, C.LinearGrammar) for g in SYSTEMS
          if all(nonterminal_count(r.rhs) <= 1 for r in g.components[0])]
# the 427 systems in which every nonterminal has a rule
CF = [g for g in SYSTEMS if g.nonterminals == {r.lhs for r in g.components[0]}]
WORDS = [w for n in (1, 2, 3) for w in product("ab", repeat=n)]
# the 105 sets of one or two of the 14 words over {a, b} of length 1 to 3
WORD_SETS = [frozenset(ws) for size in (1, 2) for ws in combinations(WORDS, size)]


@st.composite
def linear_grammars(draw):
    """One to four nonterminals, each with one to three rules whose rhs is a
    nonterminal between up to two terminals on each side, or one to four
    terminals."""
    nts = [nonterminal("N%d" % i) for i in range(draw(st.integers(1, 4)))]
    ends = st.lists(st.sampled_from((a, b)), max_size=2).map(tuple)
    rhss = st.one_of(
        st.builds(lambda left, nt, right: left + (nt,) + right, ends, st.sampled_from(nts), ends),
        st.lists(st.sampled_from((a, b)), min_size=1, max_size=4).map(tuple),
    )
    rules = [Rule(nt, rhs) for nt in nts for rhs in draw(st.lists(rhss, min_size=1, max_size=3))]
    return C.LinearGrammar(frozenset(nts), frozenset((a, b)), nts[0], tuple(rules))


word_sets = st.frozensets(
    st.lists(st.sampled_from("ab"), min_size=1, max_size=4).map(tuple), min_size=1, max_size=5)


class Claim(NamedTuple):
    inputs: List[Tuple]  # every small input (x, k)
    max_len: int  # the word length the small inputs are checked at
    source: Callable  # (x, k, max_len) -> the source's bounded language
    build: Callable  # (x, k) -> the construction's output
    mode: Callable  # k -> the mode the output runs in
    degree: Callable  # (x, k) -> the output's components, or labels
    drawn: Optional[Tuple] = None  # (a strategy of inputs, the length they are checked at)


def hybrid(cmp, factor=1):
    """k -> the mode (t & cmp(factor * k))."""
    return lambda k: t_and(cmp(factor * k))


def cd_source(cmp):
    """The language of a CD system run in (t & cmp(k))."""
    return lambda g, k, max_len: words_of(g, hybrid(cmp)(k), max_len)


DRAWN_CD = (st.tuples(cd_systems(), st.integers(1, 2)), 4)

CLAIMS = [
    pytest.param(Claim(
        [(g, 2) for g in SYSTEMS], MAX_LEN, cd_source(at_most),
        partial(C.cd_to_programmed, variant="atmost"), lambda k: None,
        lambda g, k: (k + 1) * sum(map(len, g.components)), DRAWN_CD), id="cd_to_programmed-atmost"),
    pytest.param(Claim(
        [(g, 2) for g in SYSTEMS], MAX_LEN, cd_source(exactly),
        partial(C.cd_to_programmed, variant="exactly"), lambda k: None,
        lambda g, k: (k + 1) * sum(map(len, g.components))),
        id="cd_to_programmed-exactly", marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: a derivation may end with a turn half "
            "done; the first of 213 systems that differ is S -> a")),
] + [
    pytest.param(Claim(
        [(g, k) for g in SYSTEMS], MAX_LEN, cd_source(cmp),
        lambda g, k, ell=ell: C.prolong(g, ell), hybrid(cmp, ell),
        lambda g, k: g.degree, DRAWN_CD), id="prolong-%d-%s" % (ell, name))
    for ell, k in ((2, 2), (3, 1)) for cmp, name in VARIANTS
] + [
    pytest.param(Claim(
        [(lg, 1) for lg in LINEAR], MAX_LEN, lambda lg, k, max_len: cf_bounded(lg.rules, lg.axiom, max_len),
        lambda lg, k: C.linear_to_cd2(lg), hybrid(cmp),
        lambda lg, k: 2, (st.tuples(linear_grammars(), st.just(1)), 8)), id="linear_to_cd2-%s" % name)
    for cmp, name in VARIANTS
] + [
    pytest.param(Claim(
        [(ws, k) for ws in WORD_SETS for k in (1, 2, 3)], MAX_LEN, lambda ws, k, max_len: set(ws),
        C.finite_to_cd1, hybrid(cmp),
        lambda ws, k: 1, (st.tuples(word_sets, st.integers(1, 3)), 8)), id="finite_to_cd1-%s" % name)
    for cmp, name in VARIANTS
] + [
    pytest.param(Claim(
        [(g, k) for g in CF for k in (1, 2, 3)], MAX_LEN,
        lambda g, k, max_len: cf_bounded(g.components[0], g.axiom, max_len, k),
        lambda g, k: C.cf_indexk_to_cd2(as_cf(g, C.IndexedCfGrammar, k)), hybrid(cmp),
        lambda g, k: 2), id="cf_indexk_to_cd2-%s" % name)
    for cmp, name in VARIANTS
] + [
    # at 25 = 1 + 6nk for n = k = 2, the largest system has two words
    pytest.param(Claim(
        [(n, k) for n in ns for k in (1, 2)], 25,
        lambda n, k, max_len: set(V.expand(V.block_pump(n * k), max_len).words),
        partial(C.build_snk_cdgs, variant=variant), partial(C.snk_mode, variant=variant),
        lambda n, k, per_group=per_group: per_group * n + 1),
        id="snk-%s-n%s" % (variant, "".join(map(str, ns))), marks=marks)
    # the exactly variant has one component per block group, the at-most one two
    for variant, ns, per_group, marks in (
        (C.VARIANT_EXACTLY, (1, 2), 1, ()),
        (C.VARIANT_ATMOST, (1,), 2, ()),
        (C.VARIANT_ATMOST, (2,), 2, pytest.mark.xfail(
            strict=True, reason="ROADMAP item 1: with n = 2 a block component may hand back "
            "without its group's control symbol; at length 25 snk(2, 1, atmost) gives 45 "
            "words against 5, and snk(2, 2, atmost) 6 against 2")),
    )
] + [
    # the target parameter k is m = 3 or a multiple of it, realized by `prolong`
    pytest.param(Claim(
        [(make_pg_abc(), 3), (make_pg_abc(), 6)], 9, lambda pg, k, max_len: words_of(pg, None, max_len),
        lambda pg, k: C.nsf_programmed_to_cdgs(pg, 3, t_and(exactly(k))), hybrid(exactly),
        lambda pg, k: 1 + sum(len(pg.success[p]) for p in pg.labels)), id="nsf_programmed_to_cdgs"),
]


def differs(claim, x, k, max_len):
    """How the construction's output on (x, k) breaks the claim, or None."""
    built = claim.build(x, k)
    degree = len(built.labels) if isinstance(built, ProgrammedGrammar) else built.degree
    if degree != claim.degree(x, k):
        return "degree %d, not %d" % (degree, claim.degree(x, k))
    got, want = words_of(built, claim.mode(k), max_len), claim.source(x, k, max_len)
    if got != want:
        return "extra %s, missing %s" % (sorted(got - want), sorted(want - got))
    return None


def test_the_inputs_are_every_small_system():
    sizes = len(small_rules()), len(SYSTEMS), len(LINEAR), len(CF), len(WORD_SETS)
    assert sizes == (38, 741, 465, 427, 105)


@pytest.mark.parametrize("claim", CLAIMS)
def test_a_claim_holds_on_every_small_system(claim):
    differ = [(x, k, why) for x, k in claim.inputs for why in [differs(claim, x, k, claim.max_len)] if why]
    assert not differ, "%d of %d inputs differ, the first %r at k = %d: %s" % (
        (len(differ), len(claim.inputs)) + differ[0])


@pytest.mark.parametrize("claim", [p for p in CLAIMS if p.values[0].drawn])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_a_claim_holds_on_drawn_inputs(claim, data):
    strategy, max_len = claim.drawn
    x, k = data.draw(strategy)
    assert differs(claim, x, k, max_len) is None
