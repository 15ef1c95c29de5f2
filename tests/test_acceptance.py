"""Acceptance suite: the nine primary criteria.

A construction's language is checked in two places: on the paper's named
systems in `tests/test_acceptance.py`, and on generated inputs in
`tests/test_claims.py`.  `tests/test_constructions.py` checks the
constructions' structure, names, alphabets and argument errors, and keeps
the strict xfail of ROADMAP item 12.

Each criterion is one test (or one parametrized test) asserting exact set
equality against an independent closed-form oracle, plus the stated
runtime ceiling.  Criterion 1 is split: the (t & =k) half holds for k = 2
and 3, the (t & <=2) half is asserted as stated and fails because the
two-component system provably overgenerates in the at-most mode
(components may stop after one step mid-round, e.g. S1 =>(1) A1 A2
=>(2) a1 A1' a2 a3 =>(1) a1 A1 a2 a3 =>(2) a1 a1 a2 a3, a word outside
the reference language); see the repository notes for the analysis.
"""

import random
import time

import pytest

from collections import deque

from gsworkbench import constructions as C
from gsworkbench import verifier as V
from gsworkbench.engine import (
    Bounds,
    enumerate_grammar,
    mode_predicate,
    mode_step,
    one_step,
    validate_trace,
)
from gsworkbench.model import (
    Rule,
    STAR,
    T_MODE,
    at_least,
    at_most,
    between,
    conj,
    exactly,
    nonterminal,
    t_and,
    terminal,
)

from conftest import cf_bounded, index2_cf_grammars, make_pg_abc, words_of


def timed(limit):
    start = time.monotonic()

    def check():
        assert time.monotonic() - start < limit

    return check


# -- criterion 1: Example 1 fidelity ---------------------------------------


@pytest.mark.parametrize("k, max_len", [(2, 9), (3, 12)])
def test_criterion_1_example1_exactly(k, max_len):
    done = timed(5.0)
    got = words_of(C.build_example1(k), t_and(exactly(k)), max_len)
    assert got == set(V.expand(V.equal_powers(k), max_len).words)
    done()


@pytest.mark.xfail(
    strict=True,
    reason="stated criterion does not hold: the Example 1 system "
    "overgenerates under (t & <=2); a component may hand back after a "
    "single step, so one block grows while another does not and words "
    "with unequal block lengths are derived",
)
def test_criterion_1_example1_atmost():
    done = timed(5.0)
    got = words_of(C.build_example1(2), t_and(at_most(2)), 9)
    assert got == set(V.expand(V.equal_powers(2), 9).words)
    done()


# -- criterion 2: programmed-grammar differential ---------------------------


@pytest.mark.parametrize("variant,mode", [
    ("exactly", t_and(exactly(2))),
    ("atmost", t_and(at_most(2))),
])
def test_criterion_2_cd_to_programmed(variant, mode):
    done = timed(30.0)
    g = C.build_example1(2)
    pg = C.cd_to_programmed(g, 2, variant)
    assert words_of(pg, None, 9) == words_of(g, mode, 9)
    cert = V.certify_index_bound(pg, 4, Bounds.for_words(9))
    assert cert.passed and not cert.truncated
    done()


# -- criterion 3: block-pump systems ----------------------------------------


def test_criterion_3_snk():
    done = timed(60.0)
    got11 = words_of(C.build_snk_cdgs(1, 1, "exactly"), t_and(exactly(2)), 11)
    assert got11 == set(V.expand(V.block_pump(1), 11).words)
    got21 = words_of(C.build_snk_cdgs(2, 1, "exactly"), t_and(exactly(2)), 13)
    assert got21 == set(V.expand(V.block_pump(2), 13).words)
    g_le = C.build_snk_cdgs(1, 1, "atmost")
    assert g_le.degree == 3
    assert words_of(g_le, t_and(at_most(2)), 11) == got11
    done()


# -- criterion 4: construction round-trips -----------------------------------
# the finite and linear round-trips, on every small input and on drawn
# ones, are rows of tests/test_claims.py


@pytest.mark.parametrize("src", index2_cf_grammars(), ids=range(5))
def test_criterion_4_finite_linear_cf_roundtrips(src):
    g = C.cf_indexk_to_cd2(src)
    want = cf_bounded(src.rules, src.axiom, 8)
    for cmp in (exactly, at_most):
        assert words_of(g, t_and(cmp(2)), 8) == want


# -- criterion 5: the two corollary grammars ---------------------------------


def test_criterion_5_anbnambm_and_s3():
    g = C.build_anbnambm()
    assert g.degree == 3
    got = words_of(g, t_and(exactly(1)), 8)
    assert got == set(V.expand(V.two_block(), 8).words)
    got = words_of(C.build_s3_cd3(), t_and(exactly(2)), 13)
    assert got == set(V.expand(V.block_pump(3), 13).words)


# -- criterion 6: prolongation lattice ---------------------------------------


@pytest.mark.parametrize("case, cmp, ell", [
    pytest.param(case, exactly, ell, id="%s-%d" % (case, ell))
    for case in ("example1", "anbnambm", "snk11") for ell in (2, 3)
] + [pytest.param("example1", at_most, 2, id="example1-atmost-2")])
def test_criterion_6_prolongation(case, cmp, ell):
    g, k, max_len = {
        "example1": (C.build_example1(2), 2, 9),
        "anbnambm": (C.build_anbnambm(), 1, 8),
        "snk11": (C.build_snk_cdgs(1, 1, "exactly"), 2, 11),
    }[case]
    base = words_of(g, t_and(cmp(k)), max_len)
    assert words_of(C.prolong(g, ell), t_and(cmp(ell * k)), max_len) == base


# -- criterion 7: NSF simulation ---------------------------------------------


def test_criterion_7_nsf_simulation(pg_abc):
    # depth 20 exhausts every reachable (form, label) state over forms of
    # length <= 9 (the longest such derivation has 14 steps)
    report = V.nsf_check(pg_abc, 20)
    assert report.holds

    g = C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(3)))
    got = words_of(g, t_and(exactly(3)), 9)
    assert got == {tuple("abc"), tuple("aabbcc"), tuple("aaabbbccc")}

    # instrumented step discipline: explore every reachable inter-turn
    # form; each component either has no applicable rule (0 steps) or can
    # complete a full 3-step turn, and every accepted turn took 3 steps
    mode = t_and(exactly(3))
    bounds = Bounds.for_words(9)
    seen = {(g.axiom,)}
    frontier = deque(seen)
    while frontier:
        x = frontier.popleft()
        for comp in g.components:
            step = mode_step(x, comp, mode, bounds)
            if one_step(x, comp) and len(x) <= bounds.max_form_len - 2:
                assert step.results or step.length_pruned
            for y, path in step.results.items():
                assert len(path) == 3
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)


# -- criterion 8: mode algebra on 1000 random triples ------------------------


def test_criterion_8_mode_algebra():
    rng = random.Random(8)
    nts = [nonterminal(n) for n in "SAB"]
    ts = [terminal(n) for n in "ab"]
    pool = nts + ts

    def random_form():
        return tuple(rng.choice(pool) for _ in range(rng.randint(0, 6)))

    def random_ruleset():
        out = []
        for _ in range(rng.randint(1, 4)):
            rhs = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            out.append(Rule(rng.choice(nts), rhs))
        return tuple(out)

    def random_basic():
        ctor = rng.choice([at_most, exactly, at_least])
        return ctor(rng.randint(1, 4))

    passes = 0
    for _ in range(1000):
        y, rs, m = random_form(), random_ruleset(), rng.randint(0, 6)
        k = rng.randint(1, 4)
        assert mode_predicate(between(k, k), m, rs, y) == mode_predicate(
            exactly(k), m, rs, y
        )
        f = random_basic() if rng.random() < 0.7 else rng.choice([STAR, T_MODE])
        assert mode_predicate(conj(STAR, f), m, rs, y) == mode_predicate(f, m, rs, y)
        assert mode_predicate(conj(f, STAR), m, rs, y) == mode_predicate(f, m, rs, y)
        inner = random_basic()
        assert mode_predicate(t_and(inner), m, rs, y) == (
            mode_predicate(T_MODE, m, rs, y) and mode_predicate(inner, m, rs, y)
        )
        passes += 1
    assert passes == 1000


# -- criterion 9: every emitted trace re-validates ----------------------------


def corpus():
    pg_abc = make_pg_abc()
    yield C.build_example1(2), t_and(exactly(2)), 9
    yield C.build_example1(2), t_and(at_most(2)), 9
    yield C.cd_to_programmed(C.build_example1(2), 2, "exactly"), None, 9
    yield C.cd_to_programmed(C.build_example1(2), 2, "atmost"), None, 9
    yield C.build_snk_cdgs(1, 1, "exactly"), t_and(exactly(2)), 11
    yield C.build_snk_cdgs(2, 1, "exactly"), t_and(exactly(2)), 13
    yield C.build_snk_cdgs(1, 1, "atmost"), t_and(at_most(2)), 11
    yield C.build_anbnambm(), t_and(exactly(1)), 8
    yield C.build_s3_cd3(), t_and(exactly(2)), 13
    yield C.prolong(C.build_anbnambm(), 2), t_and(exactly(2)), 8
    yield C.prolong(C.build_anbnambm(), 3), t_and(exactly(3)), 8
    yield pg_abc, None, 9
    yield C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(3))), t_and(exactly(3)), 9


def test_criterion_9_traces_revalidate():
    checked = 0
    for grammar, mode, max_len in corpus():
        res = enumerate_grammar(
            grammar, Bounds.for_words(max_len), mode=mode, with_traces=True
        )
        assert set(res.traces) == set(res.language.words)
        for word, trace in res.traces.items():
            assert validate_trace(grammar, trace, mode) == [], (grammar.name, word)
            assert tuple(s.name for s in trace.final_form()) == word
            checked += 1
    assert checked > 30
