"""The constructions' claims, each checked on every small input.

Each row of `CLAIMS` is one claim: the inputs, the mode a source runs in,
the construction, and the mode its output runs in (None for a programmed
grammar, which needs none).  The claim is that the output's bounded
language equals the source's, at word length `MAX_LEN`.

The inputs are every λ-free one-component CD system over the nonterminals
{S, A} and the terminals {a, b}, with axiom S and one or two rules whose
right-hand side has one or two symbols and which are not ``X -> X``; each
system's alphabets are the symbols of its rules and axiom.  A row whose
claim is known to fail is a strict xfail that names its ROADMAP item.
"""

from functools import partial
from itertools import combinations, product

import pytest

from gsworkbench import constructions as C
from gsworkbench.engine import Bounds, enumerate_grammar
from gsworkbench.model import STAR, Rule, at_most, exactly, nonterminal, nonterminal_count, t_and, terminal

S, A = nonterminal("S"), nonterminal("A")
a, b = terminal("a"), terminal("b")
MAX_LEN = 6


def small_rules():
    """The 38 rules: a lhs in {S, A}, a rhs of one or two symbols, no ``X -> X``."""
    symbols = (S, A, a, b)
    rhss = [(x,) for x in symbols] + list(product(symbols, repeat=2))
    return [Rule(lhs, rhs) for lhs in (S, A) for rhs in rhss if rhs != (lhs,)]


def one_component_systems():
    """The 741 systems: 38 of one rule and 703 of two."""
    rules = small_rules()
    return [C._system(S, (comp,), "") for size in (1, 2) for comp in combinations(rules, size)]


SYSTEMS = one_component_systems()
# the 465 systems whose rules have at most one nonterminal on the right
LINEAR = [g for g in SYSTEMS if all(nonterminal_count(r.rhs) <= 1 for r in g.components[0])]


def as_linear(g):
    return C.LinearGrammar(g.nonterminals, g.terminals, g.axiom, g.components[0])


CLAIMS = [
    pytest.param(SYSTEMS, t_and(at_most(2)), partial(C.cd_to_programmed, k=2, variant="atmost"), None,
                 id="cd_to_programmed-atmost"),
    pytest.param(SYSTEMS, t_and(exactly(2)), partial(C.cd_to_programmed, k=2, variant="exactly"), None,
                 id="cd_to_programmed-exactly", marks=pytest.mark.xfail(
                     strict=True, reason="ROADMAP item 1: a derivation may end with a turn half "
                     "done; the first of 213 systems that differ is S -> a")),
] + [
    pytest.param(SYSTEMS, t_and(cmp(k)), partial(C.prolong, ell=ell), t_and(cmp(ell * k)),
                 id="prolong-%d-%s" % (ell, mode_name))
    for ell, k in ((2, 2), (3, 1)) for cmp, mode_name in ((exactly, "exactly"), (at_most, "atmost"))
] + [
    pytest.param(LINEAR, STAR, lambda g: C.linear_to_cd2(as_linear(g)), t_and(cmp(1)),
                 id="linear_to_cd2-%s" % mode_name)
    for cmp, mode_name in ((exactly, "exactly"), (at_most, "atmost"))
]


def words_of(grammar, mode):
    return enumerate_grammar(grammar, Bounds.for_words(MAX_LEN), mode=mode).language.words


def test_the_inputs_are_every_small_system():
    assert (len(small_rules()), len(SYSTEMS), len(LINEAR)) == (38, 741, 465)


@pytest.mark.parametrize("inputs, source_mode, build, target_mode", CLAIMS)
def test_a_claim_holds_on_every_small_system(inputs, source_mode, build, target_mode):
    differ = [g for g in inputs if words_of(build(g), target_mode) != words_of(g, source_mode)]
    assert not differ, "%d of %d systems differ, the first %r" % (
        len(differ), len(inputs), differ[0].components[0])
