import random

import pytest

from gsworkbench import constructions as C
from gsworkbench import verifier as V
from gsworkbench.engine import Bounds, enumerate_grammar
from gsworkbench.model import (
    Rule,
    at_most,
    exactly,
    nonterminal,
    t_and,
    terminal,
    validate,
)

from conftest import cf_bounded

S = nonterminal("S")
A = nonterminal("A")
B = nonterminal("B")
a = terminal("a")
b = terminal("b")
c = terminal("c")


def words_of(grammar, mode, max_len):
    lang = enumerate_grammar(grammar, Bounds.for_words(max_len), mode=mode).language
    return set(lang.words)


class TestFiniteToCd1:
    def test_chain_and_both_modes(self):
        words = {("a", "b"), ("b",)}
        g = C.finite_to_cd1(words, 3)
        assert g.degree == 1
        assert words_of(g, t_and(exactly(3)), 8) == words
        assert words_of(g, t_and(at_most(3)), 8) == words

    def test_randomized(self):
        rng = random.Random(2024)
        for _ in range(20):
            words = {
                tuple(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 5))
            }
            k = rng.randint(1, 3)
            g = C.finite_to_cd1(words, k)
            assert words_of(g, t_and(exactly(k)), 8) == words

    def test_rejects_empty_word(self):
        with pytest.raises(ValueError):
            C.finite_to_cd1({()}, 1)

    def test_rejects_a_terminal_name_that_is_not_an_identifier(self):
        with pytest.raises(ValueError, match="'b#' is not an identifier"):
            C.finite_to_cd1({("a", "b#")}, 1)


def random_linear(rng, n):
    nts = [nonterminal("N%d" % i) for i in range(n)]
    ts = [a, b]
    rules = []
    for nt in nts:
        for _ in range(rng.randint(1, 3)):
            left = tuple(rng.choice(ts) for _ in range(rng.randint(0, 2)))
            right = tuple(rng.choice(ts) for _ in range(rng.randint(0, 2)))
            if rng.random() < 0.6:
                rhs = left + (rng.choice(nts),) + right
            else:
                rhs = left + right or (rng.choice(ts),)
            rules.append(Rule(nt, rhs))
    return C.LinearGrammar(frozenset(nts), frozenset(ts), nts[0], tuple(rules))


class TestLinearToCd2:
    def test_rejects_nonlinear(self):
        with pytest.raises(ValueError):
            C.LinearGrammar(
                frozenset({S, A}), frozenset({a}), S, (Rule(S, (A, A)),)
            )

    def test_structure(self):
        lg = C.LinearGrammar(
            frozenset({S}), frozenset({a, b}),
            S, (Rule(S, (a, S, b)), Rule(S, (a, b))),
        )
        g = C.linear_to_cd2(lg)
        assert g.degree == 2
        assert len(g.components[0]) == 1  # one priming rule per nonterminal
        assert len(g.components[1]) == 2  # one rule per source production

    def test_randomized_against_oracle(self):
        rng = random.Random(99)
        for _ in range(10):
            lg = random_linear(rng, rng.randint(1, 4))
            g = C.linear_to_cd2(lg)
            oracle = cf_bounded(lg.rules, lg.axiom, 8)
            assert words_of(g, t_and(exactly(1)), 8) == oracle


def index2_instances():
    return [
        ((Rule(S, (a, S, b)), Rule(S, (a, b))), (S,), (a, b)),
        ((Rule(S, (a, S, b)), Rule(S, (c,))), (S,), (a, b, c)),
        ((Rule(S, (A, B)), Rule(A, (a, A)), Rule(A, (a,)),
          Rule(B, (b, B)), Rule(B, (b,))), (S, A, B), (a, b)),
        ((Rule(S, (A, A)), Rule(A, (a, A)), Rule(A, (a,))), (S, A), (a,)),
        ((Rule(S, (A, B)), Rule(A, (a, A, b)), Rule(A, (a, b)),
          Rule(B, (b, B, a)), Rule(B, (b, a))), (S, A, B), (a, b)),
    ]


class TestCfIndexkToCd2:
    @pytest.mark.parametrize("case", range(5))
    def test_instances_against_oracle(self, case):
        rules, nts, ts = index2_instances()[case]
        src = C.IndexedCfGrammar(frozenset(nts), frozenset(ts), S, rules, 2)
        g = C.cf_indexk_to_cd2(src)
        oracle = cf_bounded(rules, S, 8)
        assert words_of(g, t_and(exactly(2)), 8) == oracle
        assert words_of(g, t_and(at_most(2)), 8) == oracle

    def test_requires_every_nonterminal_productive_lhs(self):
        with pytest.raises(ValueError):
            C.IndexedCfGrammar(
                frozenset({S, A}), frozenset({a}), S, (Rule(S, (a,)),), 2
            )


class TestCdToProgrammed:
    def test_minimal_label_structure(self):
        g = C.finite_to_cd1({("a",)}, 1)
        pg = C.cd_to_programmed(g, 1)
        assert set(pg.labels) == {"1_1_1", "1_1"}
        lang = enumerate_grammar(pg, Bounds.for_words(3)).language
        assert lang.words == (("a",),)

    @pytest.mark.parametrize("variant,mode", [
        ("exactly", t_and(exactly(2))),
        ("atmost", t_and(at_most(2))),
    ])
    def test_differential_example1(self, variant, mode):
        g = C.build_example1(2)
        pg = C.cd_to_programmed(g, 2, variant)
        assert validate(pg) == []
        src = words_of(g, mode, 9)
        sim = words_of(pg, None, 9)
        assert src == sim

    def test_atmost_variant_duplicates_success_into_failure(self):
        g = C.build_example1(2)
        pg = C.cd_to_programmed(g, 2, "atmost")
        # stepping labels may stop early: failure equals success there
        assert pg.failure["1_1_1"] == pg.success["1_1_1"]
        pg_eq = C.cd_to_programmed(g, 2, "exactly")
        assert pg_eq.failure["1_1_1"] == frozenset()


class TestBuilders:
    def test_example1_matches_reference(self):
        g = C.build_example1(2)
        got = words_of(g, t_and(exactly(2)), 9)
        assert got == set(V.expand(V.equal_powers(2), 9).words)

    def test_example1_k3(self):
        g = C.build_example1(3)
        got = words_of(g, t_and(exactly(3)), 12)
        assert got == set(V.expand(V.equal_powers(3), 12).words)

    def test_example1_rejects_k1(self):
        with pytest.raises(ValueError):
            C.build_example1(1)

    def test_anbnambm(self):
        g = C.build_anbnambm()
        assert g.degree == 3
        got = words_of(g, t_and(exactly(1)), 8)
        assert got == set(V.expand(V.two_block(), 8).words)

    def test_s3(self):
        g = C.build_s3_cd3()
        got = words_of(g, t_and(exactly(2)), 13)
        assert got == set(V.expand(V.block_pump(3), 13).words)

    @pytest.mark.parametrize("n,k,max_len", [(1, 1, 11), (2, 1, 13), (1, 2, 13)])
    def test_snk_exactly(self, n, k, max_len):
        g = C.build_snk_cdgs(n, k, "exactly")
        assert g.degree == n + 1
        got = words_of(g, C.snk_mode(k, "exactly"), max_len)
        assert got == set(V.expand(V.block_pump(n * k), max_len).words)

    def test_snk_atmost_matches_exactly(self):
        g = C.build_snk_cdgs(1, 1, "atmost")
        assert g.degree == 3
        got = words_of(g, C.snk_mode(1, "atmost"), 11)
        ref = words_of(C.build_snk_cdgs(1, 1, "exactly"), C.snk_mode(1, "exactly"), 11)
        assert got == ref

    def test_snk_includes_single_layer_words(self):
        # the i=1 word b(ab)^{2nk} requires the direct start into the
        # terminating phase
        g = C.build_snk_cdgs(1, 1, "exactly")
        got = words_of(g, C.snk_mode(1, "exactly"), 5)
        assert ("b", "a", "b", "a", "b") in got


class TestProlong:
    def test_ell_one_is_identity(self):
        g = C.build_anbnambm()
        assert C.prolong(g, 1) is g

    @pytest.mark.parametrize("ell", [2, 3])
    def test_lattice(self, ell):
        g = C.build_anbnambm()
        base = words_of(g, t_and(exactly(1)), 8)
        gp = C.prolong(g, ell)
        assert words_of(gp, t_and(exactly(ell)), 8) == base

    def test_atmost_lattice(self):
        g = C.build_example1(2)
        base = words_of(g, t_and(at_most(2)), 9)
        gp = C.prolong(g, 2)
        assert words_of(gp, t_and(at_most(4)), 9) == base

    def test_fresh_chain_symbols_are_private(self):
        g = C.build_anbnambm()
        gp = C.prolong(g, 2)
        new = gp.nonterminals - g.nonterminals
        # one intermediate per (component, rule) at ell=2
        assert len(new) == sum(len(comp) for comp in g.components)


class TestNsfToCdgs:
    def test_pipeline(self, pg_abc):
        g = C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(3)))
        assert validate(g) == []
        got = words_of(g, t_and(exactly(3)), 9)
        assert got == {tuple("abc"), tuple("aabbcc"), tuple("aaabbbccc")}

    def test_matches_source_grammar(self, pg_abc):
        g = C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(3)))
        assert words_of(g, t_and(exactly(3)), 9) == words_of(pg_abc, None, 9)

    def test_prolonged_target(self, pg_abc):
        g = C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(6)))
        assert words_of(g, t_and(exactly(6)), 9) == words_of(pg_abc, None, 9)

    def test_rejects_non_multiple_parameter(self, pg_abc):
        with pytest.raises(ValueError):
            C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(4)))

    def test_rejects_non_nsf_input(self):
        from gsworkbench.model import ProgrammedGrammar
        # S appears in two productions: violates the unique-start property
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            labels=("p", "q"),
            rule_of={"p": Rule(S, (a, S)), "q": Rule(S, (a,))},
            success={"p": frozenset({"p", "q"}), "q": frozenset({"q"})},
            failure={"p": frozenset(), "q": frozenset()},
        )
        with pytest.raises(ValueError, match="not in NSF"):
            C.nsf_programmed_to_cdgs(pg, 1, t_and(exactly(1)))
