import pytest

from gsworkbench import constructions as C
from gsworkbench import verifier as V
from gsworkbench.engine import Bounds, enumerate_grammar, make_language
from gsworkbench.model import CdSystem, Rule, nonterminal, t_and, exactly, terminal

S = nonterminal("S")
a = terminal("a")
b = terminal("b")


class TestReferenceLanguages:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            V.ReferenceLanguage("mystery")

    @pytest.mark.parametrize("make", [V.equal_powers, V.block_pump])
    def test_parameter_must_be_positive(self, make):
        with pytest.raises(ValueError, match="parameter must be positive"):
            make(0)

    def test_an_bn_expand(self):
        lang = V.expand(V.an_bn(), 6)
        assert lang.words == (
            ("a", "b"),
            ("a", "a", "b", "b"),
            ("a", "a", "a", "b", "b", "b"),
        )

    def test_equal_powers_expand(self):
        lang = V.expand(V.equal_powers(2), 9)
        assert [len(w) for w in lang.words] == [3, 6, 9]
        assert lang.words[0] == ("a1", "a2", "a3")

    def test_block_pump_expand(self):
        lang = V.expand(V.block_pump(1), 11)
        assert lang.words[0] == ("b", "a", "b", "a", "b")
        assert len(lang.words) == 4

    def test_two_block_expand(self):
        lang = V.expand(V.two_block(), 8)
        assert ("a", "b", "a", "b") in lang.words
        assert ("a", "a", "b", "b", "a", "b") in lang.words

    def test_finite_expand_filters_by_length(self):
        ref = V.finite([("a",), ("a", "a", "a")])
        assert V.expand(ref, 2).words == (("a",),)

    @pytest.mark.parametrize("ref,max_len", [
        (V.an_bn(), 10),
        (V.equal_powers(2), 12),
        (V.equal_powers(3), 12),
        (V.block_pump(1), 13),
        (V.block_pump(3), 19),
        (V.two_block(), 10),
        (V.finite([("a",), ("a", "b"), ("b", "a", "b")]), 4),
    ])
    def test_member_agrees_with_expand(self, ref, max_len):
        # cross-check the two independent implementations on all words
        # over the alphabet up to a modest length is too big; instead check
        # every expanded word is a member, and mutations are not
        lang = V.expand(ref, max_len)
        assert lang.words
        for w in lang.words:
            assert V.member(ref, w)
            assert not V.member(ref, w + (w[0],)) or len(w) + 1 > max_len
            mutated = (w[-1],) + w[1:]
            if mutated != w:
                assert not V.member(ref, mutated)


    @pytest.mark.parametrize("ref,word", [
        pytest.param(V.an_bn(), (), id="empty"),
        pytest.param(V.block_pump(1), ("a", "b", "a", "b"), id="block_pump-not-from-b"),
        pytest.param(V.block_pump(1), ("b", "a", "c", "b", "a", "b"), id="block_pump-foreign"),
        pytest.param(V.block_pump(1), ("b", "a", "b", "a"), id="block_pump-not-on-b"),
        pytest.param(V.two_block(), ("a", "b", "c", "b"), id="two_block-foreign"),
    ])
    def test_member_rejects(self, ref, word):
        assert not V.member(ref, word)


class TestBoundedEqual:
    def test_reports_both_directions(self):
        bounds = Bounds(4, 4)
        l1 = make_language([("a",), ("b",)], bounds)
        l2 = make_language([("a",), ("a", "b")], bounds)
        rep = V.bounded_equal(l1, l2)
        assert not rep.equal
        assert rep.lines() == ["MISSING b", "EXTRA a b"]

    def test_rejects_mismatched_caps(self):
        l1 = make_language([("a",)], Bounds(3, 3))
        l2 = make_language([("a",)], Bounds(4, 4))
        with pytest.raises(ValueError):
            V.bounded_equal(l1, l2)

    def test_equal_is_symmetric_empty_report(self):
        l1 = make_language([("a",)], Bounds(3, 3))
        rep = V.bounded_equal(l1, l1)
        assert rep.equal and rep.lines() == []


class TestNsfCheck:
    def test_pg_abc_holds(self, pg_abc):
        rep = V.nsf_check(pg_abc, 16)
        assert rep.holds
        # inferred f matches the hand-written vectors
        A, B, Cn = nonterminal("A"), nonterminal("B"), nonterminal("C")
        vec = rep.inferred_counts["p5"]
        assert vec[B] == 1 and vec[Cn] == 1 and vec[A] == 0

    def test_detects_duplicate_nonterminal(self):
        from gsworkbench.model import ProgrammedGrammar
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            labels=("p", "q"),
            rule_of={"p": Rule(S, (S, S)), "q": Rule(S, (a,))},
            success={"p": frozenset({"q"}), "q": frozenset({"q"})},
            failure={"p": frozenset(), "q": frozenset()},
        )
        rep = V.nsf_check(pg, 8)
        assert any(item == 3 for item, _ in rep.violations)

    def test_detects_varying_parikh_vector(self):
        from gsworkbench.model import ProgrammedGrammar
        A = nonterminal("A")
        # q is applied both to forms with one A and with two As
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S, A}),
            terminals=frozenset({a}),
            axiom=S,
            labels=("p0", "p1", "q"),
            rule_of={
                "p0": Rule(S, (A,)),
                "p1": Rule(A, (A, A)),
                "q": Rule(A, (a,)),
            },
            success={
                "p0": frozenset({"p1", "q"}),
                "p1": frozenset({"q"}),
                "q": frozenset({"q"}),
            },
            failure={p: frozenset() for p in ("p0", "p1", "q")},
        )
        rep = V.nsf_check(pg, 8)
        assert any(item == 2 for item, _ in rep.violations)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: property 2 is recorded wherever a label's lhs "
        "occurs, also for a label with an empty success field, which the "
        "engine never applies",
    )
    def test_a_label_with_no_step_records_no_vector(self):
        from gsworkbench.model import ProgrammedGrammar
        A, B = nonterminal("A"), nonterminal("B")
        # p is never applied: its success field is empty, so the language is
        # empty, but its lhs A occurs after p0 (vector A B) and after p1 (A)
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S, A, B}),
            terminals=frozenset({a, b}),
            axiom=S,
            labels=("p0", "p", "p1"),
            rule_of={"p0": Rule(S, (A, B)), "p": Rule(A, (a,)), "p1": Rule(B, (b,))},
            success={"p0": frozenset({"p", "p1"}), "p": frozenset(), "p1": frozenset({"p"})},
            failure={p: frozenset() for p in ("p0", "p", "p1")},
        )
        assert enumerate_grammar(pg, Bounds.for_words(10)).language.words == ()
        assert V.nsf_check(pg, 10).violations == []

    def test_a_label_with_a_terminal_lhs_records_no_vector(self):
        from gsworkbench.model import ProgrammedGrammar, validate
        A = nonterminal("A")
        # p1 rewrites the terminal a, so no rule applies and the engine never
        # steps it, though a occurs after p0 beside A
        pg = ProgrammedGrammar(
            nonterminals=frozenset({S, A}),
            terminals=frozenset({a, b}),
            axiom=S,
            labels=("p0", "p1", "p2"),
            rule_of={"p0": Rule(S, (a, A)), "p1": Rule(a, (b,)), "p2": Rule(A, (b,))},
            success={"p0": frozenset({"p1", "p2"}), "p1": frozenset({"p2"}), "p2": frozenset({"p2"})},
            failure={p: frozenset() for p in ("p0", "p1", "p2")},
        )
        assert validate(pg) != []
        assert sorted(V.nsf_check(pg, 10).inferred_counts) == ["p0", "p2"]

    def test_appearance_check_into_a_start_keeps_its_level(self):
        # an appearance-checking step reaches (axiom, label) from another
        # start; that state is still on level 0, so it is expanded
        pg = C.cd_to_programmed(C.build_example1(2), 1, "exactly")
        assert V.nsf_check(pg, 3).inconclusive is False

    def test_start_levels_bound_what_is_expanded(self):
        pg = C.cd_to_programmed(C.build_s3_cd3(), 1, "exactly")
        assert sorted(V.nsf_check(pg, 1).inferred_counts) == ["3_1", "3_1_1"]

    def test_violation_lines_format(self):
        rep = V.NsfReport(violations=[(1, "start symbol appears twice")])
        assert rep.lines() == ["VIOLATION 1 start symbol appears twice"]


class TestCertifyIndexBound:
    def test_example1_programmed_bound(self):
        pg = C.cd_to_programmed(C.build_example1(2), 2, "exactly")
        cert = V.certify_index_bound(pg, 4, Bounds.for_words(9))
        assert cert.passed and not cert.truncated
        assert cert.checked_words == 3

    def test_fails_when_bound_too_small(self, pg_abc):
        cert = V.certify_index_bound(pg_abc, 2, Bounds.for_words(9))
        assert not cert.passed
        assert all(idx == 3 for _, idx in cert.counterexamples)
        assert cert.lines()[0].startswith("VIOLATION index-bound")

    def test_cd_counterexamples(self):
        # every derivation of the source passes S -> A B C, so each word
        # has index 3 in the simulating CD system too
        A, B, Cn = nonterminal("A"), nonterminal("B"), nonterminal("C")
        c = terminal("c")
        rules = [Rule(S, (A, B, Cn))] + [
            Rule(X, rhs) for X, x in ((A, a), (B, b), (Cn, c)) for rhs in ((x, X), (x,))
        ]
        src = C.IndexedCfGrammar(
            frozenset({S, A, B, Cn}), frozenset({a, b, c}), S, tuple(rules), 3
        )
        cert = V.certify_index_bound(
            C.cf_indexk_to_cd2(src), 2, Bounds.for_words(5), mode=t_and(exactly(3))
        )
        assert cert.checked_words == 10 and not cert.truncated
        assert len(cert.counterexamples) == 10
        assert cert.lines()[:2] == [
            "VIOLATION index-bound a b c 3",
            "VIOLATION index-bound a a b c 3",
        ]
        assert all(line.endswith(" 3") for line in cert.lines())

    def test_cd_length_pruning_on_erasing_grammar_is_truncated(self):
        A = nonterminal("A")
        g = CdSystem(
            nonterminals=frozenset({S, A}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (A, A, A, a)), Rule(A, ())),),
            lambda_free=False,
        )
        cert = V.certify_index_bound(g, 1, Bounds(1, 2), mode=t_and(exactly(1)))
        assert cert.truncated
        assert cert.checked_words == 0 and cert.passed
