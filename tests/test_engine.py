from dataclasses import replace

import pytest

from gsworkbench import engine
from gsworkbench.engine import (
    Bounds,
    DerivationTrace,
    TraceSegment,
    enumerate_grammar,
    make_language,
    mode_predicate,
    mode_step,
    one_step,
    trace_index,
    validate_trace,
    word_index,
    word_indices,
)
from gsworkbench.model import (
    CdSystem,
    HcdSystem,
    ProgrammedGrammar,
    Rule,
    STAR,
    T_MODE,
    at_least,
    at_most,
    between,
    exactly,
    nonterminal,
    t_and,
    terminal,
)
from gsworkbench.verifier import nsf_check

S = nonterminal("S")
A = nonterminal("A")
B = nonterminal("B")
a = terminal("a")
b = terminal("b")


def cd(components, nts=(S, A, B), ts=(a, b), axiom=S, **kw):
    return CdSystem(
        nonterminals=frozenset(nts),
        terminals=frozenset(ts),
        axiom=axiom,
        components=tuple(tuple(c) for c in components),
        **kw,
    )


class TestBounds:
    def test_form_len_must_cover_word_len(self):
        with pytest.raises(ValueError):
            Bounds(5, 3)

    def test_make_language_normalizes(self):
        lang = make_language([("b",), ("a",), (), ("a", "a", "a", "a")], Bounds(3, 3))
        assert lang.words == (("a",), ("b",))


class TestSingleSteps:
    def test_one_step_all_occurrences(self):
        got = set(one_step((A, A), [Rule(A, (a,))]))
        assert got == {(a, A), (A, a)}


class TestModePredicate:
    rules = [Rule(A, (a,))]

    def test_counting_modes(self):
        assert mode_predicate(exactly(2), 2, self.rules, (a,))
        assert not mode_predicate(exactly(2), 1, self.rules, (a,))
        assert mode_predicate(at_most(2), 0, self.rules, (a,))
        assert mode_predicate(at_least(2), 5, self.rules, (a,))
        assert mode_predicate(STAR, 0, self.rules, (A,))

    def test_t_is_nonapplicability(self):
        assert mode_predicate(T_MODE, 3, self.rules, (a, b))
        assert not mode_predicate(T_MODE, 3, self.rules, (a, A))

    def test_conjunction(self):
        m = t_and(exactly(1))
        assert mode_predicate(m, 1, self.rules, (a,))
        assert not mode_predicate(m, 1, self.rules, (A,))
        assert not mode_predicate(m, 2, self.rules, (a,))


class TestModeStep:
    def test_exactly_k_levels(self):
        # S -> aS available twice within the form cap
        rules = (Rule(S, (a, S)),)
        res = mode_step((S,), rules, exactly(2), Bounds(8, 8))
        assert set(res.results) == {(a, a, S)}
        assert res.results[(a, a, S)] == ((a, S), (a, a, S))

    def test_t_mode_runs_to_exhaustion(self):
        rules = (Rule(S, (a, A)), Rule(A, (b,)))
        res = mode_step((S,), rules, T_MODE, Bounds(8, 8))
        assert set(res.results) == {(a, b)}

    def test_t_mode_cycle_detection_terminates(self):
        # A -> A loops forever; t can never be satisfied, and the search
        # stops once the single (form, count) state has been expanded
        rules = (Rule(A, (A,)),)
        res = mode_step((A,), rules, T_MODE, Bounds(4, 4))
        assert res.results == {}

    def test_star_includes_zero_steps(self):
        rules = (Rule(S, (a,)),)
        res = mode_step((S,), rules, STAR, Bounds(4, 4))
        assert (S,) in res.results and res.results[(S,)] == ()
        assert (a,) in res.results

    @pytest.mark.parametrize("mode", [at_least(3), t_and(at_least(3))])
    def test_at_least_looks_past_repeating_level_sets(self, mode):
        # A -> B -> A -> B -> a: the forms reachable in m steps repeat from
        # m = 1 on ({B}, {A, a}, {B}, ...), but `a` first takes 4 >= 3 steps
        rules = (Rule(A, (B,)), Rule(B, (A,)), Rule(B, (a,)))
        res = mode_step((A,), rules, mode, Bounds(4, 4))
        assert (a,) in res.results
        assert len(res.results[(a,)]) == 4
        g = cd([rules], nts=(A, B), ts=(a,), axiom=A)
        lang = enumerate_grammar(g, Bounds(4, 4), mode=mode).language
        assert ("a",) in lang.words and not lang.truncated
        assert word_index(g, ("a",), Bounds(4, 4), mode=mode).index == 1


class TestEnumeration:
    def test_single_component_terminal(self):
        g = cd([[Rule(S, (a,))]])
        lang = enumerate_grammar(g, Bounds(3, 3), mode=t_and(exactly(1))).language
        assert lang.words == (("a",),)

    def test_an_bn_under_t(self):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        lang = enumerate_grammar(g, Bounds(8, 8), mode=T_MODE).language
        assert lang.words == (
            ("a", "b"),
            ("a", "a", "b", "b"),
            ("a", "a", "a", "b", "b", "b"),
            ("a", "a", "a", "a", "b", "b", "b", "b"),
        )

    def test_lambda_free_enumeration_is_exact_not_truncated(self):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        lang = enumerate_grammar(g, Bounds(6, 6), mode=STAR).language
        assert not lang.truncated

    def test_degenerate_hcd_star(self):
        g = HcdSystem(
            nonterminals=frozenset({S}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (a,)),),),
            modes=(STAR,),
        )
        assert enumerate_grammar(g, Bounds(3, 3)).language.words == (("a",),)

    def test_hcd_equals_uniform_cd(self):
        comps = ((Rule(S, (a, S, b)), Rule(S, (a, b))),)
        g_cd = cd(comps)
        g_h = HcdSystem(
            nonterminals=frozenset({S, A, B}),
            terminals=frozenset({a, b}),
            axiom=S,
            components=comps,
            modes=(t_and(at_most(2)),),
        )
        w_cd = enumerate_grammar(g_cd, Bounds(8, 8), mode=t_and(at_most(2))).language.words
        w_h = enumerate_grammar(g_h, Bounds(8, 8)).language.words
        assert w_cd == w_h

    def test_programmed_appearance_checking(self, pg_abc):
        lang = enumerate_grammar(pg_abc, Bounds(9, 9)).language
        assert [len(w) for w in lang.words] == [3, 6, 9]

    def test_enumerate_grammar_requires_mode_for_cd(self):
        g = cd([[Rule(S, (a,))]])
        with pytest.raises(ValueError):
            enumerate_grammar(g, Bounds(3, 3))


class TestTraces:
    def test_traces_validate_for_cd(self):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        mode = t_and(at_most(2))
        res = enumerate_grammar(g, Bounds(8, 8), mode=mode, with_traces=True)
        assert set(res.traces) == set(res.language.words)
        for word, trace in res.traces.items():
            assert validate_trace(g, trace, mode) == []
            assert tuple(s.name for s in trace.final_form()) == word

    def test_traces_validate_for_programmed(self, pg_abc):
        res = enumerate_grammar(pg_abc, Bounds(9, 9), with_traces=True)
        for trace in res.traces.values():
            assert validate_trace(pg_abc, trace) == []

    def test_trace_index(self, pg_abc):
        res = enumerate_grammar(pg_abc, Bounds(9, 9), with_traces=True)
        for trace in res.traces.values():
            assert trace_index(trace) == 3

    def test_tampered_trace_is_rejected(self):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        mode = t_and(at_most(2))
        res = enumerate_grammar(g, Bounds(8, 8), mode=mode, with_traces=True)
        trace = res.traces[("a", "b")]
        from dataclasses import replace
        bad = replace(
            trace,
            segments=(replace(trace.segments[0], forms=((a, a),)),),
        )
        assert validate_trace(g, bad, mode) != []

    @pytest.mark.parametrize("tamper", ["relabel", "appearance-check", "reorder"])
    def test_tampered_programmed_trace_is_rejected(self, pg_abc, tamper):
        from dataclasses import replace
        trace = enumerate_grammar(pg_abc, Bounds(9, 9), with_traces=True).traces[
            tuple("aabbcc")
        ]
        segs = list(trace.segments)
        if tamper == "relabel":
            # p1 rewrites A, not B, and p1's success field holds only p2
            segs[2] = replace(segs[2], actor="p1")
        elif tamper == "appearance-check":
            segs[1] = replace(segs[1], appearance_checking=True)
        else:
            segs[1], segs[2] = segs[2], segs[1]
        bad = replace(trace, segments=tuple(segs))
        assert validate_trace(pg_abc, bad) != []

    @pytest.mark.parametrize("cut", ["off-axiom start", "unfinished"])
    def test_trace_must_run_from_axiom_to_word(self, cut):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        mode = t_and(at_most(2))
        from dataclasses import replace
        if cut == "unfinished":
            # dropping the last segment leaves the valid prefix S
            res = enumerate_grammar(g, Bounds(8, 8), mode=mode, with_traces=True)
            trace = res.traces[("a", "b")]
            bad = replace(trace, segments=trace.segments[:-1])
        else:
            # a legal one-step turn a S b => a a b b, but not from the axiom
            bad = DerivationTrace((a, S, b), (TraceSegment(1, ((a, a, b, b),)),))
        assert validate_trace(g, bad, mode) != []

    def test_each_grammar_gets_its_own_verdict(self):
        # validate_trace compiles each grammar once and keeps it; grammars
        # with the same name and alphabets must still not share the compile
        def programmed(p_failure):
            return ProgrammedGrammar(
                nonterminals=frozenset({S, A}),
                terminals=frozenset({a}),
                axiom=S,
                labels=("p", "q"),
                rule_of={"p": Rule(A, (a,)), "q": Rule(S, (a,))},
                success={"p": frozenset(), "q": frozenset({"q"})},
                failure={"p": frozenset(p_failure), "q": frozenset()},
                name="same",
            )

        # p does not apply to S, so the step may go on only to a failure label
        checked = DerivationTrace(
            (S,), (TraceSegment("p", ((S,),), True), TraceSegment("q", ((a,),)))
        )
        g = cd([[Rule(S, (A,)), Rule(A, (a,))]], name="same")
        two_steps = DerivationTrace((S,), (TraceSegment(1, ((A,), (a,))),))
        cases = [
            (programmed({"q"}), checked, None, []),
            (
                programmed(()),
                checked,
                None,
                ["segment 0: not a appearance-checking step at label 'p' on to label 'q'"],
            ),
            (g, two_steps, t_and(exactly(2)), []),
            (
                g,
                two_steps,
                t_and(exactly(1)),
                ["segment 0: mode predicate fails for component 1 after 2 steps"],
            ),
        ]
        for _ in range(2):
            for grammar, trace, mode, expected in cases:
                assert validate_trace(grammar, trace, mode) == expected


class TestWordIndex:
    def test_anbn_index_is_one(self):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        res = word_index(g, ("a", "a", "b", "b"), Bounds(8, 8), mode=STAR)
        assert res.index == 1

    def test_unreachable_word_is_none(self):
        g = cd([[Rule(S, (a,))]])
        res = word_index(g, ("b",), Bounds(3, 3), mode=STAR)
        assert res.index is None

    def test_programmed_word_index(self, pg_abc):
        res = word_index(pg_abc, tuple("aabbcc"), Bounds(9, 9))
        assert res.index == 3

    def test_length_pruning_on_erasing_grammar_is_truncated(self):
        # S -> A A A a exceeds the form cap of 2, and with A -> λ it might
        # still have erased back down to a word: UNKNOWN, flagged
        g = cd([[Rule(S, (A, A, A, a)), Rule(A, ())]], nts=(S, A), ts=(a,),
               lambda_free=False)
        res = word_index(g, ("a",), Bounds(1, 2), mode=t_and(exactly(1)))
        assert res.index is None
        assert res.truncated

    def test_word_longer_than_bound_rejected(self):
        g = cd([[Rule(S, (a,))]])
        with pytest.raises(ValueError):
            word_index(g, ("a",) * 9, Bounds(3, 3), mode=STAR)


class TestSharedCompile:
    """The searches and trace checks on one grammar object and mode read one
    cached compile."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        compile_ = engine._compile

        def counted(*args):
            calls.append(args)
            return compile_(*args)

        monkeypatch.setattr(engine, "_compile", counted)
        monkeypatch.setattr(engine, "_COMPILED", {})
        return calls

    def answers(self, grammar, mode, bounds):
        res = enumerate_grammar(grammar, bounds, mode=mode, with_traces=True)
        problems = [validate_trace(grammar, t, mode=mode) for t in res.traces.values()]
        return res.language, res.traces, problems, word_indices(grammar, res.language.words, bounds, mode)

    def test_a_cd_system_compiles_once(self, compiles):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        first = self.answers(g, STAR, Bounds(8, 8))
        assert len(compiles) == 1
        assert len(first[0]) == 4 and not any(first[2])
        copy = replace(g)  # value-equal, but another object
        assert copy == g and self.answers(copy, STAR, Bounds(8, 8)) == first
        assert len(compiles) == 2

    def test_a_programmed_grammar_compiles_once(self, compiles, pg_abc):
        first = self.answers(pg_abc, None, Bounds(9, 9)), nsf_check(pg_abc, 12).lines()
        assert len(compiles) == 1
        assert len(first[0][0]) == 3 and not any(first[0][2])
        copy = replace(pg_abc)
        assert copy == pg_abc
        assert (self.answers(copy, None, Bounds(9, 9)), nsf_check(copy, 12).lines()) == first
        assert len(compiles) == 2

    def test_the_cache_stays_bounded(self, compiles):
        for n in range(1, 2 * engine._COMPILED_SIZE):
            enumerate_grammar(cd([[Rule(S, (a,) * n)]]), Bounds(3, 3), mode=STAR)
            assert len(engine._COMPILED) <= engine._COMPILED_SIZE
        assert len(compiles) == 2 * engine._COMPILED_SIZE - 1
