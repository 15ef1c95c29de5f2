import copy
import gc
import pickle
import weakref
from dataclasses import fields, replace

import pytest

from gsworkbench import engine
from gsworkbench.constructions import build_anbnambm
from gsworkbench.engine import (
    Bounds,
    DerivationTrace,
    TraceSegment,
    WordIndexResult,
    enumerate_grammar,
    indexed_language,
    make_language,
    mode_predicate,
    mode_step,
    one_step,
    trace_index,
    validate_trace,
    word_index,
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
    exactly,
    nonterminal,
    t_and,
    terminal,
)
from gsworkbench.verifier import nsf_check

from conftest import make_pg_abc

S = nonterminal("S")
A = nonterminal("A")
B = nonterminal("B")
C = nonterminal("C")
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


@pytest.fixture
def compiles(monkeypatch):
    """The arguments of each `_compile` call; they hold the grammar."""
    calls = []
    compile_ = engine._compile

    def counted(*args):
        calls.append(args)
        return compile_(*args)

    monkeypatch.setattr(engine, "_compile", counted)
    return calls


class TestBounds:
    def test_form_len_must_cover_word_len(self):
        with pytest.raises(ValueError):
            Bounds(5, 3)

    def test_make_language_normalizes(self):
        lang = make_language([("b",), ("a",), (), ("a", "a", "a", "a")], Bounds(3, 3))
        assert lang.words == (("a",), ("b",))


class TestBoundedLanguage:
    def test_membership(self):
        lang = make_language([("a",), ("a", "b")], Bounds(3, 3))
        assert ("a", "b") in lang
        assert ["a", "b"] in lang
        assert ("b",) not in lang
        assert lang.word_set() is lang.word_set()

    def test_kept_set_changes_no_value(self):
        lang = make_language([("a",), ("a", "b")], Bounds(3, 3))
        before = pickle.dumps(lang), repr(lang), hash(lang)
        assert ("a",) in lang
        assert (pickle.dumps(lang), repr(lang), hash(lang)) == before
        assert pickle.loads(before[0]) == lang == replace(lang)
        assert [f.name for f in fields(lang)] == ["words", "bounds", "truncated"]


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

    @pytest.mark.parametrize("declared", [False, True])
    def test_truncation_comes_from_the_rules_not_the_flag(self, declared):
        # S -> a S | a never erases: a cut form never shrinks back to a word
        exact = cd([[Rule(S, (a, S)), Rule(S, (a,))]], nts=(S,), ts=(a,), lambda_free=declared)
        bounds = Bounds.for_words(3)
        lang = enumerate_grammar(exact, bounds, mode=T_MODE).language
        assert (lang.words, lang.truncated) == ((("a",), ("a", "a"), ("a", "a", "a")), False)
        assert indexed_language(exact, bounds, T_MODE) == (lang, {w: 1 for w in lang.words})
        assert word_index(exact, ("a",) * 3, bounds, T_MODE) == WordIndexResult(1, False)
        # S => a A A => a A => a: the cut a A A might have shrunk back to a word
        erasing = cd([[Rule(S, (a, A, A)), Rule(A, ())]], nts=(S, A), ts=(a,), lambda_free=declared)
        bounds = Bounds(1, 2)
        lang = enumerate_grammar(erasing, bounds, mode=T_MODE).language
        assert (lang.words, lang.truncated) == ((), True)
        assert indexed_language(erasing, bounds, T_MODE) == (lang, {})
        assert word_index(erasing, ("a",), bounds, T_MODE) == WordIndexResult(None, True)

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

    def test_traces_share_a_common_turn(self):
        # the first turn S => A A is on the path of every word
        g = cd([[Rule(S, (A, A))], [Rule(A, (a,)), Rule(A, (b,))]])
        res = enumerate_grammar(g, Bounds(2, 2), mode=T_MODE, with_traces=True)
        first = res.traces[("a", "b")].segments[0]
        assert first == TraceSegment(1, ((A, A),))
        assert res.traces[("b", "a")].segments[0] is first
        assert all(t.segments[0] is first for t in res.traces.values())

    def test_traces_validate_for_programmed(self, pg_abc):
        res = enumerate_grammar(pg_abc, Bounds(9, 9), with_traces=True)
        for trace in res.traces.values():
            assert validate_trace(pg_abc, trace) == []

    def test_final_form_is_the_last_of_all_forms(self, pg_abc):
        AA = TraceSegment(1, ((A, A),))
        traces = [
            DerivationTrace((S,), (AA, TraceSegment(2, ()))),  # a trailing zero-step turn
            DerivationTrace((S,), ()),
            *enumerate_grammar(pg_abc, Bounds(9, 9), with_traces=True).traces.values(),
            *enumerate_grammar(
                cd([[Rule(S, (A, A))], [Rule(A, (a,)), Rule(A, (b,))]]), Bounds(2, 2), mode=T_MODE, with_traces=True
            ).traces.values(),
        ]
        for trace in traces:
            assert trace.final_form() == list(trace.all_forms())[-1]
        assert [t.final_form() for t in traces[:2]] == [(A, A), (S,)]

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

    def test_bool_actor_is_not_a_component_index(self):
        # True == 1, but a trace naming component True does not validate
        g, mode = build_anbnambm(), t_and(exactly(1))
        trace = next(iter(enumerate_grammar(g, Bounds(4, 4), mode=mode, with_traces=True).traces.values()))
        assert trace.segments[0].actor == 1 and validate_trace(g, trace, mode) == []
        segs = (replace(trace.segments[0], actor=True),) + trace.segments[1:]
        bad = replace(trace, segments=segs)
        assert "segment 0: bad component index True" in validate_trace(g, bad, mode)

    def test_list_actor_is_an_unknown_label(self, pg_abc):
        # a list is unhashable: the check reports it rather than raising
        trace = enumerate_grammar(pg_abc, Bounds(3, 3), with_traces=True).traces[("a", "b", "c")]
        assert trace.segments[0].actor == "p0" and validate_trace(pg_abc, trace) == []
        segs = (replace(trace.segments[0], actor=["p0"]),) + trace.segments[1:]
        bad = replace(trace, segments=segs)
        assert validate_trace(pg_abc, bad)[0] == "segment 0: unknown label ['p0']"

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

    def test_a_programmed_step_must_go_on_to_a_label_of_its_field(self, pg_abc):
        # each step rewrites as its label says, but p4 goes on only to p5,
        # and p6 only to p6
        c = terminal("c")
        forms = [(A, B, C), (a, B, C), (a, B, c), (a, b, c)]
        trace = DerivationTrace((S,), tuple(TraceSegment(p, (f,)) for p, f in zip(["p0", "p4", "p6", "p5"], forms)))
        assert validate_trace(pg_abc, trace) == [
            "segment 1: not a rewriting step at label 'p4' on to label 'p6'",
            "segment 2: not a rewriting step at label 'p6' on to label 'p5'",
        ]

    @pytest.mark.parametrize(
        "segments, problems",
        [
            (
                [("p0", [(A, B, C), (a, B, C)])],
                ["segment 0: programmed steps are single steps", "end: final form a B C is not terminal"],
            ),
            ([("p0", [])], ["segment 0: programmed steps are single steps", "end: final form S is not terminal"]),
            ([("zz", [(a,)])], ["segment 0: unknown label 'zz'"]),
            (
                [("p1", [(A, B, C)])],
                ["segment 0: not a rewriting step at label 'p1'", "end: final form A B C is not terminal"],
            ),
        ],
        ids=["two forms", "no form", "unknown label", "not a step"],
    )
    def test_programmed_trace_problem_table(self, pg_abc, segments, problems):
        segs = tuple(TraceSegment(p, tuple(forms)) for p, forms in segments)
        assert validate_trace(pg_abc, DerivationTrace((S,), segs)) == problems

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


class TestPassedSegments:
    """A CD segment that passed keeps its verdict, with the form it passed
    from and the compile that passed it.  No verdict changes."""

    @staticmethod
    def system():
        # the first turn S => A A is on the path of every word
        return cd([[Rule(S, (A, A))], [Rule(A, (a,)), Rule(A, (b,))]])

    @staticmethod
    def traces(g):
        return enumerate_grammar(g, Bounds(2, 2), mode=T_MODE, with_traces=True).traces

    @pytest.fixture
    def checks(self, monkeypatch):
        """The one-step tests the trace checks make."""
        calls, is_rewrite = [], engine._is_rewrite

        def counted(*args):
            calls.append(args)
            return is_rewrite(*args)

        monkeypatch.setattr(engine, "_is_rewrite", counted)
        return calls

    def test_a_passed_segment_is_checked_again_from_another_form(self, checks):
        g = self.system()
        trace = self.traces(g)[("a", "b")]
        first, second = trace.segments
        assert validate_trace(g, trace, T_MODE) == []
        assert len(checks) == 3
        del checks[:]
        assert validate_trace(g, trace, T_MODE) == [] and checks == []
        # S => A A passed from S; from A A, component 1 has no S to rewrite
        again = replace(trace, segments=(first, first, second))
        assert validate_trace(g, again, T_MODE) == ["segment 1: form not reachable in one step of component 1"]
        # the turn of component 2 passed from A A, not from S
        skipped = replace(trace, segments=(second,))
        assert validate_trace(g, skipped, T_MODE) == ["segment 0: form not reachable in one step of component 2"]

    @pytest.mark.parametrize(
        "forms, change, component",
        [
            ([(A, A)], lambda seg: seg.forms.__setitem__(0, (A, B)), 1),
            (([A, A],), lambda seg: seg.forms[0].__setitem__(1, B), 1),
            # a frozen dataclass can still be changed through object.__setattr__
            (((A, A),), lambda seg: object.__setattr__(seg, "forms", ((A, B),)), 1),
            (((A, A),), lambda seg: object.__setattr__(seg, "actor", 2), 2),
        ],
        ids=["list of forms", "list form", "forms replaced", "actor replaced"],
    )
    def test_a_segment_changed_after_it_passed_is_checked(self, forms, change, component):
        g = self.system()
        seg = TraceSegment(1, forms)
        trace = DerivationTrace((S,), (seg, TraceSegment(2, ((a, A), (a, b)))))
        assert validate_trace(g, trace, T_MODE) == []
        change(seg)
        assert validate_trace(g, trace, T_MODE) == [
            "segment 0: form not reachable in one step of component %d" % component,
            "segment 1: form not reachable in one step of component 2",
        ]

    def test_a_segment_is_checked_again_by_another_compile(self, checks):
        g = self.system()
        trace = self.traces(g)[("a", "b")]
        assert validate_trace(g, trace, T_MODE) == []
        # A A => a A => a b is no turn of component 2 in a system whose
        # component 2 has no rule for A
        other = cd([[Rule(S, (A, A))], [Rule(B, (a,))]])
        assert validate_trace(other, trace, T_MODE) == [
            "segment 1: form not reachable in one step of component 2"
        ]
        # S => A A is one step, not two
        assert validate_trace(g, trace, t_and(exactly(2))) == [
            "segment 0: mode predicate fails for component 1 after 1 steps"
        ]
        # a value-equal grammar is compiled again
        del checks[:]
        assert validate_trace(replace(g), trace, T_MODE) == []
        assert len(checks) == 3
        # so is the grammar of a trace with a symbol outside it, under
        # another encoding: the passed segments are checked again there
        assert validate_trace(g, trace, T_MODE) == []
        del checks[:]
        longer = replace(trace, segments=trace.segments + (TraceSegment(2, ((a, terminal("c")),)),))
        assert validate_trace(g, longer, T_MODE) == [
            "segment 2: form not reachable in one step of component 2"
        ]
        assert len(checks) == 3 + 1

    def test_a_verdict_lives_as_long_as_its_segment(self, compiles):
        g = self.system()
        traces = self.traces(g)
        assert all(validate_trace(g, trace, T_MODE) == [] for trace in traces.values())
        segment = weakref.ref(traces[("a", "b")].segments[0])
        del traces
        gc.collect()
        assert segment() is None
        # the grammar's compile lives on
        assert validate_trace(g, self.traces(g)[("a", "b")], T_MODE) == []
        assert len(compiles) == 1

    def test_a_copied_segment_carries_no_verdict(self, checks):
        g = self.system()
        trace = self.traces(g)[("a", "b")]
        assert validate_trace(g, trace, T_MODE) == []
        for seg in trace.segments:
            fresh = replace(seg)
            assert pickle.dumps(seg) == pickle.dumps(fresh)
            assert pickle.loads(pickle.dumps(seg)) == seg == copy.copy(seg)
        del checks[:]
        copied = replace(trace, segments=tuple(map(copy.copy, trace.segments)))
        assert validate_trace(g, copied, T_MODE) == []
        assert len(checks) == 3

    def test_a_failing_trace_gets_the_same_problems_again(self):
        g = self.system()
        trace = self.traces(g)[("a", "b")]
        first, second = trace.segments
        # A A => a A is a step of component 2, but t asks it to go on
        bad = replace(trace, segments=(first, TraceSegment(2, ((a, A),)), second))
        expected = [
            "segment 1: mode predicate fails for component 2 after 1 steps",
            "segment 2: form not reachable in one step of component 2",
        ]
        assert validate_trace(g, bad, T_MODE) == expected
        assert validate_trace(g, trace, T_MODE) == []
        assert validate_trace(g, bad, T_MODE) == expected


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
    """The searches and trace checks on one grammar object and mode share one
    compile, kept on the object."""

    def answers(self, grammar, mode, bounds):
        res = enumerate_grammar(grammar, bounds, mode=mode, with_traces=True)
        problems = [validate_trace(grammar, t, mode=mode) for t in res.traces.values()]
        indices = [word_index(grammar, w, bounds, mode) for w in res.language.words]
        return res.language, res.traces, problems, indices

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

    def test_a_grammar_keeps_its_compile_whatever_else_is_searched(self, compiles):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        traces = enumerate_grammar(g, Bounds(8, 8), mode=STAR, with_traces=True).traces
        for n in range(1, 17):
            enumerate_grammar(cd([[Rule(S, (a,) * n)]]), Bounds(3, 3), mode=STAR)
        del compiles[:]
        assert all(validate_trace(g, trace, STAR) == [] for trace in traces.values())
        assert compiles == []

    def test_a_searched_grammar_is_not_kept_alive(self):
        g = cd([[Rule(S, (a, S, b)), Rule(S, (a, b))]])
        assert len(self.answers(g, STAR, Bounds(8, 8))[0]) == 4
        grammar = weakref.ref(g)
        del g
        gc.collect()
        assert grammar() is None

    @pytest.mark.parametrize("kind", ["cd", "hcd", "programmed"])
    def test_a_copied_grammar_carries_no_compile(self, compiles, kind):
        rules = ((Rule(S, (a, S, b)), Rule(S, (a, b))),)
        grammar, mode, bounds = {
            "cd": (cd(rules), STAR, Bounds(8, 8)),
            "hcd": (HcdSystem(frozenset({S}), frozenset({a, b}), S, rules, (t_and(at_most(2)),)), None, Bounds(8, 8)),
            "programmed": (make_pg_abc(), None, Bounds(9, 9)),
        }[kind]
        first = self.answers(grammar, mode, bounds)
        assert len(compiles) == 1 and len(first[0]) > 0
        assert pickle.dumps(grammar) == pickle.dumps(replace(grammar))
        copies = [pickle.loads(pickle.dumps(grammar)), copy.copy(grammar), copy.deepcopy(grammar)]
        for n, other in enumerate(copies, 2):
            assert other == grammar and self.answers(other, mode, bounds) == first
            assert len(compiles) == n
