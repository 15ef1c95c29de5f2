import os
import subprocess
import sys
from pathlib import Path

import pytest

from gsworkbench import constructions as C
from gsworkbench import fileformat as F
from gsworkbench.cli import _trace_lines, main
from gsworkbench.engine import (
    Bounds,
    DerivationTrace,
    TraceSegment,
    enumerate_grammar,
    validate_trace,
)
from gsworkbench.model import CdSystem, Rule, exactly, nonterminal, t_and, terminal


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1_k2.gsw"
    path.write_text(F.serialize(C.build_example1(2)), encoding="utf-8")
    return str(path)


@pytest.fixture
def example1_prog_file(tmp_path):
    pg = C.cd_to_programmed(C.build_example1(2), 2, "exactly")
    path = tmp_path / "example1_k2_prog.gsw"
    path.write_text(F.serialize(pg), encoding="utf-8")
    return str(path)


@pytest.fixture
def anbnambm_file(tmp_path):
    path = tmp_path / "anbnambm.gsw"
    path.write_text(
        F.serialize(C.build_anbnambm(), uniform_mode=t_and(exactly(1))),
        encoding="utf-8",
    )
    return str(path)


class TestEnumerate:
    def test_example1_words(self, example1_file, capsys):
        code = main(["enumerate", example1_file, "--mode", "(t & =2)", "--max-len", "9"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == (
            "a1 a2 a3\n"
            "a1 a1 a2 a2 a3 a3\n"
            "a1 a1 a1 a2 a2 a2 a3 a3 a3\n"
        )

    def test_stdout_is_stable(self, example1_file, capsys):
        argv = ["enumerate", example1_file, "--mode", "(t & =2)", "--max-len", "9"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_mode_from_file(self, anbnambm_file, capsys):
        assert main(["enumerate", anbnambm_file, "--max-len", "4"]) == 0
        assert capsys.readouterr().out == "a b a b\n"

    def test_missing_mode_is_parse_error(self, example1_file, capsys):
        code = main(["enumerate", example1_file, "--max-len", "5"])
        assert code == 2

    def test_zero_max_form_len_is_not_the_default(self, anbnambm_file, capsys):
        code = main(["enumerate", anbnambm_file, "--max-len", "4", "--max-form-len", "0"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bounds must be positive" in captured.err

    def test_bad_file_is_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsw"
        bad.write_text("grammar g cdgs\n", encoding="utf-8")
        assert main(["enumerate", str(bad), "--max-len", "5"]) == 2

    def test_second_grammar_header_is_parse_error(self, tmp_path, capsys):
        dup = tmp_path / "dup.gsw"
        dup.write_text(
            "grammar x cdgs\nnonterminals S\nterminals a\naxiom S\n"
            "component\n  S -> a\ngrammar y hcdgs\n",
            encoding="utf-8",
        )
        assert main(["enumerate", str(dup), "--max-len", "3"]) == 2
        assert "second grammar header (line 7)" in capsys.readouterr().err


def parse_traces(out, grammar):
    """The words of `gsw enumerate --traces` output, each with its trace."""
    symbols = {s.name: s for s in grammar.nonterminals | grammar.terminals}
    segments = {}
    for line in out.splitlines():
        if not line.startswith("  "):
            word = tuple(line.split())
            segments[word] = []
            continue
        actor, forms = line.strip().split(": ", 1)
        ac = forms.endswith(" [ac]")
        forms = forms[: -len(" [ac]")] if ac else forms
        if forms == "(0 steps)":
            forms = ()
        else:
            forms = tuple(
                tuple(symbols[n] for n in f.split()) if f != "#" else ()
                for f in forms.split(" => ")
            )
        actor = int(actor) if isinstance(grammar, CdSystem) else actor
        segments[word].append(TraceSegment(actor, forms, ac))
    return {w: DerivationTrace((grammar.axiom,), tuple(s)) for w, s in segments.items()}


class TestEnumerateTraces:
    @pytest.mark.parametrize(
        "fixture, mode, max_len",
        [("example1_file", "(t & =2)", 9), ("example1_prog_file", None, 6)],
    )
    def test_printed_traces_reparse_and_validate(self, request, fixture, mode, max_len, capsys):
        path = request.getfixturevalue(fixture)
        grammar = F.parse_file(Path(path).read_text(encoding="utf-8")).grammar
        argv = ["enumerate", path, "--max-len", str(max_len)] + (["--mode", mode] if mode else [])
        assert main(argv) == 0
        words = capsys.readouterr().out
        assert main(argv + ["--traces"]) == 0
        out = capsys.readouterr().out
        # the words are the lines the plain command prints, in its order
        assert [line for line in out.splitlines() if not line.startswith("  ")] == words.splitlines()
        traces = parse_traces(out, grammar)
        assert traces
        mode = F.parse_mode(mode) if mode else None
        assert traces == enumerate_grammar(
            grammar, Bounds.for_words(max_len), mode=mode, with_traces=True
        ).traces
        for trace in traces.values():
            assert validate_trace(grammar, trace, mode) == []

    def test_zero_step_and_appearance_checking_segments(self):
        S, a = nonterminal("S"), terminal("a")
        trace = DerivationTrace(
            (S,), (TraceSegment(2, ()), TraceSegment(1, ((a, S), (a,))), TraceSegment("p", ((a,),), True))
        )
        assert list(_trace_lines(trace)) == ["  2: (0 steps)", "  1: a S => a", "  p: a [ac]"]


class TestTransform:
    def test_roundtrip_through_disk(self, tmp_path, capsys):
        out = tmp_path / "out.gsw"
        code = main(["transform", "example1", "--k", "2", "-o", str(out)])
        assert code == 0
        assert F.parse_grammar(out.read_text(encoding="utf-8")) == C.build_example1(2)

    def test_snk_writes_mode_line(self, tmp_path):
        out = tmp_path / "snk.gsw"
        assert main(["transform", "snk", "--n", "1", "--k", "1", "-o", str(out)]) == 0
        gf = F.parse_file(out.read_text(encoding="utf-8"))
        assert gf.uniform_mode == t_and(exactly(2))

    def test_cd_to_programmed(self, example1_file, tmp_path):
        out = tmp_path / "prog.gsw"
        code = main(["transform", "cd-to-programmed", example1_file,
                     "--k", "2", "-o", str(out)])
        assert code == 0
        pg = F.parse_grammar(out.read_text(encoding="utf-8"))
        assert pg == C.cd_to_programmed(C.build_example1(2), 2, "exactly")

    def test_unknown_transform(self, tmp_path, capsys):
        assert main(["transform", "bogus", "-o", str(tmp_path / "x.gsw")]) == 2

    def test_missing_parameter(self, example1_file, tmp_path):
        code = main(["transform", "prolong", example1_file,
                     "-o", str(tmp_path / "x.gsw")])
        assert code == 2

    def test_zero_k_is_not_the_default(self, tmp_path, capsys):
        code = main(["transform", "finite-to-cd1", "--words", "a b", "--k", "0",
                     "-o", str(tmp_path / "x.gsw")])
        assert code == 2
        assert "k must be positive" in capsys.readouterr().err

    def test_bad_terminal_name_is_an_error(self, capsys):
        code = main(["transform", "finite-to-cd1", "--words", "a b#", "-o", "-"])
        assert code == 2
        assert "error: terminal name 'b#' is not an identifier" in capsys.readouterr().err


class TestCheckEquiv:
    def test_equal_is_exit_zero(self, example1_file, example1_prog_file, capsys):
        code = main(["check-equiv", example1_file, example1_prog_file,
                     "--mode-a", "(t & =2)", "--max-len", "9"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_difference_is_exit_one_with_report(
        self, example1_file, example1_prog_file, capsys
    ):
        code = main(["check-equiv", example1_file, example1_prog_file,
                     "--mode-a", "(t & <=2)", "--max-len", "9"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("MISSING ") or out.startswith("EXTRA ")


class TestIndex:
    def test_word_index(self, anbnambm_file, capsys):
        code = main(["index", anbnambm_file, "--word", "abab", "--max-len", "8"])
        assert code == 0
        assert capsys.readouterr().out == "2\n"

    def test_word_segmentation_multichar(self, example1_file, capsys):
        code = main(["index", example1_file, "--word", "a1a2a3",
                     "--mode", "(t & =2)", "--max-len", "9"])
        assert code == 0
        assert capsys.readouterr().out == "2\n"

    def test_unknown_word(self, anbnambm_file, capsys):
        code = main(["index", anbnambm_file, "--word", "aabb", "--max-len", "8"])
        assert code == 0
        assert capsys.readouterr().out == "UNKNOWN\n"

    def test_unsegmentable_word(self, anbnambm_file, capsys):
        assert main(["index", anbnambm_file, "--word", "abz", "--max-len", "8"]) == 2

    def test_segmentation_backtracks(self, tmp_path, capsys):
        # longest match takes abc and is left with d; ab cd is the only split
        path = tmp_path / "seg.gsw"
        path.write_text(
            "grammar seg cdgs\nnonterminals S\nterminals ab abc cd\naxiom S\n"
            "mode t\ncomponent\n  S -> ab cd\n",
            encoding="utf-8",
        )
        for word in ("abcd", "ab cd"):
            assert main(["index", str(path), "--word", word, "--max-len", "4"]) == 0
            assert capsys.readouterr().out == "1\n"
        assert main(["index", str(path), "--word", "abcda", "--max-len", "5"]) == 2
        assert "cannot segment" in capsys.readouterr().err

    def test_length_pruned_erasing_search_is_truncated(self, tmp_path, capsys):
        S, A, a = nonterminal("S"), nonterminal("A"), terminal("a")
        g = CdSystem(
            nonterminals=frozenset({S, A}),
            terminals=frozenset({a}),
            axiom=S,
            components=((Rule(S, (A, A, A, a)), Rule(A, ())),),
            lambda_free=False,
        )
        path = tmp_path / "erasing.gsw"
        path.write_text(F.serialize(g, uniform_mode=t_and(exactly(1))), encoding="utf-8")
        code = main(["index", str(path), "--word", "a", "--max-len", "1",
                     "--max-form-len", "2", "--strict"])
        assert code == 3
        assert capsys.readouterr().out == "UNKNOWN\n"

    def test_empty_word_is_an_error(self, tmp_path, capsys):
        # no bounded language holds the empty word, even where the grammar
        # derives it: here S => A => λ in one t-turn
        path = tmp_path / "erasing.gsw"
        path.write_text(
            "grammar er cdgs\nnonterminals S A\nterminals a\naxiom S\nmode t\n"
            "component\n  S -> A\n  A -> #\n  A -> a\n",
            encoding="utf-8",
        )
        assert main(["index", str(path), "--word", "", "--max-len", "3"]) == 2
        assert capsys.readouterr().out == ""


class TestNsfCheck:
    def test_clean_grammar(self, tmp_path, pg_abc, capsys):
        path = tmp_path / "pg.gsw"
        path.write_text(F.serialize(pg_abc), encoding="utf-8")
        code = main(["nsf-check", str(path), "--depth", "12"])
        assert code == 0
        out = capsys.readouterr().out
        assert "VIOLATION" not in out

    def test_violating_grammar(self, tmp_path, capsys):
        text = (
            "grammar bad programmed lambda-free\n"
            "nonterminals S A\nterminals x\naxiom S\n"
            "rule p : S -> A A ; succ q ; fail\n"
            "rule q : A -> x ; succ q ; fail\n"
        )
        path = tmp_path / "bad.gsw"
        path.write_text(text, encoding="utf-8")
        code = main(["nsf-check", str(path), "--depth", "8"])
        assert code == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_needs_programmed_grammar(self, example1_file):
        assert main(["nsf-check", example1_file, "--depth", "4"]) == 2

    def test_negative_depth_is_an_error(self, example1_prog_file, capsys):
        assert main(["nsf-check", example1_prog_file, "--depth", "-1"]) == 2
        captured = capsys.readouterr()
        assert "INCONCLUSIVE" not in captured.out
        assert "depth" in captured.err

    def test_report_does_not_depend_on_the_hash_seed(self, tmp_path):
        # property-3 violations of several nonterminals in one form are
        # listed in name order, not in the order of a frozenset of symbols
        path = tmp_path / "four.gsw"
        path.write_text(
            "grammar four programmed\nnonterminals B S A\nterminals a b\naxiom B\n"
            "rule t : B -> A S ; succ q ; fail p r t\n"
            "rule r : B -> a b ; succ q t ; fail t\n"
            "rule q : S -> S B ; succ q t ; fail q\n"
            "rule p : S -> A ; succ p ; fail q\n",
            encoding="utf-8",
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            run = subprocess.run(
                [sys.executable, "-m", "gsworkbench.cli", "nsf-check", str(path), "--depth", "6"],
                env=env, capture_output=True, check=False,
            )
            assert run.returncode == 1, run.stderr
            outputs.append(run.stdout)
        assert b"VIOLATION 3" in outputs[0]
        assert outputs[0] == outputs[1]
