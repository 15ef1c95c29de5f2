import argparse
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from gsworkbench import cli, constructions as C
from gsworkbench import fileformat as F
from gsworkbench.cli import _trace_lines, build_parser, main
from gsworkbench.engine import (
    Bounds,
    DerivationTrace,
    TraceSegment,
    enumerate_grammar,
    validate_trace,
)
from gsworkbench.model import CdSystem, HcdSystem, Rule, exactly, nonterminal, t_and, terminal


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
def example1_atmost_prog_file(tmp_path):
    pg = C.cd_to_programmed(C.build_example1(2), 2, "atmost")
    path = tmp_path / "example1_k2_atmost_prog.gsw"
    path.write_text(F.serialize(pg), encoding="utf-8")
    return str(path)


@pytest.fixture
def hcd_file(tmp_path):
    g = C.build_anbnambm()
    hcd = HcdSystem(g.nonterminals, g.terminals, g.axiom, g.components,
                    (t_and(exactly(1)),) * g.degree, g.lambda_free, g.name)
    path = tmp_path / "anbnambm_hcd.gsw"
    path.write_text(F.serialize(hcd), encoding="utf-8")
    return str(path)


@pytest.fixture
def sources(tmp_path, example1_file, pg_abc):
    """Source files for the transforms, by name: a linear and an index-3
    one-component cdgs file, one with a non-linear rule, example1(2) (two
    components) and the programmed grammar for a^n b^n c^n."""
    texts = {
        "linear": "grammar lin cdgs\nnonterminals S\nterminals a b\naxiom S\nmode t\n"
        "component\n  S -> a S b\n  S -> a b\n",
        "cf3": "grammar cf3 cdgs\nnonterminals S A B\nterminals a b\naxiom S\nmode t\ncomponent\n"
        "  S -> A B\n  A -> a A\n  A -> a\n  A -> A B\n  B -> b B\n  B -> b\n",
        "nonlinear": "grammar nl cdgs\nnonterminals S A\nterminals a\naxiom S\nmode t\n"
        "component\n  S -> A A\n  A -> a\n",
        "pg": F.serialize(pg_abc),
        # failure-free and outside NSF: A occurs twice in the form A A
        "nonnsf": "grammar nonnsf programmed\nnonterminals S A\nterminals a\naxiom S\n"
        "rule p : S -> A A ; succ q ; fail\nrule q : A -> a ; succ q ; fail\n",
    }
    paths = {"example1": example1_file}
    for name, text in texts.items():
        path = tmp_path / ("%s.gsw" % name)
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


@pytest.fixture
def cut_file(tmp_path):
    """An erasing system whose one word a is found while the form cap 2
    cuts the turn S => A A A a, which might erase back to a shorter word."""
    path = tmp_path / "cut.gsw"
    path.write_text(
        "grammar cut cdgs\nnonterminals S A\nterminals a\naxiom S\nmode (t & =1)\n"
        "component\n  S -> a\n  S -> A A A a\n  A -> #\n",
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def anbnambm_file(tmp_path):
    path = tmp_path / "anbnambm.gsw"
    path.write_text(
        F.serialize(C.build_anbnambm(), uniform_mode=t_and(exactly(1))),
        encoding="utf-8",
    )
    return str(path)


def run_under_hash_seed(seed, args, **kwargs):
    """`python` with `args` in a new process under ``PYTHONHASHSEED=seed``,
    the package's source on its path: the completed process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, check=False, **kwargs)


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
        assert capsys.readouterr() == (
            "", "error: a cdgs file needs a mode (file 'mode' line or --mode)\n"
        )

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

    def test_file_that_is_not_utf8_is_a_read_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsw"
        bad.write_bytes(b"grammar x cdgs\n\xff\xfe\n")
        assert main(["enumerate", str(bad), "--max-len", "3"]) == 2
        assert "error: cannot read %s: " % bad in capsys.readouterr().err

    def test_second_grammar_header_is_parse_error(self, tmp_path, capsys):
        dup = tmp_path / "dup.gsw"
        dup.write_text(
            "grammar x cdgs\nnonterminals S\nterminals a\naxiom S\n"
            "component\n  S -> a\ngrammar y hcdgs\n",
            encoding="utf-8",
        )
        assert main(["enumerate", str(dup), "--max-len", "3"]) == 2
        assert "second grammar header (line 7)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("axiom S\naxiom A\nmode t\nmode =2\n", "second axiom line (line 5)"),
            ("axiom S\nmode t\nmode =2\n", "second mode line (line 6)"),
        ],
        ids=["axiom", "mode"],
    )
    def test_second_axiom_or_mode_line_is_parse_error(self, tmp_path, capsys, lines, message):
        # the last line used to win without a word
        dup = tmp_path / "dup.gsw"
        dup.write_text(
            "grammar x cdgs\nnonterminals S A\nterminals a\n" + lines
            + "component\n  S -> a\n  A -> a a\n",
            encoding="utf-8",
        )
        assert main(["enumerate", str(dup), "--max-len", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


    def test_strict_exits_3_on_a_cut_erasing_grammar(self, cut_file, capsys):
        argv = ["enumerate", cut_file, "--max-len", "1", "--max-form-len", "2"]
        assert main(argv + ["--strict"]) == 3
        assert capsys.readouterr() == ("a\n", "TRUNCATED\n")
        assert main(argv) == 0
        assert capsys.readouterr() == ("a\n", "")


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
        [
            ("example1_file", "(t & =2)", 9),
            ("example1_prog_file", None, 6),
            # its traces hold runs of several [ac] segments
            ("example1_atmost_prog_file", None, 9),
        ],
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

    def test_printed_traces_do_not_depend_on_the_hash_seed(self, example1_atmost_prog_file):
        # the programmed walk keys its failure chains on a tuple built from
        # a set of lhs symbols
        argv = ["-m", "gsworkbench.cli", "enumerate", example1_atmost_prog_file, "--traces", "--max-len", "9"]
        outputs = []
        for seed in ("1", "2"):
            run = run_under_hash_seed(seed, argv)
            assert run.returncode == 0, run.stderr
            outputs.append(run.stdout)
        assert b" [ac]" in outputs[0]
        assert outputs[0] == outputs[1]

    # the first 16 hex digits of the sha256 of each command's stdout.  A
    # change to a printed trace is a bug, so a digest changes only with the
    # fix of a defect: the fix of ROADMAP item 12 (cf_indexk_to_cd2 loses
    # words) changes the cf3-cd2 one
    @pytest.mark.parametrize(
        "system, mode, max_len, digest",
        [
            ("example1(2)", "*", 24, "bcd9c6c5fe35089d"),
            ("example1(3)", "(t & <=3)", 16, "6a1bdc80d540e065"),
            ("s3", "(t & =2)", 49, "db7cb84ecd561a5a"),
            ("anbnambm", "(t & =1)", 24, "2686f93b2e73f556"),
            ("prolong(anbnambm,3)", "(t & =3)", 14, "5e8d65fb8d1d63a8"),
            ("cf3-cd2", "(t & =3)", 14, "3a0f66598cee5c9e"),
        ],
    )
    def test_printed_traces_are_pinned(self, tmp_path, system, mode, max_len, digest, capsys):
        S, A, B, a, b = *map(nonterminal, "SAB"), terminal("a"), terminal("b")
        cf3 = (Rule(S, (A, B)), Rule(A, (a, A)), Rule(A, (a,)), Rule(A, (A, B)), Rule(B, (b, B)), Rule(B, (b,)))
        build = {
            "example1(2)": lambda: C.build_example1(2),
            "example1(3)": lambda: C.build_example1(3),
            "s3": C.build_s3_cd3,
            "anbnambm": C.build_anbnambm,
            "prolong(anbnambm,3)": lambda: C.prolong(C.build_anbnambm(), 3),
            "cf3-cd2": lambda: C.cf_indexk_to_cd2(C.IndexedCfGrammar(frozenset({S, A, B}), frozenset({a, b}), S, cf3, 3)),
        }[system]
        path = tmp_path / "system.gsw"
        path.write_text(F.serialize(build()), encoding="utf-8")
        assert main(["enumerate", str(path), "--mode", mode, "--traces", "--max-len", str(max_len)]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.count("\n  ") > 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest()[:16] == digest

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

    def test_cd_to_programmed_of_a_system_with_no_rule_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "e.gsw"
        path.write_text("grammar e cdgs lambda-free\nnonterminals S\nterminals a\naxiom S\n"
                        "component\n", encoding="utf-8")
        out = tmp_path / "prog.gsw"
        assert main(["transform", "cd-to-programmed", str(path), "--k", "2", "-o", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "error: the system has no rule, so its programmed grammar would have no label\n")
        assert not out.exists()

    @pytest.mark.parametrize("target", ["missing/x.gsw", "."], ids=["no such directory", "a directory"])
    def test_unwritable_output_is_a_write_error(self, tmp_path, target, capsys):
        out = tmp_path / target
        assert main(["transform", "s3", "-o", str(out)]) == 2
        assert "error: cannot write %s: " % out in capsys.readouterr().err

    def test_unknown_transform(self, tmp_path, capsys):
        assert main(["transform", "nosuch", "-o", str(tmp_path / "x.gsw")]) == 2
        assert capsys.readouterr() == ("", "error: unknown transform 'nosuch'\n")

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

    def test_nsf_to_cdgs_rejects_appearance_checking(self, tmp_path, pg_ac, capsys):
        path, out = tmp_path / "ac.gsw", tmp_path / "cd.gsw"
        path.write_text(F.serialize(pg_ac), encoding="utf-8")
        code = main(["transform", "nsf-to-cdgs", str(path), "--m", "2",
                     "--mode", "(t & =2)", "-o", str(out)])
        assert code == 2
        assert "appearance checking is not simulated" in capsys.readouterr().err
        assert not out.exists()

    def test_linear_to_cd2(self, sources, tmp_path):
        out = tmp_path / "out.gsw"
        assert main(["transform", "linear-to-cd2", sources["linear"], "-o", str(out)]) == 0
        g = F.parse_grammar(Path(sources["linear"]).read_text(encoding="utf-8"))
        source = C.LinearGrammar(g.nonterminals, g.terminals, g.axiom, g.components[0])
        assert F.parse_file(out.read_text(encoding="utf-8")) == F.GrammarFile(C.linear_to_cd2(source))

    def test_cf_to_cd2(self, sources, tmp_path):
        out = tmp_path / "out.gsw"
        assert main(["transform", "cf-to-cd2", sources["cf3"], "--k", "3", "-o", str(out)]) == 0
        g = F.parse_grammar(Path(sources["cf3"]).read_text(encoding="utf-8"))
        source = C.IndexedCfGrammar(g.nonterminals, g.terminals, g.axiom, g.components[0], 3)
        assert F.parse_file(out.read_text(encoding="utf-8")) == F.GrammarFile(C.cf_indexk_to_cd2(source))

    def test_prolong(self, example1_file, tmp_path):
        out = tmp_path / "out.gsw"
        assert main(["transform", "prolong", example1_file, "--ell", "2", "-o", str(out)]) == 0
        want = C.prolong(C.build_example1(2), 2)
        assert F.parse_file(out.read_text(encoding="utf-8")) == F.GrammarFile(want)

    def test_anbnambm(self, tmp_path):
        out = tmp_path / "out.gsw"
        assert main(["transform", "anbnambm", "-o", str(out)]) == 0
        assert F.parse_file(out.read_text(encoding="utf-8")) == F.GrammarFile(C.build_anbnambm())

    def test_nsf_to_cdgs_writes_its_target_mode(self, sources, pg_abc, tmp_path):
        out = tmp_path / "out.gsw"
        argv = ["transform", "nsf-to-cdgs", sources["pg"], "--m", "3", "--mode", "(t & =3)", "-o", str(out)]
        assert main(argv) == 0
        target = t_and(exactly(3))
        want = F.GrammarFile(C.nsf_programmed_to_cdgs(pg_abc, 3, target), target)
        assert F.parse_file(out.read_text(encoding="utf-8")) == want

    def test_the_source_file_may_follow_an_option(self, example1_file, capsys):
        outs = []
        for args in ([example1_file, "--k", "2"], ["--k", "2", example1_file]):
            assert main(["transform", "cd-to-programmed"] + args + ["-o", "-"]) == 0
            outs.append(capsys.readouterr())
        assert outs[0] == outs[1] and outs[0].out.startswith("grammar example1_k2_prog ")

    @pytest.mark.parametrize("args", [["no-such.gsw", "-o", "-"], ["-o", "-", "no-such.gsw"]],
                             ids=["file before -o", "file after -o"])
    def test_a_construction_with_no_source_refuses_a_file(self, args, capsys):
        assert main(["transform", "anbnambm"] + args) == 2
        assert capsys.readouterr() == ("", "error: transform 'anbnambm' takes no source grammar file\n")

    def test_dash_output_writes_the_grammar_to_stdout(self, capsys):
        assert main(["transform", "snk", "--n", "1", "--k", "1", "-o", "-"]) == 0
        want = F.serialize(C.build_snk_cdgs(1, 1), uniform_mode=C.snk_mode(1))
        assert capsys.readouterr() == (want, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["cf-to-cd2", "linear"], "cf-to-cd2 needs --k (the index bound)"),
            (["cd-to-programmed", "example1"], "cd-to-programmed needs --k"),
            (["snk", "--n", "1"], "snk needs --n and --k"),
            (["snk", "--k", "1"], "snk needs --n and --k"),
            (["nsf-to-cdgs", "pg", "--m", "3"], "nsf-to-cdgs needs --m and --mode"),
            (["nsf-to-cdgs", "pg", "--mode", "(t & =3)"], "nsf-to-cdgs needs --m and --mode"),
            (["finite-to-cd1", "--k", "2"], "finite-to-cd1 needs at least one --words entry"),
            (["prolong", "--ell", "2"], "transform 'prolong' needs a source grammar file"),
            (["cd-to-programmed", "pg", "--k", "2"], "cd-to-programmed needs a cdgs file"),
            (["nsf-to-cdgs", "example1", "--m", "3", "--mode", "(t & =3)"], "nsf-to-cdgs needs a programmed file"),
            (["linear-to-cd2", "pg"], "source grammar must be a single-component cdgs file"),
            (["linear-to-cd2", "example1"], "source grammar must have exactly one component"),
            (["linear-to-cd2", "nonlinear"], "non-linear rule S -> A A"),
            (["snk", "--n", "1", "--k", "-1"], "n and k must be positive"),
            (["example1", "--k", "1"], "k must be at least 2"),
            (["nsf-to-cdgs", "pg", "--m", "3", "--mode", "garbage"],
             "bad character 'g' in mode expression 'garbage'"),
            (["nsf-to-cdgs", "nonnsf", "--m", "2", "--mode", "(t & =2)"],
             "not in NSF: nonterminal A occurs 2 times in form A A; "
             "label q applied to forms with different nonterminal vectors"),
            (["cd-to-programmed", "pg"], "cd-to-programmed needs a cdgs file"),
            (["finite-to-cd1", "--words", ""], "the empty word cannot be generated without erasing rules"),
        ],
        ids=[
            "cf-to-cd2 without --k",
            "cd-to-programmed without --k",
            "snk without --k",
            "snk without --n",
            "nsf-to-cdgs without --mode",
            "nsf-to-cdgs without --m",
            "finite-to-cd1 without --words",
            "no source file",
            "programmed source for cd-to-programmed",
            "cdgs source for nsf-to-cdgs",
            "programmed source for linear-to-cd2",
            "two-component source for linear-to-cd2",
            "non-linear rule for linear-to-cd2",
            "snk with a negative k",
            "example1 with k below 2",
            "malformed mode for nsf-to-cdgs",
            "nsf-to-cdgs outside NSF",
            "programmed source for cd-to-programmed, no --k",
            "finite-to-cd1 with the empty word",
        ],
    )
    def test_usage_error(self, sources, tmp_path, argv, message, capsys):
        out = tmp_path / "out.gsw"
        # argv[0] names the transform, never a source file
        argv = ["transform", argv[0]] + [sources.get(arg, arg) for arg in argv[1:]] + ["-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
        assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "example1", "--mode", "(t & =2)", "--max-len", "5", "--max-form-len", "3"],
         "max_form_len must be >= max_word_len"),
        (["index", "example1", "--mode", "(t & =2)", "--word", "a1 a2 a3", "--max-len", "2"],
         "word longer than max_word_len"),
        (["index", "example1", "--mode", "(t & =2)", "--word", "a1 c", "--max-len", "5"],
         "word symbols 'a1 c' not in the terminal alphabet"),
    ],
    ids=["form cap below word cap", "index word over max-len", "index word off the alphabet"],
)
def test_command_usage_error(sources, argv, message, capsys):
    assert main([sources.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_unreadable_file_is_a_read_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["enumerate", "missing.gsw", "--max-len", "3"]) == 2
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1)
    assert err.startswith("error: cannot read missing.gsw: ")


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


    def test_strict_exits_3_on_a_cut_erasing_grammar(self, cut_file, capsys):
        argv = ["check-equiv", cut_file, cut_file, "--max-len", "1", "--max-form-len", "2"]
        assert main(argv + ["--strict"]) == 3
        assert capsys.readouterr() == ("", "TRUNCATED\n")
        assert main(argv) == 0
        assert capsys.readouterr() == ("", "")


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

    def test_found_index_of_a_length_pruned_erasing_search_is_truncated(self, tmp_path, capsys):
        # the word a is found at index 1, but (S, q) was cut by the form cap
        # before a was popped, and a cut erasing branch might derive a
        path = tmp_path / "cut.gsw"
        path.write_text(
            "grammar cut programmed\nnonterminals S A\nterminals a\naxiom S\n"
            "rule p : S -> a ; succ p ; fail\n"
            "rule q : S -> A A a ; succ r ; fail\n"
            "rule r : A -> # ; succ r ; fail\n",
            encoding="utf-8",
        )
        argv = ["index", str(path), "--word", "a", "--max-len", "1", "--max-form-len", "2"]
        assert main(argv + ["--strict"]) == 3
        assert capsys.readouterr() == ("1\n", "TRUNCATED\n")
        assert main(argv) == 0
        assert capsys.readouterr() == ("1\n", "")

    def test_strict_answers_do_not_depend_on_the_hash_seed(self, tmp_path):
        # on an erasing grammar the truncation flag says whether a cut
        # branch was met before the word was popped, so it follows pop order
        cd, pg = tmp_path / "erasing.gsw", tmp_path / "erasing_prog.gsw"
        cd.write_text(
            "grammar er cdgs\nnonterminals S A\nterminals a b\naxiom S\nmode t\n"
            "component\n  S -> a S b\n  S -> A A\ncomponent\n  A -> a A\n  A -> #\n  A -> b\n",
            encoding="utf-8",
        )
        pg.write_text(
            "grammar erp programmed\nnonterminals S A\nterminals a b\naxiom S\n"
            "rule p : S -> a S A ; succ p q ; fail r\n"
            "rule q : S -> # ; succ r s ; fail r\n"
            "rule r : A -> b ; succ r s ; fail q\n"
            "rule s : A -> # ; succ r ; fail r\n",
            encoding="utf-8",
        )
        words = [" ".join(w) for n in range(1, 5) for w in product("ab", repeat=n)]
        cases = [(cd, ["--mode", mode, "--max-form-len", "6"]) for mode in ("*", "t", "(t & =2)", "=1", "<=2")]
        cases.append((pg, ["--max-form-len", "7"]))
        argvs = [
            ["index", str(path), "--word", word, "--max-len", "4", "--strict", *options]
            for path, options in cases
            for word in words
        ]
        # one process per seed runs `main` on each argv and prints its exit code
        script = "import json, sys\nfrom gsworkbench.cli import main\nfor argv in json.load(sys.stdin): print(main(argv))"
        runs = [run_under_hash_seed(seed, ["-c", script], input=json.dumps(argvs).encode()) for seed in ("1", "2")]
        assert runs[0].returncode == 0, runs[0].stderr
        assert (runs[0].stdout, runs[0].stderr) == (runs[1].stdout, runs[1].stderr)
        lines = runs[0].stdout.decode().splitlines()
        answers, codes = lines[::2], lines[1::2]
        assert len(codes) == len(argvs) and set(codes) == {"0", "3"}
        assert "UNKNOWN" in answers and any(answer.isdigit() for answer in answers)

    def test_a_file_without_the_lambda_free_flag_whose_rules_never_erase_is_exact(self, tmp_path, capsys):
        path = tmp_path / "aplus.gsw"
        path.write_text(
            "grammar aplus cdgs\nnonterminals S\nterminals a\naxiom S\n"
            "mode t\ncomponent\n  S -> a S\n  S -> a\n",
            encoding="utf-8",
        )
        assert main(["enumerate", str(path), "--max-len", "3", "--strict"]) == 0
        assert capsys.readouterr() == ("a\na a\na a a\n", "")
        assert main(["index", str(path), "--word", "aaa", "--max-len", "3", "--strict"]) == 0
        assert capsys.readouterr() == ("1\n", "")

    def test_empty_programmed_rhs_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "empty.gsw"
        path.write_text(
            "grammar e programmed\nnonterminals S\nterminals a\naxiom S\n"
            "rule p : S -> ; succ p ; fail\nrule q : S -> a ; succ q ; fail\n",
            encoding="utf-8",
        )
        assert main(["index", str(path), "--word", "a", "--max-len", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "expected 'rule <label> : <lhs> -> <rhs> ; succ ... ; fail ...' (line 5)" in captured.err

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


class TestModeFlag:
    @pytest.mark.parametrize("fixture", ["example1_prog_file", "hcd_file"])
    @pytest.mark.parametrize("argv", [
        ["enumerate", "FILE", "--mode", "garbage", "--max-len", "6"],
        ["index", "FILE", "--mode", "garbage", "--word", "ab", "--max-len", "6"],
        ["check-equiv", "FILE", "FILE", "--mode-a", "garbage", "--max-len", "6"],
        ["check-equiv", "FILE", "FILE", "--mode-b", "garbage", "--max-len", "6"],
    ], ids=["enumerate", "index", "check-equiv-a", "check-equiv-b"])
    def test_malformed_mode_is_an_error_on_every_kind(self, request, fixture, argv, capsys):
        # a non-cdgs file ignores a well-formed mode, but not a malformed one
        path = request.getfixturevalue(fixture)
        assert main([path if a == "FILE" else a for a in argv]) == 2
        assert "bad character 'g'" in capsys.readouterr().err


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

    def test_needs_programmed_grammar(self, example1_file, capsys):
        assert main(["nsf-check", example1_file, "--depth", "4"]) == 2
        assert capsys.readouterr() == ("", "error: nsf-check needs a programmed grammar file\n")

    def test_default_depth_is_the_construction_depth(self):
        # the depth nsf-to-cdgs checks NSF to is written once
        assert build_parser().parse_args(["nsf-check", "p.gsw"]).depth == C.NSF_DEPTH == 16

    def test_negative_depth_is_an_error(self, example1_prog_file, capsys):
        assert main(["nsf-check", example1_prog_file, "--depth", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: --depth must not be negative\n")

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
        outputs = []
        for seed in ("1", "2"):
            run = run_under_hash_seed(seed, ["-m", "gsworkbench.cli", "nsf-check", str(path), "--depth", "6"])
            assert run.returncode == 1, run.stderr
            outputs.append(run.stdout)
        assert b"VIOLATION 3" in outputs[0]
        assert outputs[0] == outputs[1]


# gsw's commands with their help texts, in the order `gsw --help` lists them
COMMANDS = [
    ("enumerate", "print the bounded language, length-lex"),
    ("transform", "apply a construction and write a grammar file"),
    ("check-equiv", "compare two bounded languages"),
    ("index", "minimum derivation index of a word"),
    ("nsf-check", "check nonterminal separation form"),
]
NAMES = [name for name, _ in COMMANDS]
# one well-formed argv per command, for parsing only
MINIMAL_ARGV = {
    "enumerate": ["enumerate", "g.gsw", "--max-len", "3"],
    "transform": ["transform", "s3", "-o", "-"],
    "check-equiv": ["check-equiv", "a.gsw", "b.gsw", "--max-len", "3"],
    "index": ["index", "g.gsw", "--word", "a", "--max-len", "3"],
    "nsf-check": ["nsf-check", "p.gsw"],
}


def exit_code(argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    return info.value.code


class TestCommandLineSurface:
    @pytest.fixture(autouse=True)
    def _fixed_width(self, monkeypatch):
        # argparse wraps help to the terminal width it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")

    def test_help_lists_every_command_in_order(self, capsys):
        assert exit_code(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: gsw [-h] {%s} ..." % ",".join(NAMES))
        listed = re.findall(r"^    (\S+) +(.+)$", out, re.M)
        assert listed == COMMANDS

    @pytest.mark.parametrize("argv", [[], ["nosuch"]], ids=["no arguments", "unknown"])
    def test_missing_or_unknown_command_exits_2(self, argv, capsys):
        assert exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gsw [-h] {%s} ..." % ",".join(NAMES))
        if argv:
            assert "invalid choice: 'nosuch' (choose from %s)" % ", ".join(
                "'%s'" % name for name in NAMES) in err

    @pytest.mark.parametrize("name", NAMES)
    def test_command_help(self, name, capsys):
        assert exit_code([name, "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: gsw %s " % name)

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("rest", [["--help"], []], ids=["help", "missing arguments"])
    def test_command_parser_matches_the_listed_subparser(self, name, rest, capsys):
        # main parses a named command with that command's parser alone; its
        # help and usage errors must stay those of build_parser's subparser
        with pytest.raises(SystemExit) as listed:
            build_parser().parse_args([name] + rest)
        expected = capsys.readouterr()
        assert exit_code([name] + rest) == listed.value.code == (0 if rest else 2)
        got = capsys.readouterr()
        assert (got.out, got.err) == (expected.out, expected.err)
        assert (expected.out or expected.err).startswith("usage: gsw %s " % name)

    def test_leftover_argument_usage_names_every_command(self, capsys):
        # reported by the top-level parser, after the command's own parser
        assert exit_code(MINIMAL_ARGV["index"] + ["--bogus"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gsw [-h] {%s} ..." % ",".join(NAMES))
        assert err.endswith("gsw: error: unrecognized arguments: --bogus\n")

    def test_leftover_positional_usage_names_every_command(self, capsys):
        # the intermixed parse leaves it over too, so the top-level parser reports it
        assert exit_code(["enumerate", "g.gsw", "--max-len", "5", "junk"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: gsw [-h] {%s} ..." % ",".join(NAMES))
        assert err.endswith("gsw: error: unrecognized arguments: junk\n")

    def test_main_reads_sys_argv(self, monkeypatch, example1_prog_file, capsys):
        monkeypatch.setattr(sys, "argv", ["gsw", "nsf-check", example1_prog_file, "--depth", "4"])
        assert main() == 1
        assert capsys.readouterr().out.startswith("VIOLATION 1 start symbol")
        monkeypatch.setattr(sys, "argv", ["gsw", "index", "--help"])
        assert exit_code(None) == 0
        assert capsys.readouterr().out.startswith("usage: gsw index ")

    def test_a_parser_reads_the_terminal_width_once(self, tmp_path, monkeypatch):
        # argparse builds a help formatter on every add_argument, and each
        # would read the terminal size
        monkeypatch.chdir(tmp_path)
        calls, real = [], shutil.get_terminal_size

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(shutil, "get_terminal_size", counted)
        assert main(MINIMAL_ARGV["index"]) == 2  # g.gsw cannot be read
        assert len(calls) == 1
        build_parser()
        assert len(calls) == 2

    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["index", "--help"], ["index"], ["nosuch"], MINIMAL_ARGV["index"] + ["--bogus"]],
        ids=["help", "command help", "missing arguments", "unknown", "leftover"],
    )
    def test_help_and_usage_are_those_of_the_default_formatter(self, argv, columns, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", columns)
        code = exit_code(argv)
        got = capsys.readouterr()
        monkeypatch.setattr(cli, "_help_formatter", lambda: argparse.HelpFormatter)
        assert exit_code(argv) == code
        assert capsys.readouterr() == got

    @pytest.mark.parametrize("name", NAMES)
    def test_build_parser_knows_every_command(self, name):
        args = build_parser().parse_args(MINIMAL_ARGV[name])
        assert args.command == name
        assert callable(args.func)


class TestCommandChains:
    """Commands that read what an earlier command wrote, each run through
    main in an empty directory."""

    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)

    @pytest.fixture
    def cd2(self, sources, capsys):
        """The index-3 CF grammar S -> A B, A -> a A | a | A B,
        B -> b B | b through cf-to-cd2, as cd2.gsw."""
        assert main(["transform", "cf-to-cd2", sources["cf3"], "--k", "3", "-o", "cd2.gsw"]) == 0
        assert capsys.readouterr() == ("", "")
        return "cd2.gsw"

    @pytest.fixture
    def ab(self, capsys):
        """anbnambm as ab.gsw, and its cd-to-programmed at k = 1 as pab.gsw."""
        assert main(["transform", "anbnambm", "-o", "ab.gsw"]) == 0
        assert main(["transform", "cd-to-programmed", "ab.gsw", "--k", "1", "-o", "pab.gsw"]) == 0
        assert capsys.readouterr() == ("", "")
        return "ab.gsw"

    def test_le_and_eq_turns_give_the_same_words(self, cd2, capsys):
        # (t & <=k) turns whose unit self-loops meet a form at several
        # step counts
        words = []
        for mode in ("(t & <=3)", "(t & =3)"):
            assert main(["enumerate", cd2, "--mode", mode, "--max-len", "5"]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            words.append(out.splitlines())
        assert words[0] == words[1]
        assert (len(words[0]), words[0][0], words[0][-1]) == (10, "a b", "a b b b b")

    @pytest.mark.parametrize("max_len", ["6", "40"])
    @pytest.mark.parametrize("word, index", [("a a b b b", "2"), ("b a", "UNKNOWN")])
    def test_cd_index(self, cd2, max_len, word, index, capsys):
        # the system cannot erase, so the answer is exact under --strict; on a
        # lambda-free system the search stops at the word's length and at
        # its terminal ends, so --max-len 40 answers as fast as 6
        argv = ["index", cd2, "--mode", "(t & =3)", "--word", word, "--max-len", max_len, "--strict"]
        assert main(argv) == 0
        assert capsys.readouterr() == (index + "\n", "")

    @pytest.mark.parametrize(
        "mode, max_len, line",
        [
            ("(t & <=3)", "2", "  1: A' B => A' B'"),
            # the turn from a a A b prints the full forms, though turns are
            # shared by nonterminal skeleton, which leaves out a a and b
            ("(t & =3)", "6", "  1: a a A b => a a A b => a a A' b"),
            # the turn from a b b B' b b b B' is cut at the form cap: the
            # turn kept for its skeleton ran under a larger cap and has a
            # longer row, and the system is λ-free, so this cap gets a view
            # of that turn without the forms longer than the cap
            ("(t & =3)", "8", "  2: a b b b b b b B' => a b b b b b b B' => a b b b b b b b"),
        ],
        ids=["le", "eq", "eq at the form cap"],
    )
    def test_cd_trace_line(self, cd2, mode, max_len, line, capsys):
        assert main(["enumerate", cd2, "--mode", mode, "--max-len", max_len, "--traces"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert line in out.splitlines()

    def test_anbnambm_trace(self, ab, capsys):
        assert main(["enumerate", ab, "--mode", "(t & =1)", "--max-len", "4", "--traces"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert {"a b a b", "  3: a b a b"} <= set(out.splitlines())

    @pytest.mark.parametrize("word, index", [("aabbaabb", "2"), ("abba", "UNKNOWN")])
    def test_anbnambm_index(self, ab, word, index, capsys):
        assert main(["index", ab, "--mode", "(t & =1)", "--word", word, "--max-len", "8"]) == 0
        assert capsys.readouterr() == (index + "\n", "")

    def test_index_without_word_is_its_parsers_usage_error(self, ab, capsys):
        assert exit_code(["index", ab, "--max-len", "8"]) == 2
        out, err = capsys.readouterr()
        lines = err.splitlines()
        assert out == ""
        assert lines[0].startswith("usage: gsw index ")
        assert lines[-1] == "gsw index: error: the following arguments are required: --word"

    def test_programmed_nsf_violation(self, ab, capsys):
        assert main(["nsf-check", "pab.gsw", "--depth", "20"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert "VIOLATION 1 start symbol appears in 2 productions (1_1_1 1_1)" in out.splitlines()

    @pytest.mark.parametrize("word, index", [("aabbab", "2"), ("abba", "UNKNOWN")])
    def test_programmed_index(self, ab, word, index, capsys):
        # stepped by each label's one rule; the grammar cannot erase, so the
        # answer is exact under --strict
        assert main(["index", "pab.gsw", "--word", word, "--max-len", "8", "--strict"]) == 0
        assert capsys.readouterr() == (index + "\n", "")

    def test_nsf_chain(self, sources, capsys):
        # pg_abc is in NSF at the default depth; nsf-to-cdgs simulates it by
        # a CD system of index 3 in (t & =3), and the two languages agree
        pg = sources["pg"]
        assert main(["nsf-check", pg]) == 0
        assert capsys.readouterr().err == ""
        assert main(["transform", "nsf-to-cdgs", pg, "--m", "3", "--mode", "(t & =3)", "-o", "cd.gsw"]) == 0
        assert main(["enumerate", "cd.gsw", "--max-len", "9"]) == 0
        assert capsys.readouterr() == ("a b c\na a b b c c\na a a b b b c c c\n", "")
        assert main(["check-equiv", pg, "cd.gsw", "--max-len", "9"]) == 0
        assert capsys.readouterr() == ("", "")


def readme_cli_lines():
    """Each ``gsw`` line of README's CLI block, in order, with the exit code
    the comment above it documents: ``exits N`` where it says so, else 0."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    comment, lines = "", []
    for line in block.splitlines():
        if not line.strip():
            comment = ""
        elif line.startswith("#"):
            comment += line
        else:
            found = re.search(r"exits (\d)", comment)
            lines.append((shlex.split(line, comments=True), int(found.group(1)) if found else 0))
    return lines


def test_readme_cli_block_runs_top_to_bottom(tmp_path, monkeypatch, capsys):
    # the block is run in order in an empty directory, so each file a line
    # reads is written by a line above it
    monkeypatch.chdir(tmp_path)
    lines = readme_cli_lines()
    assert {argv[1] for argv, _ in lines} == set(NAMES)
    for argv, code in lines:
        assert argv[0] == "gsw"
        assert (argv, main(argv[1:])) == (argv, code)
        assert capsys.readouterr().err == ""
