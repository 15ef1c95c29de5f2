"""The benchmark's three workloads: set-up, job lists and answer checks.

A job is one timed call into the program: a public API function, or one
``gsw`` command run in-process through ``cli.main(argv)``.  After each pass
its result is reduced to canonical text.  The text is checked against an
independent oracle where one exists (closed forms from ``verifier.expand``,
finite word sets, or the naive context-free BFS below); otherwise against the
digest pinned at the seed commit in ``pins.json`` (see ``pin.py``).

Every workload function takes the imported ``gsworkbench`` package and calls
through its module attributes at call time, so the traced run's patched
bindings are the ones used.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shlex
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

PINS_PATH = Path(__file__).with_name("pins.json")


@dataclass
class Job:
    name: str
    call: Callable[[], object]  # the timed call into the program
    answer: Callable[[object], str]  # canonical text of its result, untimed
    oracle: Optional[Callable[[], str]] = None  # expected text; None: pinned


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def words_text(words) -> str:
    ordered = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
    return "".join(" ".join(w) + "\n" for w in ordered)


def cf_words(rules, axiom, max_len: int) -> set:
    """Words of length <= max_len of a λ-free context-free grammar.

    A naive breadth-first search over sentential forms that shares no code
    with ``gsworkbench.engine``; it is the oracle for the CD simulations of
    context-free grammars.
    """
    rhs_of: Dict[object, list] = {}
    for rule in rules:
        rhs_of.setdefault(rule.lhs, []).append(rule.rhs)
    start = (axiom,)
    seen = {start}
    queue = deque([start])
    words = set()
    while queue:
        form = queue.popleft()
        for i, sym in enumerate(form):
            for rhs in rhs_of.get(sym, ()):
                nxt = form[:i] + rhs + form[i + 1 :]
                if len(nxt) > max_len or nxt in seen:
                    continue
                seen.add(nxt)
                queue.append(nxt)
                if all(s.is_terminal() for s in nxt):
                    words.add(tuple(s.name for s in nxt))
    return words


# Jobs whose answer at the seed commit differs from their oracle: a defect in
# the program, not in the benchmark.  pin.py pins that answer under
# "known-defects"; a run accepts it beside the oracle's answer, and reports
# every call that gave it.
KNOWN_DEFECTS = {
    "cd-enumerate": {
        "snk(2,2,atmost) (t & <=3) 37":
            "overgenerates: 21 words at max_len 37 against block_pump(4)'s 3",
    },
}


def expected_digests(workload: str, jobs: List[Job]) -> Dict[str, str]:
    """Expected answer digest of every job, from its oracle or its pin."""
    pins = load_pins().get(workload, {})
    out = {}
    for job in jobs:
        if job.oracle is not None:
            out[job.name] = digest(job.oracle())
        elif job.name in pins:
            out[job.name] = pins[job.name]
        else:
            raise KeyError("no oracle and no pinned answer for job %r" % job.name)
    return out


def defect_digests(workload: str) -> Dict[str, str]:
    """The seed commit's answer digest of every known defect of the workload."""
    pinned = load_pins().get("known-defects", {}).get(workload, {})
    missing = set(KNOWN_DEFECTS.get(workload, {})) - set(pinned)
    if missing:
        raise KeyError("known defects without a pinned answer: %s" % sorted(missing))
    return pinned


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Grammars the program has no builder for
# ---------------------------------------------------------------------------


def cf_index3_source(gsw):
    """S -> AB, A -> aA | a | AB, B -> bB | b: index 3, language a+ b+."""
    M = gsw.model
    S, A, B = (M.nonterminal(n) for n in "SAB")
    a, b = M.terminal("a"), M.terminal("b")
    rules = (
        M.Rule(S, (A, B)),
        M.Rule(A, (a, A)),
        M.Rule(A, (a,)),
        M.Rule(A, (A, B)),
        M.Rule(B, (b, B)),
        M.Rule(B, (b,)),
    )
    return gsw.constructions.IndexedCfGrammar(
        frozenset({S, A, B}), frozenset({a, b}), S, rules, 3
    )


def one_component(gsw, g, name):
    """A context-free grammar as the single-component cdgs file gsw reads."""
    return gsw.model.CdSystem(
        nonterminals=g.nonterminals,
        terminals=g.terminals,
        axiom=g.axiom,
        components=(g.rules,),
        lambda_free=True,
        name=name,
    )


def linear_anbn(gsw):
    M = gsw.model
    S, a, b = M.nonterminal("S"), M.terminal("a"), M.terminal("b")
    return gsw.constructions.LinearGrammar(
        frozenset({S}), frozenset({a, b}), S, (M.Rule(S, (a, S, b)), M.Rule(S, (a, b)))
    )


def pg_abc(gsw):
    """NSF programmed grammar for a^n b^n c^n, n >= 1 (index 3)."""
    M = gsw.model
    S, A, B, C = (M.nonterminal(n) for n in "SABC")
    a, b, c = M.terminal("a"), M.terminal("b"), M.terminal("c")
    rule_of = {
        "p0": M.Rule(S, (A, B, C)),
        "p1": M.Rule(A, (a, A)),
        "p2": M.Rule(B, (b, B)),
        "p3": M.Rule(C, (c, C)),
        "p4": M.Rule(A, (a,)),
        "p5": M.Rule(B, (b,)),
        "p6": M.Rule(C, (c,)),
    }
    success = {
        "p0": {"p1", "p4"},
        "p1": {"p2"},
        "p2": {"p3"},
        "p3": {"p1", "p4"},
        "p4": {"p5"},
        "p5": {"p6"},
        "p6": {"p6"},
    }
    return M.ProgrammedGrammar(
        nonterminals=frozenset({S, A, B, C}),
        terminals=frozenset({a, b, c}),
        axiom=S,
        labels=tuple(sorted(rule_of)),
        rule_of=rule_of,
        success=success,
        failure={p: () for p in rule_of},
        lambda_free=True,
        name="pg_abc",
    )


def anbncn(max_len: int):
    return [("a",) * n + ("b",) * n + ("c",) * n for n in range(1, max_len // 3 + 1)]


# ---------------------------------------------------------------------------
# cd-enumerate
# ---------------------------------------------------------------------------


def enumerate_job(gsw, label, grammar, mode, max_len, oracle=None, traces=False) -> Job:
    bounds = gsw.engine.Bounds.for_words(max_len)

    def call():
        res = gsw.engine.enumerate_grammar(grammar, bounds, mode=mode, with_traces=traces)
        problems = []
        for trace in res.traces.values():
            problems += gsw.engine.validate_trace(grammar, trace, mode=mode)
        return res, problems

    def answer(out) -> str:
        res, problems = out
        text = "truncated %s\n" % res.language.truncated + words_text(res.language.words)
        if traces:
            text += "traces %d problems %d\n" % (len(res.traces), len(problems))
        return text

    def expect() -> str:
        words = oracle()
        text = "truncated False\n" + words_text(words)
        if traces:
            text += "traces %d problems 0\n" % len(set(words))
        return text

    name = "%s %s %d%s" % (label, gsw.model.mode_text(mode), max_len, " traces" if traces else "")
    return Job(name, call, answer, expect if oracle else None)


def cd_enumerate(gsw, workdir, seed) -> List[Job]:
    C, M, V = gsw.constructions, gsw.model, gsw.verifier
    src = cf_index3_source(gsw)
    cf3 = C.cf_indexk_to_cd2(src)
    ex2, ex3 = C.build_example1(2), C.build_example1(3)
    snk_eq, snk_le = C.build_snk_cdgs(2, 2, "exactly"), C.build_snk_cdgs(2, 2, "atmost")
    s3, ab = C.build_s3_cd3(), C.build_anbnambm()
    ab3 = C.prolong(ab, 3)
    t_eq = lambda k: M.t_and(M.exactly(k))
    t_le = lambda k: M.t_and(M.at_most(k))
    cf = lambda n: (lambda: cf_words(src.rules, src.axiom, n))
    ref = lambda r, n: (lambda: V.expand(r, n).words)
    return [
        enumerate_job(gsw, "cf3-cd2", cf3, t_eq(3), 14, cf(14), traces=True),
        enumerate_job(gsw, "cf3-cd2", cf3, t_le(3), 12, cf(12)),
        # example1 overgenerates outside (t & =2): no closed form, pinned
        enumerate_job(gsw, "example1(2)", ex2, M.STAR, 24, traces=True),
        enumerate_job(gsw, "example1(2)", ex2, M.T_MODE, 24),
        enumerate_job(gsw, "example1(2)", ex2, M.at_most(3), 24),
        enumerate_job(gsw, "example1(2)", ex2, t_le(2), 24),
        enumerate_job(gsw, "example1(3)", ex3, t_le(3), 16, traces=True),
        enumerate_job(gsw, "snk(2,2,exactly)", snk_eq, C.snk_mode(2, "exactly"), 37,
                      ref(V.block_pump(4), 37)),
        # the docstring claims block_pump(4) for the at-most variant too; at
        # the seed it overgenerates (see KNOWN_DEFECTS)
        enumerate_job(gsw, "snk(2,2,atmost)", snk_le, C.snk_mode(2, "atmost"), 37,
                      ref(V.block_pump(4), 37)),
        enumerate_job(gsw, "s3", s3, t_eq(2), 49, ref(V.block_pump(3), 49), traces=True),
        enumerate_job(gsw, "anbnambm", ab, t_eq(1), 24, ref(V.two_block(), 24), traces=True),
        enumerate_job(gsw, "prolong(anbnambm,3)", ab3, t_eq(3), 14,
                      ref(V.two_block(), 14), traces=True),
    ]


# ---------------------------------------------------------------------------
# index-certify
# ---------------------------------------------------------------------------


def certify_job(gsw, label, grammar, bound, max_len, mode=None) -> Job:
    bounds = gsw.engine.Bounds.for_words(max_len)

    def call():
        return gsw.verifier.certify_index_bound(grammar, bound, bounds, mode=mode)

    def answer(cert) -> str:
        head = "bound %d checked %d passed %s truncated %s\n" % (
            cert.bound, cert.checked_words, cert.passed, cert.truncated)
        return head + "".join(line + "\n" for line in cert.lines())

    mode_name = " " + gsw.model.mode_text(mode) if mode is not None else ""
    return Job("certify %s%s bound %d %d" % (label, mode_name, bound, max_len), call, answer)


def index_certify(gsw, workdir, seed) -> List[Job]:
    C, M = gsw.constructions, gsw.model
    prog = C.cd_to_programmed(C.build_example1(2), 2, "atmost")
    cf3 = C.cf_indexk_to_cd2(cf_index3_source(gsw))
    ab = C.build_anbnambm()
    return [
        certify_job(gsw, "cd_to_programmed(example1(2),2,atmost)", prog, 4, 12),
        certify_job(gsw, "cf3-cd2", cf3, 3, 9, M.t_and(M.exactly(3))),
        certify_job(gsw, "anbnambm", ab, 2, 16, M.t_and(M.exactly(1))),
    ]


# ---------------------------------------------------------------------------
# gsw-cli
# ---------------------------------------------------------------------------

INDEX_LENGTHS = {"ab.gsw": (4, 6, 8, 10), "pe.gsw": (3, 6, 9)}
INDEX_DRAWS = {"ab.gsw": 8, "pe.gsw": 4}  # per length, of members and of edits
FINITE_SETS = 20
FINITE_LENGTHS = (2, 3, 4, 5)


def cli_job(gsw, workdir, argv, oracle=None, check_output=True) -> Job:
    """One in-process gsw command; ``.gsw`` arguments name files in workdir.

    The answer is the exit code and stdout, plus the written file of a
    ``transform`` unless ``check_output`` is off.
    """
    paths = [os.path.join(workdir, a) if a.endswith(".gsw") else a for a in argv]
    output = argv[argv.index("-o") + 1] if "-o" in argv and check_output else None

    def call():
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = gsw.cli.main(paths)
        return code, out.getvalue()

    def answer(res) -> str:
        code, stdout = res
        text = "exit %d\n%s" % (code, stdout)
        if output is not None:
            with open(os.path.join(workdir, output), encoding="utf-8") as fh:
                text += "--- %s\n%s" % (output, fh.read())
        return text

    expect = None if oracle is None else (lambda: "exit 0\n" + words_text(oracle()))
    return Job(shlex.join(argv), call, answer, expect)


def index_pool(gsw, path: str) -> Dict[int, tuple]:
    """Query words for `gsw index` on one file, by length: members, then edits.

    Edits replace one symbol of a member by another terminal; most are not
    in the language, and their search runs until the bounds are exhausted.
    """
    V = gsw.verifier
    if path == "ab.gsw":
        members, alphabet, glue = V.expand(V.two_block(), 10).words, ("a", "b"), ""
    else:
        members, alphabet, glue = V.expand(V.equal_powers(2), 9).words, ("a1", "a2", "a3"), " "
    pool = {}
    for n in INDEX_LENGTHS[path]:
        ms = [w for w in members if len(w) == n]
        edits = sorted({
            w[:i] + (s,) + w[i + 1 :]
            for w in ms for i in range(n) for s in alphabet if s != w[i]
        })
        pool[n] = ([glue.join(w) for w in ms], [glue.join(w) for w in edits])
    return pool


def index_jobs(gsw, workdir, path: str, words) -> List[Job]:
    max_len = str(max(INDEX_LENGTHS[path]))
    return [cli_job(gsw, workdir, ["index", path, "--word", w, "--max-len", max_len])
            for w in words]


def finite_jobs(gsw, workdir, i: int, words, k: int) -> List[Job]:
    out = "fin%d.gsw" % i
    argv = ["transform", "finite-to-cd1", "--k", str(k)]
    for w in words:
        argv += ["--words", " ".join(w)]
    # the written file depends on the seed, so it is checked by enumerating it
    return [
        cli_job(gsw, workdir, argv + ["-o", out], oracle=lambda: (), check_output=False),
        cli_job(gsw, workdir, ["enumerate", out, "--mode", "(t & =%d)" % k,
                               "--max-len", str(max(FINITE_LENGTHS))],
                oracle=lambda: words),
    ]


def write_inputs(gsw, workdir) -> None:
    """The .gsw files the commands read, written by serialize."""
    C, M = gsw.constructions, gsw.model
    ab, ex2 = C.build_anbnambm(), C.build_example1(2)
    t_eq = lambda k: M.t_and(M.exactly(k))
    files = {
        "ab.gsw": (ab, t_eq(1)),
        "ab2.gsw": (C.prolong(ab, 2), t_eq(2)),
        "ex2.gsw": (ex2, t_eq(2)),
        "pe.gsw": (C.cd_to_programmed(ex2, 2, "exactly"), None),
        "pa.gsw": (C.cd_to_programmed(ex2, 2, "atmost"), None),
        "pg.gsw": (pg_abc(gsw), None),
        "s3.gsw": (C.build_s3_cd3(), t_eq(2)),
        "snk11.gsw": (C.build_snk_cdgs(1, 1, "exactly"), C.snk_mode(1, "exactly")),
        "snk11a.gsw": (C.build_snk_cdgs(1, 1, "atmost"), C.snk_mode(1, "atmost")),
        "lin.gsw": (one_component(gsw, linear_anbn(gsw), "anbn"), None),
        "cf3.gsw": (one_component(gsw, cf_index3_source(gsw), "cf3"), None),
    }
    for name, (grammar, mode) in files.items():
        text = gsw.fileformat.serialize(grammar, uniform_mode=mode)
        with open(os.path.join(workdir, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def cli_fixed_jobs(gsw, workdir) -> List[Job]:
    V = gsw.verifier
    ref = lambda r, n: (lambda: V.expand(r, n).words)
    cf = lambda g, n: (lambda: cf_words(g.rules, g.axiom, n))
    argvs = [
        ["transform", "example1", "--k", "2", "-o", "out_ex2.gsw"],
        ["transform", "example1", "--k", "3", "-o", "out_ex3.gsw"],
        ["transform", "snk", "--n", "1", "--k", "1", "-o", "out_snk11.gsw"],
        ["transform", "snk", "--n", "2", "--k", "1", "--variant", "atmost", "-o", "out_snk21a.gsw"],
        ["transform", "anbnambm", "-o", "out_ab.gsw"],
        ["transform", "s3", "-o", "out_s3.gsw"],
        ["transform", "cd-to-programmed", "ex2.gsw", "--k", "2", "-o", "out_pe.gsw"],
        ["transform", "cd-to-programmed", "ex2.gsw", "--k", "2", "--variant", "atmost",
         "-o", "out_pa.gsw"],
        ["transform", "prolong", "ab.gsw", "--ell", "2", "-o", "out_ab2.gsw"],
        ["transform", "prolong", "ab.gsw", "--ell", "3", "-o", "out_ab3.gsw"],
        ["transform", "linear-to-cd2", "lin.gsw", "-o", "out_lin.gsw"],
        ["transform", "cf-to-cd2", "cf3.gsw", "--k", "3", "-o", "out_cf3.gsw"],
        ["transform", "nsf-to-cdgs", "pg.gsw", "--m", "3", "--mode", "(t & =3)",
         "-o", "out_nsf.gsw"],
        ["enumerate", "ex2.gsw", "--mode", "(t & <=2)", "--max-len", "9"],
        ["enumerate", "pa.gsw", "--max-len", "9"],
        ["check-equiv", "ex2.gsw", "pe.gsw", "--max-len", "9"],
        ["check-equiv", "ex2.gsw", "pa.gsw", "--max-len", "9"],
        ["check-equiv", "ex2.gsw", "pa.gsw", "--mode-a", "(t & <=2)", "--max-len", "9"],
        ["check-equiv", "ab.gsw", "ab2.gsw", "--max-len", "10"],
        ["check-equiv", "snk11.gsw", "snk11a.gsw", "--max-len", "11"],
        ["nsf-check", "pg.gsw", "--depth", "80"],
        ["nsf-check", "pe.gsw", "--depth", "80"],
        ["nsf-check", "pa.gsw", "--depth", "80"],
    ]
    jobs = [cli_job(gsw, workdir, argv) for argv in argvs]
    checked = [
        (["enumerate", "ex2.gsw", "--max-len", "9"], ref(V.equal_powers(2), 9)),
        (["enumerate", "pe.gsw", "--max-len", "9"], ref(V.equal_powers(2), 9)),
        (["enumerate", "ab.gsw", "--max-len", "12"], ref(V.two_block(), 12)),
        (["enumerate", "ab2.gsw", "--max-len", "10"], ref(V.two_block(), 10)),
        (["enumerate", "s3.gsw", "--max-len", "25"], ref(V.block_pump(3), 25)),
        (["enumerate", "snk11.gsw", "--max-len", "11"], ref(V.block_pump(1), 11)),
        (["enumerate", "snk11a.gsw", "--max-len", "11"], ref(V.block_pump(1), 11)),
        (["enumerate", "pg.gsw", "--max-len", "9"], lambda: anbncn(9)),
        (["enumerate", "lin.gsw", "--mode", "t", "--max-len", "10"],
         cf(linear_anbn(gsw), 10)),
        (["enumerate", "cf3.gsw", "--mode", "t", "--max-len", "8"],
         cf(cf_index3_source(gsw), 8)),
    ]
    jobs += [cli_job(gsw, workdir, argv, oracle) for argv, oracle in checked]
    return jobs


def gsw_cli(gsw, workdir, seed) -> List[Job]:
    write_inputs(gsw, workdir)
    rng = random.Random(seed)
    jobs = cli_fixed_jobs(gsw, workdir)
    for i in range(FINITE_SETS):
        words = [tuple(rng.choice("abc") for _ in range(n)) for n in FINITE_LENGTHS]
        jobs += finite_jobs(gsw, workdir, i, words, 1 + i % 3)
    for path, draws in INDEX_DRAWS.items():
        for members, edits in index_pool(gsw, path).values():
            words = [rng.choice(members) for _ in range(draws)]
            words += [rng.choice(edits) for _ in range(draws)]
            jobs += index_jobs(gsw, workdir, path, words)
    return jobs


# workload name -> set-up: (gsw, workdir, seed) -> job list.  Why each was
# chosen is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Callable[..., List[Job]]] = {
    "cd-enumerate": cd_enumerate,
    "index-certify": index_certify,
    "gsw-cli": gsw_cli,
}
