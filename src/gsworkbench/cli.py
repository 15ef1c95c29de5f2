"""Command-line entry points: enumerate / transform / check-equiv / index / nsf-check.

Exit codes: 0 success, 1 check-equiv difference or nsf-check violation,
2 every bad input (a parse, validation, usage, read or write error, raised
as ValueError and reported by `main` alone), 3 truncated result under --strict.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from functools import partial
from typing import List, Optional, Tuple

from . import constructions, engine, fileformat, verifier
from .fileformat import GswParseError
from .model import CdSystem, Mode, ProgrammedGrammar, form_text

EXIT_OK = 0
EXIT_DIFF = 1
EXIT_PARSE = 2
EXIT_TRUNCATED = 3


def _load(path: str) -> fileformat.GrammarFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ValueError("cannot read %s: %s" % (path, err))
    try:
        return fileformat.parse_file(text)
    except GswParseError as err:
        raise ValueError("%s: %s" % (path, err))


def _bounds(args) -> engine.Bounds:
    form_len = args.max_len if args.max_form_len is None else args.max_form_len
    return engine.Bounds(args.max_len, form_len)


def _mode_for(gf: fileformat.GrammarFile, flag: Optional[str]) -> Optional[Mode]:
    """The mode a plain CD system runs in: the --mode flag, else the file's.

    Other grammar kinds need no mode, so they get None; a malformed flag is
    an error for every kind.
    """
    mode = None if flag is None else fileformat.parse_mode(flag)
    if not isinstance(gf.grammar, CdSystem):
        return None
    mode = mode or gf.uniform_mode
    if mode is None:
        raise ValueError("a cdgs file needs a mode (file 'mode' line or --mode)")
    return mode


def _enumerate(gf: fileformat.GrammarFile, flag, bounds, traces: bool):
    mode = _mode_for(gf, flag)
    return engine.enumerate_grammar(gf.grammar, bounds, mode=mode, with_traces=traces)


def _trace_lines(trace: engine.DerivationTrace):
    """One line per segment: the actor, then the form after each step.

    A zero-step turn prints ``(0 steps)``, and an appearance-checking step
    ends in `` [ac]``.  The trace starts at the axiom, which is not printed.
    """
    for seg in trace.segments:
        forms = " => ".join(map(form_text, seg.forms)) or "(0 steps)"
        yield "  %s: %s%s" % (seg.actor, forms, " [ac]" if seg.appearance_checking else "")


def _parse_word(text: str, grammar) -> Tuple[str, ...]:
    names = sorted((s.name for s in grammar.terminals), key=len, reverse=True)
    parts = text.split()
    if all(p in names for p in parts):
        return tuple(parts)
    if len(parts) != 1:
        raise ValueError("word symbols %r not in the terminal alphabet" % text)
    # segment a glued word like "aabb" as a depth-first search trying the
    # longest terminal first would: chosen[i] is the longest name at i after
    # which the rest segments, or None, so the walk takes no dead end.
    glued = parts[0]
    chosen: List[Optional[str]] = [None] * len(glued) + [""]
    for i in reversed(range(len(glued))):
        chosen[i] = next((n for n in names if glued.startswith(n, i) and chosen[i + len(n)] is not None), None)
    if chosen[0] is None:
        raise ValueError("cannot segment word %r over the terminal alphabet" % text)
    out: List[str] = []
    i = 0
    while i < len(glued):
        out.append(chosen[i])
        i += len(chosen[i])
    return tuple(out)


def _strict_exit(args, truncated: bool, code: int = EXIT_OK) -> int:
    """`code`, or under --strict exit 3 after a TRUNCATED line on stderr for a cut result."""
    if args.strict and truncated:
        print("TRUNCATED", file=sys.stderr)
        return EXIT_TRUNCATED
    return code


def _cmd_enumerate(args) -> int:
    gf = _load(args.file)
    result = _enumerate(gf, args.mode, _bounds(args), args.traces)
    for word in result.language.words:
        print(" ".join(word))
        if args.traces:
            for line in _trace_lines(result.traces[word]):
                print(line)
    return _strict_exit(args, result.language.truncated)


def _linear_from_component(grammar: CdSystem, index_k: Optional[int]):
    if grammar.degree != 1:
        raise ValueError("source grammar must have exactly one component")
    fields = grammar.nonterminals, grammar.terminals, grammar.axiom, grammar.components[0]
    if index_k is None:
        return constructions.LinearGrammar(*fields)
    return constructions.IndexedCfGrammar(*fields, index_k)


def _nsf_to_cdgs(args, source):
    target = fileformat.parse_mode(args.mode)
    return constructions.nsf_programmed_to_cdgs(source, args.m, target), target


_ONE_COMPONENT = "source grammar must be a single-component cdgs file"

# name -> (the source file's grammar kind, or None for no source; the error
# for a source of another kind; the arguments the build needs; the error
# when one is None or an empty --words; the build from (args, source) to
# (grammar, the uniform mode its file is written with))
_TRANSFORMS = {
    "finite-to-cd1": (
        None, None, ("words",), "finite-to-cd1 needs at least one --words entry",
        lambda a, s: (constructions.finite_to_cd1(
            [tuple(w.split()) for w in a.words], 1 if a.k is None else a.k), None)),
    "linear-to-cd2": (
        CdSystem, _ONE_COMPONENT, (), None,
        lambda a, s: (constructions.linear_to_cd2(_linear_from_component(s, None)), None)),
    "cf-to-cd2": (
        CdSystem, _ONE_COMPONENT, ("k",), "cf-to-cd2 needs --k (the index bound)",
        lambda a, s: (constructions.cf_indexk_to_cd2(_linear_from_component(s, a.k)), None)),
    "cd-to-programmed": (
        CdSystem, "cd-to-programmed needs a cdgs file", ("k",), "cd-to-programmed needs --k",
        lambda a, s: (constructions.cd_to_programmed(s, a.k, a.variant), None)),
    "prolong": (CdSystem, "prolong needs a cdgs file", ("ell",), "prolong needs --ell",
                lambda a, s: (constructions.prolong(s, a.ell), None)),
    "nsf-to-cdgs": (ProgrammedGrammar, "nsf-to-cdgs needs a programmed file",
                    ("m", "mode"), "nsf-to-cdgs needs --m and --mode", _nsf_to_cdgs),
    "example1": (None, None, (), None,
                 lambda a, s: (constructions.build_example1(2 if a.k is None else a.k), None)),
    "snk": (None, None, ("n", "k"), "snk needs --n and --k",
            lambda a, s: (constructions.build_snk_cdgs(a.n, a.k, a.variant),
                          constructions.snk_mode(a.k, a.variant))),
    "anbnambm": (None, None, (), None, lambda a, s: (constructions.build_anbnambm(), None)),
    "s3": (None, None, (), None, lambda a, s: (constructions.build_s3_cd3(), None)),
}


def _cmd_transform(args) -> int:
    if args.name not in _TRANSFORMS:
        raise ValueError("unknown transform %r" % args.name)
    kind, wrong_kind, needs, missing, build = _TRANSFORMS[args.name]
    source = None
    if kind is None and args.file is not None:
        raise ValueError("transform %r takes no source grammar file" % args.name)
    if kind is not None:
        if not args.file:
            raise ValueError("transform %r needs a source grammar file" % args.name)
        source = _load(args.file).grammar
        if not isinstance(source, kind):
            raise ValueError(wrong_kind)
    if any(getattr(args, name) in (None, []) for name in needs):
        raise ValueError(missing)
    grammar, uniform_mode = build(args, source)
    text = fileformat.serialize(grammar, uniform_mode=uniform_mode)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(args.output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as err:
            raise ValueError("cannot write %s: %s" % (args.output, err))
    return EXIT_OK


def _cmd_check_equiv(args) -> int:
    gf_a, gf_b = _load(args.file_a), _load(args.file_b)
    bounds = _bounds(args)
    res_a = _enumerate(gf_a, args.mode_a or args.mode, bounds, False)
    res_b = _enumerate(gf_b, args.mode_b or args.mode, bounds, False)
    report = verifier.bounded_equal(res_a.language, res_b.language)
    for line in report.lines():
        print(line)
    truncated = res_a.language.truncated or res_b.language.truncated
    return _strict_exit(args, truncated, EXIT_OK if report.equal else EXIT_DIFF)


def _cmd_index(args) -> int:
    gf = _load(args.file)
    bounds = _bounds(args)
    mode = _mode_for(gf, args.mode)
    word = _parse_word(args.word, gf.grammar)
    result = engine.word_index(gf.grammar, word, bounds, mode=mode)
    print("UNKNOWN" if result.index is None else result.index)
    return _strict_exit(args, result.truncated)


def _cmd_nsf_check(args) -> int:
    if args.depth < 0:
        raise ValueError("--depth must not be negative")
    gf = _load(args.file)
    if not isinstance(gf.grammar, ProgrammedGrammar):
        raise ValueError("nsf-check needs a programmed grammar file")
    report = verifier.nsf_check(gf.grammar, args.depth)
    for line in report.lines():
        print(line)
    if report.inconclusive:
        print("INCONCLUSIVE")
    return EXIT_OK if report.holds else EXIT_DIFF


def _add_bounds_args(p):
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--max-form-len", type=int, default=None)
    p.add_argument("--strict", action="store_true")


def _enumerate_args(p):
    p.add_argument("file")
    p.add_argument("--mode", default=None)
    p.add_argument("--traces", action="store_true",
                   help="after each word, print its derivation, one line per turn or step")
    _add_bounds_args(p)
    p.set_defaults(func=_cmd_enumerate)


def _transform_args(p):
    p.add_argument("name")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--variant", choices=constructions._VARIANTS,
                   default=constructions.VARIANT_EXACTLY)
    p.add_argument("--mode", default=None)
    p.add_argument("--words", action="append", default=[],
                   help="a word as space-separated symbols; repeatable")
    p.set_defaults(func=_cmd_transform)


def _check_equiv_args(p):
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--mode", default=None, help="mode override for both files")
    p.add_argument("--mode-a", default=None)
    p.add_argument("--mode-b", default=None)
    _add_bounds_args(p)
    p.set_defaults(func=_cmd_check_equiv)


def _index_args(p):
    p.add_argument("file")
    p.add_argument("--word", required=True)
    p.add_argument("--mode", default=None)
    _add_bounds_args(p)
    p.set_defaults(func=_cmd_index)


def _nsf_check_args(p):
    p.add_argument("file")
    p.add_argument("--depth", type=int, default=constructions.NSF_DEPTH)
    p.set_defaults(func=_cmd_nsf_check)


# name -> (help text, adds the command's arguments and its func), in the
# order `gsw --help` lists them
_COMMANDS = {
    "enumerate": ("print the bounded language, length-lex", _enumerate_args),
    "transform": ("apply a construction and write a grammar file", _transform_args),
    "check-equiv": ("compare two bounded languages", _check_equiv_args),
    "index": ("minimum derivation index of a word", _index_args),
    "nsf-check": ("check nonterminal separation form", _nsf_check_args),
}


def _help_formatter():
    """argparse's default help formatter at the width it reads itself, the
    terminal's columns less 2, read here once: a parser builds a formatter
    on every `add_argument`, and each would read the terminal size."""
    return partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The gsw parser, with a subparser for every command."""
    formatter = _help_formatter()
    parser = argparse.ArgumentParser(
        prog="gsw",
        description="Workbench for cooperating distributed grammar systems, "
        "hybrid derivation modes and programmed grammars.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        add_args(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _COMMANDS:
        # a command named first is parsed by its own parser alone, the one
        # `add_parser(name, help=...)` builds, so its help and errors are
        # the same.  Only a call with arguments left over is parsed again
        # intermixed, so that transform's optional source file may follow an
        # option; what is still left goes on to the full parser, whose usage
        # line names every command
        _, add_args = _COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog="gsw " + argv[0], formatter_class=_help_formatter())
        add_args(parser)
        args, extra = parser.parse_known_args(argv[1:])
        if extra:
            args, extra = parser.parse_known_intermixed_args(argv[1:])
        if extra:
            build_parser().parse_args(argv)
    else:  # none, -h, an unknown or partial name: list every command
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
