"""The .gsw text format: parsing and canonical serialization.

Files are UTF-8 with LF line endings.  Symbols are whitespace-separated
identifier tokens; the empty word is the token ``#``.  A ``;`` starts a
comment running to end of line, except on ``rule`` lines of programmed
grammars, where ``;`` separates the production from its success and
failure fields (those lines cannot carry comments).  Inside a component
block a line whose second token is ``->`` is always a rule, so symbols may
be named like the keywords.

Layout (the header comes first, once)::

    grammar <name> <kind> [lambda-free]     kind in {cdgs, hcdgs, programmed}
    nonterminals <sym> ...
    terminals <sym> ...
    axiom <sym>
    mode <expr>                             cdgs only, optional uniform mode
    component [<expr>]                      rules follow, one per line
      <sym> -> <sym> ... | #
    rule <label> : <sym> -> <rhs> ; succ <labels> ; fail <labels>

Mode expressions are read by the grammar
``mode := "*" | "t" | cmp | "(" mode "&" mode ")"`` with
``cmp := ("<="|"="|">=") INT``; whitespace inside is optional.  A mode must
also lie in the paper's mode set D (`model.is_in_mode_set_d`), which
narrows the conjunctions to ``(>=k & <=l)`` with k <= l and ``(t & cmp)``
and makes every bound positive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from .model import (
    _COMPARISON_TEXT,
    CdSystem,
    HcdSystem,
    Mode,
    ProgrammedGrammar,
    Rule,
    Symbol,
    conj,
    is_in_mode_set_d,
    mode_text,
    nonterminal,
    STAR,
    T_MODE,
    UNNAMED,
    terminal,
    validate,
)

Grammar = Union[CdSystem, HcdSystem, ProgrammedGrammar]
# the header name of each grammar kind
_KINDS = {"cdgs": CdSystem, "hcdgs": HcdSystem, "programmed": ProgrammedGrammar}


class GswParseError(ValueError):
    """Parse failure with a 1-based line number (0 for mode strings)."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(message + (" (line %d)" % line if line else ""))


# ---------------------------------------------------------------------------
# Mode expressions
# ---------------------------------------------------------------------------

_MODE_TOKEN = re.compile(r"\s*(\(|\)|&|\*|t|<=|>=|=|\d+)")


def _mode_tokens(text: str) -> List[str]:
    tokens, pos = [], 0
    while pos < len(text):
        m = _MODE_TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise GswParseError(
                "bad character %r in mode expression %r" % (text[pos:].strip()[0], text)
            )
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


_CMP = {text: kind for kind, text in _COMPARISON_TEXT.items()}


def parse_mode(text: str) -> Mode:
    """Parse a mode expression like ``t``, ``=2`` or ``(t & <=3)`` in D."""
    tokens = _mode_tokens(text)
    if not tokens:
        raise GswParseError("empty mode expression")

    def expect(token: str, i: int) -> int:
        if tokens[i : i + 1] != [token]:
            raise GswParseError("expected %r in mode expression %r" % (token, text))
        return i + 1

    # read left to right; `opened` holds the left operand of each open "(",
    # or None until that operand is read
    opened: List[Optional[Mode]] = []
    i = 0
    while True:
        while tokens[i : i + 1] == ["("]:
            opened.append(None)
            i += 1
        tok = tokens[i] if i < len(tokens) else ""
        if tok in ("*", "t"):
            mode, i = STAR if tok == "*" else T_MODE, i + 1
        elif tok in _CMP and tokens[i + 1 : i + 2] and tokens[i + 1].isdigit():
            mode, i = Mode(_CMP[tok], int(tokens[i + 1])), i + 2
        else:
            raise GswParseError("expected comparison in mode expression %r" % text)
        while opened and opened[-1] is not None:
            mode, i = conj(opened.pop(), mode), expect(")", i)
        if not opened:
            break
        opened[-1], i = mode, expect("&", i)
    if i != len(tokens):
        raise GswParseError("trailing tokens in mode expression %r" % text)
    if not is_in_mode_set_d(mode):
        raise GswParseError("mode expression %r is outside the mode set D" % text)
    return mode


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GrammarFile:
    """A parsed .gsw file: the grammar plus its uniform mode, if declared."""

    grammar: Grammar
    uniform_mode: Optional[Mode] = None


def _strip_comment(line: str) -> str:
    pos = line.find(";")
    return line if pos < 0 else line[:pos]


def _parse_rule(lhs: str, rhs: List[str], table: Dict[str, Symbol], lineno: int) -> Rule:
    """The rule ``lhs -> rhs`` over the declared symbols; ``#`` is an empty rhs."""
    try:
        return Rule(table[lhs], tuple(map(table.__getitem__, [] if rhs == ["#"] else rhs)))
    except KeyError as err:  # the first undeclared token, the lhs before the rhs
        raise GswParseError("unknown symbol %r" % err.args[0], lineno) from None


def _line_mode(tokens: List[str], lineno: int) -> Mode:
    """The mode expression after the keyword of a ``mode`` or ``component`` line."""
    try:
        return parse_mode(" ".join(tokens[1:]))
    except GswParseError as err:
        raise GswParseError(str(err), lineno)


def parse_file(text: str) -> GrammarFile:
    """Parse a .gsw file into a validated grammar plus any uniform mode."""
    name, kind, lambda_free = None, None, False
    nts: List[Symbol] = []
    terms: List[Symbol] = []
    table: Dict[str, Symbol] = {}
    axiom: Optional[Symbol] = None
    uniform_mode: Optional[Mode] = None
    components: List[List[Rule]] = []
    component_modes: List[Optional[Mode]] = []
    labels: List[str] = []
    rule_of: Dict[str, Rule] = {}
    success: Dict[str, frozenset] = {}
    failure: Dict[str, frozenset] = {}

    lines = text.split("\n")
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        tokens = line.split()
        if not tokens:
            continue
        if kind is None and tokens[0] != "grammar":
            # the header is the first line that is not blank or a comment
            raise GswParseError("missing grammar header", lineno)
        # a rule line wins over the keyword heads (see the module docstring)
        if components and tokens[1:2] == ["->"]:
            if len(tokens) < 3:
                raise GswParseError("expected '<lhs> -> <rhs>'", lineno)
            components[-1].append(_parse_rule(tokens[0], tokens[2:], table, lineno))
            continue
        head = tokens[0]
        if raw.split(None, 1)[0] == "rule":
            line = raw  # ';' separates a programmed rule's fields
        if head == "grammar":
            if kind is not None:
                raise GswParseError("second grammar header", lineno)
            if len(tokens) < 3:
                raise GswParseError("grammar header needs a name and a kind", lineno)
            name, kind = tokens[1], tokens[2]
            if kind not in _KINDS:
                raise GswParseError("unknown grammar kind %r" % kind, lineno)
            flags = tokens[3:]
            if flags not in ([], ["lambda-free"]):
                raise GswParseError("unknown header flags %r" % flags, lineno)
            lambda_free = flags == ["lambda-free"]
        elif head in ("nonterminals", "terminals"):
            make, declared = (nonterminal, nts) if head == "nonterminals" else (terminal, terms)
            for tok in tokens[1:]:
                if tok in table:
                    raise GswParseError("symbol %r declared twice" % tok, lineno)
                table[tok] = make(tok)
                declared.append(table[tok])
        elif head == "axiom":
            if axiom is not None:
                raise GswParseError("second axiom line", lineno)
            if len(tokens) != 2 or tokens[1] not in table:
                raise GswParseError("axiom must be one declared symbol", lineno)
            axiom = table[tokens[1]]
        elif head == "mode":
            if kind != "cdgs":
                raise GswParseError("uniform mode is only valid for cdgs files", lineno)
            if uniform_mode is not None:
                raise GswParseError("second mode line", lineno)
            uniform_mode = _line_mode(tokens, lineno)
        elif head == "component":
            if kind == "programmed":
                raise GswParseError("component block in a programmed file", lineno)
            mode = None
            if len(tokens) > 1:
                if kind != "hcdgs":
                    raise GswParseError(
                        "per-component modes are only valid for hcdgs files", lineno
                    )
                mode = _line_mode(tokens, lineno)
            elif kind == "hcdgs":
                raise GswParseError("hcdgs component blocks need a mode", lineno)
            components.append([])
            component_modes.append(mode)
        elif head == "rule":
            if kind != "programmed":
                raise GswParseError("rule lines are only valid in programmed files", lineno)
            parts = line.split(";")
            lhs_part = parts[0].split()
            # rule <label> : <lhs> -> <rhs>, where an empty rhs is "#"
            if (
                len(parts) != 3
                or len(lhs_part) < 6
                or lhs_part[2] != ":"
                or lhs_part[4] != "->"
            ):
                raise GswParseError(
                    "expected 'rule <label> : <lhs> -> <rhs> ; succ ... ; fail ...'",
                    lineno,
                )
            label = lhs_part[1]
            if label in rule_of:
                raise GswParseError("label %r declared twice" % label, lineno)
            rule = _parse_rule(lhs_part[3], lhs_part[5:], table, lineno)
            succ_part, fail_part = parts[1].split(), parts[2].split()
            if succ_part[:1] != ["succ"] or fail_part[:1] != ["fail"]:
                raise GswParseError("expected 'succ' and 'fail' sections", lineno)
            labels.append(label)
            rule_of[label] = rule
            success[label] = frozenset(succ_part[1:])
            failure[label] = frozenset(fail_part[1:])
        elif "->" in tokens:
            if not components:
                raise GswParseError("rule outside a component block", lineno)
            raise GswParseError("expected '<lhs> -> <rhs>'", lineno)
        else:
            raise GswParseError("unrecognized line %r" % line.strip(), lineno)

    if kind is None:
        raise GswParseError("missing grammar header")
    if axiom is None:
        raise GswParseError("missing axiom")
    common = dict(
        nonterminals=frozenset(nts),
        terminals=frozenset(terms),
        axiom=axiom,
        lambda_free=lambda_free,
        name="" if name == UNNAMED else name,
    )
    if kind == "programmed":
        fields = dict(labels=labels, rule_of=rule_of, success=success, failure=failure)
    else:
        fields = dict(components=components)
        if kind == "hcdgs":
            fields["modes"] = component_modes
    grammar = _KINDS[kind](**common, **fields)
    report = validate(grammar)
    if report:
        raise GswParseError("invalid grammar: %s" % "; ".join(report))
    return GrammarFile(grammar=grammar, uniform_mode=uniform_mode)


def parse_grammar(text: str) -> Grammar:
    return parse_file(text).grammar


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _rhs_text(rule: Rule) -> str:
    return " ".join(s.name for s in rule.rhs) if rule.rhs else "#"


def serialize(grammar: Grammar, uniform_mode: Optional[Mode] = None) -> str:
    """Canonical text for a grammar; parse(serialize(g)) equals g."""
    out: List[str] = []
    kind = next((k for k, cls in _KINDS.items() if isinstance(grammar, cls)), None)
    if kind is None:
        raise TypeError("not a grammar: %r" % (grammar,))
    header = "grammar %s %s" % (grammar.name or UNNAMED, kind)
    if grammar.lambda_free:
        header += " lambda-free"
    out.append(header)
    out.append("nonterminals " + " ".join(s.name for s in sorted(grammar.nonterminals)))
    out.append("terminals " + " ".join(s.name for s in sorted(grammar.terminals)))
    out.append("axiom " + grammar.axiom.name)
    if kind == "cdgs" and uniform_mode is not None:
        out.append("mode " + mode_text(uniform_mode))
    if kind == "programmed":
        for label in grammar.labels:
            rule = grammar.rule_of[label]
            out.append(
                "rule %s : %s -> %s ; succ%s ; fail%s"
                % (
                    label,
                    rule.lhs.name,
                    _rhs_text(rule),
                    "".join(" " + l for l in sorted(grammar.success[label])),
                    "".join(" " + l for l in sorted(grammar.failure[label])),
                )
            )
    else:
        for i, comp in enumerate(grammar.components):
            if kind == "hcdgs":
                out.append("component " + mode_text(grammar.modes[i]))
            else:
                out.append("component")
            for rule in comp:
                out.append("  %s -> %s" % (rule.lhs.name, _rhs_text(rule)))
    return "\n".join(out) + "\n"
