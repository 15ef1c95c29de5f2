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

Mode expressions follow the grammar
``mode := "*" | "t" | cmp | "(" ">=" INT "&" "<=" INT ")" | "(" "t" "&" cmp ")"``
with ``cmp := ("<="|"="|">=") INT``; whitespace inside is optional.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .model import (
    CdSystem,
    HcdSystem,
    Mode,
    ProgrammedGrammar,
    Rule,
    Symbol,
    at_least,
    at_most,
    between,
    exactly,
    mode_text,
    nonterminal,
    STAR,
    T_MODE,
    UNNAMED,
    t_and,
    terminal,
    validate,
)

Grammar = Union[CdSystem, HcdSystem, ProgrammedGrammar]


class GswParseError(ValueError):
    """Parse failure with a 1-based line number (0 for mode strings)."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        where = ""
        if line:
            where = " (line %d%s)" % (line, ", column %d" % column if column else "")
        super().__init__(message + where)


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


_CMP = {"<=": at_most, "=": exactly, ">=": at_least}


def parse_mode(text: str) -> Mode:
    """Parse a mode expression like ``t``, ``=2`` or ``(t & <=3)``."""
    tokens = _mode_tokens(text)
    if not tokens:
        raise GswParseError("empty mode expression")

    def cmp_at(i: int) -> Tuple[Mode, int]:
        if i + 1 >= len(tokens) or tokens[i] not in _CMP or not tokens[i + 1].isdigit():
            raise GswParseError("expected comparison in mode expression %r" % text)
        k = int(tokens[i + 1])
        if k < 1:
            raise GswParseError("step count must be positive in %r" % text)
        return _CMP[tokens[i]](k), i + 2

    if tokens[0] == "(":
        if tokens[1:2] == ["t"]:
            if tokens[2:3] != ["&"]:
                raise GswParseError("expected '&' in mode expression %r" % text)
            inner, i = cmp_at(3)
            mode = t_and(inner)
        else:
            left, i = cmp_at(1)
            if left.kind != "ge":
                raise GswParseError(
                    "left side of a bounded conjunction must be '>=' in %r" % text
                )
            if tokens[i : i + 1] != ["&"]:
                raise GswParseError("expected '&' in mode expression %r" % text)
            right, i = cmp_at(i + 1)
            if right.kind != "le":
                raise GswParseError(
                    "right side of a bounded conjunction must be '<=' in %r" % text
                )
            if left.k > right.k:
                raise GswParseError("k ≤ ℓ required in mode expression %r" % text)
            mode = between(left.k, right.k)
        if tokens[i : i + 1] != [")"]:
            raise GswParseError("expected ')' in mode expression %r" % text)
        i += 1
    elif tokens[0] == "*":
        mode, i = STAR, 1
    elif tokens[0] == "t":
        mode, i = T_MODE, 1
    else:
        mode, i = cmp_at(0)
    if i != len(tokens):
        raise GswParseError("trailing tokens in mode expression %r" % text)
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


def _parse_rhs(tokens: List[str], table: Dict[str, Symbol], lineno: int) -> Tuple[Symbol, ...]:
    if tokens == ["#"]:
        return ()
    rhs = []
    for tok in tokens:
        if tok not in table:
            raise GswParseError("unknown symbol %r" % tok, lineno)
        rhs.append(table[tok])
    return tuple(rhs)


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
            if tokens[0] not in table:
                raise GswParseError("unknown symbol %r" % tokens[0], lineno)
            components[-1].append(
                Rule(table[tokens[0]], _parse_rhs(tokens[2:], table, lineno))
            )
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
            if kind not in ("cdgs", "hcdgs", "programmed"):
                raise GswParseError("unknown grammar kind %r" % kind, lineno)
            flags = tokens[3:]
            if flags not in ([], ["lambda-free"]):
                raise GswParseError("unknown header flags %r" % flags, lineno)
            lambda_free = flags == ["lambda-free"]
        elif head == "nonterminals":
            for tok in tokens[1:]:
                if tok in table:
                    raise GswParseError("symbol %r declared twice" % tok, lineno)
                table[tok] = nonterminal(tok)
                nts.append(table[tok])
        elif head == "terminals":
            for tok in tokens[1:]:
                if tok in table:
                    raise GswParseError("symbol %r declared twice" % tok, lineno)
                table[tok] = terminal(tok)
                terms.append(table[tok])
        elif head == "axiom":
            if len(tokens) != 2 or tokens[1] not in table:
                raise GswParseError("axiom must be one declared symbol", lineno)
            axiom = table[tokens[1]]
        elif head == "mode":
            if kind != "cdgs":
                raise GswParseError("uniform mode is only valid for cdgs files", lineno)
            try:
                uniform_mode = parse_mode(" ".join(tokens[1:]))
            except GswParseError as err:
                raise GswParseError(str(err), lineno)
        elif head == "component":
            if kind == "programmed":
                raise GswParseError("component block in a programmed file", lineno)
            mode = None
            if len(tokens) > 1:
                if kind != "hcdgs":
                    raise GswParseError(
                        "per-component modes are only valid for hcdgs files", lineno
                    )
                try:
                    mode = parse_mode(" ".join(tokens[1:]))
                except GswParseError as err:
                    raise GswParseError(str(err), lineno)
            elif kind == "hcdgs":
                raise GswParseError("hcdgs component blocks need a mode", lineno)
            components.append([])
            component_modes.append(mode)
        elif head == "rule":
            if kind != "programmed":
                raise GswParseError("rule lines are only valid in programmed files", lineno)
            parts = line.split(";")
            lhs_part = parts[0].split()
            # rule <label> : <lhs> -> <rhs>
            if (
                len(parts) != 3
                or len(lhs_part) < 5
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
            if lhs_part[3] not in table:
                raise GswParseError("unknown symbol %r" % lhs_part[3], lineno)
            lhs = table[lhs_part[3]]
            rhs = _parse_rhs(lhs_part[5:], table, lineno)
            succ_part, fail_part = parts[1].split(), parts[2].split()
            if succ_part[:1] != ["succ"] or fail_part[:1] != ["fail"]:
                raise GswParseError("expected 'succ' and 'fail' sections", lineno)
            labels.append(label)
            rule_of[label] = Rule(lhs, rhs)
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
    if kind == "cdgs":
        grammar: Grammar = CdSystem(
            components=tuple(tuple(c) for c in components), **common
        )
    elif kind == "hcdgs":
        grammar = HcdSystem(
            components=tuple(tuple(c) for c in components),
            modes=tuple(component_modes),
            **common,
        )
    else:
        undefined = sorted(
            set().union(*success.values(), *failure.values()) - set(labels)
        ) if labels else []
        if undefined:
            raise GswParseError("undefined labels in fields: %s" % " ".join(undefined))
        grammar = ProgrammedGrammar(
            labels=tuple(labels),
            rule_of=rule_of,
            success=success,
            failure=failure,
            **common,
        )
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
    if isinstance(grammar, HcdSystem):
        kind = "hcdgs"
    elif isinstance(grammar, CdSystem):
        kind = "cdgs"
    elif isinstance(grammar, ProgrammedGrammar):
        kind = "programmed"
    else:
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
