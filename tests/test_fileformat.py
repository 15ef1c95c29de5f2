import dataclasses
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from gsworkbench import constructions as C
from gsworkbench import fileformat as F
from gsworkbench.model import (
    NAME_PATTERN,
    UNNAMED,
    CdSystem,
    HcdSystem,
    Mode,
    ProgrammedGrammar,
    Rule,
    STAR,
    T_MODE,
    at_least,
    at_most,
    between,
    conj,
    exactly,
    is_in_mode_set_d,
    nonterminal,
    t_and,
    terminal,
    validate,
)

# the modes a conjunction in D may join, by their text
D_ATOMS = {"*": STAR, "t": T_MODE, "<=1": at_most(1), "=1": exactly(1),
           ">=1": at_least(1), "<=2": at_most(2), ">=2": at_least(2)}


# the first four lines of a file of each kind, before its mode or rules
CD_HEAD = "grammar x cdgs\nnonterminals S A\nterminals a\naxiom S\n"
PG_HEAD = CD_HEAD.replace("cdgs", "programmed")

KEYWORDS = ("grammar", "nonterminals", "terminals", "axiom", "mode", "component", "rule")

EXAMPLE1_TEXT = """\
; two components generating a1^n a2^n a3^n under (t & =2)
grammar example1_k2 cdgs lambda-free
nonterminals A1 A1' A2 A2' S1 S2
terminals a1 a2 a3
axiom S1
mode (t & =2)
component
  S1 -> S2
  S2 -> A1 A2
  A1' -> A1
  A2' -> A2
component
  A1 -> a1 A1'
  A2 -> a2 A2' a3
  A1 -> a1
  A2 -> a2 a3
"""


class TestParseMode:
    @pytest.mark.parametrize("text,mode", [
        ("*", STAR),
        ("t", T_MODE),
        ("<=2", at_most(2)),
        ("=1", exactly(1)),
        (">=3", at_least(3)),
        ("(>=1 & <=3)", between(1, 3)),
        ("(t & =2)", t_and(exactly(2))),
        ("(t&<=4)", t_and(at_most(4))),
        ("(t & =2)   ", t_and(exactly(2))),
    ])
    def test_accepts(self, text, mode):
        assert F.parse_mode(text) == mode

    def test_rejects_inverted_bounds(self):
        with pytest.raises(F.GswParseError, match="outside the mode set D"):
            F.parse_mode("(>= 3 & <= 2)")

    @pytest.mark.parametrize("text,mode", [
        pytest.param(text, mode, id=text) for text, mode in [
            ("(%s & %s)" % (x, y), conj(D_ATOMS[x], D_ATOMS[y]))
            for x, y in itertools.product(D_ATOMS, repeat=2)
        ] + [
            ("((t & =1) & =2)", conj(t_and(exactly(1)), exactly(2))),
            ("=0", Mode("eq", 0)),
            ("(>=3 & <=2)", conj(Mode("ge", 3), Mode("le", 2))),
        ]
    ])
    def test_accepts_exactly_the_mode_set_d(self, text, mode):
        if is_in_mode_set_d(mode):
            assert F.parse_mode(text) == mode
        else:
            with pytest.raises(F.GswParseError, match="outside the mode set D"):
                F.parse_mode(text)

    @pytest.mark.parametrize("text", ["", "(t & t)", "=0", "2", "(<=1 & <=2)", "t t"])
    def test_rejects_malformed(self, text):
        with pytest.raises(F.GswParseError):
            F.parse_mode(text)

    @pytest.mark.parametrize("text, token", [("(t =2)", "&"), ("(t & =2", ")")])
    def test_names_the_token_it_expected(self, text, token):
        with pytest.raises(F.GswParseError) as err:
            F.parse_mode(text)
        assert str(err.value) == "expected %r in mode expression %r" % (token, text)

    def test_round_trips_mode_text(self):
        from gsworkbench.model import mode_text
        for m in (STAR, T_MODE, exactly(7), between(2, 5), t_and(at_least(1))):
            assert F.parse_mode(mode_text(m)) == m


class TestParseGrammar:
    def test_example1_file(self):
        gf = F.parse_file(EXAMPLE1_TEXT)
        g = gf.grammar
        assert g.degree == 2
        assert g.name == "example1_k2"
        assert gf.uniform_mode == t_and(exactly(2))
        assert g == C.build_example1(2)

    def test_programmed_rule_line(self):
        text = (
            "grammar p programmed lambda-free\n"
            "nonterminals S A B\nterminals x\naxiom S\n"
            "rule p1 : S -> A B ; succ p2 p3 ; fail\n"
            "rule p2 : A -> x ; succ p3 ; fail\n"
            "rule p3 : B -> x ; succ p3 ; fail p2\n"
        )
        pg = F.parse_grammar(text)
        assert pg.success["p1"] == frozenset({"p2", "p3"})
        assert pg.failure["p1"] == frozenset()
        assert pg.failure["p3"] == frozenset({"p2"})

    def test_lambda_token_in_rhs(self):
        text = (
            "grammar e cdgs\nnonterminals S\nterminals x\naxiom S\n"
            "component\n  S -> #\n  S -> x\n"
        )
        g = F.parse_grammar(text)
        assert g.components[0][0] == Rule(nonterminal("S"), ())
        assert not g.lambda_free

    def test_empty_programmed_rhs_is_an_error(self):
        # the empty word is the token "#", as in a component block, where
        # "S ->" is an error too
        head = "grammar p programmed\nnonterminals S\nterminals x\naxiom S\n"
        message = "expected 'rule <label> : <lhs> -> <rhs> ; succ ... ; fail ...'"
        with pytest.raises(F.GswParseError) as err:
            F.parse_grammar(head + "rule p : S -> ; succ p ; fail\n")
        assert err.value.line == 5
        assert str(err.value) == "%s (line 5)" % message
        pg = F.parse_grammar(head + "rule p : S -> # ; succ p ; fail\n")
        assert pg.rule_of["p"] == Rule(nonterminal("S"), ())

    def test_hcdgs_per_component_modes(self):
        text = (
            "grammar h hcdgs lambda-free\nnonterminals S\nterminals x\naxiom S\n"
            "component (t & =1)\n  S -> x\n"
            "component *\n  S -> x x\n"
        )
        g = F.parse_grammar(text)
        assert isinstance(g, HcdSystem)
        assert g.modes == (t_and(exactly(1)), STAR)

    def test_errors_carry_line_numbers(self):
        bad = "grammar g cdgs\nnonterminals S\nterminals x\naxiom S\ncomponent\n  S -> z\n"
        with pytest.raises(F.GswParseError, match="line 6"):
            F.parse_grammar(bad)

    def test_validation_violations_surface(self):
        text = "grammar g cdgs lambda-free\nnonterminals S\nterminals x\naxiom S\n"
        with pytest.raises(F.GswParseError, match="degree"):
            F.parse_grammar(text)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("grammar x cdgs\nnonterminals S\nterminals a\naxiom S\n"
             "component\n  S -> a\ngrammar y hcdgs\n", 7, "second grammar header"),
            ("; comment\n\ncomponent\n  S -> a\ngrammar x cdgs\n", 3, "missing grammar header"),
            ("nonterminals S\nterminals a\naxiom S\n", 1, "missing grammar header"),
            ("; only a comment\n", 0, "missing grammar header"),
            ("grammar x cdgs\nnonterminals S A\nterminals a\naxiom S\naxiom A\n"
             "component\n  S -> a\n  A -> a a\n", 5, "second axiom line"),
            ("grammar x cdgs\nnonterminals S\nterminals a\naxiom S\nmode t\nmode =2\n"
             "component\n  S -> a\n", 6, "second mode line"),
        ],
        ids=["second-header", "component-first", "no-header", "empty", "second-axiom",
             "second-mode"],
    )
    def test_the_header_comes_first_and_once(self, text, line, message):
        with pytest.raises(F.GswParseError, match=message) as err:
            F.parse_grammar(text)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "text, message, line",
        [
            (CD_HEAD + "component\n  S ->\n", "expected '<lhs> -> <rhs>'", 6),
            (CD_HEAD + "component\n  Z -> a\n", "unknown symbol 'Z'", 6),
            (CD_HEAD + "component\n  S A -> a\n", "expected '<lhs> -> <rhs>'", 6),
            (CD_HEAD + "S -> a\n", "rule outside a component block", 5),
            ("grammar x\n", "grammar header needs a name and a kind", 1),
            ("grammar x bogus\n", "unknown grammar kind 'bogus'", 1),
            ("grammar x cdgs fast\n", "unknown header flags ['fast']", 1),
            (CD_HEAD.replace("axiom S", "axiom Z"), "axiom must be one declared symbol", 4),
            (CD_HEAD.replace("axiom S", "axiom S S"), "axiom must be one declared symbol", 4),
            (CD_HEAD.replace("cdgs", "hcdgs") + "mode t\n", "uniform mode is only valid for cdgs files", 5),
            (CD_HEAD + "mode (t & =0)\n", "mode expression '(t & =0)' is outside the mode set D", 5),
            (PG_HEAD + "component\n", "component block in a programmed file", 5),
            (CD_HEAD + "component t\n", "per-component modes are only valid for hcdgs files", 5),
            (CD_HEAD.replace("cdgs", "hcdgs") + "component\n", "hcdgs component blocks need a mode", 5),
            (CD_HEAD + "rule p : S -> a ; succ p ; fail\n", "rule lines are only valid in programmed files", 5),
            (PG_HEAD + "rule p S -> a ; succ p ; fail\n",
             "expected 'rule <label> : <lhs> -> <rhs> ; succ ... ; fail ...'", 5),
            (PG_HEAD + "rule p : S -> a ; succ p\n",
             "expected 'rule <label> : <lhs> -> <rhs> ; succ ... ; fail ...'", 5),
            (PG_HEAD + "rule p : S -> a ; succ p ; fail\nrule p : S -> a a ; succ p ; fail\n",
             "label 'p' declared twice", 6),
            (PG_HEAD + "rule p : Z -> a ; succ p ; fail\n", "unknown symbol 'Z'", 5),
            (PG_HEAD + "rule p : S -> a Z ; succ p ; fail\n", "unknown symbol 'Z'", 5),
            # the lhs is looked up before the rhs, and the rhs left to right
            (CD_HEAD + "component\n  Z -> a Y\n", "unknown symbol 'Z'", 6),
            (CD_HEAD + "component\n  S -> a Y Z\n", "unknown symbol 'Y'", 6),
            (PG_HEAD + "rule p : Z -> Y ; succ p ; fail\n", "unknown symbol 'Z'", 5),
            (PG_HEAD + "rule p : S -> Y Z ; succ p ; fail\n", "unknown symbol 'Y'", 5),
            # '#' is the empty rhs only on its own
            (CD_HEAD + "component\n  S -> a #\n", "unknown symbol '#'", 6),
            (PG_HEAD + "rule p : S -> a ; fail ; succ p\n", "expected 'succ' and 'fail' sections", 5),
            (CD_HEAD + "component\n  S -> a\nbogus line\n", "unrecognized line 'bogus line'", 7),
            ("grammar x cdgs\nnonterminals S\nterminals a\ncomponent\n  S -> a\n", "missing axiom", 0),
        ],
    )
    def test_parse_error_table(self, text, message, line):
        with pytest.raises(F.GswParseError) as err:
            F.parse_file(text)
        assert (str(err.value), err.value.line) == (message + (" (line %d)" % line if line else ""), line)

    def test_duplicate_symbol_rejected(self):
        text = "grammar g cdgs\nnonterminals S\nterminals S\naxiom S\ncomponent\n  S -> S\n"
        with pytest.raises(F.GswParseError, match="declared twice"):
            F.parse_grammar(text)


class TestRoundTrip:
    def all_constructed(self, pg_abc):
        yield C.build_example1(2)
        yield C.build_example1(3)
        yield C.build_anbnambm()
        yield C.build_s3_cd3()
        yield C.build_snk_cdgs(1, 1, "exactly")
        yield C.build_snk_cdgs(2, 2, "atmost")
        yield C.prolong(C.build_anbnambm(), 3)
        yield C.cd_to_programmed(C.build_example1(2), 2, "exactly")
        yield C.cd_to_programmed(C.build_anbnambm(), 1, "atmost")
        yield C.nsf_programmed_to_cdgs(pg_abc, 3, t_and(exactly(3)))
        yield C.finite_to_cd1({("a", "b"), ("b",)}, 2)

    def test_parse_serialize_identity(self, pg_abc):
        for g in self.all_constructed(pg_abc):
            assert F.parse_grammar(F.serialize(g)) == g

    def test_serialize_is_canonical_bit_exact(self, pg_abc):
        for g in self.all_constructed(pg_abc):
            text = F.serialize(g)
            assert F.serialize(F.parse_grammar(text)) == text
            assert text.endswith("\n") and "\r" not in text

    def test_uniform_mode_round_trips(self):
        g = C.build_example1(2)
        text = F.serialize(g, uniform_mode=t_and(exactly(2)))
        gf = F.parse_file(text)
        assert gf.uniform_mode == t_and(exactly(2))
        assert gf.grammar == g

    def test_hcd_round_trip(self):
        base = C.build_anbnambm()
        g = HcdSystem(
            nonterminals=base.nonterminals,
            terminals=base.terminals,
            axiom=base.axiom,
            components=base.components,
            modes=(t_and(exactly(1)), T_MODE, between(1, 2)),
            lambda_free=True,
            name="hybrid",
        )
        assert F.parse_grammar(F.serialize(g)) == g

    @pytest.mark.parametrize("word", KEYWORDS)
    def test_keyword_named_nonterminal_round_trips(self, word):
        X, x = nonterminal(word), terminal("x")
        g = CdSystem(
            nonterminals=frozenset({X}),
            terminals=frozenset({x}),
            axiom=X,
            components=((Rule(X, (x, X)), Rule(X, (x,))),),
            name="kw",
        )
        assert validate(g) == []
        gf = F.parse_file(F.serialize(g, uniform_mode=T_MODE))
        assert gf.grammar == g and gf.uniform_mode == T_MODE

    def test_comment_after_rule_named_rule_is_stripped(self):
        text = (
            "grammar g cdgs\nnonterminals rule\nterminals x\naxiom rule\n"
            "component\n  rule -> x ; a comment; with semicolons\n"
        )
        g = F.parse_grammar(text)
        assert g.components == ((Rule(nonterminal("rule"), (terminal("x"),)),),)


# symbol names and labels: any NAME_PATTERN identifier, with the format's
# keywords drawn often, since they are the names a line-based format trips on
names = st.sampled_from(KEYWORDS + ("->", "succ", "fail")) | st.from_regex(
    NAME_PATTERN, fullmatch=True
)
# grammar names: "" (written as the header name "unnamed") or an identifier
# other than that reserved one
grammar_names = st.just("") | names.filter(lambda n: n != UNNAMED)
# what the line format cannot carry: a comment or field separator, a label
# colon, whitespace
breakers = st.sampled_from([";", ":", " ", "\t", "p;q", "p q", "p:q", " p"])
# raw mode values, bounds below 1 included, and conjunctions of them:
# `validate` decides which of them lie in the mode set D
raw_modes = st.builds(Mode, st.sampled_from(["*", "t", "le", "eq", "ge"]), st.integers(-1, 3))
modes = raw_modes | st.builds(conj, raw_modes, raw_modes)


@st.composite
def grammar_fields(draw, kind):
    """The keyword arguments of a grammar of `kind` over names drawn from
    NAME_PATTERN.

    Only an hcdgs grammar can be invalid: its modes may lie outside D.
    """
    pool = draw(st.lists(names, min_size=2, max_size=6, unique=True))
    cut = draw(st.integers(min_value=1, max_value=len(pool) - 1))
    nts = [nonterminal(n) for n in pool[:cut]]
    ts = [terminal(n) for n in pool[cut:]]
    lambda_free = draw(st.booleans())
    rules = st.builds(
        Rule,
        st.sampled_from(nts),
        st.lists(st.sampled_from(nts + ts), min_size=int(lambda_free), max_size=3).map(tuple),
    )
    fields = dict(
        nonterminals=frozenset(nts),
        terminals=frozenset(ts),
        axiom=nts[0],
        lambda_free=lambda_free,
        name=draw(grammar_names),
    )
    if kind == "programmed":
        labels = draw(st.lists(names, min_size=1, max_size=3, unique=True))
        targets = st.frozensets(st.sampled_from(labels))
        return dict(
            fields,
            labels=tuple(labels),
            rule_of={p: draw(rules) for p in labels},
            success={p: draw(targets) for p in labels},
            failure={p: draw(targets) for p in labels},
        )
    fields["components"] = tuple(
        draw(st.lists(st.lists(rules, max_size=3).map(tuple), min_size=1, max_size=3))
    )
    if kind == "hcdgs":
        fields["modes"] = tuple(draw(modes) for _ in fields["components"])
    return fields


def grammars():
    """A grammar of any kind, built from `grammar_fields`."""
    return st.sampled_from(list(F._KINDS)).flatmap(
        lambda kind: grammar_fields(kind).map(lambda fields: F._KINDS[kind](**fields))
    )


def relabel(pg, old, new):
    """`pg` with its label `old` renamed to `new` everywhere."""
    rename = lambda p: new if p == old else p
    return replace(
        pg,
        labels=tuple(map(rename, pg.labels)),
        rule_of={rename(p): r for p, r in pg.rule_of.items()},
        success={rename(p): frozenset(map(rename, f)) for p, f in pg.success.items()},
        failure={rename(p): frozenset(map(rename, f)) for p, f in pg.failure.items()},
    )


class TestRoundTripProperty:
    @pytest.mark.parametrize("kind", list(F._KINDS))
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_strategy_sets_every_field(self, kind, data):
        # a field the strategy leaves at its default would hide from the
        # round trip below, and so would a field the file cannot carry
        drawn = data.draw(grammar_fields(kind))
        assert set(drawn) == {f.name for f in dataclasses.fields(F._KINDS[kind])}

    @settings(max_examples=100, deadline=None)
    @given(grammars(), st.none() | modes.filter(is_in_mode_set_d))
    def test_parse_serialize_identity(self, g, uniform):
        # every grammar that validate accepts round-trips
        if validate(g):
            return
        uniform = uniform if type(g) is CdSystem else None
        gf = F.parse_file(F.serialize(g, uniform_mode=uniform))
        assert gf.grammar == g and gf.uniform_mode == uniform

    @settings(max_examples=50, deadline=None)
    @given(grammars(), breakers, st.booleans())
    def test_names_the_format_cannot_carry_are_rejected(self, g, bad, as_label):
        if as_label and isinstance(g, ProgrammedGrammar):
            g = relabel(g, g.labels[0], bad)
            expected = "bad-name: label %r not an identifier" % bad
        else:
            g = replace(g, name=bad)
            expected = "bad-name: grammar name %r not an identifier" % bad
        assert expected in validate(g)


class TestNameRoundTrip:
    def test_empty_name_round_trips(self):
        g = replace(C.build_anbnambm(), name="")
        text = F.serialize(g)
        assert text.startswith("grammar unnamed cdgs")
        assert F.parse_grammar(text) == g

    def test_reserved_name_is_rejected(self):
        g = replace(C.build_anbnambm(), name=UNNAMED)
        assert validate(g) == [
            "bad-name: grammar name 'unnamed' is reserved for the empty name"
        ]

    def test_label_with_separator_is_rejected(self, pg_abc):
        g = relabel(pg_abc, "p6", "p;q")
        assert validate(g) == ["bad-name: label 'p;q' not an identifier"]
