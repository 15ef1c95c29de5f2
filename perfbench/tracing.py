"""Outside-in layer spans for the traced benchmark run.

The tracer wraps the public functions of each gsworkbench module from the
benchmark's own files; the program itself is not changed.  Every wrapper
records a span (name, start, end, parent).  A layer's self time is its span
minus the time its child spans cover.  Spans are folded into per-layer
totals as they close, so a pass with a million wrapped calls keeps only the
open spans in memory.

A call into a layer whose innermost open span is already that layer is not
a new span: recursion (``mode_predicate`` on a conjunction) and internal
delegation (``enumerate_grammar`` -> ``enumerate_cd``, ``nsf_programmed_to_cdgs``
-> ``prolong``) count once, at the outermost call.

Helpers that no metric names (``applicable``, ``nonterminal_count``, ...)
are not wrapped, so their time is self time of the layer that calls them.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

MODULES = ("model", "engine", "constructions", "verifier", "fileformat", "cli")

_BUILDERS = (
    "finite_to_cd1",
    "linear_to_cd2",
    "cf_indexk_to_cd2",
    "cd_to_programmed",
    "build_example1",
    "build_anbnambm",
    "build_s3_cd3",
    "build_snk_cdgs",
    "prolong",
    "nsf_programmed_to_cdgs",
)

# module -> {public function -> layer (span) name}
LAYERS: Dict[str, Dict[str, str]] = {
    "cli": {"main": "cli.main"},
    "fileformat": {
        "parse_file": "fileformat.parse_file",
        "serialize": "fileformat.serialize",
    },
    "model": {"validate": "model.validate"},
    "constructions": {name: "constructions.build" for name in _BUILDERS},
    "engine": {
        "mode_step": "engine.mode_step",
        "one_step": "engine.one_step",
        "mode_predicate": "engine.mode_predicate",
        "enumerate_grammar": "engine.enumerate",
        "enumerate_cd": "engine.enumerate",
        "enumerate_hcd": "engine.enumerate",
        "enumerate_programmed": "engine.enumerate",
        "word_index": "engine.word_index",
        "validate_trace": "engine.validate_trace",
    },
    "verifier": {
        "certify_index_bound": "verifier.certify_index_bound",
        "nsf_check": "verifier.nsf_check",
        "bounded_equal": "verifier.bounded_equal",
    },
}


def _rule_count(grammar) -> int:
    if hasattr(grammar, "labels"):
        return len(grammar.labels)
    return sum(len(c) for c in grammar.components)


def _count_enumerate(st, args, res) -> None:
    st.add("words_out", len(res.language.words))
    st.add("truncated", int(res.language.truncated))


# layer -> function(stats, args, result) adding the layer's work counters
_COUNTERS: Dict[str, Callable] = {
    "engine.mode_step": lambda st, args, res: st.add("forms_out", len(res.results)),
    "engine.one_step": lambda st, args, res: st.add("forms_out", len(res)),
    "engine.enumerate": _count_enumerate,
    "engine.word_index": lambda st, args, res: st.add("unknown", int(res.index is None)),
    "verifier.certify_index_bound": lambda st, args, res: st.add(
        "checked_words", res.checked_words
    ),
    "fileformat.parse_file": lambda st, args, res: st.add("lines", args[0].count("\n") + 1),
    "fileformat.serialize": lambda st, args, res: st.add("bytes", len(res.encode("utf-8"))),
    "constructions.build": lambda st, args, res: st.add("rules_out", _rule_count(res)),
}


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0  # span durations, children included
    self_s: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float, parent: Optional["Span"]):
        self.name = name
        self.start = start
        self.end = 0.0
        self.parent = parent
        self.child_s = 0.0


class Tracer:
    """Per-layer span statistics for the functions in LAYERS."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: List[Span] = []
        self.layers: Dict[str, LayerStats] = {}
        # word_index searches made inside certify_index_bound
        self.searches_in_certify = 0

    def reset(self) -> None:
        self.stack.clear()
        self.layers = {}
        self.searches_in_certify = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        counter = _COUNTERS.get(layer)
        stack = self.stack
        clock = self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == layer:
                return fn(*args, **kwargs)
            if layer == "engine.word_index" and any(
                s.name == "verifier.certify_index_bound" for s in stack
            ):
                self.searches_in_certify += 1
            span = Span(layer, clock(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                self._close(span)
            if counter is not None:
                counter(self._layer(layer), args, result)
            return result

        traced.perfbench_layer = layer
        return traced

    def _layer(self, name: str) -> LayerStats:
        st = self.layers.get(name)
        if st is None:
            st = self.layers[name] = LayerStats()
        return st

    def _close(self, span: Span) -> None:
        duration = span.end - span.start
        st = self._layer(span.name)
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - span.child_s
        if span.parent is not None:
            span.parent.child_s += duration

    @contextmanager
    def installed(self, package):
        """Patch every module binding of the LAYERS functions; restore on exit.

        ``package`` is the imported gsworkbench package.  Bindings made by
        from-imports (``verifier.word_index``, ``fileformat.validate``, the
        package's re-exports) are patched as well as the defining module's
        globals, which is what ``engine`` itself looks its helpers up in.
        A function the package no longer has is skipped; its layer reads 0.
        """
        modules = [package] + [getattr(package, m) for m in MODULES]
        wrappers = {}
        for mod_name, funcs in LAYERS.items():
            mod = getattr(package, mod_name)
            for fname, layer in funcs.items():
                original = getattr(mod, fname, None)
                if original is None:
                    continue
                wrappers[id(original)] = (original, self.wrap(layer, original))
        patched: List[Tuple[object, str, Callable]] = []
        try:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(mod, attr, hit[1])
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

