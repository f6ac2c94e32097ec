"""Spans and counts recorded around the calls into each zetacalc layer.

The spans are taken in the benchmark's own files: each public call an op
makes is wrapped, and so are the calls `theory.check_rule_instance` makes
into `types`, `semantics` and `evaluator` (by swapping the names the theory
module looks up, for the duration of each traced op). The program itself is
not changed.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

from zetacalc import Spider, Term, theory
from zetacalc.diagram import Par, Seq, max_width

import workloads

# The names theory.py imported from the layers below it and calls per check.
_THEORY_CALLS = ("infer", "translate", "denote", "equal_up_to_scalar", "max_deviation")

OP = "op"
LAYERS = (
    "syntax.parse",
    "types.infer",
    "semantics.translate",
    "evaluator.denote",
    "evaluator.compare",
    "theory.check",
    "theory.side_condition",
)


def instrument(wrap, items):
    """Stages whose calls pass through wrap(layer, fn), and the items with
    their rule side conditions wrapped too."""
    wrapped = []
    for item in items:
        if item.instance:
            rule, bindings, ctx = item.instance
            rule = dataclasses.replace(
                rule, side_condition=wrap("theory.side_condition", rule.side_condition))
            item = dataclasses.replace(item, instance=(rule, bindings, ctx))
        wrapped.append(item)
    return workloads.stages(wrap), wrapped


@contextmanager
def theory_calls(stages):
    """Meanwhile, route the theory module's own calls into the layers below
    it through `stages`."""
    saved = {name: getattr(theory, name) for name in _THEORY_CALLS}
    try:
        for name in _THEORY_CALLS:
            setattr(theory, name, getattr(stages, name))
        yield
    finally:
        for name, fn in saved.items():
            setattr(theory, name, fn)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def run_op(self, op_id: int, fn, *args):
        self.op = op_id
        return self.wrap(OP, fn)(*args)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: its duration minus its children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for (_, start, end, parent, _) in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals = Counter()
        for (name, *_), t in zip(self.spans, own):
            totals[name] += t
        return totals

    def op_durations(self) -> list[float]:
        return [end - start for name, start, end, _, _ in self.spans if name == OP]


def _count(root, kind, children) -> tuple[int, int]:
    """(all nodes, nodes of `kind`) under root, walked without recursion."""
    nodes = hits = 0
    todo = [root]
    while todo:
        node = todo.pop()
        nodes += 1
        hits += isinstance(node, kind)
        todo.extend(children(node))
    return nodes, hits


def _term_children(t):
    return [v for v in vars(t).values() if isinstance(v, Term)]


def _diagram_children(d):
    if isinstance(d, Seq):
        return (d.first, d.second)
    if isinstance(d, Par):
        return (d.top, d.bottom)
    return ()


class Probe:
    """Counts at the same boundaries as the spans, from one untimed pass:
    sizes of what each layer returns, verdicts, and the tracemalloc peak of
    every `denote` call (tracemalloc must be running)."""

    def __init__(self):
        self.counts = Counter()
        self.max_width = 0
        self.denote_peak = 0

    def wrap(self, name, fn):
        if name == "types.infer":
            return self._infer(fn)
        if name == "evaluator.denote":
            return self._denote(fn)
        if name == "theory.check":
            return self._check(fn)
        return fn

    def _infer(self, fn):
        def counted(ctx, term):
            ty, deriv = fn(ctx, term)
            self.counts["term_nodes"] += _count(term, Term, _term_children)[0]
            for node in deriv.walk():
                self.counts["derivation_nodes"] += 1
                self.counts["c_nodes"] += node.rule == "C"
            return ty, deriv
        return counted

    def _denote(self, fn):
        def counted(diagram):
            nodes, spiders = _count(diagram, Spider, _diagram_children)
            self.counts["diagram_nodes"] += nodes
            self.counts["spiders"] += spiders
            self.max_width = max(self.max_width, max_width(diagram))
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            m = fn(diagram)
            peak = tracemalloc.get_traced_memory()[1] - before
            self.denote_peak = max(self.denote_peak, peak)
            self.counts["peak_bytes"] += peak
            self.counts["result_bytes"] += m.nbytes
            return m
        return counted

    def _check(self, fn):
        def counted(*args):
            verdict = fn(*args)
            self.counts["status." + verdict.status] += 1
            return verdict
        return counted
