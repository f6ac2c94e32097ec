"""Shared fixtures: term pools and a random-diagram generator."""

import random
from functools import reduce

import pytest

from zetacalc.diagram import Cap, Cup, Had, Id, Par, Perm, Scalar, Seq, Spider
from zetacalc.semantics import eval_as_map, translate
from zetacalc.syntax import Basis, Phase, parse
from zetacalc.theory import standard_instances
from zetacalc.types import Context, ZetaTypeError, fn_parts, infer


def term_pool() -> list[str]:
    """Source strings covering every construct; used for round-trip and
    alpha-invariance properties. All typecheck in the empty context."""
    return [
        "*",
        "Z[1]",
        "X[1]^pi",
        "Z[2]^pi/2",
        "X[0]^2pi/3",
        "Z[-1]",
        "X[-2]^pi",
        "Z x:1. x",
        "\\x:1. x",
        "Z x:1. <x,x>",
        "X x:1. <x,<x,x>>",
        "Z^pi/2 x:1. x",
        "X^pi f:1->1. f Z[1]",
        "(Z x:1. <x,x>) X[1]^pi",
        "(X f:1->1*1. <f,f>) (Z x:1. <x,x>)",
        "let <a,b> =Z (Z x:1. <x,x>) Z[1] in <b,a>",
        "let <a,b> =X (Z x:1. <x,x>) Z[1] in <b,a>",
        "H",
        "H Z[1]^pi/2",
        "rot Z^pi/2 o rot X^pi",
        "rot Z^rad(1.25) Z[1]",
        "<*, Z[1]>",
        "Z x:1*1. x",
        "\\f:1->1. \\x:1. f x",
        # the let body keeps its own W for the unused b: routing must peel
        # only the weakenings of the let's context
        "let <a,b> =Z (Z x:1. <x,x>) Z[1] in a",
        "Z x:1. Z[1]",
    ]


def rule_sides() -> list:
    """(context, term) for both sides of every standard rule instance."""
    return [
        (ctx, side(bindings))
        for rule, bindings, ctx in standard_instances()
        for side in (rule.lhs, rule.rhs)
    ]


def translated_diagrams():
    """(label, diagram) for every diagram translate/eval_as_map produce for
    the pool and its maps, both sides of every rule instance, and the
    benchmark inputs: the H x 2..20 maps, the 6..11-way Z/X copy maps at
    all four quarter-turn phases and the higher-order share."""

    def jd_of(src):
        return translate(infer(Context(), parse(src))[1])

    for src in term_pool():
        jd = jd_of(src)
        yield src, jd.diagram
        if fn_parts(jd.type) is not None:
            yield src + " (map)", eval_as_map(jd).diagram
    for ctx, term in rule_sides():
        try:
            _, d = infer(ctx, term)
        except ZetaTypeError:
            continue
        yield str(term), translate(d).diagram
    for n in range(2, 21):
        yield f"H x {n}", eval_as_map(jd_of(" o ".join(["H"] * n))).diagram
    for basis in "ZX":
        for phase in ("", "^pi/2", "^pi", "^3pi/2"):
            for ways in range(6, 12):
                src = f"{basis}{phase} x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)
                yield src, eval_as_map(jd_of(src)).diagram
    yield "higher-order", jd_of("(X f:1->1*1. <f,f>) (Z x:1. <x,x>)").diagram


@pytest.fixture
def pool_terms():
    return [parse(s) for s in term_pool()]


def random_diagram(rng: random.Random, max_wires: int = 10, layers: int = 6):
    """A random layered diagram within the wire cap. Starts from a random
    number of open input wires and stacks primitive layers. Built with the
    literal Seq/Par constructors, so its Id and Id(0) plumbing is kept and
    the evaluators' identity paths stay exercised."""

    def par(*factors):
        return reduce(Par, factors)

    wires = rng.randint(0, 4)
    parts = [Id(wires)]
    for _ in range(layers):
        choice = rng.random()
        if choice < 0.15 and wires + 2 <= max_wires:
            pos = rng.randint(0, wires)
            parts.append(par(Id(pos), Cup(), Id(wires - pos)))
            wires += 2
        elif choice < 0.3 and wires >= 2:
            pos = rng.randint(0, wires - 2)
            parts.append(par(Id(pos), Cap(), Id(wires - pos - 2)))
            wires -= 2
        elif choice < 0.45 and wires >= 2:
            pos = rng.randint(0, wires - 2)
            parts.append(par(Id(pos), Perm((1, 0)), Id(wires - pos - 2)))
        elif choice < 0.6 and wires >= 1:
            pos = rng.randint(0, wires - 1)
            parts.append(par(Id(pos), Had(), Id(wires - pos - 1)))
        elif choice < 0.7:
            parts.append(par(Id(wires), Scalar(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))))
        else:
            m = rng.randint(0, min(2, wires))
            n = rng.randint(0, min(3, max_wires - (wires - m)))
            basis = rng.choice([Basis.Z, Basis.X])
            phase = rng.choice(
                [Phase.zero(), Phase.exact(1, 2), Phase.exact(1),
                 Phase.exact(3, 2), Phase.radians(rng.uniform(0, 6.28))]
            )
            pos = rng.randint(0, wires - m)
            parts.append(par(Id(pos), Spider(basis, phase, m, n), Id(wires - pos - m)))
            wires += n - m
    return reduce(Seq, parts)
