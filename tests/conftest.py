"""Shared fixtures: term pools and a random-diagram generator."""

import random
from functools import reduce

import pytest

from zetacalc.diagram import (
    Cap,
    Cup,
    Had,
    Id,
    Par,
    Perm,
    Scalar,
    Seq,
    Spider,
    cup_many,
    discard,
    par,
    permutation,
    seq,
    upsilon,
)
from zetacalc.semantics import _split_binary, eval_as_map, translate
from zetacalc.syntax import Basis, Phase, parse
from zetacalc.theory import standard_instances
from zetacalc.types import Context, ZetaTypeError, fn_parts, infer, size


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


def _literal_caps(a: int, mid: int):
    """Cap wire i against wire a + mid + i (i < a), passing the mid wires
    through: a (2a + mid) -> mid diagram."""
    perm = [0] * (2 * a + mid)
    for i in range(a):
        perm[i], perm[a + mid + i] = 2 * i, 2 * i + 1
    for j in range(mid):
        perm[a + j] = 2 * a + j
    return seq(permutation(perm), par(*([Cap()] * a), Id(mid)))


def literal_translate(node):
    """The snaked reference translation of a derivation in the W/C-normal
    form: every abstraction is a state whose binder wires a cup bends into
    dual outputs, with its binder rotation kept at phase 0, and every
    application, a beta-redex too, caps those outputs against the
    argument's. `translate` composes redexes instead; the yanking equation
    says the two denote the same matrix."""
    ctx = node.ctx
    offs = [0]
    for e in ctx:
        offs.append(offs[-1] + size(e.type))
    if node.rule == "U":
        return Id(0)
    if node.rule == "V":
        return Id(size(node.type))
    if node.rule == "G":
        return Spider(node.term.basis, node.term.phase, 0, node.term.n)
    if node.rule == "D":
        k = -node.term.n
        return seq(cup_many(k), par(Id(k), Spider(node.term.basis, node.term.phase, k, 0)))
    if node.rule == "B":
        (child,) = node.children
        g, a = offs[-1], size(child.ctx.entries[-1].type)
        rot = par(*(Spider(node.term.basis, node.term.phase, 1, 1) for _ in range(a)))
        body = seq(par(Id(g), rot), literal_translate(child))
        perm = list(range(a, a + g)) + list(range(a)) + list(range(a + g, 2 * a + g))
        return seq(par(Id(g), cup_many(a)), permutation(perm), par(Id(a), body))
    if node.rule == "A":
        c1, c2 = node.children
        a_t, b_t = fn_parts(c1.type)
        router, p1, p2, _ = _split_binary(ctx, c1, c2)
        both = par(literal_translate(p1), literal_translate(p2))
        return seq(router, both, _literal_caps(size(a_t), size(b_t)))
    if node.rule == "T":
        router, p1, p2, _ = _split_binary(ctx, *node.children)
        return seq(router, par(literal_translate(p1), literal_translate(p2)))
    if node.rule == "E":
        m, n = node.children
        router, pn, pm, gn = _split_binary(ctx, n, m)
        return seq(router, par(Id(gn), literal_translate(pm)), literal_translate(pn))
    i = node.payload["index"]
    e = ctx.entries[i]
    before, after = offs[i], offs[-1] - offs[i + 1]
    if node.rule == "W":
        stage = discard(size(e.type), e.basis)
    else:
        stage = upsilon(size(e.type), e.basis, node.payload["arity"])
    (child,) = node.children
    return seq(par(Id(before), stage, Id(after)), literal_translate(child))


def literal_map(node):
    """The snaked reference of `eval_as_map`: the state of a function-typed
    derivation with its A* outputs capped against carried A inputs."""
    a_t, b_t = fn_parts(node.type)
    a = size(a_t)
    return seq(par(literal_translate(node), Id(a)), _literal_caps(a, size(b_t)))


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
