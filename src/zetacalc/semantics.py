"""Translation of typing derivations into ZX string diagrams.

Every judgement Gamma |- M : A becomes a diagram whose input wires carry the
labels of the context (in context order) and whose output wires carry the
labels of A. Abstraction bends the binder's wires into dual outputs via
cups; application caps the dual outputs of the function against the
argument's outputs, pairing label a* with label a in label order; the
function and argument diagrams run side by side, as one `par`.

Every diagram here is built with `seq` and `par`, which apply the monoidal
unit laws, so empty contexts, zero-wire binders and identity routings need
no case of their own: they vanish as the diagram is built.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .diagram import (
    Cap,
    Diagram,
    Id,
    Spider,
    cup_many,
    discard,
    par,
    permutation,
    seq,
    upsilon,
)
from .syntax import Abs, Gen, Term, print_term
from .types import (
    Context,
    Derivation,
    Type,
    fn_parts,
    labels,
    print_context,
    print_type,
    size,
)
from .diagram import to_json_obj
from .syntax import ZetaError


class TranslationError(ZetaError):
    pass


@dataclass(frozen=True)
class JudgementDiagram:
    ctx: Context
    term: Term
    type: Type
    diagram: Diagram
    input_labels: tuple
    output_labels: tuple

    def to_json_obj(self) -> dict:
        return {
            "context": print_context(self.ctx),
            "term": print_term(self.term),
            "type": print_type(self.type),
            "diagram": to_json_obj(self.diagram),
            "labels": {
                "inputs": [repr(l) for l in self.input_labels],
                "outputs": [repr(l) for l in self.output_labels],
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj())


def context_labels(ctx: Context) -> tuple:
    out = []
    for e in ctx:
        out.extend((e.name, l) for l in labels(e.type))
    return tuple(out)


def share_context(ctx: Context, n: int) -> Diagram:
    """Share every entry in its own basis into n copies, regrouped so the
    output is n consecutive full copies of the context block (copy-major)."""
    sizes = [size(e.type) for e in ctx]
    shared = par(*(upsilon(s, e.basis, n) for s, e in zip(sizes, ctx)))
    # after per-entry sharing, wires are entry-major: entry i, copy j, offset k
    # at sum(sizes[:i])*n + j*sizes[i] + k; regroup to copy-major.
    total = sum(sizes)
    perm = []
    for i, s in enumerate(sizes):
        before = sum(sizes[:i])
        for j in range(n):
            for k in range(s):
                perm.append(j * total + before + k)
    return seq(shared, permutation(perm))


def _wire_offsets(ctx: Context) -> list[int]:
    offs = [0]
    for e in ctx:
        offs.append(offs[-1] + size(e.type))
    return offs


def _caps(first_block: int, mid: int) -> Diagram:
    """Cap wires i and first_block+mid+i pairwise (i < first_block), passing
    the mid wires through: a (2*first_block + mid) -> mid diagram."""
    a = first_block
    perm = [0] * (2 * a + mid)
    for i in range(a):
        perm[i] = 2 * i
        perm[a + mid + i] = 2 * i + 1
    for j in range(mid):
        perm[a + j] = 2 * a + j
    caps = par(*([Cap()] * a + [Id(mid)]))
    return seq(permutation(perm), caps)


def _peel_weakenings(node: Derivation, drop: set[str]) -> Derivation:
    """Skip leading W nodes for entries in `drop` (entries the parent never
    routed to this child, so there is no wire to discard)."""
    while node.rule == "W" and node.payload["entry"].name in drop:
        (node,) = node.children
    return node


def _used_names(node: Derivation) -> set[str]:
    """Names of the context below the node's leading W chain. Derivations
    built by `infer` weaken every unused entry before any other rule, so
    these are the free variables of the node's term."""
    while node.rule == "W":
        (node,) = node.children
    return {e.name for e in node.ctx}


def _split_binary(ctx: Context, c1: Derivation, c2: Derivation):
    """Context routing for a binary node. After W/C preprocessing every entry
    occurs exactly once in the node's term, hence in exactly one child; the
    full-context sharing of the child judgements collapses (a same-basis
    copy spider with one leg discarded is an identity wire), so each entry is
    routed only to the child that keeps it past its W chain. Returns (router
    to [c1 block, c2 block], peeled c1, peeled c2, c1 block size) or None
    when some entry is kept by both children or by neither, in which case
    the caller falls back to literal sharing."""
    used1, used2 = _used_names(c1), _used_names(c2)
    offs = _wire_offsets(ctx)
    to_first = []
    for e in ctx:
        first, second = e.name in used1, e.name in used2
        if first == second:
            return None
        to_first.append(first)
    g1 = sum(size(e.type) for e, f in zip(ctx, to_first) if f)
    perm = [0] * ctx.wire_count()
    pos1, pos2 = 0, g1
    for i, e in enumerate(ctx.entries):
        s = size(e.type)
        if to_first[i]:
            for k in range(s):
                perm[offs[i] + k] = pos1 + k
            pos1 += s
        else:
            for k in range(s):
                perm[offs[i] + k] = pos2 + k
            pos2 += s
    names1 = {e.name for e, f in zip(ctx, to_first) if f}
    names2 = {e.name for e in ctx} - names1
    p1 = _peel_weakenings(c1, names2)
    p2 = _peel_weakenings(c2, names1)
    return permutation(perm), p1, p2, g1


def translate(derivation: Derivation) -> JudgementDiagram:
    """Structural translation of a validated derivation."""
    d = _translate(derivation)
    return JudgementDiagram(
        derivation.ctx,
        derivation.term,
        derivation.type,
        d,
        context_labels(derivation.ctx),
        tuple(labels(derivation.type)),
    )


def _discard_ctx(ctx: Context) -> Diagram:
    return par(*(discard(size(e.type), e.basis) for e in ctx))


def _translate(node: Derivation) -> Diagram:
    ctx, t = node.ctx, node.type
    if node.rule == "U":
        return _discard_ctx(ctx)
    if node.rule == "V":
        name = node.term.name
        return par(
            *(
                Id(size(e.type)) if e.name == name else discard(size(e.type), e.basis)
                for e in ctx
            )
        )
    if node.rule == "G":
        gen: Gen = node.term
        core = Spider(gen.basis, gen.phase, 0, gen.n)
        return par(_discard_ctx(ctx), core)
    if node.rule == "D":
        gen = node.term
        k = -gen.n
        core = seq(cup_many(k), par(Id(k), Spider(gen.basis, gen.phase, k, 0)))
        return par(_discard_ctx(ctx), core)
    if node.rule == "B":
        (child,) = node.children
        term: Abs = node.term
        g = ctx.wire_count()
        a = size(child.ctx.entries[-1].type)
        rot = par(*(Spider(term.basis, term.phase, 1, 1) for _ in range(a)))
        body_rot = seq(par(Id(g), rot), _translate(child))
        # Gamma -> [Gamma, dual block, copy block], move duals to the front,
        # then run the rotated body on [Gamma, copy block].
        stage1 = par(Id(g), cup_many(a))
        perm = list(range(a, a + g)) + list(range(a)) + list(range(a + g, 2 * a + g))
        return seq(stage1, permutation(perm), par(Id(a), body_rot))
    if node.rule == "A":
        c1, c2 = node.children
        parts = fn_parts(c1.type)
        if parts is None:
            raise TranslationError("application of a non-function type")
        a = size(parts[0])
        b = size(parts[1])
        split = _split_binary(ctx, c1, c2)
        if split is None:
            shared = share_context(ctx, 2)
            both = par(_translate(c1), _translate(c2))
        else:
            router, p1, p2, _ = split
            shared = router
            both = par(_translate(p1), _translate(p2))
        return seq(shared, both, _caps(a, b))
    if node.rule == "T":
        c1, c2 = node.children
        split = _split_binary(ctx, c1, c2)
        if split is None:
            return seq(share_context(ctx, 2), par(_translate(c1), _translate(c2)))
        router, p1, p2, _ = split
        return seq(router, par(_translate(p1), _translate(p2)))
    if node.rule == "E":
        c1, c2 = node.children
        g = ctx.wire_count()
        # layout [N's entries, M's entries]: run M, then feed its outputs as
        # the trailing x,y wires of N.
        split = _split_binary(ctx, c2, c1)
        if split is None:
            return seq(
                share_context(ctx, 2), par(Id(g), _translate(c1)), _translate(c2)
            )
        router, pn, pm, gn = split
        return seq(router, par(Id(gn), _translate(pm)), _translate(pn))
    if node.rule == "W":
        (child,) = node.children
        e, i = node.payload["entry"], node.payload["index"]
        offs = _wire_offsets(ctx)
        before, after = offs[i], offs[-1] - offs[i + 1]
        drop = par(Id(before), discard(size(e.type), e.basis), Id(after))
        return seq(drop, _translate(child))
    if node.rule == "C":
        (child,) = node.children
        i = node.payload["index"]
        k = node.payload["arity"]
        e = ctx.entries[i]
        offs = _wire_offsets(ctx)
        before, after = offs[i], offs[-1] - offs[i + 1]
        share = par(Id(before), upsilon(size(e.type), e.basis, k), Id(after))
        return seq(share, _translate(child))
    raise TranslationError(f"unknown rule {node.rule!r}")


def eval_as_map(jd: JudgementDiagram) -> JudgementDiagram:
    """Uncurry once: bend the A* outputs of a function-typed judgement back
    into inputs, yielding a (Gamma, A) -> B judgement diagram."""
    parts = fn_parts(jd.type)
    if parts is None:
        raise TranslationError(
            f"type {print_type(jd.type)} is not of function shape A* (x) B"
        )
    a_t, b_t = parts
    a, b = size(a_t), size(b_t)
    g = jd.ctx.wire_count()
    # inputs [Gamma, A]; run the state diagram on Gamma, carry A through,
    # then cap each dual output against the matching carried input.
    staged = par(jd.diagram, Id(a))  # (g+a) -> (a + b + a)
    capped = seq(staged, _caps(a, b))
    in_labels = jd.input_labels + tuple(("<map-arg>", l) for l in labels(a_t))
    return JudgementDiagram(jd.ctx, jd.term, b_t, capped, in_labels, tuple(labels(b_t)))
