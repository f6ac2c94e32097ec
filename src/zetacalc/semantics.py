"""Translation of typing derivations into ZX string diagrams.

Every judgement Gamma |- M : A becomes a diagram whose input wires carry the
labels of the context (in context order) and whose output wires carry the
labels of A. An abstraction's body is a (Gamma, A) -> B map: the binder
rotation (none when its phase is zero, as a phase-0 (1,1) spider is an
identity), then the body's diagram. As a state, the abstraction bends the
binder's wires into dual outputs via cups.

A beta-redex, an application whose function is an abstraction, is composed,
not snaked: the argument's outputs feed the body's binder wires directly,
which is the yanking equation of compact closure applied as the diagram is
built. Likewise `eval_as_map` of an abstraction returns its body, and of
that body, when it is the state of an inner abstraction, the inner body
after the outer binder's rotation, and so on down the chain. Only an
application of another function head (a variable, a let, an abstraction
under a contraction) caps the dual outputs of the function against the
argument's outputs, pairing label a* with label a in label order; the
function and argument diagrams run side by side, as one `par`.

Only derivations in the W/C-normal form that `infer` builds are translated:
in every context, one weakening (W) drops all unused entries and contraction
(C) splits each entry used more than once before any other rule fires. So the
leaves `U`, `G` and `D` have an empty context and `V` has exactly its
variable, and each entry of a binary node (`A`, `T`, `E`) is kept by exactly
one child, which gets its wires through a router, not a copy spider: an Id
when the entries are already in block order (the first child's, then the
second's), else one Perm. A derivation in another shape raises
TranslationError, even one that `validate_derivation` accepts.

Every diagram here is built with `seq` and `par`, which apply the monoidal
unit laws, so empty contexts, zero-wire binders and identity routings need
no case of their own: they vanish as the diagram is built.

A derivation node with an empty context may be shared (see `types`), as
every `H` is. One `translate` call builds the body of each such abstraction
once, and the diagram shares it at every occurrence. Diagram walks, such as
`generators`, `to_json_obj` and `to_dot`, still visit a shared sub-diagram
once per occurrence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .diagram import (
    Cap,
    Diagram,
    Id,
    Perm,
    Spider,
    cup_many,
    par,
    permutation,
    seq,
    to_json_obj,
    upsilon,
)
from .syntax import Abs, Gen, Term, Type, ZetaError, fn_parts, print_term, print_type
from .types import (
    Context,
    Derivation,
    labels,
    print_context,
    size,
)


class TranslationError(ZetaError):
    pass


@dataclass(slots=True, unsafe_hash=True)
class JudgementDiagram:
    ctx: Context
    term: Term
    type: Type
    diagram: Diagram
    input_labels: tuple
    output_labels: tuple
    # the (Gamma, A) -> B map of an abstraction at the root, which
    # eval_as_map returns in place of capping the state's dual outputs
    body: Optional[Diagram] = field(default=None, compare=False, repr=False)
    # the root abstraction, then each nested one whose body eval_as_map has
    # built; with no body, when the last one's premise is an abstraction,
    # the next eval_as_map builds that one's body in place of capping
    binders: tuple = field(default=(), compare=False, repr=False)

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


def _peel(node: Derivation, names: set[str]) -> Derivation:
    """The node past its weakening of the entries in `names`, its parent's
    context, which the parent routes to its other child. A W node that also
    drops the child's own binders (a let body's) keeps dropping just those."""
    if node.rule != "W":
        return node
    (child,) = node.children
    if not names.issuperset(e.name for e in node.ctx.entries):
        kept = {e.name for e in child.ctx.entries}
        ctx = tuple(e for e in node.ctx.entries if e.name in kept or e.name not in names)
        if len(ctx) != len(child.ctx):
            return Derivation("W", Context(ctx), node.term, node.type, (child,))
    return child


def _split_binary(ctx: Context, c1: Derivation, c2: Derivation):
    """Context routing for a binary node: each entry goes only to the child
    that keeps it past its peeled weakening (the full-context sharing of
    the child judgements collapses, since a same-basis copy spider with one
    leg discarded is an identity wire). Returns (router to [c1 block, c2
    block], peeled c1, peeled c2, c1 block size): the router is an Id when
    the entries are already in block order, else one Perm. Raises
    TranslationError when an entry is kept by both children or by neither."""
    names = {e.name for e in ctx.entries}
    p1, p2 = _peel(c1, names), _peel(c2, names)
    kept1, kept2 = {e.name for e in p1.ctx.entries}, {e.name for e in p2.ctx.entries}
    # wires of each block so far; in block order while no c2 wire precedes
    # a c1 wire
    g1 = g2 = 0
    ordered = True
    for e in ctx.entries:
        first = e.name in kept1
        if first == (e.name in kept2):
            whom = "both children" if first else "neither child"
            raise TranslationError(
                f"context entry {e.name} is kept by {whom} of a binary rule;"
                " translate takes only the W/C-normal form that infer builds"
            )
        n = size(e.type)
        if first:
            if n and g2:
                ordered = False
            g1 += n
        else:
            g2 += n
    if ordered:
        return Id(g1 + g2), p1, p2, g1
    # input wire i leaves at the next free position of its entry's block
    perm, dst = [], [0, g1]
    for e in ctx.entries:
        block, n = e.name not in kept1, size(e.type)
        perm.extend(range(dst[block], dst[block] + n))
        dst[block] += n
    return Perm(tuple(perm)), p1, p2, g1


def translate(derivation: Derivation) -> JudgementDiagram:
    """Structural translation of a derivation in the W/C-normal form that
    `infer` builds (see the module docstring). Every beta-redex is composed,
    with no cup/cap snake; an abstraction at the root keeps its body for
    `eval_as_map`. An abstraction with an empty context that the derivation
    shares has its body translated once, and the diagram shares it. Raises
    TranslationError on a derivation in another shape, even one
    `validate_derivation` accepts, and on an application of a non-function
    type."""
    # id of an abstraction with an empty context -> its body
    shared: dict[int, Diagram] = {}
    if derivation.rule == "B":
        body = _body(derivation, shared)
        d, binders = _bend(derivation, body), (derivation,)
    else:
        body, binders = None, ()
        d = _translate(derivation, shared)
    return JudgementDiagram(
        derivation.ctx,
        derivation.term,
        derivation.type,
        d,
        context_labels(derivation.ctx),
        tuple(labels(derivation.type)),
        body,
        binders,
    )


def _rotation(node: Derivation) -> Diagram:
    """The binder rotation of a `B` node on its binder's wires: an Id when
    its phase is zero, as a phase-0 (1,1) spider is an identity."""
    term: Abs = node.term
    a = size(node.children[0].ctx.entries[-1].type)
    if term.phase.is_zero:
        return Id(a)
    return par(*[Spider(term.basis, term.phase, 1, 1)] * a)


def _body(node: Derivation, shared: dict) -> Diagram:
    """The (Gamma, A) -> B map of a `B` node: the binder rotation, if its
    phase is not zero, then the body's diagram. Built once for a node with
    an empty context."""
    closed = not node.ctx.entries
    if closed and id(node) in shared:
        return shared[id(node)]
    d = _translate(node.children[0], shared)
    if not node.term.phase.is_zero:
        d = seq(par(Id(node.ctx.wire_count()), _rotation(node)), d)
    if closed:
        shared[id(node)] = d
    return d


def _bend(node: Derivation, body: Diagram) -> Diagram:
    """The state of a `B` node with body `body`: Gamma -> [Gamma, dual
    block, copy block], move the duals to the front, then run the body on
    [Gamma, copy block]."""
    g = node.ctx.wire_count()
    a = size(node.children[0].ctx.entries[-1].type)
    stage1 = par(Id(g), cup_many(a))
    perm = list(range(a, a + g)) + list(range(a)) + list(range(a + g, 2 * a + g))
    return seq(stage1, permutation(perm), par(Id(a), body))


def _translate(node: Derivation, shared: dict) -> Diagram:
    rule, ctx = node.rule, node.ctx
    if rule == "A":
        c1, c2 = node.children
        parts = fn_parts(c1.type)
        if parts is None:
            raise TranslationError("application of a non-function type")
        router, p1, p2, g1 = _split_binary(ctx, c1, c2)
        if p1.rule == "B":
            # a redex: the argument feeds the body's binder wires
            return seq(router, par(Id(g1), _translate(p2, shared)), _body(p1, shared))
        both = par(_translate(p1, shared), _translate(p2, shared))
        return seq(router, both, _caps(size(parts[0]), size(parts[1])))
    if rule == "W" or rule == "C":
        # an entry the child's context lacks is copied k ways: into the
        # copies that hold its place at a C node, or 0 ways, a discard, at
        # a W node
        (child,) = node.children
        kept = {e.name for e in child.ctx.entries}
        k = len(child.ctx) - len(ctx) + 1 if rule == "C" else 0
        stage = par(*(Id(size(e.type)) if e.name in kept else upsilon(size(e.type), e.basis, k)
                      for e in ctx.entries))
        return seq(stage, _translate(child, shared))
    if rule == "V" and len(ctx) == 1 and ctx.entries[0].name == node.term.name:
        return Id(size(node.type))
    if rule == "B":
        return _bend(node, _body(node, shared))
    if rule == "T":
        router, p1, p2, _ = _split_binary(ctx, *node.children)
        return seq(router, par(_translate(p1, shared), _translate(p2, shared)))
    if rule == "E":
        m, n = node.children
        # layout [N's entries, M's entries]: run M, then feed its outputs as
        # the trailing x,y wires of N.
        router, pn, pm, gn = _split_binary(ctx, n, m)
        arg = par(Id(gn), _translate(pm, shared))
        return seq(router, arg, _translate(pn, shared))
    if rule not in ("U", "V", "G", "D"):
        raise TranslationError(f"unknown rule {rule!r}")
    if rule == "V" or ctx.entries:
        raise TranslationError(
            f"rule {rule} over context {print_context(ctx)}: translate"
            " takes only the W/C-normal form that infer builds"
        )
    if rule == "U":
        return Id(0)
    gen: Gen = node.term
    if rule == "G":
        return Spider(gen.basis, gen.phase, 0, gen.n)
    k = -gen.n
    return seq(cup_many(k), par(Id(k), Spider(gen.basis, gen.phase, k, 0)))


def eval_as_map(jd: JudgementDiagram) -> JudgementDiagram:
    """Uncurry once, yielding a (Gamma, A) -> B judgement diagram: the body
    of an abstraction at the root as it is, and so on down a chain of
    abstractions, else the state with its A* outputs bent back into
    inputs."""
    parts = fn_parts(jd.type)
    if parts is None:
        raise TranslationError(
            f"type {print_type(jd.type)} is not of function shape A* (x) B"
        )
    a_t, b_t = parts
    in_labels = jd.input_labels + tuple(("<map-arg>", l) for l in labels(a_t))
    out_labels = tuple(labels(b_t))
    body, binders = jd.body, jd.binders
    if body is None and binders and binders[-1].children[0].rule == "B":
        # the state of the abstraction that is the last taken body's
        # premise: its body, after the taken binders' rotations
        (inner,) = binders[-1].children
        rotations = par(
            Id(jd.ctx.wire_count()), *map(_rotation, binders), Id(size(a_t))
        )
        body, binders = seq(rotations, _body(inner, {})), binders + (inner,)
    if body is not None:
        return JudgementDiagram(
            jd.ctx, jd.term, b_t, body, in_labels, out_labels, binders=binders
        )
    a, b = size(a_t), size(b_t)
    # inputs [Gamma, A]; run the state diagram on Gamma, carry A through,
    # then cap each dual output against the matching carried input.
    staged = par(jd.diagram, Id(a))  # (g+a) -> (a + b + a)
    capped = seq(staged, _caps(a, b))
    return JudgementDiagram(jd.ctx, jd.term, b_t, capped, in_labels, out_labels)
