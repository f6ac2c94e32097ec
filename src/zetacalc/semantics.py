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
built. Likewise `eval_as_map` of an abstraction at the root returns its
body. Any other state it caps, that body too when it is itself the state
of an inner abstraction: the dual outputs are capped against new inputs,
which reads application through compact closure. An application of another
function head (a variable, a let, an abstraction under a contraction)
caps the dual outputs of the function against the argument's outputs,
pairing label a* with label a in label order; the function and argument
diagrams run side by side, as one `par`.

Only derivations in the W/C-normal form that `infer` builds are translated:
in every context, one weakening (W) drops all unused entries and contraction
(C) splits each entry used more than once before any other rule fires. So the
leaves `U`, `G` and `D` have an empty context and `V` has exactly its
variable, and each entry of a binary node (`A`, `T`, `E`) is kept, just
below the weakening, by exactly one child, which gets its wires through a
router, not a copy spider: no router when the entries are already in block
order (the first child's, then the second's), else one Perm; a let discards
the binders its body does not use. A derivation in another shape raises
TranslationError, even one that `validate_derivation` accepts.

Every diagram here is built with `seq` and `par`, which apply the monoidal
unit laws, so empty contexts and zero-wire binders need no case of their
own: they vanish as the diagram is built. A binary node builds no router
in block order, and no Id beside a redex's argument or a let's bound term
when the other child keeps no wire.

The one derivation node a derivation shares is `H`'s (see `types`). Its
body is built once per process, on first use, and every diagram shares it
at each occurrence of that node; any other node is translated at each
occurrence. `denote` reuses only `H`'s matrix, and walks any other
repeated sub-diagram at each occurrence, as `thread` (and so `to_dot` and
the oracle) and `to_json_obj` do.

A `JudgementDiagram` records the argument type of each `eval_as_map` that
made it, not its wire labels: `input_labels` and `output_labels` are built
from the context, those types and the result type when read (by
`to_json_obj`), as labelling a right-nested k-tuple takes time quadratic in
k.
"""

from __future__ import annotations

import functools
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
    _hadamard as _hadamard_derivation,
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
    # the A of each `eval_as_map` that made this map, outermost first; ()
    # for a state
    args: tuple = ()
    # the (Gamma, A) -> B map of an abstraction at the root, which
    # eval_as_map returns in place of capping the state's dual outputs
    body: Optional[Diagram] = field(default=None, compare=False, repr=False)

    @property
    def input_labels(self) -> tuple:
        """The context's wire labels, then each argument's, as
        ("<map-arg>", label); built when read, not by translation."""
        return context_labels(self.ctx) + tuple(
            ("<map-arg>", l) for a in self.args for l in labels(a)
        )

    @property
    def output_labels(self) -> tuple:
        return tuple(labels(self.type))

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


def _past_w(node: Derivation) -> Derivation:
    """The node just below its weakening, if it has one."""
    return node.children[0] if node.rule == "W" else node


def _split_binary(ctx: Context, c1: Derivation, c2: Derivation):
    """Context routing for a binary node: each entry goes only to the child
    that keeps it just below its weakening (the full-context sharing of the
    child judgements collapses, since a same-basis copy spider with one leg
    discarded is an identity wire). Returns (router to [c1 block, c2 block],
    c1 and c2 past their weakenings, c1 block size): no router (None) when
    the entries are already in block order, else one Perm. One tuple test
    recognises a node whose children take the context in block order, as
    beside every closed child infer builds; any other node walks the
    context once. At a let, c1 is the body, whose context ends with the
    binders it keeps; they are not in ctx, so the walk leaves them out of
    the block size. Raises TranslationError when an entry is kept by both
    children or by neither."""
    p1, p2 = _past_w(c1), _past_w(c2)
    if p1.ctx.entries + p2.ctx.entries == ctx.entries:
        return None, p1, p2, p1.ctx.wire_count() if p1.ctx.entries else 0
    kept1, kept2 = {e.name for e in p1.ctx.entries}, {e.name for e in p2.ctx.entries}
    # the input wires of each block, in context order
    blocks, wires = ([], []), 0
    for e in ctx.entries:
        first = e.name in kept1
        if first == (e.name in kept2):
            whom = "both children" if first else "neither child"
            raise TranslationError(
                f"context entry {e.name} is kept by {whom} of a binary rule;"
                " translate takes only the W/C-normal form that infer builds"
            )
        n = size(e.type)
        blocks[not first].extend(range(wires, wires + n))
        wires += n
    order = blocks[0] + blocks[1]
    if order == list(range(wires)):
        return None, p1, p2, len(blocks[0])
    # input wire order[i] leaves at output position i
    perm = [0] * wires
    for i, w in enumerate(order):
        perm[w] = i
    return Perm(tuple(perm)), p1, p2, len(blocks[0])


def translate(derivation: Derivation) -> JudgementDiagram:
    """Structural translation of a derivation in the W/C-normal form that
    `infer` builds (see the module docstring). Every beta-redex is composed,
    with no cup/cap snake; an abstraction at the root keeps its body for
    `eval_as_map`. Every occurrence of `H`'s node gets `H`'s one body. Raises
    TranslationError on a derivation in another shape, even one
    `validate_derivation` accepts, and on an application of a non-function
    type."""
    if derivation.rule == "B":
        body = _body(derivation)
        d = _bend(derivation, body)
    else:
        body, d = None, _translate(derivation)
    return JudgementDiagram(derivation.ctx, derivation.term, derivation.type, d, body=body)


@functools.cache
def _hadamard() -> tuple[Derivation, Diagram]:
    """The derivation node of `H` that every inference shares, and its
    body, built here and not by `_body`, which returns this one; made on
    first use, so importing builds nothing. `H` is a composite, of phase
    zero, so its body has no rotation stage."""
    node = _hadamard_derivation()[-1]
    return node, _translate(node.children[0])


def _body(node: Derivation) -> Diagram:
    """The (Gamma, A) -> B map of a `B` node: the binder rotation, one
    (1,1) spider per binder wire, if its phase is not zero (a phase-0 (1,1)
    spider is an identity), then the body's diagram; `H`'s one body for
    `H`'s node."""
    if node is _hadamard_derivation()[-1]:
        return _hadamard()[1]
    d = _translate(node.children[0])
    term: Abs = node.term
    if not term.phase.is_zero:
        a = size(node.children[0].ctx.entries[-1].type)
        rot = par(*[Spider(term.basis, term.phase, 1, 1)] * a)
        d = seq(par(Id(node.ctx.wire_count()), rot), d)
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


def _translate(node: Derivation) -> Diagram:
    rule, ctx = node.rule, node.ctx
    if rule == "A":
        c1, c2 = node.children
        parts = fn_parts(c1.type)
        if parts is None:
            raise TranslationError("application of a non-function type")
        router, p1, p2, g1 = _split_binary(ctx, c1, c2)
        if p1.rule == "B":
            # a redex: the argument feeds the body's binder wires
            arg = _translate(p2)
            stages = (par(Id(g1), arg) if g1 else arg, _body(p1))
        else:
            both = par(_translate(p1), _translate(p2))
            stages = (both, _caps(size(parts[0]), size(parts[1])))
        return seq(*stages) if router is None else seq(router, *stages)
    if rule == "W" or rule == "C":
        # an entry the child's context lacks is copied k ways: into the
        # copies that hold its place at a C node, or 0 ways, a discard, at
        # a W node
        (child,) = node.children
        kept = {e.name for e in child.ctx.entries}
        k = len(child.ctx) - len(ctx) + 1 if rule == "C" else 0
        stage = par(*(Id(size(e.type)) if e.name in kept else upsilon(size(e.type), e.basis, k)
                      for e in ctx.entries))
        return seq(stage, _translate(child))
    if rule == "V" and len(ctx) == 1 and ctx.entries[0].name == node.term.name:
        return Id(size(node.type))
    if rule == "B":
        return _bend(node, _body(node))
    if rule == "T":
        router, p1, p2, _ = _split_binary(ctx, *node.children)
        both = par(_translate(p1), _translate(p2))
        return both if router is None else seq(router, both)
    if rule == "E":
        m, n = node.children
        # layout [N's entries, M's entries]: run M, then feed its outputs as
        # the trailing x,y wires of N, discarding a binder N does not use.
        router, pn, pm, gn = _split_binary(ctx, n, m)
        arg = _translate(pm)
        kept = {e.name for e in pn.ctx.entries}
        drop = par(Id(gn), *(Id(size(e.type)) if e.name in kept
                             else upsilon(size(e.type), e.basis, 0)
                             for e in n.ctx.entries[len(ctx):]))
        stages = (par(Id(gn), arg) if gn else arg, seq(drop, _translate(pn)))
        return seq(*stages) if router is None else seq(router, *stages)
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
    """Uncurry once, yielding a (Gamma, A) -> B judgement diagram: the
    stored body of an abstraction at the root as it is, else the state with
    its A* outputs bent back into inputs (capped). A result of this function
    stores no body, so uncurrying it again caps."""
    parts = fn_parts(jd.type)
    if parts is None:
        raise TranslationError(
            f"type {print_type(jd.type)} is not of function shape A* (x) B"
        )
    a_t, b_t = parts
    args = jd.args + (a_t,)
    if jd.body is not None:
        return JudgementDiagram(jd.ctx, jd.term, b_t, jd.body, args)
    a, b = size(a_t), size(b_t)
    # inputs [Gamma, A]; run the state diagram on Gamma, carry A through,
    # then cap each dual output against the matching carried input.
    staged = par(jd.diagram, Id(a))  # (g+a) -> (a + b + a)
    capped = seq(staged, _caps(a, b))
    return JudgementDiagram(jd.ctx, jd.term, b_t, capped, args)
