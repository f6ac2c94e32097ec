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
from zetacalc.syntax import (
    Abs,
    App,
    Basis,
    Gen,
    Let,
    Phase,
    Tup,
    Unit,
    Var,
    _freshen,
    parse,
    rename_free_occurrences,
    substitute,
)
from zetacalc.theory import standard_instances
from zetacalc.types import (
    TOP,
    AmbiguousTypeError,
    Context,
    ContextError,
    Derivation,
    Dual,
    Entry,
    Fn,
    LinearityError,
    Numeral,
    Tensor,
    TypeVar,
    UnboundVariableError,
    UnificationError,
    ZetaTypeError,
    apply_subst,
    contains_var,
    fn_parts,
    infer,
    print_type,
    size,
    unify,
)


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


def literal_infer(ctx, term, expected=None):
    """The one-pass reference of `infer`, and of `check` when `expected` is
    given. It derives ctx |- term in the W/C-normal form with a fresh type
    variable at every unannotated binder and every application, unifying as
    it goes, and then resolves the derivation node by node in post-order,
    raising on the first type a variable stays in: within a node, the
    weakened entry, then the context entries, then the node's type. Nothing
    is shared: each occurrence of a subterm is derived and resolved on its
    own, and every type error carries the message `infer` gives it."""
    subst, origin = {}, {}

    def fresh(what):
        origin[len(origin) + 1] = what
        return TypeVar(len(origin))

    def unify_at(where, a, b):
        nonlocal subst
        try:
            subst = unify(a, b, subst)
        except UnificationError as exc:
            raise UnificationError(f"{where}: {exc}") from exc

    def derive(ctx, term):
        fvs = term.fv
        for i, e in enumerate(ctx.entries):
            if e.name not in fvs:
                child = derive(Context(ctx.entries[:i] + ctx.entries[i + 1 :]), term)
                payload = {"entry": e, "index": i}
                return Derivation("W", ctx, term, child.type, (child,), payload)
        for i, e in enumerate(ctx.entries):
            k = fvs.get(e.name, 0)
            if k >= 2:
                names = tuple(f"{e.name}#{j + 1}" for j in range(k))
                split = tuple(Entry(nm, e.basis, e.type) for nm in names)
                child = derive(
                    Context(ctx.entries[:i] + split + ctx.entries[i + 1 :]),
                    rename_free_occurrences(term, e.name, list(names)),
                )
                payload = {"var": e.name, "basis": e.basis, "arity": k,
                           "names": names, "index": i}
                return Derivation("C", ctx, term, child.type, (child,), payload)
        if isinstance(term, Unit):
            return Derivation("U", ctx, term, TOP)
        if isinstance(term, Var):
            return Derivation("V", ctx, term, ctx.get(term.name).type)
        if isinstance(term, Gen):
            if term.n >= 0:
                return Derivation("G", ctx, term, Numeral(term.n))
            return Derivation("D", ctx, term, Fn(Numeral(-term.n), TOP))
        if isinstance(term, Abs):
            var, body = term.var, term.body
            if ctx.get(var) is not None:
                var = _freshen(var, set(ctx.names) | body.fv.keys())
                body = substitute(term.body, term.var, Var(var))
                term = Abs(term.basis, term.phase, var, term.annotation, body, term.is_lambda)
            uses = body.fv.get(var, 0)
            if term.is_lambda and uses != 1:
                raise LinearityError(
                    f"lambda-bound variable {var} must occur exactly once (found {uses})"
                )
            a = term.annotation or fresh(f"binder {var}")
            child = derive(ctx.extended(Entry(var, term.basis, a)), body)
            return Derivation("B", ctx, term, Fn(a, child.type), (child,))
        if isinstance(term, App):
            d1, d2 = derive(ctx, term.fn), derive(ctx, term.arg)
            b = fresh("application result")
            unify_at("in application", d1.type, Fn(d2.type, b))
            return Derivation("A", ctx, term, b, (d1, d2))
        if isinstance(term, Tup):
            d1, d2 = derive(ctx, term.left), derive(ctx, term.right)
            return Derivation("T", ctx, term, Tensor(d1.type, d2.type), (d1, d2))
        if term.var1 == term.var2:
            raise ContextError(f"let binds {term.var1} twice")
        d1 = derive(ctx, term.bound)
        a = term.annotation1 or fresh(f"let binder {term.var1}")
        b = term.annotation2 or fresh(f"let binder {term.var2}")
        unify_at("in let binding", d1.type, Tensor(a, b))
        v1, v2, body = term.var1, term.var2, term.body
        if v1 in ctx.names or v2 in ctx.names:
            avoid = set(ctx.names) | body.fv.keys()
            n1 = _freshen(v1, avoid)
            n2 = _freshen(v2, avoid | {n1})
            body = substitute(substitute(body, v1, Var(n1)), v2, Var(n2))
            v1, v2 = n1, n2
            term = Let(term.basis, v1, v2, term.annotation1, term.annotation2,
                       term.bound, body)
        d2 = derive(ctx.extended(Entry(v1, term.basis, a), Entry(v2, term.basis, b)), body)
        return Derivation("E", ctx, term, d2.type, (d1, d2))

    def first_var(t):
        if isinstance(t, TypeVar):
            return t.id
        if isinstance(t, Tensor):
            return first_var(t.left) or first_var(t.right)
        if isinstance(t, Dual):
            return first_var(t.inner)
        return None

    def resolved(t, name=None):
        # name: the context entry whose type t is, if any
        r = apply_subst(t, subst)
        v = first_var(r)
        if v is not None:
            where = origin.get(v)
            if where == "application result" and name is not None:
                # an application cannot be annotated; its binder can
                where = "binder " + name.split("#")[0]
            hint = f" (add an annotation at {where})" if where else ""
            raise AmbiguousTypeError(f"ambiguous type {print_type(r)}{hint}")
        return r

    def entry(e):
        return Entry(e.name, e.basis, resolved(e.type, e.name))

    def resolve(node):
        children = tuple(resolve(c) for c in node.children)
        payload = dict(node.payload)
        if "entry" in payload:
            payload["entry"] = entry(payload["entry"])
        ctx = Context(tuple(entry(e) for e in node.ctx))
        return Derivation(node.rule, ctx, node.term, resolved(node.type), children, payload)

    if expected is not None and contains_var(expected):
        raise AmbiguousTypeError("expected type must be fully inferred")
    missing = [x for x in term.fv if ctx.get(x) is None]
    if missing:
        raise UnboundVariableError(f"unbound variable {missing[0]}")
    d = derive(ctx, term)
    if expected is not None:
        subst = unify(d.type, expected, subst)
    return resolve(d)


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
