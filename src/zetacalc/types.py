"""Basis-annotated contexts, unification, typing derivations, inference
and the derivation re-checker, over the types of `syntax`.

Typing is algorithmic: one weakening (W) drops every context entry a term
does not use, and contraction (C) fires once per variable used two or more
times. Context order is preserved throughout, so no exchange rule is needed.
A derivation node is a bare judgement with its premises: what a W or C node
does is the difference between its context and its child's.

Context entries, contexts and derivation nodes, like types, are immutable
by contract: no field is assigned after construction; slotted, not frozen,
for construction cost.

Types are monomorphic wire counts, so one substitution fixes every type of
a term. Inference takes two passes: it first finds the types over the term,
with fresh type variables and unification, and then builds the derivation
once, every type in it already resolved.

A closed subterm whose type comes out ground is typed and built once per
term object: every other occurrence of the same object (each `H` of one
parse, say) gets the same derivation node, and `translate` builds a shared
abstraction's body once. So a derivation, and the diagram translated from
it, may share subtrees, and `Derivation.walk` yields a shared node once per
occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .syntax import (
    TOP,
    Abs,
    App,
    Basis,
    Dual,
    Fn,
    Gen,
    Let,
    Numeral,
    Tensor,
    Term,
    Tup,
    Type,
    TypeVar,
    Unit,
    Var,
    ZetaError,
    _freshen,
    _Parser,
    _subst,
    free_vars,
    occurrences,
    print_type,
    rename_free_occurrences,
)


class ZetaTypeError(ZetaError):
    """Base class for typing failures."""


class UnboundVariableError(ZetaTypeError):
    pass


class UnificationError(ZetaTypeError):
    pass


class OccursCheckError(UnificationError):
    pass


class AmbiguousTypeError(ZetaTypeError):
    pass


class LinearityError(ZetaTypeError):
    pass


class ContractionBasisError(ZetaTypeError):
    pass


class ContextError(ZetaTypeError):
    pass


class InvalidDerivationError(ZetaTypeError):
    pass


def size(t: Type) -> int:
    """Number of wires of a fully inferred type."""
    if isinstance(t, Numeral):
        return t.n
    if isinstance(t, Tensor):
        return size(t.left) + size(t.right)
    if isinstance(t, Dual):
        return size(t.inner)
    raise AmbiguousTypeError(f"size of unresolved type {t!r}")


def labels(t: Type) -> list:
    """Ordered wire labels; the list order defines wire positions."""
    if isinstance(t, Numeral):
        return list(range(t.n))
    if isinstance(t, Tensor):
        return [("L", a) for a in labels(t.left)] + [("R", b) for b in labels(t.right)]
    if isinstance(t, Dual):
        return [(a, "*") for a in labels(t.inner)]
    raise AmbiguousTypeError(f"labels of unresolved type {t!r}")


def contains_var(t: Type) -> bool:
    return _first_var(t) is not None


# ---------------------------------------------------------------------------
# Contexts


@dataclass(slots=True, unsafe_hash=True)
class Entry:
    name: str
    basis: Basis
    type: Type


@dataclass(slots=True, unsafe_hash=True)
class Context:
    entries: tuple[Entry, ...] = ()

    def __post_init__(self):
        if len({e.name for e in self.entries}) != len(self.entries):
            raise ContextError(f"duplicate context names in {self.names}")

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    @property
    def names(self) -> list[str]:
        return [e.name for e in self.entries]

    def get(self, name: str) -> Optional[Entry]:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def extended(self, *entries: Entry) -> "Context":
        return Context(self.entries + entries)

    def wire_count(self) -> int:
        return sum(size(e.type) for e in self.entries)


def context_of(*triples) -> Context:
    """Convenience: context_of(("x", Basis.Z, Numeral(1)), ...)."""
    return Context(tuple(Entry(n, b, t) for n, b, t in triples))


def parse_context(text: str) -> Context:
    """CLI context syntax: `x:Z:1, f:X:1->1*1` (empty string = empty context)."""
    if not text.strip():
        return Context()
    parser = _Parser(text)
    entries = []
    while True:
        name = parser.expect("ident")
        parser.expect(":")
        basis = parser.basis()
        parser.expect(":")
        entries.append(Entry(name, basis, parser.type_()))
        if parser.kinds[parser.pos] != ",":
            break
        parser.pos += 1
    parser.end()
    return Context(tuple(entries))


def print_context(ctx: Context) -> str:
    return ", ".join(f"{e.name}:{e.basis}:{print_type(e.type)}" for e in ctx)


# ---------------------------------------------------------------------------
# Unification

Subst = dict[int, Type]


def _resolve(t: Type, subst: Subst) -> Type:
    while isinstance(t, TypeVar) and t.id in subst:
        t = subst[t.id]
    return t


def apply_subst(t: Type, subst: Subst) -> Type:
    t = _resolve(t, subst)
    if isinstance(t, Tensor):
        return Tensor(apply_subst(t.left, subst), apply_subst(t.right, subst))
    if isinstance(t, Dual):
        return Dual(apply_subst(t.inner, subst))
    return t


def _occurs(vid: int, t: Type, subst: Subst) -> bool:
    t = _resolve(t, subst)
    if isinstance(t, TypeVar):
        return t.id == vid
    if isinstance(t, Tensor):
        return _occurs(vid, t.left, subst) or _occurs(vid, t.right, subst)
    if isinstance(t, Dual):
        return _occurs(vid, t.inner, subst)
    return False


def unify(t1: Type, t2: Type, subst: Optional[Subst] = None) -> Subst:
    """Most general unifier extending subst. Numeral/Tensor/Dual are free
    constructors: Numeral(2) does not unify with Numeral(1) (x) Numeral(1)."""
    subst = dict(subst) if subst is not None else {}
    _unify_into(t1, t2, subst)
    return subst


def _unify_into(a: Type, b: Type, subst: Subst) -> None:
    """Extend subst in place to unify a and b. A module-level function, not a
    closure that calls itself: that closure would be a reference cycle, and
    would keep each substitution alive until the cycle collector ran."""
    a = _resolve(a, subst)
    b = _resolve(b, subst)
    if isinstance(a, TypeVar) and isinstance(b, TypeVar) and a.id == b.id:
        return
    if isinstance(a, TypeVar):
        if _occurs(a.id, b, subst):
            raise OccursCheckError(
                f"occurs check: ?{a.id} in {print_type(apply_subst(b, subst))}"
            )
        subst[a.id] = b
        return
    if isinstance(b, TypeVar):
        _unify_into(b, a, subst)
        return
    if isinstance(a, Numeral) and isinstance(b, Numeral):
        if a.n != b.n:
            raise UnificationError(f"cannot unify {a.n} with {b.n}")
        return
    if isinstance(a, Tensor) and isinstance(b, Tensor):
        _unify_into(a.left, b.left, subst)
        _unify_into(a.right, b.right, subst)
        return
    if isinstance(a, Dual) and isinstance(b, Dual):
        _unify_into(a.inner, b.inner, subst)
        return
    raise UnificationError(
        f"cannot unify {print_type(apply_subst(a, subst))}"
        f" with {print_type(apply_subst(b, subst))}"
    )


# ---------------------------------------------------------------------------
# Derivations

@dataclass(slots=True, unsafe_hash=True)
class Derivation:
    """A typing-derivation node, a bare judgement. `rule` is one of
    U V G D B A T E W C.

    Bound variables may have been alpha-renamed relative to the source term
    (a let binder that shadows a context name is freshened so context names
    stay distinct; its renamed subterm is every ancestor's subject too), and
    a C node renames the k occurrences of its contracted entry x in its
    child to the copies x#1 .. x#k. What a W or C node does is read from its
    two contexts (see `dropped`).
    """

    rule: str
    ctx: Context
    term: Term
    type: Type
    children: tuple["Derivation", ...] = ()

    def dropped(self) -> tuple[Entry, ...]:
        """The entries of this node's context that its child's context
        lacks, in context order: every entry a W node drops, or the one
        entry a C node contracts, which its child's context holds in its
        place as len(child.ctx) - len(ctx) + 1 copies."""
        kept = {e.name for e in self.children[0].ctx}
        return tuple(e for e in self.ctx if e.name not in kept)

    def walk(self):
        """Every node in pre-order, children left to right; a subtree the
        derivation shares is walked once per occurrence."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(reversed(node.children))

    def post_order(self):
        """Every distinct node once, after its children, children left to
        right; a subtree the derivation shares is walked where it is first
        met. Walked with an explicit stack, so deep derivations do not hit
        the recursion limit."""
        seen: set[int] = set()
        todo: list = [(self, False)]
        while todo:
            node, children_done = todo.pop()
            if children_done:
                yield node
            elif id(node) not in seen:
                seen.add(id(node))
                todo.append((node, True))
                todo.extend((c, False) for c in reversed(node.children))


class _Inferencer:
    """Infers in two passes. Types are monomorphic, so once unification has
    run over the whole term, one substitution fixes every type.

    `typeof` walks the term with a dict from names to types. It creates the
    fresh type variables, unifies, raises every type error, and records the
    variable of each unannotated abstraction binder, once per occurrence, in
    the order it meets them. It makes no W or C step and builds no context
    or derivation.

    `build` then builds the derivation once, in the W/C-normal form, with
    every type already resolved: an abstraction takes its binder's recorded
    type, an application the right part of its function's type, and a let
    the two parts of its bound term's type. It meets the abstractions in
    `typeof`'s order, so it takes the recorded types in turn.

    A closed subterm whose type and binders come out ground once `typeof`
    has walked it is typed once per term object: each later occurrence of
    that object (each `H` of one parse, say) gets the type and advances
    `counter` by the variables the first walk created, so every later `?N`,
    and every message naming one, is as if the subterm were walked again.
    `build` builds it once too and gives every occurrence that one node.
    """

    def __init__(self):
        self.subst: Subst = {}
        self.counter = 0
        self.origin: dict[int, str] = {}
        # the type variable of each unannotated abstraction binder, in
        # typeof's order, and those of them not yet seen bound to a ground
        # type
        self.binders: list[TypeVar] = []
        self.unbound: list[TypeVar] = []
        # id(term) -> (term, its type, variables created) for each closed
        # subterm typed ground; holding the term keeps its id from being
        # reused
        self.closed: dict[int, tuple[Term, Type, int]] = {}
        # id(term) -> its derivation, for the closed subterms built so far
        self.built: dict[int, Derivation] = {}
        # the binders' types, resolved, for build to take in turn
        self.binder_types = iter(())

    def fresh(self, origin: str) -> TypeVar:
        self.counter += 1
        self.origin[self.counter] = origin
        return TypeVar(self.counter)

    def unify(self, a: Type, b: Type):
        # in place: a failure ends the inference, so no caller sees the
        # partial bindings
        _unify_into(a, b, self.subst)

    def derivation(self, ctx: Context, term: Term, expected: Optional[Type] = None):
        """The derivation of ctx |- term, its type unified with `expected`
        when one is given. A binder type that does not resolve leaves a
        variable in the derivation: it is built with the variables in, and
        the first one `_reject_variables` meets is reported."""
        missing = [x for x in term.fv if ctx.get(x) is None]
        if missing:
            raise UnboundVariableError(f"unbound variable {missing[0]}")
        t = self.typeof({e.name: e.type for e in ctx}, term)
        if expected is not None:
            self.unify(t, expected)
        subst = self.subst
        binders = [_resolved(v, subst) for v in self.binders]
        unsure = None in binders or any(contains_var(e.type) for e in ctx)
        if unsure:
            binders = [apply_subst(v, subst) for v in self.binders]
            ctx = Context(
                tuple(Entry(e.name, e.basis, apply_subst(e.type, subst)) for e in ctx)
            )
        self.binder_types = iter(binders)
        d = self.build(ctx, term)
        if unsure:
            self._reject_variables(d)
        return d

    def typeof(self, env: dict[str, Type], term: Term) -> Type:
        closed = not term.fv
        if closed:
            hit = self.closed.get(id(term))
            if hit is not None:
                self.counter += hit[2]
                return hit[1]
            before, first = self.counter, len(self.unbound)

        if isinstance(term, Unit):
            t = TOP
        elif isinstance(term, Var):
            t = env[term.name]
        elif isinstance(term, Gen):
            t = Numeral(term.n) if term.n >= 0 else Fn(Numeral(-term.n), TOP)
        elif isinstance(term, Abs):
            uses = term.body.fv.get(term.var, 0)
            if term.is_lambda and uses != 1:
                raise LinearityError(
                    f"lambda-bound variable {term.var} must occur exactly once"
                    f" (found {uses})"
                )
            a = term.annotation
            if a is None:
                a = self.fresh(f"binder {term.var}")
                self.binders.append(a)
                self.unbound.append(a)
            t = Fn(a, self.typeof({**env, term.var: a}, term.body))
        elif isinstance(term, App):
            fn = self.typeof(env, term.fn)
            arg = self.typeof(env, term.arg)
            fn = _resolve(fn, self.subst)
            dual = _resolve(fn.left, self.subst) if isinstance(fn, Tensor) else None
            result = _resolve(fn.right, self.subst) if isinstance(dual, Dual) else None
            try:
                if result is None or isinstance(result, TypeVar):
                    t = self.fresh("application result")
                    self.unify(fn, Fn(arg, t))
                else:
                    # fn is A* (x) B already, B no unbound variable: unifying
                    # fn with arg* (x) ?N would bind only ?N, to B, so ?N is
                    # skipped, but not its number
                    self.counter += 1
                    self.unify(dual.inner, arg)
                    t = result
            except UnificationError as exc:
                raise UnificationError(f"in application: {exc}") from exc
        elif isinstance(term, Tup):
            t = Tensor(self.typeof(env, term.left), self.typeof(env, term.right))
        elif isinstance(term, Let):
            if term.var1 == term.var2:
                raise ContextError(f"let binds {term.var1} twice")
            bound = self.typeof(env, term.bound)
            a, b = term.annotation1, term.annotation2
            if a is None:
                a = self.fresh(f"let binder {term.var1}")
            if b is None:
                b = self.fresh(f"let binder {term.var2}")
            try:
                self.unify(bound, Tensor(a, b))
            except UnificationError as exc:
                raise UnificationError(f"in let binding: {exc}") from exc
            t = self.typeof({**env, term.var1: a, term.var2: b}, term.body)
        else:
            raise TypeError(f"not a term: {term!r}")

        if closed and self.counter != before:
            # a binder once bound to a ground type stays so: each is looked
            # at again only while it is not
            subst = self.subst
            unbound = self.unbound
            unbound[first:] = [v for v in unbound[first:] if _resolved(v, subst) is None]
            ground = _resolved(t, subst)
            if ground is not None and len(unbound) == first:
                self.closed[id(term)] = (term, ground, self.counter - before)
                return ground
        return t

    def build(self, ctx: Context, term: Term) -> Derivation:
        fvs = term.fv

        # Weakening: drop every unused entry. The context holds every free
        # variable, so it has an unused entry exactly when it is the longer.
        if len(ctx.entries) != len(fvs):
            child = self.build(Context(tuple(e for e in ctx if e.name in fvs)), term)
            return Derivation("W", ctx, child.term, child.type, (child,))

        # Contraction: split the leftmost entry used >= 2 times.
        for i, e in enumerate(ctx.entries):
            k = fvs.get(e.name, 0)
            if k >= 2:
                names = tuple(f"{e.name}#{j + 1}" for j in range(k))
                renamed = rename_free_occurrences(term, e.name, list(names))
                split = tuple(Entry(nm, e.basis, e.type) for nm in names)
                child = self.build(
                    Context(ctx.entries[:i] + split + ctx.entries[i + 1 :]), renamed
                )
                if child.term is not renamed:
                    # a let below was freshened: un-rename its subject
                    term = _subst(child.term, {nm: Var(e.name) for nm in names})
                return Derivation("C", ctx, term, child.type, (child,))

        # the context is now empty exactly when the term is closed
        key = id(term)
        shared = not fvs and key in self.closed
        if shared:
            d = self.built.get(key)
            if d is not None:
                return d

        if isinstance(term, Unit):
            d = Derivation("U", ctx, term, TOP)
        elif isinstance(term, Var):
            d = Derivation("V", ctx, term, ctx.get(term.name).type)
        elif isinstance(term, Gen):
            if term.n >= 0:
                d = Derivation("G", ctx, term, Numeral(term.n))
            else:
                d = Derivation("D", ctx, term, Fn(Numeral(-term.n), TOP))
        elif isinstance(term, Abs):
            # the context names are the term's free variables, so the binder
            # is not among them
            a = term.annotation
            if a is None:
                a = next(self.binder_types)
            child = self.build(ctx.extended(Entry(term.var, term.basis, a)), term.body)
            if child.term is not term.body:
                term = Abs(term.basis, term.phase, term.var, term.annotation, child.term,
                           term.is_lambda)
            d = Derivation("B", ctx, term, Fn(a, child.type), (child,))
        elif isinstance(term, App):
            d1 = self.build(ctx, term.fn)
            d2 = self.build(ctx, term.arg)
            if d1.term is not term.fn or d2.term is not term.arg:
                term = App(d1.term, d2.term)
            d = Derivation("A", ctx, term, d1.type.right, (d1, d2))
        elif isinstance(term, Tup):
            d1 = self.build(ctx, term.left)
            d2 = self.build(ctx, term.right)
            if d1.term is not term.left or d2.term is not term.right:
                term = Tup(d1.term, d2.term)
            d = Derivation("T", ctx, term, Tensor(d1.type, d2.type), (d1, d2))
        else:
            d1 = self.build(ctx, term.bound)
            v1, v2, body = term.var1, term.var2, term.body
            taken = set(ctx.names)
            if v1 in taken or v2 in taken:
                avoid = taken | body.fv.keys()
                v1 = _freshen(v1, avoid)
                v2 = _freshen(v2, avoid | {v1})
                # at once: v1's new name may be v2's old one
                body = _subst(body, {term.var1: Var(v1), term.var2: Var(v2)})
            a, b = d1.type.left, d1.type.right
            d2 = self.build(
                ctx.extended(Entry(v1, term.basis, a), Entry(v2, term.basis, b)), body
            )
            renamed = (v1, v2) != (term.var1, term.var2)
            if renamed or d1.term is not term.bound or d2.term is not term.body:
                term = Let(term.basis, v1, v2, term.annotation1, term.annotation2,
                           d1.term, d2.term)
            d = Derivation("E", ctx, term, d2.type, (d1, d2))

        if shared:
            self.built[key] = d
        return d

    def _reject_variables(self, d: Derivation) -> None:
        """Raise on the first type of d that holds a variable, in post-order
        over the nodes and, within a node, the dropped entries last first,
        the context entries, then the node's type. The hint names where the
        variable was made, except that an application result found in an
        entry's type names its binder: an application cannot be annotated."""
        for node in d.post_order():
            held = reversed(node.dropped()) if node.rule == "W" else ()
            found = [(e.type, e.name) for e in (*held, *node.ctx)]
            for t, name in [*found, (node.type, None)]:
                vid = _first_var(t)
                if vid is not None:
                    raise AmbiguousTypeError(
                        f"ambiguous type {print_type(t)}{_hint(self.origin.get(vid), name)}"
                    )


def _hint(origin: Optional[str], name: Optional[str]) -> str:
    """The annotation hint for a variable made at `origin` and found in the
    type of the context entry `name` (None for a node's own type)."""
    if origin == "application result" and name is not None:
        # a contracted copy x#k names its binder x
        origin = f"binder {name.partition('#')[0]}"
    return "" if origin is None else f" (add an annotation at {origin})"


def _resolved(t: Type, subst: Subst) -> Optional[Type]:
    """t under subst, or None while a variable in it stays unbound. t itself
    comes back, not a copy, when nothing in it was bound."""
    if isinstance(t, TypeVar):
        b = subst.get(t.id)
        return None if b is None else _resolved(b, subst)
    if isinstance(t, Tensor):
        left = _resolved(t.left, subst)
        if left is None:
            return None
        right = _resolved(t.right, subst)
        if right is None:
            return None
        return t if left is t.left and right is t.right else Tensor(left, right)
    if isinstance(t, Dual):
        inner = _resolved(t.inner, subst)
        if inner is None:
            return None
        return t if inner is t.inner else Dual(inner)
    return t


def _first_var(t: Type) -> Optional[int]:
    if isinstance(t, TypeVar):
        return t.id
    if isinstance(t, Tensor):
        return _first_var(t.left) or _first_var(t.right)
    if isinstance(t, Dual):
        return _first_var(t.inner)
    return None


def infer(ctx: Context, term: Term) -> tuple[Type, Derivation]:
    """Principal monomorphic type and canonical derivation of ctx |- term."""
    d = _Inferencer().derivation(ctx, term)
    return d.type, d


def check(ctx: Context, term: Term, expected: Type) -> Derivation:
    """Infer, then unify against the expected (fully inferred) type."""
    if contains_var(expected):
        raise AmbiguousTypeError("expected type must be fully inferred")
    return _Inferencer().derivation(ctx, term, expected)


# ---------------------------------------------------------------------------
# Derivation re-checker


def validate_derivation(d: Derivation) -> None:
    """Replay every node's rule on its children's conclusions; raises
    InvalidDerivationError (or a more specific typing error) on mismatch."""

    def fail(node, msg):
        raise InvalidDerivationError(f"rule {node.rule}: {msg}")

    for node in d.post_order():
        t, term, ctx = node.type, node.term, node.ctx
        if node.rule == "U":
            if not isinstance(term, Unit) or t != TOP:
                fail(node, "conclusion is not Gamma |- * : 0")
        elif node.rule == "V":
            if not isinstance(term, Var):
                fail(node, "subject is not a variable")
            e = ctx.get(term.name)
            if e is None:
                raise UnboundVariableError(f"unbound variable {term.name}")
            if e.type != t:
                fail(node, f"variable {term.name} has type {print_type(e.type)}")
        elif node.rule == "G":
            if not (isinstance(term, Gen) and term.n >= 0 and t == Numeral(term.n)):
                fail(node, "conclusion does not match the generator rule")
        elif node.rule == "D":
            if not (
                isinstance(term, Gen)
                and term.n < 0
                and t == Fn(Numeral(-term.n), TOP)
            ):
                fail(node, "conclusion does not match the effect rule")
        elif node.rule == "B":
            (child,) = node.children
            if not isinstance(term, Abs):
                fail(node, "subject is not an abstraction")
            if len(child.ctx) != len(ctx) + 1 or child.ctx.entries[:-1] != ctx.entries:
                fail(node, "premise context is not Gamma, x")
            last = child.ctx.entries[-1]
            if last.name != term.var or last.basis != term.basis:
                fail(node, "binder does not match the appended entry")
            if child.term != term.body:
                fail(node, "premise subject is not the body")
            if t != Fn(last.type, child.type):
                fail(node, "conclusion type is not A -> B")
            if term.is_lambda and occurrences(term.var, term.body) != 1:
                raise LinearityError(
                    f"lambda-bound variable {term.var} must occur exactly once"
                )
        elif node.rule == "A":
            c1, c2 = node.children
            if not isinstance(term, App):
                fail(node, "subject is not an application")
            if c1.ctx != ctx or c2.ctx != ctx:
                fail(node, "premise contexts differ from the conclusion context")
            if c1.term != term.fn or c2.term != term.arg:
                fail(node, "premise subjects do not match")
            if c1.type != Fn(c2.type, t):
                fail(node, "function type does not match argument and result")
        elif node.rule == "T":
            c1, c2 = node.children
            if not isinstance(term, Tup):
                fail(node, "subject is not a tuple")
            if c1.ctx != ctx or c2.ctx != ctx:
                fail(node, "premise contexts differ from the conclusion context")
            if c1.term != term.left or c2.term != term.right:
                fail(node, "premise subjects do not match")
            if t != Tensor(c1.type, c2.type):
                fail(node, "conclusion type is not the tensor of the premises")
        elif node.rule == "E":
            c1, c2 = node.children
            if not isinstance(term, Let):
                fail(node, "subject is not a let")
            if c1.ctx != ctx:
                fail(node, "bound-term context differs")
            if c1.term != term.bound:
                fail(node, "bound term does not match")
            if not isinstance(c1.type, Tensor):
                fail(node, "bound term is not tensor-typed")
            want = ctx.extended(
                Entry(term.var1, term.basis, c1.type.left),
                Entry(term.var2, term.basis, c1.type.right),
            )
            if c2.ctx != want:
                fail(node, "body context is not Gamma, x, y")
            if c2.term != term.body or c2.type != t:
                fail(node, "body premise does not match")
        elif node.rule == "W":
            (child,) = node.children
            dropped = node.dropped()
            gone = {e.name for e in dropped}
            if not gone or tuple(e for e in ctx if e.name not in gone) != child.ctx.entries:
                fail(node, "premise context is not the conclusion minus the dropped entries")
            for e in dropped:
                if e.name in free_vars(term):
                    fail(node, f"weakened variable {e.name} occurs in the subject")
            if child.term != term or child.type != t:
                fail(node, "subject or type changed across weakening")
        elif node.rule == "C":
            (child,) = node.children
            dropped = node.dropped()
            if len(dropped) != 1:
                fail(node, "premise context does not split exactly one entry")
            (entry,) = dropped
            i = ctx.entries.index(entry)
            k = len(child.ctx) - len(ctx) + 1
            if k < 2:
                fail(node, "contraction arity must be >= 2")
            split = child.ctx.entries[i : i + k]
            if child.ctx.entries[:i] != ctx.entries[:i] or child.ctx.entries[
                i + k :
            ] != ctx.entries[i + 1 :]:
                fail(node, "premise context does not split the contracted entry")
            for se in split:
                if se.basis != entry.basis:
                    raise ContractionBasisError(
                        f"occurrence {se.name} carries basis {se.basis},"
                        f" expected {entry.basis}"
                    )
                if se.type != entry.type:
                    fail(node, "occurrence types differ")
            uses = term.fv.get(entry.name, 0)
            if uses != k:
                fail(node, f"{k} copies of {entry.name} for its {uses} occurrences")
            if rename_free_occurrences(term, entry.name, [se.name for se in split]) != child.term:
                fail(node, "premise subject is not the renamed conclusion subject")
            if child.type != t:
                fail(node, "type changed across contraction")
        else:
            fail(node, f"unknown rule {node.rule!r}")


def derivation_summary(d: Derivation) -> dict:
    """The C nodes, one {"var", "arity", "basis"} per node in walk order,
    and the number of entries the W nodes drop."""
    c_nodes = []
    w_count = 0
    for node in d.walk():
        if node.rule == "C":
            (e,) = node.dropped()
            arity = len(node.children[0].ctx) - len(node.ctx) + 1
            c_nodes.append({"var": e.name, "arity": arity, "basis": str(e.basis)})
        elif node.rule == "W":
            w_count += len(node.dropped())
    return {"c_nodes": c_nodes, "w_count": w_count}
