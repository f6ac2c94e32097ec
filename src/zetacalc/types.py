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

A context holds no two entries of one name, and `Context(...)` checks this.
Every context made from outside (`context_of`, `parse_context`) is built
through it, and so is every context inference makes that could clash: a
contraction's split, whose copies x#1 .. x#k a given context may already
hold, and a let body's context. The contexts inference derives from checked
ones by dropping entries (a W node's premise) or by appending an
abstraction's binder, which is never free in the abstraction and so is
never a name of its context, are built without the check (`_derived`).

Types are monomorphic wire counts, so one substitution fixes every type of
a term. Inference takes two passes: it first finds the types over the term,
with fresh type variables and unification, and then builds the derivation
once, every type in it already resolved.

`H`, which every parse reads as one object, is the one term shared: it is
typed and built once per process, on first use, and every occurrence of
that object, in every inference, gets that one derivation node. Any other
subterm is typed and built at each occurrence, even one object repeated.
So a derivation, and the diagram translated from it, may share `H`'s
subtree, with each other too, and `Derivation.walk` yields it once per
occurrence.
"""

from __future__ import annotations

import functools
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
    hadamard_term,
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
    """An ordered typing context. Construction raises ContextError on a
    duplicate name; inference builds the contexts it derives from checked
    ones by weakening or by appending a binder without that check, as they
    cannot hold a duplicate (see the module docstring)."""

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


def _derived(entries: tuple[Entry, ...]) -> Context:
    """A context of entries that hold no two names alike, built without the
    name check: inference passes only entries taken from a checked context,
    or those plus a name none of them has."""
    ctx = object.__new__(Context)
    ctx.entries = entries
    return ctx


# the premise context of every W node over a closed subterm
_EMPTY = Context()


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


# The type helpers here and the inferencer dispatch on the exact class
# (`type(t) is Tensor`), not `isinstance`: no type or term class is
# subclassed, and the exact test is the cheaper on these hot paths.


def _resolve(t: Type, subst: Subst) -> Type:
    while type(t) is TypeVar:
        bound = subst.get(t.id)
        if bound is None:
            break
        t = bound
    return t


def apply_subst(t: Type, subst: Subst) -> Type:
    t = _resolve(t, subst)
    cls = type(t)
    if cls is Tensor:
        return Tensor(apply_subst(t.left, subst), apply_subst(t.right, subst))
    if cls is Dual:
        return Dual(apply_subst(t.inner, subst))
    return t


def _occurs(vid: int, t: Type, subst: Subst) -> bool:
    t = _resolve(t, subst)
    cls = type(t)
    if cls is TypeVar:
        return t.id == vid
    if cls is Tensor:
        return _occurs(vid, t.left, subst) or _occurs(vid, t.right, subst)
    if cls is Dual:
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
    cls = type(a)
    if type(b) is TypeVar and cls is not TypeVar:
        # bind the variable side
        a, b, cls = b, a, TypeVar
    if cls is TypeVar:
        if type(b) is TypeVar and a.id == b.id:
            return
        if _occurs(a.id, b, subst):
            raise OccursCheckError(
                f"occurs check: ?{a.id} in {print_type(apply_subst(b, subst))}"
            )
        subst[a.id] = b
        return
    if cls is type(b):
        if cls is Tensor:
            _unify_into(a.left, b.left, subst)
            _unify_into(a.right, b.right, subst)
            return
        if cls is Dual:
            _unify_into(a.inner, b.inner, subst)
            return
        if cls is Numeral:
            if a.n != b.n:
                raise UnificationError(f"cannot unify {a.n} with {b.n}")
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

    Every node's subject is the term it was built from. Two renamings keep
    context names distinct, each in a premise alone: a let binder that is
    already a context name is freshened in the let's body premise only, and
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

    `H` is typed and built once per process, by the one walk `_hadamard`
    makes without the prelude. Each occurrence of that object gets its type
    and advances `counter` by the variables that walk created, so every
    later `?N`, and every message naming one, is as if `H` were walked
    again; `build` gives it `H`'s one node. Its binders are never recorded,
    and `build` never takes their types.
    """

    def __init__(self, prelude: bool = True):
        self.subst: Subst = {}
        self.counter = 0
        self.origin: dict[int, str] = {}
        # the type variable of each unannotated abstraction binder, in
        # typeof's order
        self.binders: list[TypeVar] = []
        # `H`, its type, the variables its walk created and its node; no
        # term is `H` in `_hadamard`'s own walk
        self.h, self.h_type, self.h_vars, self.h_node = (
            _hadamard() if prelude else (None, None, 0, None)
        )
        # the binders' types, resolved, for build to take in turn
        self.binder_types = iter(())

    def fresh(self, origin: str) -> TypeVar:
        self.counter += 1
        self.origin[self.counter] = origin
        return TypeVar(self.counter)

    def derivation(self, ctx: Context, term: Term, expected: Optional[Type] = None):
        """The derivation of ctx |- term, its type unified with `expected`
        when one is given. Each unannotated binder's type is resolved once,
        under the one substitution, for `build` to take in turn. A binder or
        context type that does not resolve leaves a variable in the
        derivation: it is built with the variables in, the context resolved
        too, and the first variable `_reject_variables` meets is reported."""
        env = {e.name: e.type for e in ctx.entries}
        missing = [x for x in term.fv if x not in env]
        if missing:
            raise UnboundVariableError(f"unbound variable {missing[0]}")
        t = self.typeof(env, term)
        subst = self.subst
        if expected is not None:
            # in place: a failure ends the inference, so no caller sees the
            # partial bindings
            _unify_into(t, expected, subst)
        binders = [apply_subst(v, subst) for v in self.binders]
        unsure = any(map(contains_var, binders)) or any(contains_var(e.type) for e in ctx)
        if unsure:
            ctx = Context(
                tuple(Entry(e.name, e.basis, apply_subst(e.type, subst)) for e in ctx)
            )
        self.binder_types = iter(binders)
        d = self.build(ctx, term)
        if unsure:
            self._reject_variables(d)
        return d

    def typeof(self, env: dict[str, Type], term: Term) -> Type:
        if term is self.h:
            self.counter += self.h_vars
            return self.h_type

        cls = type(term)
        if cls is App:
            fn = self.typeof(env, term.fn)
            arg = self.typeof(env, term.arg)
            subst = self.subst
            fn = _resolve(fn, subst)
            dual = _resolve(fn.left, subst) if type(fn) is Tensor else None
            result = _resolve(fn.right, subst) if type(dual) is Dual else None
            try:
                if result is None or type(result) is TypeVar:
                    t = self.fresh("application result")
                    _unify_into(fn, Fn(arg, t), subst)
                else:
                    # fn is A* (x) B already, B no unbound variable: unifying
                    # fn with arg* (x) ?N would bind only ?N, to B, so ?N is
                    # skipped, but not its number
                    self.counter += 1
                    _unify_into(dual.inner, arg, subst)
                    t = result
            except UnificationError as exc:
                raise UnificationError(f"in application: {exc}") from exc
        elif cls is Abs:
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
            t = Fn(a, self.typeof({**env, term.var: a}, term.body))
        elif cls is Var:
            t = env[term.name]
        elif cls is Tup:
            t = Tensor(self.typeof(env, term.left), self.typeof(env, term.right))
        elif cls is Gen:
            t = Numeral(term.n) if term.n >= 0 else Fn(Numeral(-term.n), TOP)
        elif cls is Let:
            if term.var1 == term.var2:
                raise ContextError(f"let binds {term.var1} twice")
            bound = self.typeof(env, term.bound)
            a, b = term.annotation1, term.annotation2
            if a is None:
                a = self.fresh(f"let binder {term.var1}")
            if b is None:
                b = self.fresh(f"let binder {term.var2}")
            try:
                _unify_into(bound, Tensor(a, b), self.subst)
            except UnificationError as exc:
                raise UnificationError(f"in let binding: {exc}") from exc
            t = self.typeof({**env, term.var1: a, term.var2: b}, term.body)
        elif cls is Unit:
            t = TOP
        else:
            raise TypeError(f"not a term: {term!r}")
        return t

    def build(self, ctx: Context, term: Term) -> Derivation:
        fvs = term.fv

        # Weakening: drop every unused entry. The context holds every free
        # variable, so it has an unused entry exactly when it is the longer.
        entries = ctx.entries
        if len(entries) != len(fvs):
            kept = _derived(tuple(e for e in entries if e.name in fvs)) if fvs else _EMPTY
            child = self.build(kept, term)
            return Derivation("W", ctx, term, child.type, (child,))

        # Contraction: split the leftmost entry used >= 2 times.
        for i, e in enumerate(entries):
            k = fvs.get(e.name, 0)
            if k >= 2:
                names = tuple(f"{e.name}#{j + 1}" for j in range(k))
                renamed = rename_free_occurrences(term, e.name, list(names))
                split = tuple(Entry(nm, e.basis, e.type) for nm in names)
                # checked: a programmatic context may already hold a name x#j
                child = self.build(Context(entries[:i] + split + entries[i + 1 :]), renamed)
                return Derivation("C", ctx, term, child.type, (child,))

        if term is self.h:
            return self.h_node

        cls = type(term)
        if cls is Abs:
            # the context names are the term's free variables, so the binder
            # is not among them
            a = term.annotation
            if a is None:
                a = next(self.binder_types)
            child = self.build(
                _derived(entries + (Entry(term.var, term.basis, a),)), term.body
            )
            d = Derivation("B", ctx, term, Fn(a, child.type), (child,))
        elif cls is App:
            d1 = self.build(ctx, term.fn)
            d2 = self.build(ctx, term.arg)
            d = Derivation("A", ctx, term, d1.type.right, (d1, d2))
        elif cls is Var:
            # the context is the one free variable's entry
            d = Derivation("V", ctx, term, entries[0].type)
        elif cls is Tup:
            d1 = self.build(ctx, term.left)
            d2 = self.build(ctx, term.right)
            d = Derivation("T", ctx, term, Tensor(d1.type, d2.type), (d1, d2))
        elif cls is Gen:
            if term.n >= 0:
                d = Derivation("G", ctx, term, Numeral(term.n))
            else:
                d = Derivation("D", ctx, term, Fn(Numeral(-term.n), TOP))
        elif cls is Unit:
            d = Derivation("U", ctx, term, TOP)
        else:
            d1 = self.build(ctx, term.bound)
            v1, v2, body = term.var1, term.var2, term.body
            taken = set(ctx.names)
            if v1 in taken or v2 in taken:
                # only a binder that is a context name is renamed, for the
                # body premise alone
                avoid = taken | body.fv.keys()
                if v1 in taken:
                    v1 = _freshen(v1, avoid | {v2})
                if v2 in taken:
                    v2 = _freshen(v2, avoid | {v1})
                body = _subst(body, {term.var1: Var(v1), term.var2: Var(v2)})
            a, b = d1.type.left, d1.type.right
            d2 = self.build(
                ctx.extended(Entry(v1, term.basis, a), Entry(v2, term.basis, b)), body
            )
            d = Derivation("E", ctx, term, d2.type, (d1, d2))
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


def _first_var(t: Type) -> Optional[int]:
    cls = type(t)
    if cls is TypeVar:
        return t.id
    if cls is Tensor:
        return _first_var(t.left) or _first_var(t.right)
    if cls is Dual:
        return _first_var(t.inner)
    return None


@functools.cache
def _hadamard() -> tuple[Term, Type, int, Derivation]:
    """`H`, its type, the number of type variables its walk creates and its
    derivation node, from one walk without the prelude in the empty
    context; made on first use, so importing builds nothing."""
    h = hadamard_term()
    inf = _Inferencer(prelude=False)
    d = inf.derivation(_EMPTY, h)
    return h, d.type, inf.counter, d


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
            if len(c2.ctx) != len(ctx) + 2:
                fail(node, "body context is not Gamma, x, y")
            # the body premise may rename the binders; building the context
            # raises if a new name is a context name, which would capture
            n1, n2 = (e.name for e in c2.ctx.entries[-2:])
            want = ctx.extended(
                Entry(n1, term.basis, c1.type.left),
                Entry(n2, term.basis, c1.type.right),
            )
            if c2.ctx != want:
                fail(node, "body context is not Gamma, x, y")
            body = _subst(term.body, {term.var1: Var(n1), term.var2: Var(n2)})
            if c2.term != body or c2.type != t:
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
