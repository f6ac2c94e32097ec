"""Types, basis-annotated contexts, unification, and typing derivations.

Typing is algorithmic: weakening (W) fires where a context entry is unused,
and contraction (C) fires once per variable used two or more times. Context
order is preserved throughout, so no exchange rule is needed.

Inference derives with fresh type variables, unifies, then resolves the
variables in one pass. Resolving touches only what unification can change:
the resolved derivation shares every ground subtree (no type variable in its
contexts or types) with the derivation first built, and reuses every type,
entry, context and node in which nothing was bound.

A closed subterm, derived under the empty context, is resolved as soon as it
is derived. When that succeeds, the subterm is derived and resolved once
per term object: every other occurrence of the same object (each `H` of one
parse, say) gets the same derivation node, and `translate` builds a shared
abstraction's body once. So a derivation, and the diagram translated from
it, may share subtrees, and `Derivation.walk` yields a shared node once per
occurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .syntax import (
    Abs,
    App,
    Basis,
    Gen,
    Let,
    ParseError,
    Term,
    Tup,
    Unit,
    Var,
    ZetaError,
    _freshen,
    _Parser,
    free_vars,
    occurrences,
    rename_free_occurrences,
    substitute,
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


# ---------------------------------------------------------------------------
# The type language


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class Numeral(Type):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("numeral types are naturals")


@dataclass(frozen=True)
class Tensor(Type):
    left: Type
    right: Type


@dataclass(frozen=True)
class Dual(Type):
    inner: Type


@dataclass(frozen=True)
class TypeVar(Type):
    id: int


TOP = Numeral(0)


def Fn(a: Type, b: Type) -> Type:
    """The function type A -> B, a derived form: A* (x) B."""
    return Tensor(Dual(a), b)


def fn_parts(t: Type) -> Optional[tuple[Type, Type]]:
    if isinstance(t, Tensor) and isinstance(t.left, Dual):
        return t.left.inner, t.right
    return None


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
    if isinstance(t, TypeVar):
        return True
    if isinstance(t, Tensor):
        return contains_var(t.left) or contains_var(t.right)
    if isinstance(t, Dual):
        return contains_var(t.inner)
    return False


# ---------------------------------------------------------------------------
# Concrete type syntax:  type := tensor ("->" type)? ; tensor := tfact ("*" tfact)*
#                        tfact := nat "'"* | "(" type ")" "'"*


def _parse_type_from(parser: _Parser) -> Type:
    def tfact() -> Type:
        tok = parser.peek()
        if tok.kind == "num":
            n = parser.int_()
            t: Type = Numeral(n)
        elif tok.kind == "(":
            parser.next()
            t = typ()
            parser.expect(")")
        else:
            parser.error("expected a type")
        while parser.peek().kind == "'":
            parser.next()
            t = Dual(t)
        return t

    def tensor() -> Type:
        t = tfact()
        while parser.peek().kind == "*":
            parser.next()
            t = Tensor(t, tfact())
        return t

    def typ() -> Type:
        t = tensor()
        if parser.peek().kind == "-":
            # arrow is lexed as '-' '>'
            if parser.peek(1).kind == ">":
                parser.next()
                parser.next()
                return Fn(t, typ())
        return t

    return typ()


def parse_type(text: str) -> Type:
    parser = _Parser(text)
    t = _parse_type_from(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return t


def print_type(t: Type) -> str:
    # precedence: 0 = arrow (right-assoc), 1 = tensor (left-assoc), 2 = atom
    def go(t: Type, prec: int) -> str:
        parts = fn_parts(t)
        if parts is not None:
            a, b = parts
            s = f"{go(a, 1)} -> {go(b, 0)}"
            return s if prec <= 0 else f"({s})"
        if isinstance(t, Tensor):
            s = f"{go(t.left, 1)} * {go(t.right, 2)}"
            return s if prec <= 1 else f"({s})"
        if isinstance(t, Dual):
            return f"{go(t.inner, 2)}'"
        if isinstance(t, Numeral):
            return str(t.n)
        if isinstance(t, TypeVar):
            return f"?{t.id}"
        raise TypeError(f"not a type: {t!r}")

    return go(t, 0)


# ---------------------------------------------------------------------------
# Contexts


@dataclass(frozen=True)
class Entry:
    name: str
    basis: Basis
    type: Type


@dataclass(frozen=True)
class Context:
    entries: tuple[Entry, ...] = ()

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if len(names) != len(set(names)):
            raise ContextError(f"duplicate context names in {names}")

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
        name = parser.expect("ident").text
        parser.expect(":")
        basis = parser.basis()
        parser.expect(":")
        t = _parse_type_from(parser)
        entries.append(Entry(name, basis, t))
        if parser.peek().kind != ",":
            break
        parser.next()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
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


@dataclass(frozen=True)
class Derivation:
    """A typing-derivation node. `rule` is one of U V G D B A T E W C.

    Bound variables may have been alpha-renamed relative to the source term
    (shadowed binders are freshened so context names stay distinct), and C
    nodes rename the contracted occurrences in their child (recorded in
    `payload["names"]`).
    """

    rule: str
    ctx: Context
    term: Term
    type: Type
    children: tuple["Derivation", ...] = ()
    payload: dict = field(default_factory=dict)

    def walk(self):
        """Every node in pre-order, children left to right; a subtree the
        derivation shares is walked once per occurrence."""
        todo = [self]
        while todo:
            node = todo.pop()
            yield node
            todo.extend(reversed(node.children))


class _Inferencer:
    """Derives with fresh type variables, then resolves them in one pass.

    A node is ground when its context holds no type variable and no fresh
    variable was created while deriving its subtree: unification cannot
    change it, and neither can it change anything beneath it. `derive`
    carries `open_`, the number of context entries whose type holds a
    variable, down the recursion, and lists in `ground` every ground node
    whose parent is not ground (`_derive` adds a ground root), left to
    right: the order in which `resolve`'s pre-order walk meets them, so it
    knows them by identity and returns them as they are. Binder annotations
    come from the concrete type syntax, which has no variables, so they
    count as ground.

    A closed boundary is a term derived under the empty context (so it is
    closed and `open_` is 0). Unification outside reaches the variables of
    its subtree only through its type, so once the subtree is derived, and
    if it created variables, `derive` resolves it there. If every variable
    in it is bound, the resolved root replaces the subtree's `ground`
    entries and is kept in `shared` under the term's id: each later
    occurrence of that term object gets the same node, listed in `ground`
    once per occurrence, and advances `counter` by the variables the first
    derivation created, so every later `?N`, and every message naming one,
    is as if the subtree were derived again. Otherwise the final `resolve`
    handles the subtree as it would any other.
    """

    def __init__(self):
        self.subst: Subst = {}
        self.counter = 0
        self.origin: dict[int, str] = {}
        self.ground: list[Derivation] = []
        # id(term) -> (term, resolved derivation, variables created) for each
        # closed boundary resolved on the spot; holding the term keeps its id
        # from being reused
        self.shared: dict[int, tuple[Term, Derivation, int]] = {}

    def fresh(self, origin: str) -> TypeVar:
        self.counter += 1
        self.origin[self.counter] = origin
        return TypeVar(self.counter)

    def unify(self, a: Type, b: Type):
        # in place: a failure ends the inference, so no caller sees the
        # partial bindings
        _unify_into(a, b, self.subst)

    def derive(self, ctx: Context, term: Term, open_: int) -> Derivation:
        fvs = term.fv

        # Weakening: strip the leftmost unused entry.
        for i, e in enumerate(ctx.entries):
            if e.name not in fvs:
                rest = open_ - contains_var(e.type) if open_ else 0
                start = self.counter
                child = self.derive(
                    Context(ctx.entries[:i] + ctx.entries[i + 1 :]), term, rest
                )
                if open_ and not rest and self.counter == start:
                    self.ground.append(child)
                return Derivation(
                    "W", ctx, term, child.type, (child,), {"entry": e, "index": i}
                )

        # Contraction: split the leftmost entry used >= 2 times.
        for i, e in enumerate(ctx.entries):
            k = fvs.get(e.name, 0)
            if k >= 2:
                names = tuple(f"{e.name}#{j + 1}" for j in range(k))
                renamed = rename_free_occurrences(term, e.name, list(names))
                split = tuple(Entry(nm, e.basis, e.type) for nm in names)
                if open_ and contains_var(e.type):
                    open_ += k - 1
                child = self.derive(
                    Context(ctx.entries[:i] + split + ctx.entries[i + 1 :]),
                    renamed,
                    open_,
                )
                return Derivation(
                    "C",
                    ctx,
                    term,
                    child.type,
                    (child,),
                    {"var": e.name, "basis": e.basis, "arity": k, "names": names, "index": i},
                )

        # a closed boundary (see the class docstring)
        closed = term if not ctx.entries else None
        if closed is not None:
            hit = self.shared.get(id(term))
            if hit is not None:
                _, d, created = hit
                self.counter += created
                self.ground.append(d)
                return d
            before, first = self.counter, len(self.ground)

        if isinstance(term, Unit):
            d = Derivation("U", ctx, term, TOP)
        elif isinstance(term, Var):
            e = ctx.get(term.name)
            if e is None:
                raise UnboundVariableError(f"unbound variable {term.name}")
            d = Derivation("V", ctx, term, e.type)
        elif isinstance(term, Gen):
            if term.n >= 0:
                d = Derivation("G", ctx, term, Numeral(term.n))
            else:
                d = Derivation("D", ctx, term, Fn(Numeral(-term.n), TOP))
        elif isinstance(term, Abs):
            var, body = term.var, term.body
            if ctx.get(var) is not None:
                var = _freshen(var, set(ctx.names) | body.fv.keys())
                body = substitute(term.body, term.var, Var(var))
                term = Abs(term.basis, term.phase, var, term.annotation, body, term.is_lambda)
            uses = body.fv.get(var, 0)
            if term.is_lambda and uses != 1:
                raise LinearityError(
                    f"lambda-bound variable {var} must occur exactly once"
                    f" (found {uses})"
                )
            a = term.annotation
            if a is None:
                a = self.fresh(f"binder {var}")
                open_ += 1
            child = self.derive(ctx.extended(Entry(var, term.basis, a)), body, open_)
            d = Derivation("B", ctx, term, Fn(a, child.type), (child,))
        elif isinstance(term, App):
            # A takes a fresh variable below, so it is never ground
            start = self.counter
            d1 = self.derive(ctx, term.fn, open_)
            if not open_ and self.counter == start:
                self.ground.append(d1)
            mid = self.counter
            d2 = self.derive(ctx, term.arg, open_)
            if not open_ and self.counter == mid:
                self.ground.append(d2)
            b = self.fresh("application result")
            try:
                self.unify(d1.type, Fn(d2.type, b))
            except UnificationError as exc:
                raise UnificationError(f"in application: {exc}") from exc
            d = Derivation("A", ctx, term, b, (d1, d2))
        elif isinstance(term, Tup):
            start = self.counter
            d1 = self.derive(ctx, term.left, open_)
            g1 = not open_ and self.counter == start
            if g1:
                self.ground.append(d1)
            mid = self.counter
            d2 = self.derive(ctx, term.right, open_)
            if not open_ and self.counter == mid:
                if g1:
                    # T is ground too: d1 is the last entry, and T's parent
                    # decides
                    self.ground.pop()
                else:
                    self.ground.append(d2)
            d = Derivation("T", ctx, term, Tensor(d1.type, d2.type), (d1, d2))
        elif isinstance(term, Let):
            if term.var1 == term.var2:
                raise ContextError(f"let binds {term.var1} twice")
            start = self.counter
            d1 = self.derive(ctx, term.bound, open_)
            g1 = not open_ and self.counter == start
            if g1:
                self.ground.append(d1)
            a, b = term.annotation1, term.annotation2
            body_open = open_ + (a is None) + (b is None)
            if a is None:
                a = self.fresh(f"let binder {term.var1}")
            if b is None:
                b = self.fresh(f"let binder {term.var2}")
            try:
                self.unify(d1.type, Tensor(a, b))
            except UnificationError as exc:
                raise UnificationError(f"in let binding: {exc}") from exc
            v1, v2, body = term.var1, term.var2, term.body
            taken = set(ctx.names)
            if v1 in taken or v2 in taken:
                avoid = taken | body.fv.keys()
                n1 = _freshen(v1, avoid)
                n2 = _freshen(v2, avoid | {n1})
                body = substitute(substitute(body, v1, Var(n1)), v2, Var(n2))
                v1, v2 = n1, n2
                term = Let(term.basis, v1, v2, term.annotation1, term.annotation2,
                           term.bound, body)
            before_body = self.counter
            d2 = self.derive(
                ctx.extended(Entry(v1, term.basis, a), Entry(v2, term.basis, b)),
                body,
                body_open,
            )
            # a fresh binder makes the body open, so a ground body means E
            # is ground when d1 is
            if not body_open and self.counter == before_body:
                if g1:
                    self.ground.pop()
                else:
                    self.ground.append(d2)
            d = Derivation("E", ctx, term, d2.type, (d1, d2))
        else:
            raise TypeError(f"not a term: {term!r}")

        # a closed boundary resolves here, in derive's own frame: a wrapper
        # would take a second frame per term level. A type that does not
        # resolve yet would fail the walk at its end, so it is not begun.
        if (
            closed is not None
            and self.counter != before
            and _resolved(d.type, self.subst) is not None
        ):
            try:
                d = self.resolve(d, first)
            except AmbiguousTypeError:
                return d
            del self.ground[first:]
            self.ground.append(d)
            self.shared[id(closed)] = (closed, d, self.counter - before)
        return d

    def resolve(self, d: Derivation, first: int = 0) -> Derivation:
        """d with every type variable replaced by its binding. Ground
        subtrees, and every type, entry, context and node in which nothing
        was bound, come back as the same objects. `ground[first]` is the
        first ground entry in d's subtree."""
        subst, ground, next_ground = self.subst, self.ground, first
        # id(object) -> resolved, for types, entries and contexts: nodes
        # share them, so each is resolved once and the results are shared
        # in turn. Every key is reachable from d, so no id is reused.
        memo: dict[int, object] = {}

        def res_type(t: Type) -> Type:
            r = memo.get(id(t))
            if r is None:
                r = _resolved(t, subst)
                if r is None:
                    r = apply_subst(t, subst)
                    vid = _first_var(r)
                    hint = ""
                    if vid in self.origin:
                        hint = f" (add an annotation at {self.origin[vid]})"
                    raise AmbiguousTypeError(f"ambiguous type {print_type(r)}{hint}")
                memo[id(t)] = r
            return r

        def res_entry(e: Entry) -> Entry:
            r = memo.get(id(e))
            if r is None:
                t = res_type(e.type)
                r = memo[id(e)] = e if t is e.type else Entry(e.name, e.basis, t)
            return r

        def res_ctx(ctx: Context) -> Context:
            r = memo.get(id(ctx))
            if r is None:
                entries = tuple(res_entry(e) for e in ctx.entries)
                same = all(a is b for a, b in zip(entries, ctx.entries))
                r = memo[id(ctx)] = ctx if same else Context(entries)
            return r

        def go(node: Derivation, children: tuple) -> Derivation:
            payload = node.payload
            if "entry" in payload:
                entry = res_entry(payload["entry"])
                if entry is not payload["entry"]:
                    payload = dict(payload, entry=entry)
            ctx, t = res_ctx(node.ctx), res_type(node.type)
            if (
                payload is node.payload
                and ctx is node.ctx
                and t is node.type
                and all(a is b for a, b in zip(children, node.children))
            ):
                return node
            return Derivation(node.rule, ctx, node.term, t, children, payload)

        # post-order with an explicit stack, so derivation depth is not
        # bounded by the recursion limit
        done: list[Derivation] = []
        todo: list = [(d, False)]
        while todo:
            node, children_done = todo.pop()
            if children_done:
                k = len(node.children)
                children = tuple(done[len(done) - k :])
                del done[len(done) - k :]
                done.append(go(node, children))
            elif next_ground < len(ground) and node is ground[next_ground]:
                next_ground += 1
                done.append(node)
            else:
                todo.append((node, True))
                todo.extend((c, False) for c in reversed(node.children))
        return done[0]


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


def _derive(ctx: Context, term: Term) -> tuple[_Inferencer, Derivation]:
    """The unresolved derivation of ctx |- term and its inferencer."""
    inf = _Inferencer()
    missing = [x for x in term.fv if ctx.get(x) is None]
    if missing:
        raise UnboundVariableError(f"unbound variable {missing[0]}")
    open_ = sum(contains_var(e.type) for e in ctx)
    d = inf.derive(ctx, term, open_)
    if not open_ and not inf.counter:
        inf.ground.append(d)
    return inf, d


def infer(ctx: Context, term: Term) -> tuple[Type, Derivation]:
    """Principal monomorphic type and canonical derivation of ctx |- term.

    The derivation shares its ground subtrees, those whose contexts and
    types hold no type variable once derived, with the unresolved derivation
    rather than rebuilding them."""
    inf, d = _derive(ctx, term)
    d = inf.resolve(d)
    return d.type, d


def check(ctx: Context, term: Term, expected: Type) -> Derivation:
    """Infer, then unify against the expected (fully inferred) type."""
    if contains_var(expected):
        raise AmbiguousTypeError("expected type must be fully inferred")
    inf, d = _derive(ctx, term)
    inf.unify(d.type, expected)
    return inf.resolve(d)


# ---------------------------------------------------------------------------
# Derivation re-checker


def validate_derivation(d: Derivation) -> None:
    """Replay every node's rule on its children's conclusions; raises
    InvalidDerivationError (or a more specific typing error) on mismatch."""

    def fail(node, msg):
        raise InvalidDerivationError(f"rule {node.rule}: {msg}")

    def go(node: Derivation):
        for c in node.children:
            go(c)
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
            e, i = node.payload["entry"], node.payload["index"]
            if ctx.entries[i] != e:
                fail(node, "weakened entry not at recorded index")
            if Context(ctx.entries[:i] + ctx.entries[i + 1 :]) != child.ctx:
                fail(node, "premise context is not the conclusion minus the entry")
            if e.name in free_vars(term):
                fail(node, f"weakened variable {e.name} occurs in the subject")
            if child.term != term or child.type != t:
                fail(node, "subject or type changed across weakening")
        elif node.rule == "C":
            (child,) = node.children
            var = node.payload["var"]
            basis = node.payload["basis"]
            names = tuple(node.payload["names"])
            i = node.payload["index"]
            arity = node.payload["arity"]
            if arity != len(names) or arity < 2:
                fail(node, "contraction arity must be >= 2")
            entry = ctx.entries[i]
            if entry.name != var:
                fail(node, "contracted entry not at recorded index")
            if entry.basis != basis:
                raise ContractionBasisError(
                    f"contraction of {var} in basis {basis} but {var} is"
                    f" introduced in basis {entry.basis}"
                )
            split = child.ctx.entries[i : i + arity]
            if child.ctx.entries[:i] != ctx.entries[:i] or child.ctx.entries[
                i + arity :
            ] != ctx.entries[i + 1 :]:
                fail(node, "premise context does not split the contracted entry")
            for se in split:
                if se.basis != basis:
                    raise ContractionBasisError(
                        f"occurrence {se.name} carries basis {se.basis},"
                        f" expected {basis}"
                    )
                if se.type != entry.type:
                    fail(node, "occurrence types differ")
            if tuple(se.name for se in split) != names:
                fail(node, "occurrence names do not match the payload")
            if rename_free_occurrences(term, var, list(names)) != child.term:
                fail(node, "premise subject is not the renamed conclusion subject")
            if child.type != t:
                fail(node, "type changed across contraction")
        else:
            fail(node, f"unknown rule {node.rule!r}")

    go(d)


def derivation_summary(d: Derivation) -> dict:
    """Counts of structural rules, per variable where applicable."""
    c_nodes = {}
    w_count = 0
    for node in d.walk():
        if node.rule == "C":
            c_nodes[node.payload["var"]] = {
                "arity": node.payload["arity"],
                "basis": str(node.payload["basis"]),
            }
        elif node.rule == "W":
            w_count += 1
    return {"c_nodes": c_nodes, "w_count": w_count}
