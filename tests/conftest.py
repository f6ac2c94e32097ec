"""Shared fixtures: term pools and a random-diagram generator."""

import math
import random
import re
from dataclasses import dataclass
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
from zetacalc.semantics import eval_as_map, translate
from zetacalc.syntax import (
    Abs,
    App,
    Basis,
    Gen,
    Let,
    ParseError,
    Phase,
    Tup,
    Unit,
    Var,
    _freshen,
    compose,
    fn_parts,
    hadamard_term,
    lam,
    parse,
    rename_free_occurrences,
    rotation,
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
        # the let body drops its own b and the context's y, which the bound
        # term uses, in one W node
        "Z y:1. let <a, b> =Z <y, Z[1]> in a",
        # a binary node that routes its entries by a 3-cycle, not a swap
        "Z x:1. Z y:1. Z z:1. <z, <x, y>>",
        # a let binder shadows a variable of its bound term below the root:
        # inference freshens it, and every ancestor's subject follows
        "Z x:1*1. <let <x, y> =Z x in <y, x>, Z[1]>",
        "Z x:1*1. let <x, y> =Z x in <y, <x, x>>",
        "Z x:1*1. (Z z:1. <z, let <x, y> =Z x in <y, x>>) Z[1]",
        "Z x:1*1. let <x, y> =Z x in let <x, y> =Z <y, x> in <y, x>",
        "Z x:1. let <a, b> =Z <x, x> in <a, <b, x>>",
        # the fresh name of x is x', the second binder's old name
        "Z x:1*1. let <x, x'> =Z x in x",
    ]


def rule_sides() -> list:
    """(context, term) for both sides of every standard rule instance."""
    return [
        (ctx, side(bindings))
        for rule, bindings, ctx in standard_instances()
        for side in (rule.lhs, rule.rhs)
    ]


def translated_derivations():
    """(label, derivation, views) behind translated_diagrams(): the pool,
    both sides of every rule instance, and the benchmark inputs: the
    H x 2..20 chains, the 6..11-way Z/X copy maps at all four quarter-turn
    phases and the higher-order share. `views` names what is translated:
    the "state", the "map" or both."""

    def of(src):
        return infer(Context(), parse(src))[1]

    for src in term_pool():
        yield src, of(src), ("state", "map")
    for ctx, term in rule_sides():
        try:
            _, d = infer(ctx, term)
        except ZetaTypeError:
            continue
        yield str(term), d, ("state",)
    for n in range(2, 21):
        yield f"H x {n}", of(" o ".join(["H"] * n)), ("map",)
    for basis in "ZX":
        for phase in ("", "^pi/2", "^pi", "^3pi/2"):
            for ways in range(6, 12):
                src = f"{basis}{phase} x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)
                yield src, of(src), ("map",)
    yield "higher-order", of("(X f:1->1*1. <f,f>) (Z x:1. <x,x>)"), ("state",)


def translated_diagrams():
    """(label, diagram) for every diagram translate/eval_as_map produce for
    the inputs of translated_derivations(); a map is labelled "(map)" when
    its state is yielded too."""
    for label, d, views in translated_derivations():
        jd = translate(d)
        if "state" in views:
            yield label, jd.diagram
        if "map" in views and fn_parts(jd.type) is not None:
            yield (f"{label} (map)" if "state" in views else label), eval_as_map(jd).diagram


def _literal_caps(a: int, mid: int):
    """Cap wire i against wire a + mid + i (i < a), passing the mid wires
    through: a (2a + mid) -> mid diagram."""
    perm = [0] * (2 * a + mid)
    for i in range(a):
        perm[i], perm[a + mid + i] = 2 * i, 2 * i + 1
    for j in range(mid):
        perm[a + j] = 2 * a + j
    return seq(permutation(perm), par(*([Cap()] * a), Id(mid)))


def _literal_discards(entries, kept):
    """Discard, out of the wires of `entries`, those of every entry not
    named in `kept`, right to left, so the wire offsets of the entries left
    of it still hold."""
    offs = [0]
    for e in entries:
        offs.append(offs[-1] + size(e.type))
    stage = Id(offs[-1])
    for i in reversed(range(len(entries))):
        e = entries[i]
        if e.name not in kept:
            after = stage.outputs - offs[i + 1]
            stage = seq(stage, par(Id(offs[i]), discard(size(e.type), e.basis), Id(after)))
    return stage


def _literal_route(ctx, *children):
    """The routing of a binary node: each entry of ctx goes to the child
    whose subject uses it. Returns (permutation to the children's blocks in
    turn, each child's translation on its block plus its own binders, the
    first block's width)."""
    blocks = [[] for _ in children]
    wires = [[] for _ in children]
    at = 0
    for e in ctx:
        (j,) = [j for j, c in enumerate(children) if e.name in c.term.fv]
        blocks[j].append(e)
        wires[j].extend(range(at, at + size(e.type)))
        at += size(e.type)
    perm = [0] * at
    for dst, src in enumerate(w for ws in wires for w in ws):
        perm[src] = dst
    parts = []
    for c, block in zip(children, blocks):
        # the child's own binders follow its block, as in its context
        entries = block + list(c.ctx.entries[len(ctx):])
        premise = c
        while premise.rule == "W":
            premise = premise.children[0]
        kept = set(premise.ctx.names)
        parts.append(seq(_literal_discards(entries, kept), literal_translate(premise)))
    return permutation(perm), parts, len(wires[0])


def literal_translate(node):
    """The snaked reference translation of a derivation in the W/C-normal
    form: every abstraction is a state whose binder wires a cup bends into
    dual outputs, with its binder rotation kept at phase 0, and every
    application, a beta-redex too, caps those outputs against the
    argument's. `translate` composes redexes instead; the yanking equation
    says the two denote the same matrix. It routes a binary node's entries
    by its children's subjects, on its own, not through `semantics`."""
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
        router, (t1, t2), _ = _literal_route(ctx, c1, c2)
        return seq(router, par(t1, t2), _literal_caps(size(a_t), size(b_t)))
    if node.rule == "T":
        router, (t1, t2), _ = _literal_route(ctx, *node.children)
        return seq(router, par(t1, t2))
    if node.rule == "E":
        m, n = node.children
        router, (tn, tm), gn = _literal_route(ctx, n, m)
        return seq(router, par(Id(gn), tm), tn)
    (child,) = node.children
    if node.rule == "W":
        return seq(_literal_discards(ctx.entries, set(child.ctx.names)), literal_translate(child))
    # the entry the subject uses more than once, split into one copy per use
    [(i, e)] = [(i, e) for i, e in enumerate(ctx) if node.term.fv.get(e.name, 0) >= 2]
    before, after = offs[i], offs[-1] - offs[i + 1]
    stage = upsilon(size(e.type), e.basis, node.term.fv[e.name])
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
                return Derivation("W", ctx, child.term, child.type, (child,))
        for i, e in enumerate(ctx.entries):
            k = fvs.get(e.name, 0)
            if k >= 2:
                names = tuple(f"{e.name}#{j + 1}" for j in range(k))
                split = tuple(Entry(nm, e.basis, e.type) for nm in names)
                child = derive(
                    Context(ctx.entries[:i] + split + ctx.entries[i + 1 :]),
                    rename_free_occurrences(term, e.name, list(names)),
                )
                # the premise's subject, with any let freshened below it
                subject = child.term
                for nm in names:
                    subject = substitute(subject, nm, Var(e.name))
                return Derivation("C", ctx, subject, child.type, (child,))
        if isinstance(term, Unit):
            return Derivation("U", ctx, term, TOP)
        if isinstance(term, Var):
            return Derivation("V", ctx, term, ctx.get(term.name).type)
        if isinstance(term, Gen):
            if term.n >= 0:
                return Derivation("G", ctx, term, Numeral(term.n))
            return Derivation("D", ctx, term, Fn(Numeral(-term.n), TOP))
        # every parent's subject is built from its premises' subjects, which
        # a let freshened below it may have renamed
        if isinstance(term, Abs):
            var = term.var
            uses = term.body.fv.get(var, 0)
            if term.is_lambda and uses != 1:
                raise LinearityError(
                    f"lambda-bound variable {var} must occur exactly once (found {uses})"
                )
            a = term.annotation or fresh(f"binder {var}")
            child = derive(ctx.extended(Entry(var, term.basis, a)), term.body)
            term = Abs(term.basis, term.phase, var, term.annotation, child.term, term.is_lambda)
            return Derivation("B", ctx, term, Fn(a, child.type), (child,))
        if isinstance(term, App):
            d1, d2 = derive(ctx, term.fn), derive(ctx, term.arg)
            b = fresh("application result")
            unify_at("in application", d1.type, Fn(d2.type, b))
            return Derivation("A", ctx, App(d1.term, d2.term), b, (d1, d2))
        if isinstance(term, Tup):
            d1, d2 = derive(ctx, term.left), derive(ctx, term.right)
            term = Tup(d1.term, d2.term)
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
            # v2 first: n1 may be v2's old name, but n2 is never v1
            body = substitute(substitute(body, v2, Var(n2)), v1, Var(n1))
            v1, v2 = n1, n2
        d2 = derive(ctx.extended(Entry(v1, term.basis, a), Entry(v2, term.basis, b)), body)
        term = Let(term.basis, v1, v2, term.annotation1, term.annotation2, d1.term, d2.term)
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
        if node.rule == "W":
            # the weakened entry, the one the premise's context lacks, first
            kept = set(node.children[0].ctx.names)
            (weakened,) = [e for e in node.ctx if e.name not in kept]
            entry(weakened)
        ctx = Context(tuple(entry(e) for e in node.ctx))
        return Derivation(node.rule, ctx, node.term, resolved(node.type), children)

    if expected is not None and contains_var(expected):
        raise AmbiguousTypeError("expected type must be fully inferred")
    missing = [x for x in term.fv if ctx.get(x) is None]
    if missing:
        raise UnboundVariableError(f"unbound variable {missing[0]}")
    d = derive(ctx, term)
    if expected is not None:
        subst = unify(d.type, expected, subst)
    return resolve(d)


# The reference reader: the token-object tokenizer and recursive-descent
# parser `syntax.parse`, `syntax.parse_type` and `types.parse_context` used
# before the parser became one loop over an explicit stack. Tests compare
# the three against it: the same term, or the same error at the same place.

_LITERAL_KEYWORDS = {"Z", "X", "H", "rot", "let", "in", "o", "rad", "pi"}

_LITERAL_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct><|>|,|\.|:|\^|\[|\]|\*|\\|/|-|=|\(|\)|')
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class _LiteralToken:
    kind: str  # 'num' | 'ident' | keyword text | punct text | 'eof'
    text: str
    line: int
    col: int


def _literal_tokenize(text: str) -> list:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _LITERAL_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            if m.lastgroup == "num":
                kind = "num"
            elif m.lastgroup == "ident":
                kind = lexeme if lexeme in _LITERAL_KEYWORDS else "ident"
            else:
                kind = lexeme
            tokens.append(_LiteralToken(kind, lexeme, line, col))
        for ch in lexeme:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(_LiteralToken("eof", "", line, col))
    return tokens


_LITERAL_ATOM_START = {"*", "ident", "Z", "X", "H", "rot", "let", "<", "(", "\\"}


class _LiteralParser:
    def __init__(self, text: str, type_parser=None):
        self.tokens = _literal_tokenize(text)
        self.pos = 0
        # Callback into the types module grammar for binder annotations.
        self.type_parser = type_parser

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # term := comp ; comp := app ("o" app)* right-assoc
    def term(self):
        parts = [self.app()]
        while self.peek().kind == "o":
            self.next()
            parts.append(self.app())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = compose(part, out)
        return out

    def app(self):
        t = self.atom()
        while self.peek().kind in _LITERAL_ATOM_START:
            t = App(t, self.atom())
        return t

    def atom(self):
        tok = self.peek()
        if tok.kind == "*":
            self.next()
            return Unit()
        if tok.kind == "ident":
            self.next()
            return Var(tok.text)
        if tok.kind == "H":
            self.next()
            return hadamard_term()
        if tok.kind == "rot":
            self.next()
            basis = self.basis()
            self.expect("^")
            return rotation(basis, self.phase())
        if tok.kind in ("Z", "X"):
            if self.peek(1).kind == "[":
                return self.gen()
            return self.abs_()
        if tok.kind == "\\":
            self.next()
            var = self.expect("ident").text
            ann = self.annotation()
            self.expect(".")
            return lam(var, self.term(), ann)
        if tok.kind == "<":
            self.next()
            left = self.term()
            self.expect(",")
            right = self.term()
            self.expect(">")
            return Tup(left, right)
        if tok.kind == "let":
            return self.letexp()
        if tok.kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        self.error(f"expected a term, found {tok.text or 'end of input'!r}")

    def basis(self):
        tok = self.peek()
        if tok.kind not in ("Z", "X"):
            self.error("expected basis Z or X")
        self.next()
        return Basis(tok.kind)

    def gen(self):
        basis = self.basis()
        self.expect("[")
        n = self.int_()
        self.expect("]")
        phase = Phase.zero()
        if self.peek().kind == "^":
            self.next()
            phase = self.phase()
        return Gen(basis, phase, n)

    def abs_(self):
        basis = self.basis()
        phase = Phase.zero()
        if self.peek().kind == "^":
            self.next()
            phase = self.phase()
        var = self.expect("ident").text
        ann = self.annotation()
        self.expect(".")
        return Abs(basis, phase, var, ann, self.term())

    def letexp(self):
        self.expect("let")
        self.expect("<")
        v1 = self.expect("ident").text
        a1 = self.annotation()
        self.expect(",")
        v2 = self.expect("ident").text
        a2 = self.annotation()
        self.expect(">")
        self.expect("=")
        basis = self.basis()
        bound = self.term()
        self.expect("in")
        body = self.term()
        return Let(basis, v1, v2, a1, a2, bound, body)

    def annotation(self):
        if self.peek().kind != ":":
            return None
        self.next()
        if self.type_parser is None:
            self.error("type annotations are not supported here")
        return self.type_parser(self)

    def int_(self) -> int:
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        tok = self.expect("num")
        if "." in tok.text or "e" in tok.text or "E" in tok.text:
            raise ParseError("expected an integer", tok.line, tok.col)
        return -int(tok.text) if neg else int(tok.text)

    def phase(self):
        neg = False
        if self.peek().kind == "-":
            self.next()
            neg = True
        tok = self.peek()
        if tok.kind == "rad":
            self.next()
            self.expect("(")
            num = self.expect("num")
            self.expect(")")
            value = float(num.text)
            if not math.isfinite(value):
                raise ParseError(f"phase rad({num.text}) is not finite", num.line, num.col)
            return Phase.radians(-value if neg else value)
        if tok.kind == "pi":
            self.next()
            den = self.opt_den()
            return Phase.exact(-1 if neg else 1, den)
        if tok.kind == "num":
            n = self.int_()
            if self.peek().kind == "pi":
                self.next()
                den = self.opt_den()
                return Phase.exact(-n if neg else n, den)
            if n != 0:
                self.error("a bare integer phase must be 0 (use `pi` forms or rad(...))")
            return Phase.zero()
        self.error("expected a phase")

    def opt_den(self) -> int:
        if self.peek().kind == "/":
            self.next()
            tok = self.peek()
            den = self.int_()
            if den <= 0:
                raise ParseError("phase denominator must be positive", tok.line, tok.col)
            return den
        return 1


def _literal_type_from(parser):
    def tfact():
        tok = parser.peek()
        if tok.kind == "num":
            n = parser.int_()
            t = Numeral(n)
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

    def tensor():
        t = tfact()
        while parser.peek().kind == "*":
            parser.next()
            t = Tensor(t, tfact())
        return t

    def typ():
        t = tensor()
        if parser.peek().kind == "-":
            # arrow is lexed as '-' '>'
            if parser.peek(1).kind == ">":
                parser.next()
                parser.next()
                return Fn(t, typ())
        return t

    return typ()


def literal_parse(text: str):
    """The reference of `syntax.parse`."""
    parser = _LiteralParser(text, type_parser=_literal_type_from)
    t = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return t


def literal_parse_type(text: str):
    """The reference of `syntax.parse_type`."""
    parser = _LiteralParser(text)
    t = _literal_type_from(parser)
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return t


def literal_parse_context(text: str):
    """The reference of `types.parse_context`."""
    if not text.strip():
        return Context()
    parser = _LiteralParser(text)
    entries = []
    while True:
        name = parser.expect("ident").text
        parser.expect(":")
        basis = parser.basis()
        parser.expect(":")
        t = _literal_type_from(parser)
        entries.append(Entry(name, basis, t))
        if parser.peek().kind != ",":
            break
        parser.next()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return Context(tuple(entries))


def merged_w_chains(node):
    """The derivation with each chain of W nodes, one per dropped entry as
    `literal_infer` builds them, merged into one W node: the chain's first
    conclusion over the premise of its last node, as `infer` builds it."""
    children = node.children
    if node.rule == "W":
        while children[0].rule == "W":
            children = children[0].children
        return Derivation("W", node.ctx, node.term, node.type, (merged_w_chains(children[0]),))
    children = tuple(merged_w_chains(c) for c in children)
    return Derivation(node.rule, node.ctx, node.term, node.type, children)


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
