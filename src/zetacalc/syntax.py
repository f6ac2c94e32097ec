"""Abstract syntax, concrete grammar, and term-level operations.

Terms and phases are immutable by contract: no field is assigned after
construction; not frozen, for construction cost. `Phase` is slotted; term
nodes keep an instance `__dict__`, because the benchmark's tracer
(`perfbench/tracing.py`) finds a term's children through `vars(term)`.
Every operation here is a pure function, and nodes may be shared (each `H`
of one parse is one object). Each term node carries `fv`: its free
variables, each mapped to its number of free occurrences, in first-use
order. A node computes `fv` from its children's when it is built, so
reading it never walks the term. The binder
forms carry a basis (Z or X) and a phase; phases are exact rational
multiples of pi whenever written symbolically, with decimal radians as an
escape hatch.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

TWO_PI = 2.0 * math.pi

PHASE_EQ_TOL = 1e-12


class ZetaError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ZetaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class Basis(enum.Enum):
    Z = "Z"
    X = "X"

    @property
    def complement(self) -> "Basis":
        return Basis.X if self is Basis.Z else Basis.Z

    def __str__(self) -> str:
        return self.value


@dataclass(slots=True, unsafe_hash=True)
class Phase:
    """An angle in [0, 2pi).

    Either exact (`pi_multiple` is a Fraction in [0, 2), the angle being
    pi_multiple * pi) or decimal (`radians_value` in [0, 2pi)). Adding two
    exact phases stays exact; mixing promotes to decimal.
    """

    pi_multiple: Optional[Fraction] = None
    radians_value: Optional[float] = None

    def __post_init__(self):
        if (self.pi_multiple is None) == (self.radians_value is None):
            raise ValueError("phase must be exactly one of exact or decimal")
        if self.pi_multiple is not None and not (0 <= self.pi_multiple < 2):
            raise ValueError("exact phase not normalized")
        if self.radians_value is not None and not (0 <= self.radians_value < TWO_PI):
            raise ValueError("decimal phase not normalized")

    @staticmethod
    def exact(num: int, den: int = 1) -> "Phase":
        return Phase(pi_multiple=Fraction(num, den) % 2)

    @staticmethod
    def radians(value: float) -> "Phase":
        r = value % TWO_PI
        # a tiny negative value rounds up to 2pi itself, which is angle 0
        return Phase(radians_value=0.0 if r == TWO_PI else r)

    @staticmethod
    def zero() -> "Phase":
        return _ZERO

    @property
    def is_exact(self) -> bool:
        return self.pi_multiple is not None

    @property
    def value(self) -> float:
        if self.pi_multiple is not None:
            return float(self.pi_multiple) * math.pi
        return self.radians_value

    @property
    def is_zero(self) -> bool:
        if self.is_exact:
            return self.pi_multiple == 0
        return self.radians_value == 0.0

    def __add__(self, other: "Phase") -> "Phase":
        if self.is_exact and other.is_exact:
            return Phase.exact(*(self.pi_multiple + other.pi_multiple).as_integer_ratio())
        return Phase.radians(self.value + other.value)

    def __neg__(self) -> "Phase":
        if self.is_exact:
            return Phase.exact(*(-self.pi_multiple).as_integer_ratio())
        return Phase.radians(-self.radians_value)

    def approx_eq(self, other: "Phase", tol: float = PHASE_EQ_TOL) -> bool:
        if self.is_exact and other.is_exact:
            return self.pi_multiple == other.pi_multiple
        d = abs(self.value - other.value)
        return min(d, TWO_PI - d) <= tol

    def __str__(self) -> str:
        if self.is_exact:
            n, d = self.pi_multiple.numerator, self.pi_multiple.denominator
            if n == 0:
                return "0"
            num = "pi" if n == 1 else f"{n}pi"
            return num if d == 1 else f"{num}/{d}"
        return f"rad({self.radians_value!r})"


# the one zero phase `Phase.zero` returns; phases are immutable by contract
_ZERO = Phase(pi_multiple=Fraction(0))


# ---------------------------------------------------------------------------
# Terms


def _without(counts: dict[str, int], names: tuple) -> dict[str, int]:
    if not any(n in counts for n in names):
        return counts
    return {k: v for k, v in counts.items() if k not in names}


def _merged(first: dict[str, int], second: dict[str, int]) -> dict[str, int]:
    """Counts of two subterms in sequence, keeping first-use order."""
    if not second:
        return first
    if not first:
        return second
    out = dict(first)
    for k, v in second.items():
        out[k] = out.get(k, 0) + v
    return out


@dataclass(unsafe_hash=True)
class Term:
    # see the module docstring; nodes may share one dict, so it must not be
    # changed
    fv: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.fv = {}


@dataclass(unsafe_hash=True)
class Unit(Term):
    pass


@dataclass(unsafe_hash=True)
class Var(Term):
    name: str

    def __post_init__(self):
        self.fv = {self.name: 1}


@dataclass(unsafe_hash=True)
class Gen(Term):
    """Basis generator: the n-qubit state |b0>^n + e^{i a}|b1>^n (n >= 0),
    an effect for n < 0, a scalar at n = 0."""

    basis: Basis
    phase: Phase
    n: int


@dataclass(unsafe_hash=True)
class Abs(Term):
    basis: Basis
    phase: Phase
    var: str
    annotation: Optional[object]  # types.Type, kept untyped to avoid a cycle
    body: Term
    # Set for `\x. M` sugar: the typechecker must enforce single use of x.
    is_lambda: bool = False

    def __post_init__(self):
        self.fv = _without(self.body.fv, (self.var,))


@dataclass(unsafe_hash=True)
class App(Term):
    fn: Term
    arg: Term

    def __post_init__(self):
        self.fv = _merged(self.fn.fv, self.arg.fv)


@dataclass(unsafe_hash=True)
class Tup(Term):
    left: Term
    right: Term

    def __post_init__(self):
        self.fv = _merged(self.left.fv, self.right.fv)


@dataclass(unsafe_hash=True)
class Let(Term):
    basis: Basis
    var1: str
    var2: str
    annotation1: Optional[object]
    annotation2: Optional[object]
    bound: Term
    body: Term

    def __post_init__(self):
        body = _without(self.body.fv, (self.var1, self.var2))
        self.fv = _merged(self.bound.fv, body)


# ---------------------------------------------------------------------------
# Sugar builders

def rotation(basis: Basis, phase: Phase) -> Term:
    """rotB^a  :=  B^a x:1. x (rotations act on single qubits)"""
    from .types import Numeral  # deferred: types imports this module

    return Abs(basis, phase, "_r", Numeral(1), Var("_r"))


def compose(m: Term, n: Term, basis: Basis = Basis.Z) -> Term:
    """M o N  :=  B^0 x. M (N x); the basis is semantically irrelevant for
    the linearly used x (asserted in tests), fixed to Z by default. x is not
    free in M or N, so it captures nothing."""
    x = _freshen("_c", m.fv.keys() | n.fv.keys())
    return Abs(basis, Phase.zero(), x, None, App(m, App(n, Var(x))))


@functools.cache
def hadamard_term() -> Term:
    """H  :=  rotZ^{pi/2} o rotX^{pi/2} o rotZ^{pi/2}. Built once: every
    call returns the same immutable term, so each H a parse reads is one
    object, which inference and translation handle once."""
    half = Phase.exact(1, 2)
    return compose(
        rotation(Basis.Z, half),
        compose(rotation(Basis.X, half), rotation(Basis.Z, half)),
    )


def lam(var: str, body: Term, annotation=None) -> Term:
    """\\x. M  :=  Z^0 x. M  with a single-use obligation."""
    return Abs(Basis.Z, Phase.zero(), var, annotation, body, is_lambda=True)


# ---------------------------------------------------------------------------
# Free variables, occurrences, substitution, alpha-equivalence


def free_vars(term: Term) -> list[str]:
    """Free variables in first-use order."""
    return list(term.fv)


def occurrences(name: str, term: Term) -> int:
    """Number of free occurrences of `name`, ignoring shadowed scopes."""
    return term.fv.get(name, 0)


def _freshen(name: str, avoid: set[str]) -> str:
    fresh = name
    while fresh in avoid:
        fresh += "'"
    return fresh


def _subst(t: Term, sub: dict[str, Term]) -> Term:
    sub = {k: v for k, v in sub.items() if k in t.fv}
    if not sub:
        return t
    if isinstance(t, Var):
        return sub[t.name]
    if isinstance(t, App):
        return App(_subst(t.fn, sub), _subst(t.arg, sub))
    if isinstance(t, Tup):
        return Tup(_subst(t.left, sub), _subst(t.right, sub))
    if isinstance(t, Abs):
        fvr = set().union(*(v.fv for v in sub.values()))
        var, body = t.var, t.body
        if var in fvr:
            var = _freshen(var, fvr | body.fv.keys() | sub.keys())
            body = _subst(body, {t.var: Var(var)})
        return Abs(t.basis, t.phase, var, t.annotation, _subst(body, sub), t.is_lambda)
    if isinstance(t, Let):
        bound = _subst(t.bound, sub)
        inner = {
            k: v
            for k, v in sub.items()
            if k not in (t.var1, t.var2) and k in t.body.fv
        }
        v1, v2, body = t.var1, t.var2, t.body
        if inner:
            fvr = set().union(*(v.fv for v in inner.values()))
            rename: dict[str, Term] = {}
            avoid = fvr | body.fv.keys() | inner.keys()
            if v1 in fvr:
                v1 = _freshen(v1, avoid)
                rename[t.var1] = Var(v1)
            if v2 in fvr:
                v2 = _freshen(v2, avoid | {v1})
                rename[t.var2] = Var(v2)
            if rename:
                body = _subst(body, rename)
            body = _subst(body, inner)
        return Let(t.basis, v1, v2, t.annotation1, t.annotation2, bound, body)
    return t


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution term[name := replacement]."""
    return _subst(term, {name: replacement})


def rename_free_occurrences(term: Term, name: str, names: list[str]) -> Term:
    """Replace the k free occurrences of `name`, left to right, with the k
    given fresh names. Used to make contraction explicit."""
    if term.fv.get(name, 0) != len(names):
        raise ValueError(f"expected {len(names)} occurrences of {name}")
    it = iter(names)

    def go(t: Term) -> Term:
        if name not in t.fv:
            return t
        if isinstance(t, Var):
            return Var(next(it))
        if isinstance(t, Abs):
            return Abs(t.basis, t.phase, t.var, t.annotation, go(t.body), t.is_lambda)
        if isinstance(t, App):
            return App(go(t.fn), go(t.arg))
        if isinstance(t, Tup):
            return Tup(go(t.left), go(t.right))
        if isinstance(t, Let):
            bound = go(t.bound)
            body = t.body if name in (t.var1, t.var2) else go(t.body)
            return Let(t.basis, t.var1, t.var2, t.annotation1, t.annotation2, bound, body)
        return t

    return go(term)


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to renaming of bound variables. Phases compare by
    normalized value; the lambda-obligation flag is ignored."""

    def go(a: Term, b: Term, env1: dict, env2: dict, depth: int) -> bool:
        if type(a) is not type(b):
            return False
        if isinstance(a, Unit):
            return True
        if isinstance(a, Var):
            return env1.get(a.name, a.name) == env2.get(b.name, b.name)
        if isinstance(a, Gen):
            return a.basis == b.basis and a.n == b.n and a.phase.approx_eq(b.phase)
        if isinstance(a, Abs):
            if a.basis != b.basis or not a.phase.approx_eq(b.phase):
                return False
            e1 = {**env1, a.var: depth}
            e2 = {**env2, b.var: depth}
            return go(a.body, b.body, e1, e2, depth + 1)
        if isinstance(a, App):
            return go(a.fn, b.fn, env1, env2, depth) and go(a.arg, b.arg, env1, env2, depth)
        if isinstance(a, Tup):
            return go(a.left, b.left, env1, env2, depth) and go(
                a.right, b.right, env1, env2, depth
            )
        if isinstance(a, Let):
            if a.basis != b.basis or not go(a.bound, b.bound, env1, env2, depth):
                return False
            e1 = {**env1, a.var1: depth, a.var2: depth + 1}
            e2 = {**env2, b.var1: depth, b.var2: depth + 1}
            return go(a.body, b.body, e1, e2, depth + 2)
        return False

    return go(t1, t2, {}, {}, 0)


# ---------------------------------------------------------------------------
# Concrete syntax

_KEYWORDS = {"Z", "X", "H", "rot", "let", "in", "o", "rad", "pi"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>\d+(\.\d+)?([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
  | (?P<punct><|>|,|\.|:|\^|\[|\]|\*|\\|/|-|=|\(|\)|')
    """,
    re.VERBOSE,
)


@dataclass(slots=True)
class _Token:
    kind: str  # 'num' | 'ident' | keyword text | punct text | 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            if m.lastgroup == "num":
                kind = "num"
            elif m.lastgroup == "ident":
                kind = lexeme if lexeme in _KEYWORDS else "ident"
            else:
                kind = lexeme
            tokens.append(_Token(kind, lexeme, line, col))
        for ch in lexeme:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


_ATOM_START = {"*", "ident", "Z", "X", "H", "rot", "let", "<", "(", "\\"}


class _Parser:
    def __init__(self, text: str, type_parser=None):
        self.tokens = _tokenize(text)
        self.pos = 0
        # Callback into the types module grammar for binder annotations.
        self.type_parser = type_parser

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                             tok.line, tok.col)
        return self.next()

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # term := comp ; comp := app ("o" app)* right-assoc
    def term(self) -> Term:
        parts = [self.app()]
        while self.peek().kind == "o":
            self.next()
            parts.append(self.app())
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = compose(part, out)
        return out

    def app(self) -> Term:
        t = self.atom()
        while self.peek().kind in _ATOM_START:
            t = App(t, self.atom())
        return t

    def atom(self) -> Term:
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

    def basis(self) -> Basis:
        tok = self.peek()
        if tok.kind not in ("Z", "X"):
            self.error("expected basis Z or X")
        self.next()
        return Basis(tok.kind)

    def gen(self) -> Term:
        basis = self.basis()
        self.expect("[")
        n = self.int_()
        self.expect("]")
        phase = Phase.zero()
        if self.peek().kind == "^":
            self.next()
            phase = self.phase()
        return Gen(basis, phase, n)

    def abs_(self) -> Term:
        basis = self.basis()
        phase = Phase.zero()
        if self.peek().kind == "^":
            self.next()
            phase = self.phase()
        var = self.expect("ident").text
        ann = self.annotation()
        self.expect(".")
        return Abs(basis, phase, var, ann, self.term())

    def letexp(self) -> Term:
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

    def phase(self) -> Phase:
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


def parse(text: str) -> Term:
    """Parse a term; all sugar is expanded."""
    from . import types as _types  # deferred to avoid an import cycle

    parser = _Parser(text, type_parser=_types._parse_type_from)
    t = parser.term()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return t


def print_term(term: Term) -> str:
    """Concrete syntax; parse(print_term(t)) is alpha-equivalent to t.
    Sugar is not reintroduced (lambda obligations print as Z-binders)."""
    from . import types as _types

    def atom(t: Term) -> str:
        s = go(t)
        if isinstance(t, (Unit, Var, Gen, Tup)):
            return s
        return f"({s})"

    def go(t: Term) -> str:
        if isinstance(t, Unit):
            return "*"
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Gen):
            head = f"{t.basis}[{t.n}]"
            return head if t.phase.is_zero else f"{head}^{t.phase}"
        if isinstance(t, Abs):
            head = str(t.basis) if t.phase.is_zero else f"{t.basis}^{t.phase}"
            ann = f":{_types.print_type(t.annotation)}" if t.annotation is not None else ""
            return f"{head} {t.var}{ann}. {go(t.body)}"
        if isinstance(t, App):
            fn = go(t.fn) if isinstance(t.fn, (App, Unit, Var, Gen, Tup)) else f"({go(t.fn)})"
            return f"{fn} {atom(t.arg)}"
        if isinstance(t, Tup):
            return f"<{go(t.left)}, {go(t.right)}>"
        if isinstance(t, Let):
            a1 = f":{_types.print_type(t.annotation1)}" if t.annotation1 is not None else ""
            a2 = f":{_types.print_type(t.annotation2)}" if t.annotation2 is not None else ""
            return (
                f"let <{t.var1}{a1}, {t.var2}{a2}> = {t.basis} {atom(t.bound)}"
                f" in {go(t.body)}"
            )
        raise TypeError(f"not a term: {t!r}")

    return go(term)
