"""Abstract syntax, concrete grammar, and term-level operations, types
included: a binder may carry a type, so one parser reads both.

Terms, types and phases are immutable by contract: no field is assigned
after construction; not frozen, for construction cost. Types and `Phase`
are slotted; term nodes keep an instance `__dict__`, because the
benchmark's tracer (`perfbench/tracing.py`) finds a term's children through
`vars(term)`. Every operation here is a pure function, and nodes may be
shared (each `H` of one parse is one object). Each term node carries `fv`:
its free variables, each mapped to its number of free occurrences, in
first-use order. A node computes `fv` from its children's when it is built,
so reading it never walks the term. The binder
forms carry a basis (Z or X) and a phase; phases are exact rational
multiples of pi whenever written symbolically, with decimal radians as an
escape hatch.

`parse` lexes a text with one regex `findall` into parallel lists of token
kinds and texts, then builds the term in one loop over an explicit stack of
open constructs, so it has no nesting limit of its own. No offset is kept: a
`ParseError` finds its token's line and column by lexing the text again,
only when it is raised.
"""

from __future__ import annotations

import enum
import functools
import math
import re
import string
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
# Types: monomorphic wire counts


@dataclass(slots=True, unsafe_hash=True)
class Type:
    pass


@dataclass(slots=True, unsafe_hash=True)
class Numeral(Type):
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("numeral types are naturals")


@dataclass(slots=True, unsafe_hash=True)
class Tensor(Type):
    left: Type
    right: Type


@dataclass(slots=True, unsafe_hash=True)
class Dual(Type):
    inner: Type


@dataclass(slots=True, unsafe_hash=True)
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


def print_type(t: Type) -> str:
    return _print_type(t, 0)


def _print_type(t: Type, prec: int) -> str:
    """`print_type` at precedence prec: 0 = arrow (right-assoc), 1 = tensor
    (left-assoc), 2 = atom. Each walk here is a module-level function, not a
    closure that calls itself: that closure is a reference cycle, freed only
    by the cycle collector."""
    parts = fn_parts(t)
    if parts is not None:
        a, b = parts
        s = f"{_print_type(a, 1)} -> {_print_type(b, 0)}"
        return s if prec <= 0 else f"({s})"
    if isinstance(t, Tensor):
        s = f"{_print_type(t.left, 1)} * {_print_type(t.right, 2)}"
        return s if prec <= 1 else f"({s})"
    if isinstance(t, Dual):
        return f"{_print_type(t.inner, 2)}'"
    if isinstance(t, Numeral):
        return str(t.n)
    if isinstance(t, TypeVar):
        return f"?{t.id}"
    raise TypeError(f"not a type: {t!r}")


# ---------------------------------------------------------------------------
# Terms


# the counts of a term with no free variable that `_without` returns; like
# every `fv` dict, never changed
_NONE_FREE: dict[str, int] = {}


def _without(counts: dict[str, int], name: str) -> dict[str, int]:
    if name not in counts:
        return counts
    if len(counts) == 1:
        return _NONE_FREE
    return {k: v for k, v in counts.items() if k != name}


def _merged(first: dict[str, int], second: dict[str, int]) -> dict[str, int]:
    """Counts of two subterms in sequence, keeping first-use order."""
    if not second:
        return first
    if not first:
        return second
    out = {**first, **second}
    # sum the names both hold, found by walking the smaller dict
    small, large = (first, second) if len(first) < len(second) else (second, first)
    for k in small:
        if k in large:
            out[k] = first[k] + second[k]
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
    annotation: Optional[Type]
    body: Term
    # Set for `\x. M` sugar: the typechecker must enforce single use of x.
    is_lambda: bool = False

    def __post_init__(self):
        self.fv = _without(self.body.fv, self.var)


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
    annotation1: Optional[Type]
    annotation2: Optional[Type]
    bound: Term
    body: Term

    def __post_init__(self):
        body = _without(_without(self.body.fv, self.var1), self.var2)
        self.fv = _merged(self.bound.fv, body)


# ---------------------------------------------------------------------------
# Sugar builders

def rotation(basis: Basis, phase: Phase) -> Term:
    """rotB^a  :=  B^a x:1. x (rotations act on single qubits)"""
    return Abs(basis, phase, "_r", Numeral(1), Var("_r"))


def compose(m: Term, n: Term, basis: Basis = Basis.Z) -> Term:
    """M o N  :=  B^0 x. M (N x); the basis is semantically irrelevant for
    the linearly used x (asserted in tests), fixed to Z by default. x is not
    free in M or N, so it captures nothing."""
    x = "_c"
    if x in m.fv or x in n.fv:
        x = _freshen(x, m.fv.keys() | n.fv.keys())
    return Abs(basis, Phase.zero(), x, None, App(m, App(n, Var(x))))


@functools.cache
def hadamard_term() -> Term:
    """H  :=  rotZ^{pi/2} o rotX^{pi/2} o rotZ^{pi/2}. Built once: every
    call returns the same immutable term, so each H a parse reads is one
    object, which inference, translation and evaluation each handle once
    per process, on first use."""
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
    # a Let: Gen and Unit have no free variables, so the first test
    # returned them
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


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution term[name := replacement]."""
    return _subst(term, {name: replacement})


def rename_free_occurrences(term: Term, name: str, names: list[str]) -> Term:
    """Replace the k free occurrences of `name`, left to right, with the k
    given fresh names. Used to make contraction explicit."""
    if term.fv.get(name, 0) != len(names):
        raise ValueError(f"expected {len(names)} occurrences of {name}")
    return _renamed(term, name, iter(names))


def _renamed(t: Term, name: str, fresh) -> Term:
    """t with each free occurrence of name, left to right, replaced by the
    next name of the iterator fresh."""
    if name not in t.fv:
        return t
    if isinstance(t, Var):
        return Var(next(fresh))
    if isinstance(t, Abs):
        body = _renamed(t.body, name, fresh)
        return Abs(t.basis, t.phase, t.var, t.annotation, body, t.is_lambda)
    if isinstance(t, App):
        return App(_renamed(t.fn, name, fresh), _renamed(t.arg, name, fresh))
    if isinstance(t, Tup):
        return Tup(_renamed(t.left, name, fresh), _renamed(t.right, name, fresh))
    # a Let: Gen and Unit have no free variables, so the first test
    # returned them
    bound = _renamed(t.bound, name, fresh)
    body = t.body if name in (t.var1, t.var2) else _renamed(t.body, name, fresh)
    return Let(t.basis, t.var1, t.var2, t.annotation1, t.annotation2, bound, body)


def alpha_eq(t1: Term, t2: Term) -> bool:
    """Equality up to renaming of bound variables. Phases compare by
    normalized value; the lambda-obligation flag is ignored."""
    return _alpha_eq(t1, t2, {}, {}, 0)


def _alpha_eq(a: Term, b: Term, env1: dict, env2: dict, depth: int) -> bool:
    """`alpha_eq` under environments mapping each bound name to its binder's
    depth."""
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
        return _alpha_eq(a.body, b.body, e1, e2, depth + 1)
    if isinstance(a, App):
        return (_alpha_eq(a.fn, b.fn, env1, env2, depth)
                and _alpha_eq(a.arg, b.arg, env1, env2, depth))
    if isinstance(a, Tup):
        return (_alpha_eq(a.left, b.left, env1, env2, depth)
                and _alpha_eq(a.right, b.right, env1, env2, depth))
    if isinstance(a, Let):
        if a.basis != b.basis or not _alpha_eq(a.bound, b.bound, env1, env2, depth):
            return False
        e1 = {**env1, a.var1: depth, a.var2: depth + 1}
        e2 = {**env2, b.var1: depth, b.var2: depth + 1}
        return _alpha_eq(a.body, b.body, e1, e2, depth + 2)
    return False


# ---------------------------------------------------------------------------
# Concrete syntax

# a keyword or punctuation lexeme is its own kind
_KINDS = {k: k for k in ("Z", "X", "H", "rot", "let", "in", "o", "rad", "pi",
                         *r"<>,.:^[]*\/=()'-")}
_IDENT_START = frozenset(string.ascii_letters + "_")

# one match per token, with the whitespace before it: a number, an
# identifier, a punctuation character, or any other character
_TOKEN_RE = re.compile(
    r"\s*(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z_][A-Za-z0-9_']*|[<>,.:^\[\]*\\/=()'-]|\S)"
)


def _line_col(text: str, index: int) -> tuple[int, int]:
    """1-based line and column of the start of token `index` of text, or of
    the end of text for its end token; found by lexing text again."""
    offset = len(text)
    for i, m in enumerate(_TOKEN_RE.finditer(text)):
        if i == index:
            offset = m.start(1)
            break
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> tuple[list[str], list[str]]:
    """Kinds ('num', 'ident', keyword or punctuation text, 'eof') and texts
    of the tokens of text."""
    texts = _TOKEN_RE.findall(text)
    kinds = []
    for i, lexeme in enumerate(texts):
        kind = _KINDS.get(lexeme)
        if kind is None:
            # `isdecimal` is what `\d` matches
            if lexeme[0].isdecimal():
                kind = "num"
            elif lexeme[0] in _IDENT_START:
                kind = "ident"
            else:
                raise ParseError(f"unexpected character {lexeme!r}", *_line_col(text, i))
        kinds.append(kind)
    kinds.append("eof")
    texts.append("")
    return kinds, texts


_ATOM_START = {"*", "ident", "Z", "X", "H", "rot", "let", "<", "(", "\\"}
# what opens a construct that holds a term; so does a Z or X not followed by "["
_OPENERS = {"<", "(", "\\", "let"}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.kinds, self.texts = _tokenize(text)
        self.pos = 0

    def next(self) -> str:
        # callers step only past a token whose kind they have read, never the end
        self.pos += 1
        return self.texts[self.pos - 1]

    def expect(self, kind: str) -> str:
        if self.kinds[self.pos] != kind:
            self.error(f"expected {kind!r}, found {self.texts[self.pos] or 'end of input'!r}")
        return self.next()

    def error(self, message: str, pos: Optional[int] = None):
        """Raise at the token at pos, the current one by default."""
        raise ParseError(message, *_line_col(self.text, self.pos if pos is None else pos))

    def end(self):
        if self.kinds[self.pos] != "eof":
            self.error(f"unexpected trailing input {self.texts[self.pos]!r}")

    def term(self) -> Term:
        """term := app ("o" app)*, right-associative; app := atom atom*.
        One loop: each open construct (see `open_`) is pushed with the parts
        and application head of the term it sits in, so no Python frame is
        used per nesting level."""
        kinds = self.kinds
        stack = []
        parts, head = [], None
        while True:
            kind = kinds[self.pos]
            if kind in _OPENERS or kind in ("Z", "X") and kinds[self.pos + 1] != "[":
                stack.append((*self.open_(kind), parts, head))
                parts, head = [], None
                continue
            atom = self.atom()
            while True:
                head = atom if head is None else App(head, atom)
                kind = kinds[self.pos]
                if kind in _ATOM_START:
                    break
                if kind == "o":
                    self.pos += 1
                    parts.append(head)
                    head = None
                    break
                t = head
                for part in reversed(parts):
                    t = compose(part, t)
                if not stack:
                    return t
                what, data, parts, head = stack.pop()
                # a tuple or let reads its second term; any other construct
                # is now complete, and is the next atom
                if what == "<":
                    self.expect(",")
                    stack.append((">", t, parts, head))
                    parts, head = [], None
                    break
                if what == "let":
                    self.expect("in")
                    stack.append(("in", (*data, t), parts, head))
                    parts, head = [], None
                    break
                if what == ">":
                    self.expect(">")
                    atom = Tup(data, t)
                elif what == "(":
                    self.expect(")")
                    atom = t
                elif what == "\\":
                    atom = lam(data[0], t, data[1])
                elif what == "in":
                    atom = Let(*data, t)
                else:
                    atom = Abs(*data, t)

    def open_(self, kind: str) -> tuple:
        """Read a tuple, parenthesis, binder or `let` up to the start of its
        first term; return what `term` pushes for it."""
        self.pos += 1
        if kind == "<" or kind == "(":
            return kind, None
        if kind == "\\":
            var = self.expect("ident")
            ann = self.annotation()
            self.expect(".")
            return kind, (var, ann)
        if kind == "let":
            self.expect("<")
            v1 = self.expect("ident")
            a1 = self.annotation()
            self.expect(",")
            v2 = self.expect("ident")
            a2 = self.annotation()
            self.expect(">")
            self.expect("=")
            return kind, (self.basis(), v1, v2, a1, a2)
        phase = Phase.zero()
        if self.kinds[self.pos] == "^":
            self.pos += 1
            phase = self.phase()
        var = self.expect("ident")
        ann = self.annotation()
        self.expect(".")
        return "binder", (Basis(kind), phase, var, ann)

    def atom(self) -> Term:
        """An atom that holds no term; a Z or X here is followed by "["."""
        kind = self.kinds[self.pos]
        if kind == "ident":
            return Var(self.next())
        if kind == "*":
            self.pos += 1
            return Unit()
        if kind == "H":
            self.pos += 1
            return hadamard_term()
        if kind == "rot":
            self.pos += 1
            basis = self.basis()
            self.expect("^")
            return rotation(basis, self.phase())
        if kind in ("Z", "X"):
            self.pos += 1
            self.expect("[")
            n = self.int_()
            self.expect("]")
            phase = Phase.zero()
            if self.kinds[self.pos] == "^":
                self.pos += 1
                phase = self.phase()
            return Gen(Basis(kind), phase, n)
        self.error(f"expected a term, found {self.texts[self.pos] or 'end of input'!r}")

    def basis(self) -> Basis:
        kind = self.kinds[self.pos]
        if kind not in ("Z", "X"):
            self.error("expected basis Z or X")
        self.pos += 1
        return Basis(kind)

    def annotation(self) -> Optional[Type]:
        if self.kinds[self.pos] != ":":
            return None
        self.pos += 1
        return self.type_()

    # type := tensor ("->" type)? ; tensor := factor ("*" factor)* ;
    # factor := nat "'"* | "(" type ")" "'"*. Recursive: types nest shallowly.

    def type_(self) -> Type:
        t = self.type_tensor()
        # the arrow is lexed as '-' '>'; a '-' is never the last token, eof is
        if self.kinds[self.pos] == "-" and self.kinds[self.pos + 1] == ">":
            self.pos += 2
            return Fn(t, self.type_())
        return t

    def type_tensor(self) -> Type:
        t = self.type_factor()
        while self.kinds[self.pos] == "*":
            self.pos += 1
            t = Tensor(t, self.type_factor())
        return t

    def type_factor(self) -> Type:
        kind = self.kinds[self.pos]
        if kind == "num":
            t = Numeral(self.int_())
        elif kind == "(":
            self.pos += 1
            t = self.type_()
            self.expect(")")
        else:
            self.error("expected a type")
        while self.kinds[self.pos] == "'":
            self.pos += 1
            t = Dual(t)
        return t

    def int_(self) -> int:
        neg = self.kinds[self.pos] == "-"
        if neg:
            self.pos += 1
        at = self.pos
        text = self.expect("num")
        if "." in text or "e" in text or "E" in text:
            self.error("expected an integer", at)
        try:
            n = int(text)
        except ValueError:  # past sys.get_int_max_str_digits()
            self.error(f"integer of {len(text)} digits is too long", at)
        return -n if neg else n

    def phase(self) -> Phase:
        neg = self.kinds[self.pos] == "-"
        if neg:
            self.pos += 1
        kind = self.kinds[self.pos]
        if kind == "rad":
            self.pos += 1
            self.expect("(")
            at = self.pos
            num = self.expect("num")
            self.expect(")")
            value = float(num)
            if not math.isfinite(value):
                self.error(f"phase rad({num}) is not finite", at)
            return Phase.radians(-value if neg else value)
        if kind == "pi":
            self.pos += 1
            return Phase.exact(-1 if neg else 1, self.opt_den())
        if kind == "num":
            n = self.int_()
            if self.kinds[self.pos] == "pi":
                self.pos += 1
                return Phase.exact(-n if neg else n, self.opt_den())
            if n != 0:
                self.error("a bare integer phase must be 0 (use `pi` forms or rad(...))")
            return Phase.zero()
        self.error("expected a phase")

    def opt_den(self) -> int:
        if self.kinds[self.pos] != "/":
            return 1
        self.pos += 1
        at = self.pos
        den = self.int_()
        if den <= 0:
            self.error("phase denominator must be positive", at)
        return den


def parse(text: str) -> Term:
    """Parse a term; all sugar is expanded."""
    parser = _Parser(text)
    t = parser.term()
    parser.end()
    return t


def parse_type(text: str) -> Type:
    parser = _Parser(text)
    t = parser.type_()
    parser.end()
    return t


# what prints as an atom with no parentheses around it
_BARE = (Unit, Var, Gen, Tup)


def print_term(term: Term) -> str:
    """Concrete syntax; parse(print_term(t)) is alpha-equivalent to t.
    Sugar is not reintroduced (lambda obligations print as Z-binders).
    One loop over an explicit stack of the terms and text still to print,
    so, as with `parse`, no Python frame is used per nesting level."""

    def atom(t: Term) -> tuple:
        return (t,) if isinstance(t, _BARE) else ("(", t, ")")

    out: list[str] = []
    todo: list = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, Unit):
            out.append("*")
        elif isinstance(t, Var):
            out.append(t.name)
        elif isinstance(t, Gen):
            head = f"{t.basis}[{t.n}]"
            out.append(head if t.phase.is_zero else f"{head}^{t.phase}")
        elif isinstance(t, Abs):
            head = str(t.basis) if t.phase.is_zero else f"{t.basis}^{t.phase}"
            ann = f":{print_type(t.annotation)}" if t.annotation is not None else ""
            todo += [t.body, f"{head} {t.var}{ann}. "]
        elif isinstance(t, App):
            fn = (t.fn,) if isinstance(t.fn, (App, *_BARE)) else ("(", t.fn, ")")
            todo += reversed((*fn, " ", *atom(t.arg)))
        elif isinstance(t, Tup):
            todo += [">", t.right, ", ", t.left, "<"]
        elif isinstance(t, Let):
            a1 = f":{print_type(t.annotation1)}" if t.annotation1 is not None else ""
            a2 = f":{print_type(t.annotation2)}" if t.annotation2 is not None else ""
            head = f"let <{t.var1}{a1}, {t.var2}{a2}> = {t.basis} "
            todo += reversed((head, *atom(t.bound), " in ", t.body))
        else:
            raise TypeError(f"not a term: {t!r}")
    return "".join(out)
