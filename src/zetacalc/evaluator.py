"""Dense complex-matrix semantics of diagrams, and an independent oracle.

`denote` makes one walk over the diagram (wire 0 = most significant qubit).
Each node is applied to a running tensor t of shape (L, 2^inputs, R): the
node's input wires sit in the middle axis, and the L * R columns around it
are wires (and identity columns) that flow past. An Id is skipped, a Perm
is one transpose of the wire axes, and a Had is one matmul with its 2x2
matrix. A spider, a cup or cap among them, has no matrix: it is applied to
t by its structure. An m -> n Z spider writes the two nonzero rows of a
zeroed (L, 2^n, R) result, row 0 from t's row 0 and the last row from e^{ia}
times t's last row (one row of t when m is 0); when n is 0 the result is
one row, the sum of the two. An X spider folds t's rows into two (L, 1, R)
slabs, u0 = sum_j t_j and u1 = e^{ia} sum_j (-1)^popcount(j) t_j, scaled by
2^(-(m+n)/2), and writes its result's rows 0 and 1 as u0 + u1 and u0 - u1;
rows [2^b, 2^(b+1)) repeat rows [0, 2^b) with rows 2k, 2k+1 swapped, as
i + 2^b has one more set bit than i. No array it makes is larger than t or
its result. A Seq applies its parts in order, and a Par
applies each non-Id factor to its own wires, factors that shrink the wire
count first. A Par, and a Seq that is not itself a Seq part, is evaluated
on whichever is fewer, the L * R columns flowing into it or its own
2^inputs identity; in the second case its matrix is then applied to the
running tensor with one matmul. So no sub-diagram is widened by wires it
does not touch, and none is evaluated on more columns than its own
identity. No normalization is applied anywhere: the cup, the phase-0 Z
spider 0 -> 2, denotes |00> + |11> with unit entries. `spider_matrix`
writes a spider's dense matrix entry by entry, the reference the kernels
are tested against.

The one matrix the walk reuses is that of the body `translate` shares for
`H`, evaluated once per process on first use and matched by identity at
every node. That body is one matmul wherever it stands, as a Seq part, a
Par factor or the whole diagram (`H` x 20 as a map takes 20 matmuls, not
60). Any other repeated Seq or Par is walked at each occurrence, as in a
copy that shares no node; `translate` repeats none.

`denote(d, budget)` raises WireBudgetError before it would create an array
of more than 2^budget entries (the starting identity, a Had's matrix, a
spider's result, or a product with the running tensor), so the budget
counts the legs of the largest tensor the walk holds, not the width of the
diagram. Each gate compares leg counts, so no power of two is formed
before its test, however large the arity or the budget. A spider costs its
result and nothing more, and `H`'s matrix is one matmul onto the running
tensor: neither holds an array that building the spider's matrix or
walking `H`'s body would not, so both can only remove a refusal.

`scalar_fit` fits one matrix to the other up to a scalar, giving the witness
and the deviation from one walk over both in blocks of _FIT_BLOCK entries in
row-major order; no temporary it makes is larger than a block. A matrix
fitted to itself is walked once, for its largest entry.

`oracle_contract` evaluates the same diagram by a disjoint route: its
`factor_graph`, a graph over bits read in one `diagram.thread` walk that
carries a variable per wire. A Z spider is one variable shared by all its
legs, with the weight (1, e^{ia}): a new variable, which its input wires'
variables are united with (a small union-find) and its outputs carry. An X
spider is a new variable with the factor H~ = [[1, 1], [1, -1]] / sqrt(2)
on each leg, and a Had is one H~. `thread` passes an Id's variables
through and routes a Perm's. A scalar, a 0 -> 0 spider, is a variable on
no wire, summed out to 1 + e^{ia}. The boundary is the outputs, then the
inputs; a variable that reaches a second boundary position is tied there
to a fresh one by a 2x2 identity. Every other variable is summed out in
the order the walk made it, with one np.einsum (at most 30 operands at a
time) over the factors that hold it; every one is held, by its spider's
weight or an H~. The factors left are multiplied over the boundary. The
elimination is planned on the variable sets first, and WireBudgetError is
raised before any einsum when the result or a tensor the plan holds has
more than WIRE_BUDGET legs, in `denote`'s units and the CLI's default; the
gate is fixed, as no command calls the oracle.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
import sys
from typing import Optional, Union

import numpy as np

from .diagram import (
    Diagram,
    DiagramError,
    Had,
    Id,
    Par,
    Perm,
    Seq,
    Spider,
    thread,
)
from .semantics import _hadamard as _hadamard_body
from .syntax import Basis, Phase, ZetaError

SQRT2 = math.sqrt(2.0)

WIRE_BUDGET = 14
DEFAULT_TOL = 1e-9  # of every comparison: `compare`, the rule suite and --tol

# the most legs of one complex128 array: 2^legs entries, at most sys.maxsize bytes
_ADDRESSABLE = (sys.maxsize // 16).bit_length() - 1


class EvalError(ZetaError):
    pass


class WireBudgetError(EvalError):
    pass


_QUARTER_TURNS = (1 + 0j, 1j, -1 + 0j, -1j)


def phase_exp(p: Phase) -> complex:
    """e^{i p}; exact on multiples of pi/2 so those identities hold exactly."""
    q = p.pi_multiple
    if q is not None and q.denominator <= 2:
        # q is in [0, 2), so this counts quarter turns 0..3
        return _QUARTER_TURNS[q.numerator * (2 // q.denominator)]
    return cmath.exp(1j * p.value)


def spider_matrix(basis: Basis, phase: Phase, m: int, n: int) -> np.ndarray:
    """The 2^n x 2^m matrix |b0..b0><b0..b0| + e^{i phase} |b1..b1><b1..b1|
    of an m -> n spider in basis b, written entry by entry."""
    w = phase_exp(phase)
    if basis is Basis.Z:
        out = np.zeros((2**n, 2**m), dtype=complex)
        out[0, 0] = 1.0
        out[-1, -1] += w
        return out
    # entry (i, j) of |+..+><+..+| is 2^(-k/2) and of |-..-><-..-| is
    # (-1)^popcount(i 2^m + j) 2^(-k/2); index i + 2^b (i < 2^b) has one more
    # set bit than i, so the sign flips
    k = m + n
    signs = np.ones(2**k)
    for b in range(k):
        signs[2**b : 2 ** (b + 1)] = -signs[: 2**b]
    return ((1.0 + w * signs) * 2.0 ** (-k / 2)).reshape(2**n, 2**m)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2


def denote(d: Diagram, budget: Optional[int] = None) -> np.ndarray:
    """Dense denotation: a 2^outputs x 2^inputs complex matrix, each spider
    applied by its structure (see the module docstring). Raises
    WireBudgetError instead of creating an array of more than 2^budget
    entries (no bound when budget is None), and MemoryError instead of one
    too large for the machine to address."""
    _fits(2 * d.inputs, budget)
    n = 1 << d.inputs
    return _apply(d, _identity(n), _hadamard(), budget).reshape(-1, n)


@functools.cache
def _hadamard() -> tuple[Diagram, np.ndarray]:
    """The body `translate` shares for `H`, and its matrix, read-only: one
    unbounded walk on the body's own identity, made on first use, so
    importing builds nothing."""
    body = _hadamard_body()[1]
    m = _apply(body, _identity(2**body.inputs), (None, None), None)[0]
    m.setflags(write=False)
    return body, m


def _fits(legs: int, budget: Optional[int]) -> None:
    """Raise unless a tensor of `legs` legs may be made: WireBudgetError
    past the budget, MemoryError past _ADDRESSABLE legs when the budget is
    None or higher. Legs are compared, so no power of two is formed."""
    if budget is None or budget > _ADDRESSABLE:
        if legs > _ADDRESSABLE:
            raise MemoryError(f"a {legs}-leg tensor is too large to address")
    elif legs > budget:
        raise WireBudgetError(
            f"evaluation needs a tensor of {legs} legs, over the {budget}-leg wire budget"
        )


def _identity(n: int) -> np.ndarray:
    """The n x n identity as a (1, n, n) tensor: zeros and a strided
    diagonal, with none of np.eye's scratch."""
    e = np.zeros((1, n, n), dtype=complex)
    e.reshape(-1)[:: n + 1] = 1
    return e


def _par_factors(d: Diagram) -> list:
    """The factors of a Par tree, top to bottom."""
    factors, todo = [], [d]
    while todo:
        node = todo.pop()
        if isinstance(node, Par):
            todo.append(node.bottom)
            todo.append(node.top)
        else:
            factors.append(node)
    return factors


def _fold(t: np.ndarray, combine, k: int) -> np.ndarray:
    """Combine the two halves of t's middle axis, k times: with np.add, the
    sum of t's 2^k rows; with np.subtract, their sum with sign
    (-1)^popcount(j), as rows j and j + 2^(k-1) differ by one set bit."""
    for _ in range(k):
        half = t.shape[1] // 2
        t = combine(t[:, :half], t[:, half:])
    return t


def _apply_spider(p: Spider, t: np.ndarray, budget) -> np.ndarray:
    """Apply the m -> n spider p to t, of shape (L, 2^m, R), by its
    structure; the result has shape (L, 2^n, R), and no array made is
    larger than t or the result."""
    L, _, R = t.shape
    _fits((L * R).bit_length() - 1 + p.n, budget)
    w = phase_exp(p.phase)
    if p.basis is Basis.Z:
        if not p.n:
            # one result row, where the two terms add up
            return np.add(t[:, :1], np.multiply(w, t[:, -1:]))
        out = np.zeros((L, 2**p.n, R), dtype=complex)
        out[:, 0] = t[:, 0]
        np.multiply(w, t[:, -1], out=out[:, -1])
        return out
    # rows 0 and 1, then rows [2^b, 2^(b+1)): rows [0, 2^b), 2k and 2k+1 swapped
    scale = 2.0 ** (-(p.m + p.n) / 2)
    u0 = np.multiply(scale, _fold(t, np.add, p.m))
    u1 = np.multiply(scale * w, _fold(t, np.subtract, p.m))
    out = np.empty((L, 2**p.n, R), dtype=complex)
    np.add(u0, u1, out=out[:, :1])
    np.subtract(u0, u1, out=out[:, 1:2])
    for b in range(p.n - 1):
        pairs = out.reshape(L, -1, 2, R)
        pairs[:, 2**b : 2 ** (b + 1)] = pairs[:, : 2**b, ::-1]
    return out


def _apply(d: Diagram, t: np.ndarray, h: tuple, budget) -> np.ndarray:
    """Apply d to t, of shape (L, 2^d.inputs, R); the result has shape
    (L, 2^d.outputs, R). The walk keeps its own stack of the nodes left to
    apply: a nested Seq part is put back on it as its two parts, so deep
    Seq trees do not hit the recursion limit. A spider is applied to t by
    `_apply_spider`, and a Had is one matmul with its matrix.
    h is `H`'s (body, matrix), or (None, None) while that matrix is being
    made: a node that is that body is one matmul with the matrix. A Par,
    and d itself when it is a Seq, runs on whichever is fewer, the L * R
    columns of t or its own 2^inputs identity (then one matmul onto t). No
    array of more than 2^budget entries is created."""
    L, _, R = t.shape
    cols = (L * R).bit_length() - 1  # legs of the columns flowing past
    todo = [d]
    while todo:
        p = todo.pop()
        if isinstance(p, Id):
            continue
        if isinstance(p, Perm):
            k = p.inputs
            t = t.reshape((L,) + (2,) * k + (R,))
            t = t.transpose([0, *p.route(range(1, k + 1)), k + 1]).reshape(L, 2**k, R)
            continue
        if isinstance(p, Spider):
            t = _apply_spider(p, t, budget)
            continue
        if p is h[0]:
            m = h[1]
        elif not isinstance(p, (Seq, Par)):
            if not isinstance(p, Had):
                raise DiagramError(f"not a diagram: {p!r}")
            _fits(2, budget)
            m = HADAMARD
        elif p.inputs < cols and (p is d or isinstance(p, Par)):
            m = _apply(p, _identity(2**p.inputs), h, budget)[0]
        elif isinstance(p, Seq):
            todo += [p.second, p.first]
            continue
        else:
            # each non-Id factor acts on its own wires, shrinking ones
            # first, so no intermediate has more rows than t or the result
            factors = _par_factors(p)
            widths = [f.inputs for f in factors]
            order = sorted(
                (i for i, f in enumerate(factors) if not isinstance(f, Id)),
                key=lambda i: factors[i].outputs - factors[i].inputs,
            )
            for i in order:
                f = factors[i]
                left, right = sum(widths[:i]), sum(widths[i + 1 :])
                t = t.reshape(L * 2**left, 2**f.inputs, 2**right * R)
                spider = isinstance(f, Spider)
                t = _apply_spider(f, t, budget) if spider else _apply(f, t, h, budget)
                t = t.reshape(L, -1, R)
                widths[i] = f.outputs
            continue
        _fits(cols + p.outputs, budget)
        t = np.matmul(m, t)
    return t


# ---------------------------------------------------------------------------
# Scalar-insensitive comparison


class _BothZero:
    def __repr__(self):
        return "BOTH_ZERO"


BOTH_ZERO = _BothZero()

ScalarWitness = Union[complex, _BothZero, None]


# entries per block of the scalar fit, which holds no full-size temporary
_FIT_BLOCK = 2**10


def _blocks(x: np.ndarray):
    """x's entries in row-major order: x itself when it fills one block,
    else _FIT_BLOCK at a time, views of a C-contiguous x and small copies
    of any other (none when x is empty)."""
    if 0 < x.size <= _FIT_BLOCK:
        return (x,)
    flat = np.ravel(x) if x.flags.c_contiguous else x.flat
    return (flat[i : i + _FIT_BLOCK] for i in range(0, x.size, _FIT_BLOCK))


def _gives_way(top, x) -> bool:
    """Whether the running maximum top gives way to x: x is larger or NaN
    and top is not NaN yet, so the first NaN wins, as in max and argmax."""
    return not x <= top and top == top


def _largest(x: np.ndarray) -> tuple:
    """The flat index of x's first largest-magnitude entry (its first NaN,
    if any) and that magnitude; argmax, as it is cheaper than max."""
    mags = np.abs(x)
    j = mags.argmax()
    return j, mags.item(j)


def _peak(x: np.ndarray) -> tuple:
    """The flat index of x's first largest-magnitude entry in row-major
    order (its first NaN, if any) and that magnitude; (0, 0.0) when x is
    empty."""
    k, top, start = 0, 0.0, 0
    for y in _blocks(x):
        j, m = _largest(y)
        if _gives_way(top, m):
            k, top = start + j, m
        start += _FIT_BLOCK
    return k, top


def _max_abs(x: np.ndarray) -> float:
    """max|x|, 0.0 when x is empty."""
    return float(_peak(x)[1])


# the dtypes the scalar fit reads as they are
_AS_IS = (np.dtype(complex), np.dtype(float))


def _inexact(x) -> np.ndarray:
    """x as a complex128 or float64 array: one of any other dtype (ints,
    whose np.abs can overflow, or other float widths) is copied to complex."""
    x = np.asarray(x)
    return x if x.dtype in _AS_IS else x.astype(complex)


def _quotient(a: np.ndarray, b: np.ndarray, k: int):
    """a/b at flat index k, as a complex quotient."""
    c = a.flat[k] / b.flat[k]
    if isinstance(c, np.floating):
        # numpy's complex quotient, which rounds otherwise than a real one
        c = np.complex128(a.flat[k]) / b.flat[k]
    return c


def _fit(a: np.ndarray, b: np.ndarray):
    """The scalar fit of a to b: c = a/b at b's first largest-magnitude
    entry in row-major order, that magnitude, and max|a - c*b|. Both are
    walked block by block, each block's temporaries freed before the next
    block's are made, so none is larger than a block. Real blocks are not
    converted: c is a complex quotient, so each product with it is complex
    and gives the values of complex copies. When b vanishes, c is None and
    the deviation is max|a|. Raises EvalError unless a and b have one
    shape."""
    if a.shape != b.shape:
        raise EvalError(f"shape mismatch: {a.shape} vs {b.shape}")
    k, bmax = _peak(b)
    if not bmax:
        return None, 0.0, _max_abs(a)
    c = _quotient(a, b, k)
    deviation = 0.0
    for x, y in zip(_blocks(a), _blocks(b)):
        rest = c * y
        np.subtract(x, rest, out=rest)
        d = _largest(rest)[1]
        del rest
        if _gives_way(deviation, d):
            deviation = d
    return c, bmax, float(deviation)


def _self_fit(a: np.ndarray):
    """`_fit(a, a)` from one walk over a: when the quotient at a's largest
    entry rounds to 1, c*a is a exactly and nothing is left over. None when
    it does not round to 1 (a NaN or infinite entry, or a peak such as 49.0
    whose x/x rounds below 1), and then only `_fit` gives the deviation."""
    k, amax = _peak(a)
    if not amax:
        return None, 0.0, 0.0
    c = _quotient(a, a, k)
    return (c, amax, 0.0) if c == 1 else None


def scalar_fit(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> tuple:
    """(witness, max|a - c*b|) from one `_fit`, c = a/b at b's largest entry:
    the witness is c if nonzero within tol, BOTH_ZERO if both vanish, else
    None. A matrix fitted to itself (a is b) is walked once by `_self_fit`,
    with the values `_fit` gives."""
    same = a is b
    a = _inexact(a)
    b = a if same else _inexact(b)
    fit = _self_fit(a) if same else None
    c, bmax, deviation = fit or _fit(a, b)
    if bmax <= tol:
        # max|a|, which _fit has taken already when b vanishes, and which
        # is bmax when a is b
        amax = deviation if c is None else bmax if same else _max_abs(a)
        return (BOTH_ZERO if amax <= tol else None), deviation
    return (complex(c) if c != 0 and deviation <= tol else None), deviation


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> ScalarWitness:
    """`scalar_fit`'s witness: c, BOTH_ZERO or None."""
    return scalar_fit(a, b, tol)[0]


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """`scalar_fit`'s deviation, max|a - c*b| (for reports)."""
    return scalar_fit(a, b)[1]


# ---------------------------------------------------------------------------
# Independent contraction oracle

# H~, the Hadamard as a factor between two bit variables
_HT = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2

# operands per np.einsum call, under numpy's limit (32 before numpy 2)
_OPERANDS = 30


def factor_graph(d: Diagram) -> tuple[list, list[int], list[int]]:
    """The diagram as a factor graph over bits (see the module docstring):
    the factors, each as (variables, tensor); the boundary variables, the
    outputs, then the inputs, each once, with their 2x2 identity ties among
    the factors; and the inner variables, in the order they were made."""
    parent: list[int] = []

    def new() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    factors: list[tuple[list[int], np.ndarray]] = []

    def leaf(node: Diagram, legs: list[int]) -> list[int]:
        if isinstance(node, Spider):
            v = new()
            factors.append(([v], np.array([1.0, phase_exp(node.phase)])))
            if node.basis is Basis.Z:
                for w in legs:
                    parent[find(w)] = v
                return [v] * node.n
            out = [new() for _ in range(node.n)]
            factors.extend(([w, v], _HT) for w in legs + out)
            return out
        if isinstance(node, Had):
            out = [new()]
            factors.append((out + legs, _HT))
            return out
        raise DiagramError(f"not a diagram: {node!r}")

    ins = [new() for _ in range(d.inputs)]
    boundary: dict[int, None] = {}
    for v in map(find, thread(d, ins, leaf) + ins):
        if v in boundary:
            factors.append(([v, new()], np.eye(2, dtype=complex)))
            v = len(parent) - 1
        boundary[v] = None
    inner = [v for v in range(len(parent)) if parent[v] == v and v not in boundary]
    return [([find(u) for u in a], t) for a, t in factors], list(boundary), inner


def oracle_contract(d: Diagram) -> np.ndarray:
    """Evaluate the diagram's `factor_graph`, summing out its inner
    variables one at a time (see the module docstring). Independent of
    `denote`. Raises WireBudgetError, before any contraction, when the
    result or a tensor the elimination holds has more than WIRE_BUDGET legs."""
    factors, boundary, inner = factor_graph(d)
    # so the last product has an operand
    factors.insert(0, ([], np.ones((), dtype=complex)))
    axes = [a for a, _ in factors]
    steps: list[tuple[list[int], list[int]]] = []

    def join(ids: list[int], drop: Optional[int]) -> int:
        """Plan einsums over factors `ids`, summing out `drop`, at most
        _OPERANDS at a time; the index of the result."""
        while True:
            part, ids = ids[:_OPERANDS], ids[_OPERANDS:]
            held = dict.fromkeys(u for i in part for u in axes[i])
            steps.append((part, [u for u in held if ids or u != drop]))
            axes.append(steps[-1][1])
            if not ids:
                return len(axes) - 1
            ids = [len(axes) - 1] + ids

    holders: dict[int, list[int]] = {}
    for i, a in enumerate(axes):
        for u in set(a):
            holders.setdefault(u, []).append(i)
    live = set(range(len(axes)))
    for v in inner:
        group = [i for i in holders[v] if i in live]
        live.difference_update(group)
        live.add(join(group, v))
        for u in axes[-1]:
            holders.setdefault(u, []).append(len(axes) - 1)
    join(sorted(live), None)
    _fits(max(len(set(a)) for a in axes), WIRE_BUDGET)
    tensors = [t for _, t in factors]
    for part, out in steps:
        label = {u: k for k, u in enumerate(dict.fromkeys(u for i in part for u in axes[i]))}
        operands = []
        for i in part:
            operands += [tensors[i], [label[u] for u in axes[i]]]
            tensors[i] = None
        tensors.append(np.einsum(*operands, [label[u] for u in out]))
    result = tensors[-1].transpose([axes[-1].index(v) for v in boundary])
    return result.reshape(2**d.outputs, 2**d.inputs)


# ---------------------------------------------------------------------------
# Matrix serialization


def _check_matrix(m: np.ndarray) -> np.ndarray:
    """m, once each of its dimensions is a power of two and each entry
    finite, the rules of a matrix document on write and on read; raises
    EvalError otherwise."""
    for dim in m.shape:
        if dim & (dim - 1):
            raise EvalError(f"matrix dimension {dim} is not a power of two")
    if not np.isfinite(m).all():
        raise EvalError("matrix entries must be finite")
    return m


def matrix_to_json_obj(m: np.ndarray) -> dict:
    m = _check_matrix(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"shape": [rows, cols], "entries": entries}


def matrix_to_json(m: np.ndarray) -> str:
    return json.dumps(matrix_to_json_obj(m))


def matrix_from_json(text: str) -> np.ndarray:
    """The matrix of a `matrix_to_json` document. Raises EvalError on any
    other text: not JSON, a shape that is not two whole numbers, entries
    that are not [re, im] pairs of numbers (a boolean is none) or not one
    per cell, or a matrix that `_check_matrix` refuses."""
    try:
        doc = json.loads(text)
        rows, cols = doc["shape"]
        pairs = [(re, im) for re, im in doc["entries"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise EvalError(f"not a matrix document: {type(exc).__name__}: {exc}") from exc
    if not all(type(x) is int and x >= 0 for x in (rows, cols)):
        raise EvalError(f"matrix shape {[rows, cols]} is not two whole numbers")
    if not all(type(x) in (int, float) for pair in pairs for x in pair):
        raise EvalError("matrix entries must be [re, im] pairs of numbers")
    if len(pairs) != rows * cols:
        raise EvalError(f"{len(pairs)} entries for a {rows}x{cols} matrix")
    try:
        m = np.array(pairs, dtype=float).reshape(-1, 2).view(complex)
    except OverflowError as exc:
        raise EvalError(f"matrix entry out of range: {exc}") from exc
    return _check_matrix(m.reshape(rows, cols))


def format_complex(z: complex) -> str:
    """Text rendering `a+bi` with 6 significant digits."""
    re, im = z.real, z.imag
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re:.6g}{sign}{abs(im):.6g}i"


def render_matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    return "\n".join("  ".join(format_complex(z) for z in row) for row in m)
