"""Dense complex-matrix semantics of diagrams, and an independent oracle.

`denote` makes one walk over the diagram (wire 0 = most significant qubit).
Each node is applied to a running tensor of shape (L, 2^inputs, R): the
node's input wires sit in the middle axis, and the L * R columns around it
are wires (and identity columns) that flow past. A generator is one matmul
with its small matrix (an Id is skipped, a Perm is one transpose of the
wire axes), a Seq applies its parts in order, and a Par applies each non-Id
factor to its own wires, factors that shrink the wire count first. A Seq or
Par is evaluated on whichever is fewer, the L * R columns flowing into it
or its own 2^inputs identity; in the second case its matrix is then applied
to the running tensor with one matmul. So no sub-diagram is widened by
wires it does not touch, and none is evaluated on more columns than its own
identity. Leaf matrices are built once per `denote` call, each spider entry
by entry: a Z spider has two nonzero entries, the first and the last, and
an m -> n X spider is (1 + e^{ia} s_out[i] s_in[j]) / 2^((m+n)/2), where
s[i] is (-1)^popcount(i). A repeated sub-diagram is evaluated once per call
too: a nested Seq met again, after once being the second part of a Seq, is
evaluated on its own identity when that has no more columns than the
running tensor, and then it and each later occurrence is one matmul. The
body `translate` shares for `H` is evaluated so once per process, on first
use, and every walk starts with its matrix, so each `H` the walk meets as
a Seq part is one matmul (`H` x 20 as a map takes 20 matmuls, not 60). No
normalization is applied anywhere: the cup denotes |00> + |11| with unit
entries.

`denote(d, budget)` raises WireBudgetError before it would create an array
of more than 2^budget entries (the starting identity, a leaf matrix, or a
product with the running tensor), so the budget counts the legs of the
largest tensor the walk holds, not the width of the diagram. Evaluating a
repeated sub-diagram once can only shrink that tensor: a diagram may fit a
budget that a copy sharing no node exceeds, never the other way round.
So can `H`'s matrix: applying it is one matmul onto the running tensor,
no larger than what walking the body there holds.

`oracle_contract` evaluates the same diagram by a disjoint route: a factor
graph over bits, read in one `generators` walk that keeps a variable per
open wire. A Z spider is one variable shared by all its legs, with the
weight (1, e^{ia}); an X spider is such a variable with the factor
H~ = [[1, 1], [1, -1]] / sqrt(2) on each leg, and a Had is one H~. A Cup
puts one new variable on its two wires and a Cap unites its two wires'
variables (a small union-find); Id and Perm only rename. A scalar, a 0 -> 0
spider, is a variable on no wire, summed out to 1 + e^{ia}. The boundary is
the outputs, then the inputs; a variable that reaches a second boundary
position is tied there to a fresh one by a 2x2 identity. Every other
variable is summed out in the order the walk made it, with one np.einsum
(at most 30 operands at a time) over the factors that hold it; one that no
factor holds, a closed loop, gives 2. The factors left are multiplied over
the boundary. The elimination is planned on the variable sets first, and
WireBudgetError is raised before any einsum when the result or a tensor the
plan holds has more than WIRE_BUDGET legs, the units of `denote`'s budget
and the default the CLI and `theory` use.
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
    Cap,
    Cup,
    Diagram,
    DiagramError,
    Had,
    Id,
    Par,
    Perm,
    Seq,
    Spider,
    generators,
)
from .semantics import _hadamard as _hadamard_body
from .syntax import Basis, Phase, ZetaError

SQRT2 = math.sqrt(2.0)

WIRE_BUDGET = 14
DEFAULT_TOL = 1e-9  # of every comparison: `compare`, the rule suite and --tol

# the most complex128 entries one array can hold: at most sys.maxsize bytes
_ADDRESSABLE = sys.maxsize // 16


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

_CUP = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)


def denote(d: Diagram, budget: Optional[int] = None) -> np.ndarray:
    """Dense denotation: a 2^outputs x 2^inputs complex matrix. Raises
    WireBudgetError instead of creating an array of more than 2^budget
    entries (no bound when budget is None), and MemoryError instead of one
    too large for the machine to address."""
    limit = _ADDRESSABLE if budget is None else min(2**budget, _ADDRESSABLE)
    n = 2**d.inputs
    _fits(n * n, limit)
    body, m = _hadamard()
    return _apply(d, _identity(n), {id(body): m}, set(), limit).reshape(-1, n)


@functools.cache
def _hadamard() -> tuple[Diagram, np.ndarray]:
    """The body `translate` shares for `H`, and its matrix, read-only: one
    unbounded walk on the body's own identity, made on first use, so
    importing builds nothing."""
    body = _hadamard_body()[1]
    m = _apply(body, _identity(2**body.inputs), {}, set(), _ADDRESSABLE)[0]
    m.setflags(write=False)
    return body, m


def _fits(entries: int, limit: int) -> None:
    if entries > limit:
        legs = entries.bit_length() - 1
        if limit == _ADDRESSABLE:
            raise MemoryError(f"a {legs}-leg tensor is too large to address")
        raise WireBudgetError(
            f"evaluation needs a tensor of {legs} legs,"
            f" over the {math.log2(limit):g}-leg wire budget"
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


def _leaf_matrix(d: Diagram) -> np.ndarray:
    if isinstance(d, Spider):
        return spider_matrix(d.basis, d.phase, d.m, d.n)
    if isinstance(d, Had):
        return HADAMARD
    if isinstance(d, Cup):
        return _CUP
    if isinstance(d, Cap):
        return _CUP.T
    raise DiagramError(f"not a diagram: {d!r}")


def _apply(d: Diagram, t: np.ndarray, memo: dict, seen: set, limit) -> np.ndarray:
    """Apply d to t, of shape (L, 2^d.inputs, R); the result has shape
    (L, 2^d.outputs, R). `memo` and `seen` are keyed by node identity (the
    diagram keeps every node alive for the walk, so no id is reused).
    `memo` holds each leaf matrix built so far in this walk, so a repeated
    leaf object is built once, and each repeated Seq's matrix, `H`'s body's
    from the start; `seen` holds the Seqs met as a `second` part (see
    `_apply_seq`). A Seq or Par runs on whichever is fewer, the L * R
    columns of t or its own 2^inputs identity (then one matmul onto t),
    which is smaller than t. No array of more than `limit` entries is
    created."""
    L, _, R = t.shape
    if isinstance(d, Id):
        return t
    if isinstance(d, Perm):
        k = d.inputs
        s = t.reshape((L,) + (2,) * k + (R,))
        return s.transpose([0, *d.route(range(1, k + 1)), k + 1]).reshape(L, 2**k, R)
    if not isinstance(d, (Seq, Par)):
        m = memo.get(id(d))
        if m is None:
            _fits(2 ** (d.inputs + d.outputs), limit)
            m = memo[id(d)] = _leaf_matrix(d)
        _fits(L * m.shape[0] * R, limit)
        return np.matmul(m, t)
    own = 2**d.inputs < L * R
    s = _identity(2**d.inputs) if own else t
    if isinstance(d, Seq):
        s = _apply_seq(d, s, memo, seen, limit)
    else:
        # each non-Id factor acts on its own wires, shrinking ones first,
        # so no intermediate has more rows than s or the result
        factors = _par_factors(d)
        l, _, r = s.shape
        widths = [f.inputs for f in factors]
        order = sorted(
            (i for i, f in enumerate(factors) if not isinstance(f, Id)),
            key=lambda i: factors[i].outputs - factors[i].inputs,
        )
        for i in order:
            f = factors[i]
            left, right = sum(widths[:i]), sum(widths[i + 1 :])
            s = s.reshape(l * 2**left, 2**f.inputs, 2**right * r)
            s = _apply(f, s, memo, seen, limit).reshape(l, -1, r)
            widths[i] = f.outputs
    if not own:
        return s
    _fits(L * s.shape[1] * R, limit)
    return np.matmul(s[0], t)


# tags the end of a repeated Seq's evaluation on `_apply_seq`'s stack
_END = object()


def _apply_seq(d: Seq, s: np.ndarray, memo: dict, seen: set, limit) -> np.ndarray:
    """Apply the parts of the Seq tree d to s, of shape (l, 2^k, r), left
    to right. A nested Seq met as a `second` part is added to `seen`. Met
    again, when its 2^inputs is at most l * r, it is evaluated once on its
    own identity and its matrix memoised, so that occurrence and every
    later one is one matmul. No array that evaluation holds is larger than
    the one the walk would hold in its place, so the memo adds no budget
    refusal. It can remove one: a Seq first walked on few columns and met
    again on more is evaluated there on its own identity, not walked, so a
    walk that would refuse there does not happen. The walk keeps its own
    stack, nested memo evaluations included, so deep Seq trees do not hit
    the recursion limit."""
    # (part, whether it is a second part), or (_END, id, tensor) where the
    # evaluation of a repeated Seq on its own identity ends
    todo: list = [(d.second, True), (d.first, False)]
    while todo:
        entry = todo.pop()
        if entry[0] is _END:
            _, key, outer = entry
            m = memo[key] = s[0]
            s = outer
        else:
            p, second = entry
            key = id(p)
            m = memo.get(key)
            if m is None:
                if not isinstance(p, Seq):
                    s = _apply(p, s, memo, seen, limit)
                    continue
                if key in seen and 2**p.inputs <= s.shape[0] * s.shape[2]:
                    todo.append((_END, key, s))
                    s = _identity(2**p.inputs)
                elif second:
                    seen.add(key)
                todo += [(p.second, True), (p.first, False)]
                continue
        # a built leaf or a repeated Seq: one matmul
        _fits(s.shape[0] * m.shape[0] * s.shape[2], limit)
        s = np.matmul(m, s)
    return s


# ---------------------------------------------------------------------------
# Scalar-insensitive comparison


class _BothZero:
    def __repr__(self):
        return "BOTH_ZERO"


BOTH_ZERO = _BothZero()

ScalarWitness = Union[complex, _BothZero, None]


def _fit(a: np.ndarray, b: np.ndarray):
    """The scalar fit of a to b: c = a/b at b's largest-magnitude entry,
    that magnitude, and max|a - c*b|. When b vanishes, c is None and the
    deviation is max|a|."""
    absb = np.abs(b)
    k = absb.argmax() if b.size else 0
    bmax = absb.flat[k] if b.size else 0.0
    if not bmax:
        return None, 0.0, float(np.abs(a).max()) if a.size else 0.0
    c = a.flat[k] / b.flat[k]
    # a - c*b and its magnitudes, in place
    rest = c * b
    np.subtract(a, rest, out=rest)
    return c, bmax, float(np.abs(rest, out=absb).max())


def equal_up_to_scalar(
    a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL
) -> ScalarWitness:
    """A nonzero c with max|a - c*b| <= tol, BOTH_ZERO if both vanish,
    None otherwise. c is the entry ratio at b's largest-magnitude entry."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise EvalError(f"shape mismatch: {a.shape} vs {b.shape}")
    c, bmax, deviation = _fit(a, b)
    if bmax <= tol:
        amax = np.abs(a).max() if a.size else 0.0
        return BOTH_ZERO if amax <= tol else None
    if c != 0 and deviation <= tol:
        return complex(c)
    return None


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Deviation after the best scalar fit at b's largest entry (for reports)."""
    return _fit(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))[2]


# ---------------------------------------------------------------------------
# Independent contraction oracle

# H~, the Hadamard as a factor between two bit variables
_HT = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2

# operands per np.einsum call, under numpy's limit (32 before numpy 2)
_OPERANDS = 30


def oracle_contract(d: Diagram) -> np.ndarray:
    """Evaluate the diagram as a factor graph over bits (see the module
    docstring), summing out its inner variables one at a time. Independent
    of `denote`. Raises WireBudgetError, before any contraction, when the
    result or a tensor the elimination holds has more than WIRE_BUDGET legs."""
    parent: list[int] = []

    def new() -> int:
        parent.append(len(parent))
        return len(parent) - 1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    factors = [([], np.ones((), dtype=complex))]  # so the last product has an operand
    scale = 1.0 + 0j
    ins = [new() for _ in range(d.inputs)]
    wires = list(ins)
    for node, at in generators(d):
        legs = wires[at : at + node.inputs]
        if isinstance(node, (Id, Perm)):
            out = node.route(legs) if isinstance(node, Perm) else legs
        elif isinstance(node, Spider):
            v = new()
            factors.append(([v], np.array([1.0, phase_exp(node.phase)])))
            if node.basis is Basis.Z:
                for w in legs:
                    parent[find(w)] = v
                out = [v] * node.n
            else:
                out = [new() for _ in range(node.n)]
                factors += [([w, v], _HT) for w in legs + out]
        elif isinstance(node, Had):
            out = [new()]
            factors.append((out + legs, _HT))
        elif isinstance(node, Cup):
            out = [new()] * 2
        elif isinstance(node, Cap):
            parent[find(legs[0])] = find(legs[1])
            out = []
        else:
            raise DiagramError(f"not a diagram: {node!r}")
        wires[at : at + node.inputs] = out
    boundary: dict[int, None] = {}  # outputs, then inputs
    for v in map(find, wires + ins):
        if v in boundary:
            factors.append(([v, new()], np.eye(2, dtype=complex)))
            v = len(parent) - 1
        boundary[v] = None
    axes = [[find(u) for u in a] for a, _ in factors]
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
    for v in range(len(parent)):
        if parent[v] != v or v in boundary:
            continue
        group = [i for i in holders.get(v, ()) if i in live]
        if not group:
            scale *= 2
            continue
        live.difference_update(group)
        live.add(join(group, v))
        for u in axes[-1]:
            holders.setdefault(u, []).append(len(axes) - 1)
    join(sorted(live), None)
    _fits(2 ** max(len(set(a)) for a in axes), 2**WIRE_BUDGET)
    tensors = [t for _, t in factors]
    for part, out in steps:
        label = {u: k for k, u in enumerate(dict.fromkeys(u for i in part for u in axes[i]))}
        operands = []
        for i in part:
            operands += [tensors[i], [label[u] for u in axes[i]]]
            tensors[i] = None
        tensors.append(np.einsum(*operands, [label[u] for u in out]))
    result = tensors[-1].transpose([axes[-1].index(v) for v in boundary])
    return scale * result.reshape(2 ** len(wires), 2 ** len(ins))


# ---------------------------------------------------------------------------
# Matrix serialization


def matrix_to_json_obj(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    rows, cols = m.shape
    for dim in (rows, cols):
        if dim & (dim - 1):
            raise EvalError(f"matrix dimension {dim} is not a power of two")
    if not np.isfinite(m).all():
        raise EvalError("matrix entries must be finite")
    entries = [[float(z.real), float(z.imag)] for z in m.reshape(-1)]
    return {"shape": [rows, cols], "entries": entries}


def matrix_to_json(m: np.ndarray) -> str:
    return json.dumps(matrix_to_json_obj(m))


def matrix_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    rows, cols = doc["shape"]
    flat = np.array([complex(re, im) for re, im in doc["entries"]], dtype=complex)
    return flat.reshape(rows, cols)


def format_complex(z: complex) -> str:
    """Text rendering `a+bi` with 6 significant digits."""
    re, im = z.real, z.imag
    sign = "+" if im >= 0 or math.isnan(im) else "-"
    return f"{re:.6g}{sign}{abs(im):.6g}i"


def render_matrix(m: np.ndarray) -> str:
    m = np.asarray(m, dtype=complex)
    return "\n".join("  ".join(format_complex(z) for z in row) for row in m)
