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
s[i] is (-1)^popcount(i). No normalization is applied anywhere: the cup
denotes |00> + |11| with unit entries.

`denote(d, budget)` raises WireBudgetError before it would create an array
of more than 2^budget entries (the starting identity, a leaf matrix, or a
product with the running tensor), so the budget counts the legs of the
largest tensor the walk holds, not the width of the diagram.

`oracle_contract` evaluates the same diagram by a disjoint route. The
`generators` walk flattens the diagram into a tensor network: a leaf tensor
per generator but Perm, which only relabels the open wires, built entry by
entry from the basis-vector definitions (not from kron), over edge ids
threaded along the wires. A plan, made from the leg lists alone, contracts
pairs that share an edge in the order they are offered, and ends with the
outer product of any disconnected parts; np.tensordot then runs it pair by
pair. It raises WireBudgetError before any tensor exists if a leaf or a
planned intermediate has more than 2^WIRE_BUDGET entries, the units of
`denote`'s budget and the default the CLI and `theory` use.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import deque
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
    Scalar,
    Seq,
    Spider,
    generators,
)
from .syntax import Basis, Phase, ZetaError

SQRT2 = math.sqrt(2.0)

WIRE_BUDGET = 14


class EvalError(ZetaError):
    pass


class WireBudgetError(EvalError):
    pass


def phase_exp(p: Phase) -> complex:
    """e^{i p}; exact on multiples of pi/2 so those identities hold exactly."""
    if p.is_exact and p.pi_multiple.denominator in (1, 2):
        quarter = int(p.pi_multiple * 2)  # 0..3
        return (1 + 0j, 1j, -1 + 0j, -1j)[quarter % 4]
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
    """Dense denotation: a 2^outputs x 2^inputs complex matrix. With a
    budget, raises WireBudgetError instead of creating an array of more
    than 2^budget entries; without one, the walk is unbounded."""
    limit = math.inf if budget is None else 2**budget
    n = 2**d.inputs
    _fits(n * n, limit)
    return _apply(d, np.eye(n, dtype=complex)[None], {}, limit).reshape(-1, n)


def _fits(entries: int, limit) -> None:
    if entries > limit:
        raise WireBudgetError(
            f"evaluation needs a tensor of {entries.bit_length() - 1} legs,"
            f" over the {math.log2(limit):g}-leg wire budget"
        )


def _seq_parts(d: Diagram) -> list:
    """The parts of a Seq tree, left to right."""
    parts, todo = [], [d]
    while todo:
        node = todo.pop()
        if isinstance(node, Seq):
            todo.append(node.second)
            todo.append(node.first)
        else:
            parts.append(node)
    return parts


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
    if isinstance(d, Scalar):
        return np.array([[d.value]], dtype=complex)
    raise DiagramError(f"not a diagram: {d!r}")


def _apply(d: Diagram, t: np.ndarray, leaves: dict, limit) -> np.ndarray:
    """Apply d to t, of shape (L, 2^d.inputs, R); the result has shape
    (L, 2^d.outputs, R). `leaves` holds the leaf matrices built so far in
    this walk, keyed by node identity: the diagram keeps every node alive
    for the walk, so no id is reused, and a repeated leaf object is built
    once. A Seq or Par runs on whichever is fewer, the L * R columns
    of t or its own 2^inputs identity (then one matmul onto t), which is
    smaller than t. No array of more than `limit` entries is created."""
    L, _, R = t.shape
    if isinstance(d, Id):
        return t
    if isinstance(d, Perm):
        k = d.inputs
        s = t.reshape((L,) + (2,) * k + (R,))
        return s.transpose([0, *d.route(range(1, k + 1)), k + 1]).reshape(L, 2**k, R)
    if not isinstance(d, (Seq, Par)):
        m = leaves.get(id(d))
        if m is None:
            _fits(2 ** (d.inputs + d.outputs), limit)
            m = leaves[id(d)] = _leaf_matrix(d)
        _fits(L * m.shape[0] * R, limit)
        return np.matmul(m, t)
    own = 2**d.inputs < L * R
    s = np.eye(2**d.inputs, dtype=complex)[None] if own else t
    if isinstance(d, Seq):
        for p in _seq_parts(d):
            s = _apply(p, s, leaves, limit)
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
            s = _apply(f, s, leaves, limit).reshape(l, -1, r)
            widths[i] = f.outputs
    if not own:
        return s
    _fits(L * s.shape[1] * R, limit)
    return np.matmul(s[0], t)


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
    if not b.size or not absb.max():
        return None, 0.0, float(np.abs(a).max()) if a.size else 0.0
    idx = np.unravel_index(np.argmax(absb), b.shape)
    c = a[idx] / b[idx]
    return c, absb[idx], float(np.abs(a - c * b).max())


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> ScalarWitness:
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


def _spider_tensor(basis: Basis, phase: Phase, m: int, n: int) -> np.ndarray:
    """Entry-by-entry spider tensor with axes out_0..out_{n-1}, in_0..in_{m-1}."""
    w = phase_exp(phase)
    if basis is Basis.Z:
        comp0 = (1.0, 0.0)
        comp1 = (0.0, 1.0)
    else:
        comp0 = (1.0 / SQRT2, 1.0 / SQRT2)
        comp1 = (1.0 / SQRT2, -1.0 / SQRT2)
    t = np.zeros((2,) * (m + n), dtype=complex)
    for bits in itertools.product((0, 1), repeat=m + n):
        p0 = 1.0
        p1 = 1.0
        for b in bits:
            p0 *= comp0[b]
            p1 *= comp1[b]
        t[bits] = p0 + w * p1
    return t


def _had_tensor() -> np.ndarray:
    t = np.zeros((2, 2), dtype=complex)
    for o in (0, 1):
        for i in (0, 1):
            t[o, i] = (-1.0 if (o and i) else 1.0) / SQRT2
    return t


def _delta_tensor() -> np.ndarray:
    t = np.zeros((2, 2), dtype=complex)
    t[0, 0] = 1.0
    t[1, 1] = 1.0
    return t


def _oracle_leaf(node: Diagram) -> np.ndarray:
    """The tensor of a generator, axes outputs then inputs; an Id(1) is the
    delta that splits a wire running straight through the diagram."""
    if isinstance(node, Spider):
        return _spider_tensor(node.basis, node.phase, node.m, node.n)
    if isinstance(node, Had):
        return _had_tensor()
    if isinstance(node, (Cup, Cap, Id)):
        return _delta_tensor()
    if isinstance(node, Scalar):
        return np.array(node.value, dtype=complex)
    raise DiagramError(f"not a diagram: {node!r}")


def _flatten(d: Diagram):
    """The diagram as a tensor network: (leaves, legs, outs, ins). leaves[t]
    is a generator, legs[t] the edge ids of its tensor's axes; outs and ins
    are the boundary edges. Over the `generators` walk it keeps the list of
    edges on the wires open so far: a Perm reorders the slice of it that it
    spans, and every other generator replaces the slice it consumes with
    the fresh edges it emits, so every edge ends on exactly two of the
    leaves and the boundary, and no leaf holds an edge twice."""
    edges = itertools.count()
    ins = [next(edges) for _ in range(d.inputs)]
    wires = list(ins)
    leaves: list[Diagram] = []
    legs: list[list[int]] = []
    for node, at in generators(d):
        if isinstance(node, Perm):
            wires[at : at + node.inputs] = node.route(wires[at : at + node.inputs])
        elif not isinstance(node, Id):
            consumed = wires[at : at + node.inputs]
            emitted = [next(edges) for _ in range(node.outputs)]
            wires[at : at + node.inputs] = emitted
            leaves.append(node)
            legs.append(emitted + consumed)
    # a wire running straight from input to output would be one edge on two
    # boundary axes; split it with a delta
    straight = set(ins)
    for pos, e in enumerate(wires):
        if e in straight:
            wires[pos] = next(edges)
            leaves.append(Id(1))
            legs.append([wires[pos], e])
    return leaves, legs, wires, ins


def _joined(a: list[int], b: list[int]) -> list[int]:
    """The legs of the contraction of tensors with legs a and b: every
    shared edge is summed, the rest keep their order, a's first."""
    shared = set(a) & set(b)
    return [e for e in a + b if e not in shared]


def _plan(legs: list[list[int]]) -> list[tuple[int, int]]:
    """A pairwise contraction order over tensors given by their legs: pairs
    that share an edge, first offered first (edges in the order the walk
    made them, then each result with its neighbours), then the outer
    product of what is left. Appends each result's legs to `legs` as tensor
    len(legs); returns the (a, b) pairs in order, and leaves the whole
    network in the last one."""
    ends: dict[int, list[int]] = {}
    for t, ls in enumerate(legs):
        for e in ls:
            ends.setdefault(e, []).append(t)
    offered = deque(ts for ts in ends.values() if len(ts) == 2)
    live = set(range(len(legs)))
    steps: list[tuple[int, int]] = []
    while offered:
        a, b = offered.popleft()
        if a not in live or b not in live:
            continue
        c = len(legs)
        legs.append(_joined(legs[a], legs[b]))
        steps.append((a, b))
        live -= {a, b}
        live.add(c)
        for e in legs[c]:
            ends[e] = [c if t in (a, b) else t for t in ends[e]]
            offered.extend((c, t) for t in ends[e] if t != c)
    acc, *rest = sorted(live)
    for b in rest:
        steps.append((acc, b))
        legs.append(legs[acc] + legs[b])
        acc = len(legs) - 1
    return steps


def oracle_contract(d: Diagram) -> np.ndarray:
    """Evaluate by contracting the diagram as a tensor network, pair by pair
    in an order planned from the leg lists alone. Independent of `denote`.
    Raises WireBudgetError, before any tensor is made, when a leaf or a
    planned intermediate would have more than 2^WIRE_BUDGET entries."""
    leaves, legs, outs, ins = _flatten(d)
    if not leaves:
        return np.ones((1, 1), dtype=complex)
    steps = _plan(legs)
    _fits(2 ** max(map(len, legs)), 2**WIRE_BUDGET)
    tensors = [_oracle_leaf(n) for n in leaves]
    for a, b in steps:
        shared = set(legs[a]) & set(legs[b])
        axes = ([legs[a].index(e) for e in shared], [legs[b].index(e) for e in shared])
        tensors.append(np.tensordot(tensors[a], tensors[b], axes))
        tensors[a] = tensors[b] = None
    final = legs[-1]
    result = tensors[-1].transpose([final.index(e) for e in outs + ins])
    return result.reshape(2 ** len(outs), 2 ** len(ins))


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
