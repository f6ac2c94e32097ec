"""Dense complex-matrix semantics of diagrams, and an independent oracle.

`denote` makes one walk over the diagram (wire 0 = most significant qubit).
Each node is applied to a running tensor of shape (L, 2^inputs, R): the
node's input wires sit in the middle axis, and the L * R columns around it
are wires (and identity columns) that flow past. A generator is one matmul
with its small matrix (an Id is skipped, a Swap is a transpose), a Seq
applies its parts in order, a Par that only permutes wires is one
transpose, and any other Par applies each non-Id factor to its own wires,
factors that shrink the wire count first. A Seq or Par is evaluated on
whichever is fewer, the L * R columns flowing into it or its own 2^inputs
identity; in the second case its matrix is then applied to the running
tensor with one matmul. So no sub-diagram is widened by wires it does not
touch, and none is evaluated on more columns than its own identity. Leaf
matrices are built once per `denote` call. No normalization is applied
anywhere: the cup denotes |00> + |11| with unit entries.

`oracle_contract` evaluates the same diagram by a disjoint route: the
diagram is flattened to a list of generator tensors over named edges (built
entry-by-entry from the basis-vector definitions, not from kron), and all
internal edge assignments are summed out.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
from typing import Union

import numpy as np

from .diagram import (
    Cap,
    Cup,
    Diagram,
    DiagramError,
    Had,
    Id,
    Par,
    Scalar,
    Seq,
    Spider,
    Swap,
    max_width,
)
from .syntax import Basis, Phase, ZetaError

SQRT2 = math.sqrt(2.0)

ORACLE_WIRE_BUDGET = 14


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


_KETS = {
    Basis.Z: (np.array([[1.0], [0.0]], dtype=complex), np.array([[0.0], [1.0]], dtype=complex)),
    Basis.X: (
        np.array([[1.0], [1.0]], dtype=complex) / SQRT2,
        np.array([[1.0], [-1.0]], dtype=complex) / SQRT2,
    ),
}


def _ket_power(ket: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = np.kron(out, ket)
    return out


def spider_matrix(basis: Basis, phase: Phase, m: int, n: int) -> np.ndarray:
    k0, k1 = _KETS[basis]
    ket0, ket1 = _ket_power(k0, n), _ket_power(k1, n)
    bra0, bra1 = _ket_power(k0, m).conj().T, _ket_power(k1, m).conj().T
    return ket0 @ bra0 + phase_exp(phase) * (ket1 @ bra1)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2

_CUP = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)


def denote(d: Diagram) -> np.ndarray:
    """Dense denotation: a 2^outputs x 2^inputs complex matrix."""
    n = 2**d.inputs
    return _apply(d, np.eye(n, dtype=complex)[None], {}).reshape(-1, n)


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


def _as_wire_perm(factors: list):
    """The wire permutation (perm[i] = output position of input wire i) if
    every factor is an Id or a Swap, else None."""
    perm: list[int] = []
    for f in factors:
        k = len(perm)
        if isinstance(f, Id):
            perm.extend(range(k, k + f.n))
        elif isinstance(f, Swap):
            perm.extend((k + 1, k))
        else:
            return None
    return perm


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


def _apply(d: Diagram, t: np.ndarray, leaves: dict) -> np.ndarray:
    """Apply d to t, of shape (L, 2^d.inputs, R); the result has shape
    (L, 2^d.outputs, R). `leaves` holds the leaf matrices built so far in
    this walk. A Seq or Par runs on whichever is fewer, the L * R columns
    of t or its own 2^inputs identity (then one matmul onto t)."""
    L, _, R = t.shape
    if isinstance(d, Id):
        return t
    if isinstance(d, Swap):
        return t.reshape(L, 2, 2, R).transpose(0, 2, 1, 3).reshape(L, 4, R)
    if not isinstance(d, (Seq, Par)):
        m = leaves.get(d)
        if m is None:
            m = leaves[d] = _leaf_matrix(d)
        return np.matmul(m, t)
    own = 2**d.inputs < L * R
    s = np.eye(2**d.inputs, dtype=complex)[None] if own else t
    if isinstance(d, Seq):
        for p in _seq_parts(d):
            s = _apply(p, s, leaves)
    else:
        factors = _par_factors(d)
        perm = _as_wire_perm(factors)
        l, _, r = s.shape
        if perm is not None:
            # a wire permutation: one transpose of the wire axes
            k = len(perm)
            inv = [0] * k
            for i, p in enumerate(perm):
                inv[p] = i + 1
            s = s.reshape((l,) + (2,) * k + (r,))
            s = s.transpose([0, *inv, k + 1]).reshape(l, 2**k, r)
        else:
            # each non-Id factor acts on its own wires, shrinking ones first,
            # so no intermediate has more rows than s or the result
            widths = [f.inputs for f in factors]
            order = sorted(
                (i for i, f in enumerate(factors) if not isinstance(f, Id)),
                key=lambda i: factors[i].outputs - factors[i].inputs,
            )
            for i in order:
                f = factors[i]
                left, right = sum(widths[:i]), sum(widths[i + 1 :])
                s = s.reshape(l * 2**left, 2**f.inputs, 2**right * r)
                s = _apply(f, s, leaves).reshape(l, -1, r)
                widths[i] = f.outputs
    return np.matmul(s[0], t) if own else s


# ---------------------------------------------------------------------------
# Scalar-insensitive comparison


class _BothZero:
    def __repr__(self):
        return "BOTH_ZERO"


BOTH_ZERO = _BothZero()

ScalarWitness = Union[complex, _BothZero, None]


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> ScalarWitness:
    """A nonzero c with max|a - c*b| <= tol, BOTH_ZERO if both vanish,
    None otherwise. c is the entry ratio at b's largest-magnitude entry."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise EvalError(f"shape mismatch: {a.shape} vs {b.shape}")
    bmax = np.abs(b).max() if b.size else 0.0
    amax = np.abs(a).max() if a.size else 0.0
    if bmax <= tol:
        return BOTH_ZERO if amax <= tol else None
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    c = a[idx] / b[idx]
    if c == 0:
        return None
    if np.abs(a - c * b).max() <= tol:
        return complex(c)
    return None


def max_deviation(a: np.ndarray, b: np.ndarray) -> float:
    """Deviation after the best scalar fit at b's largest entry (for reports)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    bmax = np.abs(b).max() if b.size else 0.0
    if bmax == 0.0:
        return float(np.abs(a).max()) if a.size else 0.0
    idx = np.unravel_index(np.argmax(np.abs(b)), b.shape)
    c = a[idx] / b[idx]
    return float(np.abs(a - c * b).max())


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


class _Flattener:
    def __init__(self):
        self.counter = itertools.count()
        self.tensors: list[tuple[np.ndarray, list[int]]] = []

    def edge(self) -> int:
        return next(self.counter)

    def flatten(self, d: Diagram) -> tuple[list[int], list[int]]:
        """Returns (input edges, output edges), accumulating tensors."""
        if isinstance(d, Id):
            es = [self.edge() for _ in range(d.n)]
            return es, list(es)
        if isinstance(d, Swap):
            a, b = self.edge(), self.edge()
            return [a, b], [b, a]
        if isinstance(d, Spider):
            ins = [self.edge() for _ in range(d.m)]
            outs = [self.edge() for _ in range(d.n)]
            self.tensors.append((_spider_tensor(d.basis, d.phase, d.m, d.n), outs + ins))
            return ins, outs
        if isinstance(d, Had):
            i, o = self.edge(), self.edge()
            self.tensors.append((_had_tensor(), [o, i]))
            return [i], [o]
        if isinstance(d, Cup):
            a, b = self.edge(), self.edge()
            self.tensors.append((_delta_tensor(), [a, b]))
            return [], [a, b]
        if isinstance(d, Cap):
            a, b = self.edge(), self.edge()
            self.tensors.append((_delta_tensor(), [a, b]))
            return [a, b], []
        if isinstance(d, Scalar):
            self.tensors.append((np.array(d.value, dtype=complex), []))
            return [], []
        if isinstance(d, Seq):
            ins1, outs1 = self.flatten(d.first)
            ins2, outs2 = self.flatten(d.second)
            remap = dict(zip(ins2, outs1))
            for _, edges in self.tensors:
                for k, e in enumerate(edges):
                    if e in remap:
                        edges[k] = remap[e]
            outs2 = [remap.get(e, e) for e in outs2]
            ins1 = [remap.get(e, e) for e in ins1]
            return ins1, outs2
        if isinstance(d, Par):
            ins1, outs1 = self.flatten(d.top)
            ins2, outs2 = self.flatten(d.bottom)
            return ins1 + ins2, outs1 + outs2
        raise DiagramError(f"not a diagram: {d!r}")


def oracle_contract(d: Diagram) -> np.ndarray:
    """Evaluate by flattening to a tensor network and summing over all
    internal edge assignments. Independent of `denote`."""
    if max_width(d) > ORACLE_WIRE_BUDGET:
        raise WireBudgetError(
            f"diagram needs {max_width(d)} wires, oracle budget is {ORACLE_WIRE_BUDGET}"
        )
    fl = _Flattener()
    ins, outs = fl.flatten(d)
    tensors = fl.tensors

    # A wire running straight from the input to the output boundary would
    # repeat its label in the einsum output; split it with an explicit delta.
    boundary = outs + ins
    in_tensor = {e for _, edges in tensors for e in edges}
    seen: set[int] = set()
    for pos, e in enumerate(boundary):
        if e not in in_tensor and e in seen:
            e2 = fl.edge()
            tensors.append((_delta_tensor(), [e2, e]))
            boundary[pos] = e2
            e = e2
        seen.add(e)

    if not tensors:
        return np.array([[1.0 + 0j]])

    all_edges = sorted({e for _, edges in tensors for e in edges} | set(boundary))
    if len(all_edges) > 52:
        raise WireBudgetError("too many wire segments for the contraction oracle")
    label = {e: i for i, e in enumerate(all_edges)}

    operands: list = []
    for t, edges in tensors:
        operands.append(t)
        operands.append([label[e] for e in edges])
    operands.append([label[e] for e in boundary])
    result = np.asarray(np.einsum(*operands), dtype=complex)
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
