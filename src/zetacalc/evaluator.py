"""Dense complex-matrix semantics of diagrams, and an independent oracle.

`denote` evaluates by structural recursion (wire 0 = most significant
qubit). A Seq is folded left to right over its layers, carrying one running
matrix. A layer that only permutes wires is applied as a transpose; any
other Par layer is applied factor by factor, each factor acting on its own
wires of the running matrix (Id factors are skipped, factors that shrink
the wire count go first), so the layer's `kron(c, I)` is never built. A Par
outside any Seq is a Kronecker product. No normalization is applied
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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, first factor = most significant qubits."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[1] != b.shape[0]:
        raise EvalError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def _ket_power(ket: np.ndarray, n: int) -> np.ndarray:
    out = np.array([[1.0 + 0j]])
    for _ in range(n):
        out = kron(out, ket)
    return out


def spider_matrix(basis: Basis, phase: Phase, m: int, n: int) -> np.ndarray:
    k0, k1 = _KETS[basis]
    ket0, ket1 = _ket_power(k0, n), _ket_power(k1, n)
    bra0, bra1 = _ket_power(k0, m).conj().T, _ket_power(k1, m).conj().T
    return ket0 @ bra0 + phase_exp(phase) * (ket1 @ bra1)


HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2

_SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)

_CUP = np.array([[1.0], [0.0], [0.0], [1.0]], dtype=complex)


def denote(d: Diagram) -> np.ndarray:
    """Dense denotation: a 2^outputs x 2^inputs complex matrix."""
    return _denote(d)


def _seq_parts(d: Diagram) -> list:
    """The layers of a Seq tree, left to right."""
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


def _apply_perm(perm: list, m: np.ndarray) -> np.ndarray:
    """Row-permute m (rows indexed by wire bits, wire 0 most significant) by
    the wire permutation, as a transpose instead of a dense matmul."""
    k = len(perm)
    if k == 0 or perm == list(range(k)):
        return m
    cols = m.shape[1]
    t = m.reshape((2,) * k + (cols,))
    inv = [0] * k
    for i, p in enumerate(perm):
        inv[p] = i
    t = np.transpose(t, tuple(inv) + (k,))
    return np.ascontiguousarray(t).reshape(2**k, cols)


def _apply_factors(factors: list, m: np.ndarray) -> np.ndarray:
    """Apply the Par of `factors` to the rows of m without forming their
    Kronecker product: each non-Id factor acts on its own wires. Factors
    that shrink the wire count go first, so no intermediate has more rows
    than m or the result."""
    cols = m.shape[1]
    widths = [f.inputs for f in factors]
    order = sorted(
        (i for i, f in enumerate(factors) if not isinstance(f, Id)),
        key=lambda i: factors[i].outputs - factors[i].inputs,
    )
    for i in order:
        f = factors[i]
        left, right = sum(widths[:i]), sum(widths[i + 1 :])
        t = m.reshape(2**left, 2**f.inputs, 2**right * cols)
        m = np.matmul(_denote(f), t).reshape(-1, cols)
        widths[i] = f.outputs
    return m


def _denote(d: Diagram) -> np.ndarray:
    if isinstance(d, Id):
        return np.eye(2**d.n, dtype=complex)
    if isinstance(d, Spider):
        return spider_matrix(d.basis, d.phase, d.m, d.n)
    if isinstance(d, Had):
        return HADAMARD.copy()
    if isinstance(d, Swap):
        return _SWAP.copy()
    if isinstance(d, Cup):
        return _CUP.copy()
    if isinstance(d, Cap):
        return _CUP.T.copy()
    if isinstance(d, Scalar):
        return np.array([[d.value]], dtype=complex)
    if isinstance(d, Seq):
        # fold the pipeline left to right so a state diagram stays a vector;
        # wire layers (Id/Swap/Par) act on the running matrix, starting from
        # the identity, and never materialize their own dense matrix
        parts = _seq_parts(d)
        if isinstance(parts[0], (Id, Swap, Par)):
            m = np.eye(2 ** d.inputs, dtype=complex)
        else:
            m = _denote(parts.pop(0))
        for p in parts:
            if isinstance(p, (Id, Swap, Par)):
                factors = _par_factors(p)
                perm = _as_wire_perm(factors)
                m = _apply_factors(factors, m) if perm is None else _apply_perm(perm, m)
            else:
                m = _denote(p) @ m
        return m
    if isinstance(d, Par):
        return kron(_denote(d.top), _denote(d.bottom))
    raise DiagramError(f"not a diagram: {d!r}")


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
