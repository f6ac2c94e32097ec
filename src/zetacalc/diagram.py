"""Compositional ZX string-diagram IR.

Diagrams are trees over generators (spiders, Hadamard, wire permutations)
combined with sequential (`Seq`) and parallel (`Par`) composition; a scalar
is a 0 -> 0 spider, and a cup and a cap are the phase-0 Z spiders 0 -> 2
and 2 -> 0, which `Cup()` and `Cap()` return. Wire 0 is the most
significant qubit everywhere. A routing of any width is one `Perm` leaf;
every walk reads it through `Perm.route`. `thread` is the walk that
carries an item per open wire, for the DOT export and the evaluator's
oracle.

Every node carries its wire arity as `inputs` and `outputs`: generators
give it by property, and `Seq` and `Par` compute it once from their
children when they are built. A `Seq` whose first part's outputs do not
match its second part's inputs raises `ArityError` at construction, so a
diagram that exists is well formed and no walk has to re-derive its arity.
`==` is node for node; on `Seq` and `Par` it walks a stack of node pairs
and their `hash` walks nothing, so deep diagrams do not recurse (`_eq`).
Nodes are immutable by contract: no field is assigned after construction;
slotted, not frozen, for construction cost. A diagram may share subtrees.

The `Seq` and `Par` constructors build exactly the node asked for, and so
do `from_json` and hand-built diagrams. The builders `seq` and `par` apply
the monoidal unit laws instead: they drop `Id` stages, `Id(0)` factors and
merge adjacent `Id`s, so diagrams built from them carry no removable unit.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable

from .syntax import Basis, Phase, ZetaError


class DiagramError(ZetaError):
    pass


class ArityError(DiagramError):
    pass


@dataclass(slots=True, unsafe_hash=True)
class Diagram:
    """A diagram node. Every node has `inputs` and `outputs`, its wire
    arity: leaves give them by property, `Seq` and `Par` store them."""


@dataclass(slots=True, unsafe_hash=True)
class Id(Diagram):
    n: int

    inputs = property(lambda self: self.n)
    outputs = property(lambda self: self.n)

    def __post_init__(self):
        if self.n < 0:
            raise DiagramError("negative wire count")
        if self.n > sys.maxsize:
            raise OverflowError("wire count past what the machine can index")


@dataclass(slots=True, unsafe_hash=True)
class Spider(Diagram):
    basis: Basis
    phase: Phase
    m: int  # inputs
    n: int  # outputs

    inputs = property(lambda self: self.m)
    outputs = property(lambda self: self.n)

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise DiagramError("negative spider arity")
        if max(self.m, self.n) > sys.maxsize:
            raise OverflowError("spider arity past what the machine can index")


@dataclass(slots=True, unsafe_hash=True)
class Had(Diagram):
    inputs = property(lambda self: 1)
    outputs = property(lambda self: 1)


@dataclass(slots=True, unsafe_hash=True)
class Perm(Diagram):
    """A k -> k wire permutation: input wire i leaves at output position
    perm[i]."""

    perm: tuple[int, ...]

    inputs = property(lambda self: len(self.perm))
    outputs = property(lambda self: len(self.perm))

    def __post_init__(self):
        if sorted(self.perm) != list(range(len(self.perm))):
            raise DiagramError(f"not a permutation: {self.perm}")

    def route(self, items) -> list:
        """The items on the output wires, given items[i] on input wire i."""
        out = [None] * len(self.perm)
        for item, p in zip(items, self.perm):
            out[p] = item
        return out


def _check_fit(a: Diagram, b: Diagram) -> None:
    if a.outputs != b.inputs:
        raise ArityError(
            f"sequential mismatch: {a.outputs} outputs of {type(a).__name__}"
            f" feed {b.inputs} inputs of {type(b).__name__}"
        )


def _eq(a: Diagram, b) -> bool:
    """`==` of Seq and Par: node for node, walked over a stack of node
    pairs, so deep diagrams do not hit the recursion limit. A subtree both
    share (`H`'s body) matches by identity; every node but Seq and Par
    compares with its own `==`. Their `hash`, `_hash`, reads only the class
    and the stored arity, which equal diagrams share, and walks nothing."""
    if type(b) is not type(a):
        return NotImplemented
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Seq):
            todo += [(x.second, y.second), (x.first, y.first)]
        elif isinstance(x, Par):
            todo += [(x.bottom, y.bottom), (x.top, y.top)]
        elif x != y:
            return False
    return True


def _hash(d: Diagram) -> int:
    return hash((type(d), d.inputs, d.outputs))


@dataclass(slots=True, eq=False)
class Seq(Diagram):
    first: Diagram
    second: Diagram
    inputs: int = field(init=False, repr=False)
    outputs: int = field(init=False, repr=False)

    __eq__, __hash__ = _eq, _hash

    def __post_init__(self):
        a, b = self.first, self.second
        _check_fit(a, b)
        self.inputs = a.inputs
        self.outputs = b.outputs


@dataclass(slots=True, eq=False)
class Par(Diagram):
    top: Diagram
    bottom: Diagram
    inputs: int = field(init=False, repr=False)
    outputs: int = field(init=False, repr=False)

    __eq__, __hash__ = _eq, _hash

    def __post_init__(self):
        a, b = self.top, self.bottom
        self.inputs = a.inputs + b.inputs
        self.outputs = a.outputs + b.outputs


def max_width(d: Diagram) -> int:
    """Largest simultaneous wire count in the diagram: the max over a Seq's
    parts, the sum over a Par's. A size statistic only; no evaluator gates
    on it. Walked post-order with explicit stacks, so deep diagrams do not
    hit the recursion limit."""
    widths: list[int] = []
    todo: list = [(d, False)]
    while todo:
        node, children_done = todo.pop()
        if not isinstance(node, (Seq, Par)):
            widths.append(max(node.inputs, node.outputs))
        elif children_done:
            b, a = widths.pop(), widths.pop()
            widths.append(max(a, b) if isinstance(node, Seq) else a + b)
        else:
            todo.append((node, True))
            if isinstance(node, Seq):
                todo += [(node.first, False), (node.second, False)]
            else:
                todo += [(node.top, False), (node.bottom, False)]
    return widths[0]


def thread(d: Diagram, wires: list, leaf: Callable[[Diagram, list], list]) -> list:
    """The items on d's outputs, given wires[i] on its input wire i. Each
    leaf (every node but Seq and Par) is reached in wire order: an Id
    passes its items through, a Perm routes them with `Perm.route`, and any
    other leaf's outputs carry `leaf(node, ins)`, where ins are the items on
    its inputs. A Seq runs its parts on the same wires, a Par its factors
    side by side. Walked with an explicit stack, so deep diagrams do not hit
    the recursion limit."""
    wires = list(wires)
    todo = [(d, 0)]
    while todo:
        node, at = todo.pop()
        if isinstance(node, Seq):
            todo += [(node.second, at), (node.first, at)]
        elif isinstance(node, Par):
            todo += [(node.bottom, at + node.top.outputs), (node.top, at)]
        elif not isinstance(node, Id):
            ins = wires[at : at + node.inputs]
            outs = node.route(ins) if isinstance(node, Perm) else leaf(node, ins)
            wires[at : at + node.inputs] = outs
    return wires


# ---------------------------------------------------------------------------
# Builders


def seq(*parts: Diagram) -> Diagram:
    """Left-to-right pipeline under the unit law Seq(Id, d) = d = Seq(d, Id).
    Every adjacent pair must fit (ArityError otherwise, Ids included); Id
    parts are dropped as it folds. seq() and an all-Id pipeline are an Id."""
    d = prev = parts[0] if parts else Id(0)
    for p in parts[1:]:
        _check_fit(prev, p)
        if not isinstance(p, Id):
            d = p if isinstance(d, Id) else Seq(d, p)
        prev = p
    return d


def par(*parts: Diagram) -> Diagram:
    """Top-to-bottom stack under the unit laws Par(Id(0), d) = d and
    Id(a) (x) Id(b) = Id(a + b): Id(0) parts are dropped and adjacent Ids
    merged. par() is Id(0)."""
    kept: list[Diagram] = []
    for p in parts:
        if isinstance(p, Id) and kept and isinstance(kept[-1], Id):
            kept[-1] = Id(kept[-1].n + p.n)
        elif not (isinstance(p, Id) and p.n == 0):
            kept.append(p)
    return reduce(Par, kept) if kept else Id(0)


def permutation(perm: list[int]) -> Diagram:
    """The k->k diagram sending input wire i to output position perm[i]:
    Id(k) for the identity, else one Perm."""
    perm = tuple(perm)
    return Id(len(perm)) if perm == tuple(range(len(perm))) else Perm(perm)


def upsilon(wires: int, basis: Basis, n: int) -> Diagram:
    """Sharing: a (wires)->(n*wires) diagram. Each wire feeds a 1->n spider
    of the given basis; outputs are regrouped copy-major (n blocks of
    `wires`, block j being the j-th copy in original wire order)."""
    if wires < 0 or n < 0:
        raise DiagramError("negative upsilon parameters")
    if n == 1:
        return Id(wires)
    spiders = par(*[Spider(basis, Phase.zero(), 1, n)] * wires)
    # wire-major output (i, j) at i*n + j moves to copy-major j*wires + i
    perm = [0] * (wires * n)
    for i in range(wires):
        for j in range(n):
            perm[i * n + j] = j * wires + i
    return seq(spiders, permutation(perm))


_CUP = Spider(Basis.Z, Phase.zero(), 0, 2)
_CAP = Spider(Basis.Z, Phase.zero(), 2, 0)


def Cup() -> Spider:
    """The cup, the phase-0 Z spider 0 -> 2, denoting |00> + |11>; one node."""
    return _CUP


def Cap() -> Spider:
    """The cap, the phase-0 Z spider 2 -> 0, denoting <00| + <11|; one node."""
    return _CAP


def cup_many(n: int) -> Diagram:
    """0 -> 2n diagram denoting sum_x |x>|x> over n-bit x: the first n output
    wires are entangled pairwise with the last n."""
    cups = par(*[Cup()] * n)
    # pair i occupies (2i, 2i+1); route to (i, n+i)
    perm = [0] * (2 * n)
    for i in range(n):
        perm[2 * i] = i
        perm[2 * i + 1] = n + i
    return seq(cups, permutation(perm))


# ---------------------------------------------------------------------------
# Serialization


def _phase_to_json(p: Phase) -> dict:
    if p.is_exact:
        return {"pi_num": p.pi_multiple.numerator, "pi_den": p.pi_multiple.denominator}
    return {"radians": p.radians_value}


def _phase_from_json(doc) -> Phase:
    if isinstance(doc, dict):
        try:
            if "pi_num" in doc:
                return Phase.exact(_count(doc["pi_num"]), _count(doc.get("pi_den", 1)))
            if "radians" in doc:
                return Phase.radians(_real(doc["radians"]))
        except (TypeError, OverflowError, ZeroDivisionError) as exc:
            raise DiagramError(f"malformed phase {doc!r}: {exc}") from exc
    raise DiagramError(f"malformed phase: {doc!r}")


def to_json_obj(d: Diagram) -> dict:
    if isinstance(d, Id):
        return {"kind": "id", "wires": d.n}
    if isinstance(d, Spider):
        return {
            "kind": "spider",
            "basis": str(d.basis),
            "phase": _phase_to_json(d.phase),
            "in": d.m,
            "out": d.n,
        }
    if isinstance(d, Had):
        return {"kind": "had"}
    if isinstance(d, Perm):
        return {"kind": "perm", "perm": list(d.perm)}
    if isinstance(d, Seq):
        return {"kind": "seq", "first": to_json_obj(d.first), "second": to_json_obj(d.second)}
    if isinstance(d, Par):
        return {"kind": "par", "top": to_json_obj(d.top), "bottom": to_json_obj(d.bottom)}
    raise DiagramError(f"not a diagram: {d!r}")


def to_json(d: Diagram) -> str:
    return json.dumps(to_json_obj(d))


def _count(value) -> int:
    # int() would truncate 1.9 to 1 and read true as 1
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, found {value!r}")
    return value


def _real(value):
    # true is an int to Python, and would read as 1 rad
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise TypeError(f"expected a real number, found {value!r}")
    return value


def from_json_obj(doc) -> Diagram:
    if not isinstance(doc, dict) or "kind" not in doc:
        raise DiagramError(f"malformed diagram document: {doc!r}")
    kind = doc["kind"]
    try:
        if kind == "id":
            return Id(_count(doc["wires"]))
        if kind == "spider":
            basis = Basis(doc["basis"])
            phase = _phase_from_json(doc["phase"])
            return Spider(basis, phase, _count(doc["in"]), _count(doc["out"]))
        if kind == "had":
            return Had()
        if kind == "perm":
            return Perm(tuple(map(_count, doc["perm"])))
        if kind == "seq":
            return Seq(from_json_obj(doc["first"]), from_json_obj(doc["second"]))
        if kind == "par":
            return Par(from_json_obj(doc["top"]), from_json_obj(doc["bottom"]))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise DiagramError(f"malformed {kind} node: {exc}") from exc
    raise DiagramError(f"unknown node kind {kind!r}")


def from_json(text: str) -> Diagram:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"malformed JSON: {exc}") from exc
    return from_json_obj(doc)


# ---------------------------------------------------------------------------
# DOT export

_SPIDER_COLORS = {Basis.Z: "green", Basis.X: "red"}


def to_dot(d: Diagram) -> str:
    """Left-to-right graph, one node per generator, spiders colored by basis."""
    lines = ["digraph zx {", "  rankdir=LR;", '  node [shape=circle];']
    counter = [0]

    def node(label: str, **attrs) -> str:
        counter[0] += 1
        name = f"n{counter[0]}"
        attr = " ".join(f'{k}="{v}"' for k, v in attrs.items())
        lines.append(f"  {name} [label=\"{label}\" {attr}];")
        return name

    def edge(a: str, b: str):
        lines.append(f"  {a} -> {b};")

    def leaf(dg: Diagram, ins: list) -> list:
        if isinstance(dg, Spider):
            label = "" if dg.phase.is_zero else str(dg.phase)
            name = node(label, style="filled", fillcolor=_SPIDER_COLORS[dg.basis])
        elif isinstance(dg, Had):
            name = node("H", shape="box", style="filled", fillcolor="yellow")
        else:
            raise DiagramError(f"not a diagram: {dg!r}")
        for src in ins:
            edge(src, name)
        return [name] * dg.outputs

    ins = [node(f"in{i}", shape="plaintext") for i in range(d.inputs)]
    for i, src in enumerate(thread(d, ins, leaf)):
        edge(src, node(f"out{i}", shape="plaintext"))
    lines.append("}")
    return "\n".join(lines)
