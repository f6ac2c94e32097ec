"""Seeded workload inputs, their references, and the op that runs one input.

Each workload is a fixed multiset of inputs. The seed chooses their order
(on `rules` and `hchain`) or the binder phases (on `sharing`), never the
mix, so every seed does the same amount of work and has the same `shape()`.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any

import numpy as np

from zetacalc import (
    Context,
    denote,
    equal_up_to_scalar,
    eval_as_map,
    infer,
    max_deviation,
    oracle_contract,
    parse,
    translate,
)
from zetacalc.theory import check_rule_instance, standard_instances

WORKLOADS = ("rules", "hchain", "sharing")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231

HCHAIN_LENGTHS = range(2, 21)
SHARING_WAYS = range(6, 12)
HIGHER_ORDER = "(X f:1->1*1. <f,f>) (Z x:1. <x,x>)"
RULE_STATUSES_OK = ("sound", "side-condition-unmet")
TOL = 1e-9

# Binder phases for the sharing maps, in units of pi/2; the phase changes the
# matrix entries but not the cost of any stage.
_PHASES = ("", "^pi/2", "^pi", "^3pi/2")

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex)
_IDENTITY = np.eye(2, dtype=complex)


@dataclass(frozen=True, eq=False)
class Item:
    """One distinct input. `kind` and `size` name its place in the mix."""

    kind: str
    size: int
    source: str = ""
    as_map: bool = False
    reference: Any = None
    instance: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    distinct: tuple  # each input once, in a seed-independent order
    ops: tuple  # one pass: the multiset in seeded order


def _sharing_source(basis: str, ways: int, phase: str) -> str:
    return f"{basis}{phase} x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)


def copy_spider(basis: str, ways: int, quarter_turns: int) -> np.ndarray:
    """The 1 -> `ways` copy spider with phase quarter_turns*pi/2, entry by
    entry, up to a scalar: Z copies |a> to |a..a> with phase e^{ia}; X maps
    |c> to the bit strings whose parity matches c (plus the phase term)."""
    phase = 1j ** quarter_turns
    rows = 2**ways
    m = np.zeros((rows, 2), dtype=complex)
    for row in range(rows):
        for col in range(2):
            if basis == "Z":
                if row == 0 and col == 0:
                    m[row, col] = 1
                elif row == rows - 1 and col == 1:
                    m[row, col] = phase
            else:
                parity = (bin(row).count("1") + col) % 2
                m[row, col] = 1 + phase * (-1) ** parity
    return m


def _higher_order_reference() -> np.ndarray:
    _, deriv = infer(Context(), parse(HIGHER_ORDER))
    return oracle_contract(translate(deriv).diagram)


def _distinct(name: str, rng: random.Random) -> list[Item]:
    if name == "rules":
        return [Item(inst[0].id, 0, instance=inst) for inst in standard_instances()]
    if name == "hchain":
        return [Item("hchain", n, " o ".join(["H"] * n), True,
                     _IDENTITY if n % 2 == 0 else _HADAMARD)
                for n in HCHAIN_LENGTHS]
    if name == "sharing":
        items = []
        for basis in "ZX":
            for ways in SHARING_WAYS:
                turns = rng.randrange(len(_PHASES))
                items.append(Item(f"share-{basis}", ways,
                                  _sharing_source(basis, ways, _PHASES[turns]),
                                  True, copy_spider(basis, ways, turns)))
        items.append(Item("higher-order", 6, HIGHER_ORDER, False,
                          _higher_order_reference()))
        return items
    raise ValueError(f"unknown workload {name!r}")


def build(name: str, seed: int) -> Workload:
    """Inputs and references for one workload; all of this is set-up."""
    rng = random.Random(f"{name}:{seed}")
    distinct = _distinct(name, rng)
    ops = list(distinct)
    if name != "sharing":
        # On sharing the order stays fixed: which wide tensor the allocator
        # has just freed changes what the next one costs.
        rng.shuffle(ops)
    return Workload(name, tuple(distinct), tuple(ops))


def shape(workload: Workload) -> Counter:
    """The op mix: how many ops of each kind and size one pass runs."""
    return Counter((item.kind, item.size) for item in workload.ops)


# Every public call an op makes, with the layer whose span times it.
STAGES = {
    "parse": ("syntax.parse", parse),
    "infer": ("types.infer", infer),
    "translate": ("semantics.translate", translate),
    "eval_as_map": ("semantics.translate", eval_as_map),
    "denote": ("evaluator.denote", denote),
    "equal_up_to_scalar": ("evaluator.compare", equal_up_to_scalar),
    "max_deviation": ("evaluator.compare", max_deviation),
    "check_rule_instance": ("theory.check", check_rule_instance),
}


def stages(wrap=None) -> SimpleNamespace:
    """The calls of STAGES, each passed through wrap(layer, fn) if given."""
    return SimpleNamespace(**{
        key: fn if wrap is None else wrap(layer, fn)
        for key, (layer, fn) in STAGES.items()
    })


def run_op(stages, item: Item) -> bool:
    """Run one user-visible request and say whether it matched its reference."""
    if item.instance:
        verdict = stages.check_rule_instance(*item.instance)
        return verdict.status in RULE_STATUSES_OK
    term = stages.parse(item.source)
    _, deriv = stages.infer(Context(), term)
    jd = stages.translate(deriv)
    if item.as_map:
        jd = stages.eval_as_map(jd)
    m = stages.denote(jd.diagram)
    witness = stages.equal_up_to_scalar(m, item.reference, TOL)
    stages.max_deviation(m, item.reference)
    return witness is not None and m.shape == item.reference.shape
