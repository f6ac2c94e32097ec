import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, strategies as st

from zetacalc.diagram import (
    ArityError,
    Cap,
    Cup,
    DiagramError,
    Had,
    Id,
    Par,
    Perm,
    Seq,
    Spider,
    cup_many,
    from_json,
    max_width,
    par,
    permutation,
    same,
    seq,
    thread,
    to_dot,
    to_json,
    upsilon,
)
from zetacalc.evaluator import denote
from zetacalc.syntax import Basis, Phase

from conftest import random_diagram


class TestArity:
    def test_generators(self):
        s = Spider(Basis.Z, Phase.zero(), 2, 3)
        d = Seq(s, Id(3))
        assert (s.inputs, s.outputs) == (d.inputs, d.outputs) == (2, 3)
        assert Cup().outputs == 2
        assert Cap().inputs == 2
        assert Had().inputs == 1

    def test_seq_mismatch(self):
        # rejected when the node is built, not when its arity is asked for
        with pytest.raises(ArityError):
            Seq(Id(1), Id(2))

    def test_seq_checks_each_adjacent_pair(self):
        # the Ids are dropped from the pipeline, but each pair is checked:
        # here two Ids in the middle do not fit
        with pytest.raises(ArityError, match="2 outputs of Id feed 3 inputs of Id"):
            seq(Spider(Basis.Z, Phase.zero(), 1, 2), Id(2), Id(3))
        with pytest.raises(ArityError, match="2 outputs of Id feed 3 inputs of Spider"):
            seq(Spider(Basis.Z, Phase.zero(), 1, 2), Id(2), Spider(Basis.Z, Phase.zero(), 3, 1))

    def test_nodes_carry_arity(self):
        d = Seq(Par(Cup(), Spider(Basis.Z, Phase.zero(), 1, 2)), par(Cap(), Id(2)))
        assert (d.inputs, d.outputs) == (1, 2)
        assert (d.first.inputs, d.first.outputs) == (1, 4)
        # slotted nodes: no per-node __dict__
        assert not hasattr(d, "__dict__") and not hasattr(Had(), "__dict__")

    def test_par_sums(self):
        d = Par(Spider(Basis.X, Phase.zero(), 1, 2), Cup())
        assert (d.inputs, d.outputs) == (1, 4)

    def test_negative_rejected(self):
        with pytest.raises(DiagramError):
            Id(-1)
        with pytest.raises(DiagramError):
            Spider(Basis.Z, Phase.zero(), -1, 0)

    def test_max_width(self):
        d = Seq(cup_many(2), par(Cap(), Id(2)))
        assert max_width(d) == 4

    def test_thread_in_wire_order(self):
        h, cup, cap = Had(), Cup(), Cap()
        d = Seq(Par(h, cup), Par(cap, Id(1)))
        seen = []

        def leaf(node, ins):
            seen.append((node, ins))
            return [f"{type(node).__name__}{j}" for j in range(node.outputs)]

        # the cap takes the Had's output and the cup's first wire, and the
        # Id passes the cup's second; leaf never sees the Id
        assert thread(d, ["a"], leaf) == ["Cup1"]
        assert seen == [(h, ["a"]), (cup, []), (cap, ["Had0", "Cup0"])]
        # a Perm routes, input i to position perm[i], and leaf never sees
        # it; the inverse routing would give c, a, b
        seen.clear()
        d = Seq(Perm((2, 0, 1)), Par(h, Id(2)))
        assert thread(d, ["a", "b", "c"], leaf) == ["Had0", "c", "a"]
        assert seen == [(h, ["b"])]

        # deeper than the recursion limit, in a Seq and in a hand-built Par
        def step(node, ins):
            return [ins[0] + 1]

        assert thread(seq(*[h] * 5000), [0], step) == [5000]
        d = h
        for _ in range(4999):
            d = Par(d, h)
        assert thread(d, list(range(5000)), step) == list(range(1, 5001))


class TestPermutation:
    @given(st.permutations(list(range(5))))
    def test_matches_explicit_matrix(self, perm):
        d = permutation(list(perm))
        # one node: a Perm, or an Id for the identity
        if list(perm) == list(range(5)):
            assert d == Id(5)
        else:
            assert d == Perm(tuple(perm))
        assert d.inputs == d.outputs == 5
        m = denote(d)
        # out_bits[perm[i]] = in_bits[i]
        for src in range(8):  # sample a few basis states
            bits = [(src >> (4 - i)) & 1 for i in range(5)]
            out_bits = [0] * 5
            for i, p in enumerate(perm):
                out_bits[p] = bits[i]
            tgt = int("".join(map(str, out_bits)), 2)
            col = m[:, int("".join(map(str, bits)), 2)]
            assert col[tgt] == 1 and abs(col).sum() == 1

    def test_identity(self):
        assert permutation([0, 1, 2]) == Id(3)

    def test_rejects_non_permutation(self):
        with pytest.raises(DiagramError):
            permutation([0, 0, 1])


class TestBuilders:
    def test_upsilon_n1_is_identity(self):
        assert upsilon(3, Basis.Z, 1) == Id(3)

    def test_upsilon_arity(self):
        d = upsilon(2, Basis.X, 3)
        assert (d.inputs, d.outputs) == (2, 6)

    def test_upsilon_copy_major(self):
        # |01> shared over Z must land on |01|01> (copy-major), not |00|11>
        d = upsilon(2, Basis.Z, 2)
        m = denote(d)
        v = np.zeros(4, complex)
        v[0b01] = 1
        out = m @ v
        assert out[0b0101] == 1 and abs(out).sum() == 1

    def test_cup_many_denotation(self):
        v = denote(cup_many(2)).ravel()
        # sum over 2-bit x of |x>|x>
        expect = np.zeros(16, complex)
        for x in range(4):
            expect[(x << 2) | x] = 1
        assert np.allclose(v, expect)

    def test_discard(self):
        # sharing zero ways
        m = denote(upsilon(1, Basis.Z, 0))
        assert np.allclose(m, [[1, 1]])
        mx = denote(upsilon(1, Basis.X, 0))
        assert np.allclose(mx, [[np.sqrt(2), 0]])


class TestSerialization:
    def test_round_trip_structural_identity(self):
        rng = random.Random(7)
        for _ in range(40):
            d = random_diagram(rng)
            assert from_json(to_json(d)) == d

    def test_units_stay_literal(self):
        d = Seq(Par(Id(0), Cup()), Par(Id(1), Id(1)))
        assert from_json(to_json(d)) == d
        assert seq(par(Id(0), Cup()), par(Id(1), Id(1))) != d

    def test_exact_phase_survives(self):
        d = Spider(Basis.X, Phase.exact(2, 3), 1, 1)
        d2 = from_json(to_json(d))
        assert d2.phase.is_exact and d2.phase.pi_multiple == d.phase.pi_multiple

    def test_malformed_rejected(self):
        with pytest.raises(DiagramError):
            from_json("{}")
        with pytest.raises(DiagramError):
            from_json('{"kind": "mystery"}')
        with pytest.raises(DiagramError, match="unknown node kind 'scalar'"):
            # a scalar is written as a 0 -> 0 spider
            from_json('{"kind": "scalar", "re": 1, "im": 0}')
        with pytest.raises(DiagramError):
            from_json("not json")
        spider = '{"kind":"spider","basis":"Z","phase":%s,"in":%s,"out":1}'
        for doc in [
            spider % ('{"pi_num":0}', "null"),
            spider % ('{"pi_num":"a"}', "1"),
            spider % ('{"pi_num":1,"pi_den":0}', "1"),
            spider % ('{"radians":null}', "1"),
            spider % ('{"pi_num":true}', "1"),
            spider % ('{"pi_num":1,"pi_den":true}', "1"),
            spider % ('{"radians":true}', "1"),
            spider % ('{"radians":NaN}', "1"),
            spider % ('{"radians":1e400}', "1"),
            spider % ('{"radians":1%s}' % ("0" * 400), "1"),
            '{"kind":"scalar","re":null,"im":0}',
            '{"kind":"perm","perm":5}',
            '{"kind":"perm","perm":[0,0]}',
            '{"kind":"id","wires":1.9}',
            '{"kind":"id","wires":true}',
            '{"kind":"id","wires":"1"}',
            '{"kind":"perm","perm":[1.7,0.2]}',
            spider % ('{"pi_num":0}', "1.0"),
        ]:
            with pytest.raises(DiagramError):
                from_json(doc)

    def test_arity_checked_on_load(self):
        bad = '{"kind":"seq","first":{"kind":"id","wires":1},"second":{"kind":"id","wires":2}}'
        with pytest.raises(DiagramError):
            from_json(bad)


class TestDot:
    def test_smoke(self):
        d = Seq(Spider(Basis.Z, Phase.exact(1), 0, 2), par(Had(), Id(1)))
        dot = to_dot(d)
        assert dot.startswith("digraph")
        assert "green" in dot and "H" in dot

    def test_random_diagrams_render(self):
        rng = random.Random(11)
        for _ in range(10):
            assert "digraph" in to_dot(random_diagram(rng))


def _z_chain(phases):
    """A left-nested Seq of 1 -> 1 Z spiders, one per phase, the first
    deepest."""
    return reduce(Seq, [Spider(Basis.Z, p, 1, 1) for p in phases])


class TestSame:
    def test_deep_chain_without_recursion(self):
        a, b = _z_chain([Phase.zero()] * 5000), _z_chain([Phase.zero()] * 5000)
        with pytest.raises(RecursionError):
            a == b
        assert a is not b and same(a, b)

    def test_one_deep_leaf_phase_differs(self):
        phases = [Phase.zero()] * 5000
        a = _z_chain(phases)
        phases[1] = Phase.exact(1, 2)
        assert not same(a, _z_chain(phases))
        assert not same(_z_chain(phases), a)

    def test_node_types_and_fields(self):
        assert same(Had(), Had()) and same(Id(2), Id(2))
        assert not same(Id(2), Id(3))
        assert not same(Id(2), Perm((1, 0)))
        assert not same(Perm((0, 2, 1)), Perm((1, 0, 2)))
        assert not same(Cup(), Cap())
        # Seq and Par over the same children are different diagrams
        assert not same(Seq(Id(1), Had()), Par(Id(1), Had()))
        assert not same(Par(Had(), Id(1)), Par(Id(1), Had()))
        x = Spider(Basis.X, Phase.zero(), 1, 2)
        assert not same(x, Spider(Basis.Z, Phase.zero(), 1, 2))
        assert not same(x, Spider(Basis.X, Phase.zero(), 2, 1))
        # an exact and a decimal phase are different fields, as with ==
        assert not same(Spider(Basis.Z, Phase.exact(1), 1, 1),
                        Spider(Basis.Z, Phase.radians(np.pi), 1, 1))

    def test_shared_subtree_matches_by_identity(self):
        body = _z_chain([Phase.exact(1, 4)] * 3)
        assert same(Par(body, body), Par(body, _z_chain([Phase.exact(1, 4)] * 3)))

    def test_agrees_with_eq_on_random_diagrams(self):
        rng = random.Random(37)
        ds = [random_diagram(rng) for _ in range(60)]
        for d in ds:
            assert same(d, from_json(to_json(d)))
        for a, b in zip(ds, ds[1:] + ds[:1]):
            assert same(a, b) == (a == b)
