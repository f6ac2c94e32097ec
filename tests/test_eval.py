import json
import random
import tracemalloc

import numpy as np
import pytest

from zetacalc.diagram import (
    Cap,
    Cup,
    Had,
    Id,
    Par,
    Scalar,
    Seq,
    Spider,
    Swap,
    par,
    seq,
)
from zetacalc.evaluator import (
    BOTH_ZERO,
    HADAMARD,
    EvalError,
    WireBudgetError,
    denote,
    equal_up_to_scalar,
    format_complex,
    matrix_from_json,
    matrix_to_json,
    max_deviation,
    oracle_contract,
    phase_exp,
    spider_matrix,
)
from zetacalc.semantics import eval_as_map, translate
from zetacalc.syntax import Basis, Phase, parse
from zetacalc.types import Context, fn_parts, infer

from conftest import random_diagram, term_pool

Z0 = Phase.zero()


class TestPhaseExp:
    def test_exact_quarter_turns(self):
        assert phase_exp(Phase.zero()) == 1
        assert phase_exp(Phase.exact(1, 2)) == 1j
        assert phase_exp(Phase.exact(1)) == -1
        assert phase_exp(Phase.exact(3, 2)) == -1j

    def test_general(self):
        assert abs(phase_exp(Phase.exact(1, 3)) - np.exp(1j * np.pi / 3)) < 1e-15


class TestSpiders:
    def test_z_spider_matches_formula(self):
        m = spider_matrix(Basis.Z, Phase.exact(1, 2), 1, 2)
        expect = np.zeros((4, 2), complex)
        expect[0, 0] = 1
        expect[3, 1] = 1j
        assert np.allclose(m, expect)

    def test_x_spider_0_1(self):
        m = spider_matrix(Basis.X, Phase.exact(1), 0, 1)
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        assert np.allclose(m.ravel(), plus - minus)

    def test_scalar_spider(self):
        m = spider_matrix(Basis.Z, Phase.exact(1), 0, 0)
        assert np.allclose(m, [[1 + phase_exp(Phase.exact(1))]])


class TestDenote:
    def test_cup_cap(self):
        assert np.allclose(denote(Cup()).ravel(), [1, 0, 0, 1])
        assert np.allclose(denote(Cap()), [[1, 0, 0, 1]])

    def test_hadamard_normalized(self):
        assert np.allclose(denote(Had()), HADAMARD)
        assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))

    def test_scalar(self):
        assert denote(Scalar(2 - 1j))[0, 0] == 2 - 1j

    def test_par_wire_order(self):
        # wire 0 (top) is the most significant qubit
        top = Spider(Basis.Z, Phase.exact(1), 0, 1)  # |0> - |1>
        bottom = Spider(Basis.Z, Z0, 0, 1)  # |0> + |1>
        v = denote(Par(top, bottom)).ravel()
        assert np.allclose(v, [1, 1, -1, -1])


class TestExactIdentities:
    """Identities that must hold exactly (not just within tolerance) at
    exact quarter-turn phases."""

    def test_spider_fusion(self):
        for basis in (Basis.Z, Basis.X):
            a, b = Phase.exact(1, 2), Phase.exact(1)
            fused = spider_matrix(basis, a + b, 1, 1)
            composed = denote(Seq(Spider(basis, a, 1, 1), Spider(basis, b, 1, 1)))
            assert np.max(np.abs(fused - composed)) <= 1e-12

    def test_fusion_multi_leg(self):
        d1 = Seq(Spider(Basis.Z, Phase.exact(1), 1, 2),
                 Par(Spider(Basis.Z, Phase.exact(1, 2), 1, 1), Id(1)))
        d2 = Spider(Basis.Z, Phase.exact(3, 2), 1, 2)
        assert np.array_equal(denote(d1), denote(d2))

    def test_color_change(self):
        for phase in (Z0, Phase.exact(1, 2), Phase.exact(1)):
            z = Spider(Basis.Z, phase, 1, 1)
            x = Spider(Basis.X, phase, 1, 1)
            conj = denote(seq(Had(), x, Had()))
            assert np.allclose(denote(z), conj, atol=1e-15)

    def test_identity_removal(self):
        wire = denote(Spider(Basis.Z, Z0, 1, 1))
        assert np.array_equal(wire, np.eye(2))
        xwire = denote(Spider(Basis.X, Z0, 1, 1))
        assert np.allclose(xwire, np.eye(2), atol=1e-15)

    def test_snake(self):
        # (cap x id) . (id x cup) = id
        snake = Seq(Par(Id(1), Cup()), Par(Cap(), Id(1)))
        assert np.allclose(denote(snake), np.eye(2), atol=0)
        snake2 = Seq(Par(Cup(), Id(1)), Par(Id(1), Cap()))
        assert np.allclose(denote(snake2), np.eye(2), atol=0)


class TestEqualUpToScalar:
    def test_witness(self):
        a = np.array([[2j, 0], [0, 2j]])
        c = equal_up_to_scalar(a, np.eye(2))
        assert abs(c - 2j) < 1e-12

    def test_distinct(self):
        assert equal_up_to_scalar(np.eye(2), np.array([[1, 0], [0, -1]])) is None

    def test_both_zero(self):
        assert equal_up_to_scalar(np.zeros((2, 2)), np.zeros((2, 2))) is BOTH_ZERO

    def test_one_zero(self):
        assert equal_up_to_scalar(np.zeros((2, 2)), np.eye(2)) is None
        assert equal_up_to_scalar(np.eye(2), np.zeros((2, 2))) is None

    def test_shape_mismatch(self):
        with pytest.raises(EvalError):
            equal_up_to_scalar(np.eye(2), np.eye(4))

    def test_max_deviation_is_scalar_insensitive(self):
        # deviation is measured after the best scalar fit
        assert max_deviation(np.eye(2), np.eye(2) * 2) == 0
        assert max_deviation(np.eye(2), np.diag([1, -1])) > 0


class TestOracle:
    def test_matches_denote_on_generators(self):
        for d in [
            Cup(),
            Cap(),
            Had(),
            Swap(),
            Spider(Basis.Z, Phase.exact(1, 2), 2, 1),
            Spider(Basis.X, Phase.radians(0.7), 0, 3),
            Scalar(1.5 - 0.5j),
            Id(2),
        ]:
            assert np.allclose(denote(d), oracle_contract(d), atol=1e-12)

    def test_matches_denote_on_random_diagrams(self):
        rng = random.Random(2024)
        for _ in range(60):
            d = random_diagram(rng)
            m = denote(d)
            o = oracle_contract(d)
            assert np.max(np.abs(m - o)) <= 1e-9

    def test_budget(self):
        with pytest.raises(WireBudgetError):
            oracle_contract(Id(15))

    def test_matches_denote_on_pool(self):
        for src in term_pool():
            ty, deriv = infer(Context(), parse(src))
            jd = translate(deriv)
            diagrams = [jd.diagram]
            if fn_parts(ty) is not None:
                diagrams.append(eval_as_map(jd).diagram)
            for d in diagrams:
                assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12, src


def _denote_peak(d):
    """denote(d) and the tracemalloc peak of the call, in bytes."""
    tracemalloc.start()
    try:
        m = denote(d)
        return m, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestParLayers:
    def test_factors_applied_in_place(self):
        # a Par layer with a shrinking and a growing factor around Id wires
        layer = Par(Par(Cap(), Id(1)), Par(Spider(Basis.X, Phase.exact(1, 2), 1, 3), Scalar(2j)))
        d = Seq(Spider(Basis.Z, Phase.exact(1), 1, 4), layer)
        expect = np.kron(np.kron(denote(Cap()), np.eye(2)),
                         spider_matrix(Basis.X, Phase.exact(1, 2), 1, 3)) * 2j
        assert np.max(np.abs(denote(d) - expect @ denote(d.first))) <= 1e-12

    def test_shrinking_factors_go_first(self):
        # 14 wires in and out; applying the 1->7 spider before the 7->1 one
        # would pass through a 2^20-row intermediate (16 MB)
        layer = par(Spider(Basis.X, Z0, 1, 7), Spider(Basis.X, Z0, 7, 1), Id(6))
        m, peak = _denote_peak(Seq(Spider(Basis.Z, Z0, 0, 14), layer))
        assert m.shape == (2**14, 1)
        assert peak < 8 * m.nbytes  # building the 14-wire state alone takes 4x

    def test_wide_sharing_map_peak(self):
        source = "Z x:1. " + "<x," * 10 + "x" + ">" * 10
        _, deriv = infer(Context(), parse(source))
        m, peak = _denote_peak(eval_as_map(translate(deriv)).diagram)
        assert m.shape == (2**11, 2)
        assert peak < 64 * 2**20


def _map_of(source):
    _, deriv = infer(Context(), parse(source))
    return eval_as_map(translate(deriv)).diagram


class TestEvaluationWalk:
    def test_par_is_kron(self):
        rng = random.Random(31)
        for _ in range(60):
            a, b = random_diagram(rng, max_wires=5), random_diagram(rng, max_wires=5)
            expect = np.kron(denote(a), denote(b))
            assert np.max(np.abs(denote(Par(a, b)) - expect)) <= 1e-12

    def test_sub_diagrams_see_only_the_columns_flowing_in(self):
        # each wide factor of the 11-way copy map is applied to the 2
        # columns that reach it, never to its own 1024-wide identity
        m, peak = _denote_peak(_map_of("Z x:1. " + "<x," * 10 + "x" + ">" * 10))
        assert m.shape == (2**11, 2)
        assert peak < 2**20

    def test_narrow_sub_diagrams_run_on_their_identity(self):
        # the staircase of the rotation chain carries many wires past each
        # rotation; applied to all those columns, the rotations' cups would
        # need gigabytes
        m, peak = _denote_peak(_map_of(" o ".join(["rot Z^pi/4"] * 100)))
        assert m.shape == (2, 2)
        assert peak < 2**20

    def test_leaf_matrices_do_not_escape(self):
        for d in [Spider(Basis.Z, Phase.exact(1, 2), 1, 2), Had(), Cup(), Cap()]:
            a, b = denote(d), denote(d)
            assert not np.shares_memory(a, b)
            assert a.flags.writeable
            a[...] = 7
            assert np.array_equal(denote(d), b)
            assert not np.array_equal(a, b)
        assert np.allclose(HADAMARD @ HADAMARD, np.eye(2))


class TestMatrixJson:
    def test_round_trip(self):
        m = np.array([[1 + 2j, 0], [0.5, -1j]])
        m2 = matrix_from_json(matrix_to_json(m))
        assert np.allclose(m, m2)
        doc = json.loads(matrix_to_json(m))
        assert doc["shape"] == [2, 2]

    def test_format_complex(self):
        assert format_complex(1 + 0j) == "1+0i"
        assert "i" in format_complex(0.5j)
