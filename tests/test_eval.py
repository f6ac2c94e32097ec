import json
import random
import time
import tracemalloc
from functools import reduce
from unittest import mock

import numpy as np
import pytest

from zetacalc import evaluator
from zetacalc.diagram import (
    Cap,
    Cup,
    Had,
    Id,
    Par,
    Perm,
    Scalar,
    Seq,
    Spider,
    from_json,
    max_width,
    par,
    seq,
    to_json,
    upsilon,
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
from zetacalc.syntax import Basis, Phase, fn_parts, parse
from zetacalc.types import Context, infer

from conftest import literal_map, random_diagram, term_pool, translated_diagrams

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

    def test_matches_kron_construction(self):
        kets = {
            Basis.Z: (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
            Basis.X: (np.array([1.0, 1.0]) / np.sqrt(2), np.array([1.0, -1.0]) / np.sqrt(2)),
        }

        def power(ket, k):
            out = np.ones(1, dtype=complex)
            for _ in range(k):
                out = np.kron(out, ket)
            return out

        phases = [Phase.zero(), Phase.exact(1, 2), Phase.exact(1), Phase.exact(1, 4),
                  Phase.radians(1.25)]
        for basis, (k0, k1) in kets.items():
            for phase in phases:
                for m in range(6):
                    for n in range(6):
                        want = np.outer(power(k0, n), power(k0, m)) + phase_exp(
                            phase
                        ) * np.outer(power(k1, n), power(k1, m))
                        got = spider_matrix(basis, phase, m, n)
                        assert got.dtype == complex and got.shape == want.shape
                        assert np.max(np.abs(got - want)) <= 1e-15, (basis, phase, m, n)


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
            Perm((1, 0)),
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

    def test_refuses_large_networks_at_once(self):
        # a 30-leg spider tensor alone would be 16 GiB
        start = time.perf_counter()
        with pytest.raises(WireBudgetError, match="30 legs"):
            oracle_contract(Spider(Basis.Z, Z0, 0, 30))
        assert time.perf_counter() - start < 0.5

    def test_long_chain_evaluates(self):
        # 50 weights on one variable; no tensor held has more than 2 legs
        chain = seq(*[Spider(Basis.Z, Phase.exact(1, 4), 1, 1)] * 50)
        assert _plan_peak(chain) == 2
        start = time.perf_counter()
        o = oracle_contract(chain)
        assert time.perf_counter() - start < 0.5
        assert np.max(np.abs(denote(chain) - o)) <= 1e-12

    def test_many_factors_on_one_variable(self):
        # 200 phase weights on one variable, more than one np.einsum takes
        chain = seq(*[Spider(Basis.Z, Phase.exact(1, 4), 1, 1)] * 200)
        assert np.max(np.abs(denote(chain) - oracle_contract(chain))) <= 1e-12

    def test_gates_on_the_largest_intermediate(self, monkeypatch):
        # seven or eight 2-leg identity ties, but the result is the 2^14- or
        # 2^16-entry identity matrix
        assert np.array_equal(oracle_contract(Id(7)), np.eye(128))

        def no_contraction(*args):
            raise AssertionError("a contraction ran before the budget check")

        monkeypatch.setattr(evaluator.np, "einsum", no_contraction)
        with pytest.raises(AssertionError, match="contraction ran"):
            oracle_contract(Id(7))
        with pytest.raises(WireBudgetError, match="16 legs"):
            oracle_contract(Id(8))

    def test_closed_loops_and_disconnected_parts(self):
        loop = Seq(Cup(), Cap())
        for d in [
            loop,
            Par(loop, Had()),
            Par(Cup(), Par(Scalar(0.5j), Cap())),
            Seq(Par(Cup(), Id(1)), Par(Id(1), Perm((1, 0)))),
        ]:
            assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12

    def test_matches_denote_on_random_perms(self):
        # a Perm of 3..7 wires among Ids, after a cup and before a cap and a
        # Hadamard, so the permuted edges meet both boundaries and leaves
        rng = random.Random(8)
        for _ in range(60):
            k = rng.randint(3, 7)
            p = Perm(tuple(rng.sample(range(k), k)))
            w = rng.randint(max(0, k - 2), k)  # open wires before the cup
            pos, at, cap = rng.randint(0, w), rng.randint(0, w + 2 - k), rng.randint(0, w)
            d = reduce(Seq, [
                Par(Par(Id(pos), Cup()), Id(w - pos)),
                Par(Par(Id(at), p), Id(w + 2 - k - at)),
                Par(Par(Id(cap), Cap()), Id(w - cap)),
                Par(Had(), Id(w - 1)) if w else Id(0),
            ])
            assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12
            assert from_json(to_json(d)) == d

    def test_matches_denote_on_every_input(self):
        count = 0
        for src, d in translated_diagrams():
            assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12, src
            count += 1
        assert count > 500

    @pytest.mark.parametrize("basis", "ZX")
    @pytest.mark.parametrize("phase", ["pi/2", "pi/4"])
    def test_wide_copy_maps(self, basis, phase):
        # one spider each; its 2^(ways + 1)-entry matrix is the result
        for ways in (6, 11, 13):
            src = f"{basis}^{phase} x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)
            d = eval_as_map(translate(infer(Context(), parse(src))[1])).diagram
            assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12, src

    def test_higher_order_share_within_twelve_legs(self):
        _, deriv = infer(Context(), parse("(X f:1->1*1. <f,f>) (Z x:1. <x,x>)"))
        d = translate(deriv).diagram
        assert _plan_peak(d) <= 12
        assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12

    def test_long_h_chain_map(self):
        # 192 spiders, and no tensor held with more than 2 legs
        d = eval_as_map(translate(infer(Context(), parse(" o ".join(["H"] * 64)))[1])).diagram
        assert _plan_peak(d) == 2
        start = time.perf_counter()
        o = oracle_contract(d)
        assert time.perf_counter() - start < 1.0
        assert equal_up_to_scalar(o, np.eye(2)) is not None


def _plan_peak(d):
    """The most legs of any tensor the oracle's elimination holds, the
    result included: what it checks against the budget."""
    with mock.patch.object(evaluator, "_fits", wraps=evaluator._fits) as fits:
        oracle_contract(d)
    fits.assert_called_once()
    return fits.call_args.args[0].bit_length() - 1


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


class _RecordingNumpy:
    """Stands in for numpy inside the evaluator and records the size of the
    largest array any numpy call returns. Reshapes and transposes are array
    methods and are not seen, but they copy at most an array already held."""

    def __init__(self):
        self.largest = 0

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn) or isinstance(fn, type):
            return fn

        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.largest = max(self.largest, out.size)
            return out

        return recorded


def _largest_legs(d, budget=None):
    """log2 of the entries of the largest array denote(d, budget) creates,
    whether or not it raises WireBudgetError."""
    rec = _RecordingNumpy()
    evaluator.np = rec
    try:
        denote(d, budget)
    except WireBudgetError:
        pass
    finally:
        evaluator.np = np
    return rec.largest.bit_length() - 1


def _budget_cases():
    """The conftest pool (states and maps) and the 6..11-way copy maps."""
    sources = term_pool() + [
        f"{b} x:1. " + "<x," * (w - 1) + "x" + ">" * (w - 1)
        for b in "ZX" for w in range(6, 12)
    ]
    cases = []
    for src in sources:
        ty, deriv = infer(Context(), parse(src))
        jd = translate(deriv)
        cases.append((src, jd.diagram))
        if fn_parts(ty) is not None:
            cases.append((src + " (map)", eval_as_map(jd).diagram))
    return cases


class TestWireBudget:
    def test_budget_is_the_largest_array_created(self):
        for src, d in _budget_cases():
            k = _largest_legs(d)
            assert np.array_equal(denote(d, k), denote(d)), src
            if k == 0:
                continue
            tracemalloc.start()
            try:
                with pytest.raises(WireBudgetError):
                    denote(d, k - 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # refused before any array of 2^k entries (16 bytes each) exists
            assert peak < 2**k * 16 + 16 * 1024, src
            assert _largest_legs(d, k - 1) <= k - 1, src

    def test_counts_tensors_not_width(self):
        # the snaked cup/cap translation of the H chain is 239 wires wide at
        # its widest, but its walk holds 4-leg tensors at most
        _, deriv = infer(Context(), parse(" o ".join(["H"] * 20)))
        d = literal_map(deriv)
        assert max_width(d) == 239
        assert _largest_legs(d) == 4
        assert equal_up_to_scalar(denote(d, 4), np.eye(2)) is not None
        with pytest.raises(WireBudgetError):
            denote(d, 3)

    def test_identity_map_counts_its_matrix(self):
        # an 8-wire identity map holds one array, its 2^16-entry matrix
        assert denote(Id(8), 16).shape == (256, 256)
        with pytest.raises(WireBudgetError):
            denote(Id(8), 15)

    def test_unbounded_by_default(self):
        d = Spider(Basis.Z, Z0, 0, 15)
        assert denote(d).shape == (2**15, 1)
        with pytest.raises(WireBudgetError, match="15 legs"):
            denote(d, evaluator.WIRE_BUDGET)

    @pytest.mark.parametrize("budget", [None, 100])
    def test_unaddressable_tensor_is_out_of_memory(self, budget):
        # a 1 -> 70 spider is a 71-leg tensor, 2^75 bytes: numpy would raise
        # ValueError (array is too big), not MemoryError
        with pytest.raises(MemoryError, match="71-leg"):
            denote(upsilon(1, Basis.Z, 70), budget)


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
