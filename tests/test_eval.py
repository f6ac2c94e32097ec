import json
import random
import sys
import time
import tracemalloc
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest

from zetacalc import evaluator, semantics
from zetacalc.diagram import (
    Cap,
    Cup,
    Had,
    Id,
    Par,
    Perm,
    Seq,
    Spider,
    from_json,
    from_json_obj,
    max_width,
    par,
    seq,
    to_json,
    to_json_obj,
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

    def test_scalar_is_a_closed_spider(self):
        # a 0 -> 0 spider denotes 1 + e^{ia}
        assert denote(Spider(Basis.Z, Phase.exact(1, 2), 0, 0))[0, 0] == 1 + 1j

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
            Spider(Basis.X, Phase.radians(0.4), 0, 0),
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
            Par(Cup(), Par(Spider(Basis.Z, Phase.exact(1, 2), 0, 0), Cap())),
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


    def test_h_chain_of_a_thousand_denotes_at_the_default_limit(self):
        # only building the map needs a raised recursion limit: denote walks
        # its nesting at the default limit of 1 000
        term = parse(" o ".join(["H"] * 1000))
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(10_000)
            d = eval_as_map(translate(infer(Context(), term)[1])).diagram
            sys.setrecursionlimit(1000)
            m = denote(d)
        finally:
            sys.setrecursionlimit(limit)
        assert np.max(np.abs(m - np.eye(2))) <= 1e-12


def _plan_peak(d):
    """The most legs of any tensor the oracle's elimination holds, the
    result included: what it checks against the budget."""
    with mock.patch.object(evaluator, "_fits", wraps=evaluator._fits) as fits:
        oracle_contract(d)
    fits.assert_called_once()
    return fits.call_args.args[0]


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
        scalar = Spider(Basis.Z, Phase.exact(1, 2), 0, 0)
        layer = Par(Par(Cap(), Id(1)), Par(Spider(Basis.X, Phase.exact(1, 2), 1, 3), scalar))
        d = Seq(Spider(Basis.Z, Phase.exact(1), 1, 4), layer)
        expect = np.kron(np.kron(denote(Cap()), np.eye(2)),
                         spider_matrix(Basis.X, Phase.exact(1, 2), 1, 3)) * (1 + 1j)
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


_KERNEL_PHASES = [Z0, Phase.exact(1, 2), Phase.exact(1), Phase.exact(1, 4),
                  Phase.radians(1.25)]


def _spread(m, L, R):
    """L * 2^m * R identity columns as a (L, 2^m, R * columns) tensor, so
    that applying a spider to it gives kron(I_L, spider, I_R)."""
    n = L * 2**m * R
    return np.eye(n, dtype=complex).reshape(L, 2**m, R * n)


class TestSpiderKernel:
    """denote applies a spider to the running tensor by its structure; the
    m -> n matrix is never built."""

    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    @pytest.mark.parametrize("phase", _KERNEL_PHASES, ids=str)
    def test_matches_the_matrix_and_the_oracle(self, basis, phase):
        # quarter turns: 0, pi/2 and pi
        exact = basis is Basis.Z and phase in _KERNEL_PHASES[:3]
        for m in range(6):
            for n in range(6):
                p = Spider(basis, phase, m, n)
                refs = spider_matrix(basis, phase, m, n), oracle_contract(p)
                for L, R in [(1, 1), (2, 1), (1, 2), (2, 4)]:
                    t = _spread(m, L, R)
                    got = evaluator._apply_spider(p, t, evaluator._ADDRESSABLE)
                    got = got.reshape(L * 2**n * R, -1)
                    for ref in refs:
                        want = np.kron(np.kron(np.eye(L), ref), np.eye(R))
                        if exact:
                            assert np.array_equal(got, want), (m, n, L, R)
                        else:
                            assert np.max(np.abs(got - want)) <= 1e-15, (m, n, L, R)

    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_no_array_larger_than_its_input_or_result(self, basis):
        # a 0 -> 0 X spider on a (L, 1, R) tensor may make no (L, 2, R) slab
        for m in range(4):
            for n in range(4):
                for L, R in [(1, 1), (2, 3)]:
                    t = np.ones((L, 2**m, R), dtype=complex)
                    rec = _RecordingNumpy()
                    evaluator.np = rec
                    try:
                        out = evaluator._apply_spider(
                            Spider(basis, Phase.exact(1, 4), m, n), t, evaluator._ADDRESSABLE
                        )
                    finally:
                        evaluator.np = np
                    assert out.shape == (L, 2**n, R)
                    assert rec.largest <= max(t.size, out.size), (m, n, L, R)
                    assert "matmul" not in rec.calls

    @pytest.mark.parametrize("phase", _KERNEL_PHASES, ids=str)
    def test_x_rows_are_the_literal_formula_bit_for_bit(self, phase):
        # integer entries, so u0 and u1 are exact in any order of summation;
        # row i is then scale u0 + (-1)^popcount(i) (scale e^{ia}) u1, each
        # product rounded once, as the kernel rounds it
        rng = np.random.default_rng(5)
        w = phase_exp(phase)
        for m in range(6):
            for n in range(6):
                scale = 2.0 ** (-(m + n) / 2)
                for L, R in [(1, 1), (2, 3)]:
                    t = rng.integers(-8, 9, (L, 2**m, R)) + 1j * rng.integers(-8, 9, (L, 2**m, R))
                    u0 = sum(t[:, j] for j in range(2**m))
                    u1 = sum((-1) ** bin(j).count("1") * t[:, j] for j in range(2**m))
                    a, b = scale * u0, scale * w * u1
                    rows = [a - b if bin(i).count("1") % 2 else a + b for i in range(2**n)]
                    got = evaluator._apply_spider(
                        Spider(Basis.X, phase, m, n), t, evaluator._ADDRESSABLE
                    )
                    assert np.array_equal(got, np.stack(rows, axis=1)), (m, n, L, R)

    def test_one_to_one_x_spider_takes_a_few_numpy_calls(self):
        # two folds, two scalings, and rows 0 and 1 written into the result:
        # no parity table and no masked copy
        rec = _RecordingNumpy()
        evaluator.np = rec
        try:
            evaluator._apply_spider(
                Spider(Basis.X, Phase.exact(1, 4), 1, 1),
                np.ones((1, 2, 1), dtype=complex),
                evaluator._ADDRESSABLE,
            )
        finally:
            evaluator.np = np
        assert ("copyto", "where") not in rec.keywords
        assert sum(rec.calls.values()) <= 7, rec.calls

    @pytest.mark.parametrize("basis", "ZX")
    def test_wide_copy_map_holds_about_its_result(self, basis):
        evaluator._hadamard()
        m, peak = _denote_peak(_map_of(f"{basis} x:1. " + "<x," * 10 + "x" + ">" * 10))
        assert m.shape == (2**11, 2)
        assert peak <= 1.3 * m.nbytes


class _RecordingNumpy:
    """Stands in for numpy inside the evaluator and records the size of the
    largest array any numpy call returns, how often each function is
    called, and how often with each keyword argument. Reshapes and
    transposes are array methods and are not seen, but they copy at most an
    array already held."""

    def __init__(self):
        self.largest = 0
        self.calls = Counter()
        self.keywords = Counter()

    def __getattr__(self, name):
        fn = getattr(np, name)
        if not callable(fn) or isinstance(fn, type):
            return fn

        def recorded(*args, **kwargs):
            self.calls[name] += 1
            self.keywords.update((name, key) for key in kwargs)
            out = fn(*args, **kwargs)
            if isinstance(out, np.ndarray):
                self.largest = max(self.largest, out.size)
            return out

        return recorded


def _matmuls(d):
    """The matmuls denote(d) makes. H's matrix is built first, outside the
    count, so the count does not depend on which test ran first."""
    evaluator._hadamard()
    rec = _RecordingNumpy()
    evaluator.np = rec
    try:
        denote(d)
    finally:
        evaluator.np = np
    return rec.calls["matmul"]


def _largest_legs(d, budget=None):
    """log2 of the entries of the largest array denote(d, budget) creates,
    whether or not it raises WireBudgetError. H's matrix, unbounded by
    design, is built first, outside the record, so the result does not
    depend on which test ran first."""
    evaluator._hadamard()
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

    @pytest.mark.parametrize("arity, budget, refusal", [
        (1, 10**8, None),
        (10**8, evaluator.WIRE_BUDGET, "100000000 legs"),
    ], ids=["huge-budget", "huge-arity"])
    def test_no_power_of_two_before_the_budget_test(self, arity, budget, refusal):
        # each gate compares leg counts: neither 2^budget nor 2^arity, a
        # 12.5 MB integer here, is formed
        d = Spider(Basis.Z, Z0, 0, arity)
        tracemalloc.start()
        try:
            if refusal is None:
                assert denote(d, budget).shape == (2, 1)
            else:
                with pytest.raises(WireBudgetError, match=refusal):
                    denote(d, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    @pytest.mark.parametrize("text, message", [
        ('{"shape": [1, 1]}', "KeyError"),
        ('{"shape": [2, 1], "entries": [[1, 0]]}', "1 entries for a 2x1"),
        ("not json", "JSONDecodeError"),
        ('{"shape": [1, 1], "entries": [[true, 0]]}', "pairs of numbers"),
        ('{"shape": [1, 1], "entries": [[NaN, 0]]}', "finite"),
        ('{"shape": [1, 1], "entries": [[0, Infinity]]}', "finite"),
        ('{"shape": [1, 1], "entries": [[1e400, 0]]}', "finite"),
        ('{"shape": [1, 1], "entries": [[1' + "0" * 400 + ', 0]]}', "out of range"),
        ('{"shape": [3, 1], "entries": [[1, 0], [1, 0], [1, 0]]}', "power of two"),
        ('{"shape": [-2, -2], "entries": [[1, 0], [1, 0], [1, 0], [1, 0]]}', "whole"),
        ('{"shape": [1.0, 1], "entries": [[1, 0]]}', "whole"),
        ('{"shape": [1, 1], "entries": [[1, 0, 0]]}', "ValueError"),
        ('{"shape": [1, 1], "entries": ["ab"]}', "pairs of numbers"),
        ("[1, 2]", "TypeError"),
    ])
    def test_malformed_documents_raise_eval_error(self, text, message):
        with pytest.raises(EvalError, match=message):
            matrix_from_json(text)

    def test_round_trip_is_exact(self):
        m = np.array([[-0.0, 1e-300 - 2.5j], [0.1, -1j]])
        m2 = matrix_from_json(matrix_to_json(m))
        assert m2.tobytes() == m.tobytes() and m2.shape == (2, 2)
        assert matrix_from_json(matrix_to_json(np.zeros((0, 0)))).shape == (0, 0)

    def test_format_complex(self):
        assert format_complex(1 + 0j) == "1+0i"
        assert "i" in format_complex(0.5j)


_QUARTER = Phase.exact(1, 2)
# the three spiders of H = rot Z^pi/2 o rot X^pi/2 o rot Z^pi/2, as one Seq
_H_BODY = Seq(
    Seq(Spider(Basis.Z, _QUARTER, 1, 1), Spider(Basis.X, _QUARTER, 1, 1)),
    Spider(Basis.Z, _QUARTER, 1, 1),
)


def _right_nested(body, parts):
    d = body
    for _ in range(parts - 1):
        d = Seq(body, d)
    return d


def _repeated_cases():
    """(label, diagram, exact) for diagrams that repeat a sub-diagram
    object. `exact` when every entry of every product is a dyadic rational,
    so the order in which the matrices are multiplied cannot round."""
    cases = [(f"H x {n}", _map_of(" o ".join(["H"] * n)), True) for n in range(1, 65)]
    # a 1 -> 1 body, two wires wide inside, repeated in both factors of a Par
    for label, gate, exact in [("X^pi", Spider(Basis.X, Phase.exact(1), 1, 1), True),
                               ("Had", Had(), False)]:
        body = seq(
            Spider(Basis.Z, _QUARTER, 1, 2),
            Par(gate, Spider(Basis.X, _QUARTER, 1, 1)),
            Spider(Basis.Z, Z0, 2, 1),
        )
        twice = Seq(body, body)
        chain = Seq(twice, twice)
        cases.append((f"{label} body in a Par", Par(chain, Par(Id(1), chain)), exact))
    # a 3 -> 3 body repeated on the 2 columns of a 1 -> 1 map: its own
    # identity has 8 columns, so it is never evaluated on it
    body = Seq(Par(Spider(Basis.X, _QUARTER, 1, 1), Id(2)), Perm((1, 2, 0)))
    fan = seq(Spider(Basis.Z, Z0, 1, 3), body, body, body, Spider(Basis.Z, Z0, 3, 1))
    cases.append(("wide body on a narrow tensor", fan, True))
    # a 1 -> 1 body 16 rows wide inside, walked first in a Par factor on its
    # own 2 columns, then met on the 8 columns a 3 -> 1 spider leaves: both
    # walks hold a 128-entry array there, over budget 6's 64
    body = Seq(Spider(Basis.Z, _QUARTER, 1, 4), Spider(Basis.Z, Z0, 4, 1))
    first = Par(Seq(Id(1), body), Id(2))
    later = Seq(Seq(Spider(Basis.Z, Z0, 3, 1), body), Spider(Basis.Z, Z0, 1, 3))
    cases.append(("body met again on more columns", Seq(first, later), True))
    nested = _right_nested(_H_BODY, 2000)
    cases.append(("2000 right-nested", nested, True))
    # met again as a whole, each of its 1 999 inner Seqs is repeated
    cases.append(("2000 right-nested, twice", Seq(nested, nested), True))
    return cases


def _outcome(d, budget):
    try:
        return denote(d, budget)
    except WireBudgetError:
        return None


class TestRepeatedSubDiagrams:
    """denote walks a repeated Seq or Par at each occurrence and reuses only
    H's matrix: the matrix is that of a copy that shares no node,
    and the shared diagram and the copy are refused at the same budgets."""

    @pytest.mark.parametrize(
        "d, exact",
        [pytest.param(d, exact, id=label) for label, d, exact in _repeated_cases()],
    )
    def test_same_as_a_copy_that_shares_nothing(self, d, exact):
        limit = sys.getrecursionlimit()
        try:
            # the JSON round trip recurses; denote does not
            sys.setrecursionlimit(20_000)
            copy = from_json_obj(to_json_obj(d))
        finally:
            sys.setrecursionlimit(limit)

        def same(a, b):
            return np.array_equal(a, b) if exact else np.max(np.abs(a - b)) <= 1e-12

        m, m_copy = denote(d), denote(copy)
        assert same(m, m_copy)
        # the oracle walks every occurrence, so sharing cannot change it
        o = oracle_contract(d)
        assert np.max(np.abs(m - o)) <= 1e-12 and np.max(np.abs(m_copy - o)) <= 1e-12
        for budget in range(7):
            shared, unshared = _outcome(d, budget), _outcome(copy, budget)
            assert (shared is None) == (unshared is None), budget
            assert shared is None or np.array_equal(shared, m), budget
            assert unshared is None or np.array_equal(unshared, m_copy), budget

    def test_a_repeated_body_is_one_matmul(self):
        # H x 20 as a map: every walk starts with H's matrix, and each H is
        # one matmul, 20 in all, not 60
        assert _matmuls(_map_of(" o ".join(["H"] * 20))) == 20

    def test_h_as_a_par_factor_is_one_matmul(self):
        # the map is Par(body, body) over H's body: each factor is one
        # matmul with H's matrix, not a walk of its three spiders
        d = _map_of("Z x:1*1. let <a, b> =Z x in <H a, H b>")
        assert _matmuls(d) == 2
        assert np.max(np.abs(denote(d) - oracle_contract(d))) <= 1e-12

    def test_no_translated_diagram_repeats_a_composite_but_h(self):
        # the premise of reusing only leaves and H's matrix: below H's
        # body, no translated diagram reaches one Seq or Par object twice
        body = evaluator._hadamard()[0]
        for label, d in translated_diagrams():
            seen, todo = set(), [d]
            while todo:
                node = todo.pop()
                if node is body or not isinstance(node, (Seq, Par)):
                    continue
                assert id(node) not in seen, label
                seen.add(id(node))
                if isinstance(node, Seq):
                    todo += [node.first, node.second]
                else:
                    todo += [node.top, node.bottom]

    def test_identity_is_built_without_eye(self):
        rec = _RecordingNumpy()
        evaluator.np = rec
        try:
            m = denote(Id(3))
        finally:
            evaluator.np = np
        assert np.array_equal(m, np.eye(8)) and m.dtype == complex
        assert "eye" not in rec.calls


class TestHadamardMatrix:
    """Every denote walk starts with the matrix of the body translate
    shares for H, evaluated once per process."""

    def test_read_only_and_the_oracle_value(self):
        body, m = evaluator._hadamard()
        assert body is semantics._hadamard()[1] and body is _map_of("H")
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0
        assert m.shape == (2, 2) and np.max(np.abs(m - oracle_contract(body))) <= 1e-12

    @pytest.mark.parametrize("source", ["H", "H o H", "<H Z[1], Z x:1. H x>"])
    def test_a_written_result_leaves_the_next_unchanged(self, source):
        _, deriv = infer(Context(), parse(source))
        jd = translate(deriv)
        graphs = [jd.diagram] + ([eval_as_map(jd).diagram] if fn_parts(jd.type) else [])
        for d in graphs:
            first = denote(d)
            expected = first.copy()
            first[...] = 7
            assert np.array_equal(denote(d), expected)


def _naive_fit(a, b, tol):
    """equal_up_to_scalar and max_deviation written out: c is a/b at the
    first of b's largest-magnitude entries in row-major order."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    mags = np.abs(b)
    if not b.size or not mags.max():
        return (BOTH_ZERO if not a.size or np.abs(a).max() <= tol else None), (
            float(np.abs(a).max()) if a.size else 0.0
        )
    idx = np.unravel_index(np.argmax(mags), b.shape)
    c = a[idx] / b[idx]
    deviation = float(np.abs(a - c * b).max())
    if mags[idx] <= tol:
        return (BOTH_ZERO if np.abs(a).max() <= tol else None), deviation
    return (complex(c) if c != 0 and deviation <= tol else None), deviation


def _fit_cases():
    rng = np.random.default_rng(7)

    def rand(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    cases = []
    for shape in [(1, 1), (2, 2), (4, 2), (3, 5)]:
        a, b = rand(*shape), rand(*shape)
        cases += [(a, b), (b * (0.5 - 2j), b), (b * (0.5 - 2j) + 1e-11, b)]
    z = np.zeros((2, 2), dtype=complex)
    cases += [(z, z), (z, np.eye(2)), (np.eye(2), z), (z + 1e-12, z + 1e-12j)]
    cases += [(np.zeros((0, 2)), np.zeros((0, 2))), (np.zeros((2, 0)), np.zeros((2, 0)))]
    # four entries of magnitude 1: the first one sets c
    tied = np.array([[1, -1], [1j, -1j]])
    cases += [(tied * 3j, tied), (np.array([[3, 1], [2, 4]]), tied)]
    # views: transposed, strided, and a real array against a complex one
    big = rand(4, 6)
    cases += [(big.T, (big * 2).T), (big[::2, ::3], big[1::2, ::3]), (big.real.T, big.T)]
    # more than one block of the fit: b's largest magnitude tied across two
    # blocks, where the first sets c
    block = evaluator._FIT_BLOCK
    wide = rand(3 * block // 2, 2)
    wide.flat[[5, 2 * block + 7]] = [9, 9j]
    cases += [(wide * (0.5 - 2j), wide), (rand(3 * block // 2, 2), wide)]
    # transposed and strided views over several blocks
    huge = rand(2 * block, 4)
    cases += [(huge.T, (huge * 1j).T), (huge[::3, ::2], huge[1::3, 1::2] * 2)]
    # all-zero arrays over several blocks
    zeros = np.zeros((3 * block, 2), dtype=complex)
    cases += [(zeros, zeros), (huge, np.zeros_like(huge)), (zeros[:, :1] + 1e-12, zeros[:, 1:])]
    return cases


class TestScalarFit:
    def test_fit_allocates_a_block_not_the_arrays(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2**13, 2)) + 1j * rng.normal(size=(2**13, 2))
        b = a * (2 - 1j)
        tracemalloc.start()
        try:
            max_deviation(a, b)
            equal_up_to_scalar(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.nbytes == 2**18 and peak <= 64 * 1024

    def test_real_inputs_are_not_copied_whole(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2**13, 2))
        for b in (a * 3, a * (2 - 1j) + rng.normal(size=a.shape)):
            tracemalloc.start()
            try:
                max_deviation(a, b)
                equal_up_to_scalar(a, b)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert a.nbytes == 2**17 and peak <= 64 * 1024

    def test_max_deviation_checks_shapes(self):
        # blocks of unequal arrays would pair entries that do not match
        block = evaluator._FIT_BLOCK
        with pytest.raises(EvalError, match="shape mismatch"):
            max_deviation(np.ones((2, 1)), np.ones((2, 2)))
        with pytest.raises(EvalError, match="shape mismatch"):
            max_deviation(np.ones(3 * block), np.ones(2 * block))

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    def test_matches_the_naive_formula(self, tol):
        for a, b in _fit_cases():
            before = a.copy(), b.copy()
            witness, deviation = _naive_fit(a, b, tol)
            got = equal_up_to_scalar(a, b, tol)
            assert got is witness if witness in (None, BOTH_ZERO) else got == witness
            assert max_deviation(a, b) == deviation
            assert np.array_equal(a, before[0]) and np.array_equal(b, before[1])

    @pytest.mark.parametrize("tol", [1e-9, 0.5])
    def test_real_and_int_inputs_match_the_naive_formula(self, tol):
        # real parts (strided views of complex arrays) and rounded ints,
        # against each other and against the complex originals, and a real
        # pair in proportion, whose c a real quotient would round otherwise
        def real(x):
            return x.real

        def ints(x):
            return np.round(x.real * 8).astype(int)

        for a, b in _fit_cases():
            pairs = [(real(a), real(b)), (ints(a), ints(b)), (real(a), b), (a, ints(b))]
            for x, y in pairs + [(real(b) * np.pi, real(b))]:
                witness, deviation = _naive_fit(x, y, tol)
                got = equal_up_to_scalar(x, y, tol)
                assert got is witness if witness in (None, BOTH_ZERO) else got == witness
                assert max_deviation(x, y) == deviation

    def test_a_matrix_fitted_to_itself_gives_what_the_full_fit_gives(self):
        # scalar_fit(m, m) walks m once; its values must be those of the
        # full fit of m to a copy, for every tol. A peak of 49 has a
        # quotient 49/49 that rounds below 1, and a NaN or infinite entry
        # leaves a NaN deviation: there the full fit still decides.
        block = evaluator._FIT_BLOCK
        wide = np.ones((3 * block, 2), dtype=complex)
        wide.flat[block + 3] = 9j
        nan, inf = np.array([[1, np.nan], [2, 0]]), np.array([[1, np.inf], [2, 0]])
        ms = [m for a, b in _fit_cases() for m in (a, b)]
        ms += [np.array([[49.0, 1]]), np.array([[49 + 0j, 1]]), np.array([[3, 1]]),
               np.eye(2, dtype=int), nan, inf, nan + 0j, inf.astype(complex), wide, wide.T,
               np.array([[1e-12, 0]]), np.array([[1e308 + 1e308j]])]
        for tol in (0.0, 1e-9, 0.5, np.inf, -1.0, np.nan):
            for m in ms:
                with np.errstate(invalid="ignore", over="ignore"):
                    got = evaluator.scalar_fit(m, m, tol)
                    want = evaluator.scalar_fit(m, m.copy(), tol)
                assert repr(got) == repr(want), (m, tol)

    def test_a_matrix_fitted_to_itself_is_walked_once(self):
        m = np.array([[0.5, -0.5j], [0.25, 0]])
        z = np.zeros((2, 2))
        peak49 = np.array([49.0, 1.0])
        with mock.patch.object(evaluator, "_fit", wraps=evaluator._fit) as fits:
            assert evaluator.scalar_fit(m, m) == (1 + 0j, 0.0)
            assert evaluator.scalar_fit(z, z) == (BOTH_ZERO, 0.0)
            assert fits.call_count == 0
            # 49/49 rounds below 1, so the full fit gives the deviation
            assert evaluator.scalar_fit(peak49, peak49)[1] > 0
            assert fits.call_count == 1

    def test_a_matrix_fitted_to_itself_allocates_a_block(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(2**13, 2)) + 1j * rng.normal(size=(2**13, 2))
        a /= np.abs(a).max()
        tracemalloc.start()
        try:
            evaluator.scalar_fit(a, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 1024
