import gc
import inspect
from collections import Counter
from functools import reduce
from unittest import mock

import numpy as np
import pytest

from zetacalc import evaluator, theory
from zetacalc.evaluator import (
    BOTH_ZERO,
    WireBudgetError,
    denote,
    equal_up_to_scalar,
    max_deviation,
)
from zetacalc.semantics import translate
from zetacalc.syntax import (
    Basis,
    Fn,
    Phase,
    Tensor,
    ZetaError,
    alpha_eq,
    parse,
    print_term,
    print_type,
)
from zetacalc.theory import (
    DEFAULT_TOL,
    EquationRule,
    beta_step,
    check_rule_instance,
    commutes_with_sharing,
    compare,
    denotational_equal,
    normalize,
    rules,
    run_suite,
    standard_instances,
)
from zetacalc.types import Context, Entry, Numeral, ZetaTypeError, infer, size

EMPTY = Context()

RULE_IDS = [
    "alpha",
    "beta-linear",
    "eta",
    "cong-abs",
    "lambda-embed",
    "phase-absorb",
    "rot-compose",
    "copy",
    "pi-commute",
    "color-change",
    "h-gen",
    "unit-left",
    "unit-right",
]


class TestRules:
    def test_thirteen_schemas(self):
        rs = rules()
        assert len(rs) == 13
        assert [r.id for r in rs] == RULE_IDS

    def test_basis_duals_present_in_pool(self):
        pool = standard_instances()
        for rid in ("copy", "pi-commute", "color-change"):
            bases = {b["basis"] for r, b, _ in pool if r.id == rid}
            assert bases == {Basis.Z, Basis.X}

    def test_pool_covers_every_rule(self):
        covered = {r.id for r, _, _ in standard_instances()}
        assert covered == set(RULE_IDS)


class TestCheckRuleInstance:
    def _rule(self, rid):
        return next(r for r in rules() if r.id == rid)

    def test_beta_identity(self):
        v = check_rule_instance(
            self._rule("beta-linear"),
            {"M": parse("x"), "N": parse("Z[1]"), "ann": Numeral(1)},
            EMPTY,
        )
        assert v.status == "sound"
        assert v.scalar is not None

    def test_copy_pi_pole(self):
        v = check_rule_instance(
            self._rule("copy"),
            {"basis": Basis.Z, "alpha": Phase.zero(), "a": 1, "M": parse("<x,x>")},
            EMPTY,
        )
        assert v.status == "sound"

    def test_copy_bad_exponent(self):
        v = check_rule_instance(
            self._rule("copy"),
            {"basis": Basis.Z, "alpha": Phase.zero(), "a": 2, "M": parse("x")},
            EMPTY,
        )
        assert v.status == "side-condition-unmet"

    def test_eta_on_effect(self):
        v = check_rule_instance(
            self._rule("eta"), {"M": parse("Z[-1]"), "ann": None}, EMPTY
        )
        assert v.status == "sound"

    def test_pi_commute_side_condition(self):
        r = self._rule("pi-commute")
        unmet = check_rule_instance(
            r,
            {"basis": Basis.Z, "alpha": Phase.exact(1, 2), "a": 0, "M": parse("x")},
            EMPTY,
        )
        assert unmet.status == "side-condition-unmet"
        met = check_rule_instance(
            r,
            {"basis": Basis.Z, "alpha": Phase.exact(1, 2), "a": 1, "M": parse("x")},
            EMPTY,
        )
        assert met.status == "sound"

    def test_alpha_requires_linearity(self):
        v = check_rule_instance(
            self._rule("alpha"), {"M": parse("<x,x>"), "ann": Numeral(1)}, EMPTY
        )
        assert v.status == "side-condition-unmet"

    def test_missing_binding_is_a_type_error(self):
        v = check_rule_instance(self._rule("beta-linear"), {"M": parse("x")}, EMPTY)
        assert v.status == "type-error" and "N" in v.detail

    def test_unbound_side_is_a_type_error(self):
        # x is bound in neither the context nor the term
        v = check_rule_instance(self._rule("unit-left"), {"M": parse("x")}, EMPTY)
        assert v.status == "type-error" and "x" in v.detail

    def test_size_mismatch_is_a_type_error(self):
        rule = EquationRule("grow", (), lambda b: parse("Z[1]"), lambda b: parse("Z[2]"),
                            theory._always)
        v = check_rule_instance(rule, {}, EMPTY)
        assert (v.status, v.detail) == (
            "type-error", "sides have different wire counts (1 vs 2)")

    def test_ill_typed_premise_fails_the_subgoal(self):
        bindings = {"basis": Basis.Z, "alpha": Phase.zero(), "M": parse("x"),
                    "N": parse("y"), "ann": Numeral(1)}
        assert theory._cong_subgoal(bindings, EMPTY, DEFAULT_TOL, None) is False
        assert check_rule_instance(
            self._rule("cong-abs"), bindings, EMPTY).status == "side-condition-unmet"

    def test_budget_refusal_names_the_instance(self):
        # the pair-typed cong-abs premise needs a 6-leg tensor; the refusal
        # is raised, from the subgoal too, not read as an unmet condition
        pair = Tensor(Numeral(1), Numeral(1))
        bindings = {"basis": Basis.Z, "alpha": Phase.zero(), "M": parse("<x, x>"),
                    "N": parse("<x, x>"), "ann": pair}
        ctx = EMPTY.extended(Entry("x", Basis.Z, pair))
        with pytest.raises(WireBudgetError):
            denotational_equal(ctx, bindings["M"], bindings["N"], DEFAULT_TOL, 5)
        with pytest.raises(WireBudgetError):
            theory._cong_subgoal(bindings, EMPTY, DEFAULT_TOL, 5)
        with pytest.raises(WireBudgetError, match=r"^cong-abs \[M=<x, x>, .*: .*6 legs"):
            check_rule_instance(self._rule("cong-abs"), bindings, EMPTY, DEFAULT_TOL, 5)
        v = check_rule_instance(self._rule("cong-abs"), bindings, EMPTY, DEFAULT_TOL, 6)
        assert v.status == "sound"

    def test_verdict_json(self):
        v = check_rule_instance(
            self._rule("h-gen"), {"basis": Basis.Z, "alpha": Phase.exact(1)}, EMPTY
        )
        doc = v.to_json_obj()
        assert doc["rule"] == "h-gen" and doc["status"] == "sound"

    def test_no_reference_cycles(self):
        # a walk that is a closure calling itself is a reference cycle, which
        # keeps what it holds alive until the cycle collector runs; a rule
        # pass and the walks it takes (a contraction's renaming, printing a
        # type, alpha-equivalence) leave none
        term, t = parse("Z x:1. <x,<x,x>>"), Fn(Numeral(1), Tensor(Numeral(1), Numeral(1)))
        instances = standard_instances()
        gc.collect()
        gc.disable()
        try:
            infer(EMPTY, term)
            print_type(Fn(t, t))
            alpha_eq(term, parse("Z y:1. <y,<y,y>>"))
            assert gc.collect() == 0
            for instance in instances:
                check_rule_instance(*instance)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSuite:
    def test_no_unsound_verdicts(self):
        verdicts = run_suite()
        assert len(verdicts) >= 100
        bad = [v for v in verdicts if v.status in ("unsound", "type-error")]
        assert bad == []
        assert sum(v.status == "sound" for v in verdicts) > len(verdicts) / 2

    def test_default_budget_changes_no_verdict(self):
        assert run_suite(budget=evaluator.WIRE_BUDGET) == run_suite()

    def test_evaluating_functions_default_to_unbounded(self):
        # only the CLI chooses a budget
        for fn in (compare, denotational_equal, check_rule_instance,
                   commutes_with_sharing, run_suite):
            assert inspect.signature(fn).parameters["budget"].default is None, fn
        assert not hasattr(theory, "WIRE_BUDGET")


def _chain_verdict(ctx, lhs, rhs, tol):
    """(status, scalar, deviation) of a rule instance's two sides, worked
    out step by step: infer both, compare wire counts, translate, denote
    and fit the scalar."""
    try:
        ty1, d1 = infer(ctx, lhs)
        ty2, d2 = infer(ctx, rhs)
        if size(ty1) != size(ty2):
            return "type-error", None, None
        m1 = denote(translate(d1).diagram)
        m2 = denote(translate(d2).diagram)
    except ZetaTypeError:
        return "type-error", None, None
    witness = equal_up_to_scalar(m1, m2, tol)
    if witness is None:
        return "unsound", None, max_deviation(m1, m2)
    scalar = None if witness is BOTH_ZERO else witness
    return "sound", scalar, max_deviation(m1, m2)


class TestCompare:
    def test_matches_the_chain_on_every_standard_instance(self):
        seen = set()
        for rule, bindings, ctx in standard_instances():
            verdict = check_rule_instance(rule, bindings, ctx)
            seen.add(verdict.status)
            if verdict.status == "side-condition-unmet":
                continue
            expect = _chain_verdict(ctx, rule.lhs(bindings), rule.rhs(bindings),
                                    DEFAULT_TOL)
            assert (verdict.status, verdict.scalar, verdict.deviation) == expect
        assert "sound" in seen

    def test_one_scalar_fit_per_compare(self):
        # a pair that translates to one diagram is fitted to itself, which
        # takes no _fit
        methods = Counter()

        def counted(*args, **kwargs):
            result = compare(*args, **kwargs)
            methods[result.method] += 1
            return result

        with mock.patch.object(theory, "compare", side_effect=counted) as compares, \
                mock.patch.object(evaluator, "_fit", wraps=evaluator._fit) as fits:
            for rule, bindings, ctx in standard_instances():
                check_rule_instance(rule, bindings, ctx)
        assert compares.call_count == 264
        assert fits.call_count == methods["dense"] == 143
        assert methods["same-diagram"] == 121

    def test_which_rung_decides_each_rule(self):
        # (rule, method) over every compare a rule instance makes, the
        # cong-abs subgoal's included
        decided = Counter()
        for rule, bindings, ctx in standard_instances():
            def counted(*args, **kwargs):
                result = compare(*args, **kwargs)
                decided[rule.id, result.method] += 1
                return result

            with mock.patch.object(theory, "compare", side_effect=counted):
                check_rule_instance(rule, bindings, ctx)
        same = {"alpha": 3, "beta-linear": 6, "eta": 3, "cong-abs": 48, "lambda-embed": 3,
                "phase-absorb": 12, "rot-compose": 20, "copy": 8, "pi-commute": 10,
                "unit-left": 4, "unit-right": 4}
        dense = {"beta-linear": 3, "eta": 2, "phase-absorb": 24, "rot-compose": 16,
                 "copy": 52, "pi-commute": 10, "color-change": 30, "h-gen": 6}
        assert decided == Counter(
            {**{(r, "same-diagram"): n for r, n in same.items()},
             **{(r, "dense"): n for r, n in dense.items()}})

    def test_names_the_benchmark_tracer_swaps_stay(self):
        # perfbench/tracing.py reads and swaps these theory attributes by name
        for name in ("infer", "translate", "denote", "equal_up_to_scalar", "max_deviation"):
            assert callable(getattr(theory, name)), name

    def test_result_fields(self):
        equal = compare(EMPTY, parse("Z x:1. x"), parse("\\y:1. y"), 1e-9)
        assert equal.status == "equal"
        assert equal.scalar == 1 and equal.deviation == 0
        distinct = compare(EMPTY, parse("Z[1]"), parse("Z[1]^pi"), 1e-9)
        assert distinct.status == "distinct"
        assert distinct.scalar is None and distinct.deviation > 0.5
        zero = parse("Z[-1]^pi Z[1]")  # (<0| - <1|)(|0> + |1>)
        vanish = compare(EMPTY, zero, zero, 1e-9)
        assert vanish.status == "equal" and vanish.scalar is None
        mismatch = compare(EMPTY, parse("Z[1]"), parse("Z[2]"), 1e-9)
        assert mismatch.status == "size-mismatch"
        assert (size(mismatch.type1), size(mismatch.type2)) == (1, 2)
        assert mismatch.scalar is None and mismatch.deviation is None

    def test_budget(self):
        # compare refuses one leg below the smallest budget it accepts; for
        # two 2-wire states that is 2, the legs of the result itself
        h2, h4 = parse("H o H"), parse("H o H o H o H")

        def accepts(budget):
            try:
                return compare(EMPTY, h2, h4, 1e-9, budget=budget).status == "equal"
            except WireBudgetError:
                return False

        needed = next(b for b in range(15) if accepts(b))
        assert needed == 2
        with pytest.raises(WireBudgetError):
            compare(EMPTY, h2, h4, 1e-9, budget=needed - 1)

    def test_errors_propagate(self):
        with pytest.raises(ZetaTypeError):
            compare(EMPTY, parse("y"), parse("Z[1]"), 1e-9)
        assert issubclass(WireBudgetError, ZetaError)


def _matrix(src):
    return denote(translate(infer(EMPTY, parse(src))[1]).diagram)


class TestSameDiagramRung:
    """`compare` decides a pair that translates to one diagram from one
    evaluation, with what the dense fit of that matrix to itself gives."""

    def test_identical_zero_pair_reads_both_zero(self):
        zero = parse("Z[-1]^pi Z[1]")  # (<0| - <1|)(|0> + |1>)
        result = compare(EMPTY, zero, zero, 1e-9)
        assert (result.status, result.scalar, result.deviation, result.method) == (
            "equal", None, 0.0, "same-diagram")

    def test_identical_pair_past_the_budget_is_refused_at_the_same_legs(self):
        # the 14-way Z copy map needs a 15-leg tensor, its 16384 x 2 matrix
        copy14 = parse("Z x:1. " + "<x," * 13 + "x" + ">" * 13)
        with pytest.raises(WireBudgetError, match="15 legs"):
            compare(EMPTY, copy14, copy14, 1e-9, budget=evaluator.WIRE_BUDGET)
        result = compare(EMPTY, copy14, copy14, 1e-9, budget=15)
        assert (result.status, result.method) == ("equal", "same-diagram")

    def test_only_one_side_is_evaluated(self):
        h = parse("\\x:1. H (H x)")
        with mock.patch.object(theory, "denote", wraps=denote) as denotes:
            assert compare(EMPTY, h, parse("\\y:1. H (H y)"), 1e-9).method == "same-diagram"
            assert denotes.call_count == 1
            assert compare(EMPTY, h, parse("\\x:1. x"), 1e-9).method == "dense"
            assert denotes.call_count == 3

    @pytest.mark.parametrize("tol", [0.0, 1e-9, -1.0, float("nan")])
    @pytest.mark.parametrize("src", ["H", "Z x:1. <x, H x>", "Z[-1]^pi Z[1]"])
    def test_verdict_is_the_fit_of_the_matrix_to_a_copy(self, src, tol):
        m = _matrix(src)
        witness, deviation = evaluator.scalar_fit(m, m.copy(), tol)
        result = compare(EMPTY, parse(src), parse(src), tol)
        status = "distinct" if witness is None else "equal"
        scalar = None if witness in (None, BOTH_ZERO) else witness
        assert result.method == "same-diagram"
        assert repr((result.status, result.scalar, result.deviation)) == repr(
            (status, scalar, deviation))

    def test_size_mismatch_names_no_method(self):
        assert compare(EMPTY, parse("Z[1]"), parse("Z[2]"), 1e-9).method is None

    def test_distinct_pair_has_no_witness(self):
        assert denotational_equal(EMPTY, parse("Z[1]"), parse("X[1]^pi"), 1e-9) is None


class TestCommutesWithSharing:
    def test_x_pole_through_z(self):
        assert commutes_with_sharing(EMPTY, parse("X[1]^pi"), Basis.Z, 2)
        assert commutes_with_sharing(EMPTY, parse("X[1]^pi"), Basis.Z, 3)

    def test_negative_control(self):
        assert not commutes_with_sharing(EMPTY, parse("Z[1]^pi/2"), Basis.Z, 2)

    def test_n1_always(self):
        for src in ["Z[1]^pi/2", "X[1]", "Z x:1. <x,x>"]:
            assert commutes_with_sharing(EMPTY, parse(src), Basis.Z, 1)
            assert commutes_with_sharing(EMPTY, parse(src), Basis.X, 1)

    def test_budget(self):
        with pytest.raises(WireBudgetError):
            commutes_with_sharing(EMPTY, parse("Z[5]"), Basis.Z, 3,
                                  budget=evaluator.WIRE_BUDGET)

    def test_negative_copies_refused(self):
        with pytest.raises(ValueError):
            commutes_with_sharing(EMPTY, parse("Z[1]"), Basis.Z, -1)

    def test_budget_counts_the_evaluated_tensors(self):
        # n copies of a k-wire state end in a k*n-leg tensor
        pair = parse("<X[1]^pi, X[1]^pi>")
        assert commutes_with_sharing(EMPTY, pair, Basis.Z, 3, budget=6)
        with pytest.raises(WireBudgetError):
            commutes_with_sharing(EMPTY, pair, Basis.Z, 3, budget=5)
        assert commutes_with_sharing(EMPTY, parse("Z[5]"), Basis.Z, 3, budget=None) is False


_SHARE_REFERENCE_TERMS = [
    f"{b}[1]^{p}" for b in "ZX" for p in ("0", "pi/4", "pi/2", "pi", "3pi/2")
] + ["H Z[1]", "H X[1]^pi", "rot X^pi/2 Z[1]", "rot Z^pi/4 X[1]"]


def _shared(v, basis: Basis, n: int):
    """The one-qubit state v shared n ways, from the copy spider's own
    definition and no diagram: v0|0..0> + v1|1..1> in Z, and
    a|+..+> + b|-..-> with (a, b) = H v in X."""
    kets = np.eye(2) if basis is Basis.Z else np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    amps = kets.T @ v
    return sum(amps[i] * _power(kets[:, i], n) for i in range(2))


def _power(u, n: int):
    return reduce(np.kron, [u] * n, np.ones(1))


class TestShareCheckReference:
    """commutes_with_sharing against numpy: a closed state v commutes with
    sharing n ways exactly when its share is proportional to v^(x)n."""

    @pytest.mark.parametrize("src", _SHARE_REFERENCE_TERMS)
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_matches_the_product_state(self, src, basis):
        term = parse(src)
        v = denote(translate(infer(EMPTY, term)[1]).diagram).ravel()
        for n in range(5):
            expected = equal_up_to_scalar(_shared(v, basis, n), _power(v, n)) is not None
            assert commutes_with_sharing(EMPTY, term, basis, n) == expected, (src, n)


class TestBetaStep:
    def test_identity_redex(self):
        t = beta_step(parse("(\\x:1. x) Z[1]"))
        assert alpha_eq(t, parse("Z[1]"))

    def test_linear_chain(self):
        t = parse("(\\f:1->1. f Z[1]) (\\y:1. y)")
        r = normalize(t)
        assert r.normal_form and r.steps == 2
        assert alpha_eq(r.term, parse("Z[1]"))

    def test_reduces_in_a_tuple_right_part(self):
        t = beta_step(parse("<Z[1], (\\x:1. x) Z[1]^pi>"))
        assert t == parse("<Z[1], Z[1]^pi>")

    def test_reduces_in_a_let_body(self):
        t = beta_step(parse("let <a, b> =Z y in (\\x:1*1. x) <a, b>"))
        assert t == parse("let <a, b> =Z y in <a, b>")

    def test_shared_redex_not_reduced(self):
        assert beta_step(parse("(Z x:1. <x,x>) Z[1]")) is None

    def test_phase_binder_not_reduced(self):
        assert beta_step(parse("(Z^pi/2 x:1. x) Z[1]")) is None

    def test_vacuous_binder_needs_closed_argument(self):
        t = parse("(Z x:1. Z[2]) Z[1]")
        assert beta_step(t) is not None
        open_arg = parse("(Z x:1. Z[2]) y")
        assert beta_step(open_arg) is None

    def test_no_redex(self):
        r = normalize(parse("Z[1]"))
        assert r.steps == 0 and r.normal_form

    def test_unit_redex(self):
        r = normalize(parse("(\\x:0. x)((\\y:0. y) *)"))
        assert r.steps == 2
        assert alpha_eq(r.term, parse("*"))

    def test_steps_preserve_denotation(self):
        for src in [
            "(\\x:1. x) Z[1]",
            "(\\f:1->1. f Z[1]) (\\y:1. y)",
            "(\\x:1. <x, Z[1]>) X[1]^pi",
        ]:
            t = parse(src)
            while True:
                nxt = beta_step(t)
                if nxt is None:
                    break
                assert denotational_equal(EMPTY, t, nxt, 1e-9) is not None
                t = nxt

    def test_h_normalizes_to_rotation_spine(self):
        r = normalize(parse("H"), max_steps=10)
        assert r.normal_form and r.steps <= 5

    @pytest.mark.parametrize("src, want", [
        # an application's function part
        ("((\\f:1->1. f) (\\y:1. y)) Z[1]", "(\\y:1. y) Z[1]"),
        # a pair's left part, before its right part
        ("<(\\x:1. x) Z[1], (\\x:1. x) X[1]>", "<Z[1], (\\x:1. x) X[1]>"),
        # a let's bound term
        ("let <a, b> =Z (\\p:1*1. p) <Z[1], X[1]> in <b, a>",
         "let <a, b> =Z <Z[1], X[1]> in <b, a>"),
    ])
    def test_reduces_the_leftmost_outermost_redex(self, src, want):
        assert beta_step(parse(src)) == parse(want)

    def test_normalize_stops_at_max_steps(self):
        t = parse("(\\f:1->1. f Z[1]) (\\y:1. y)")
        r = normalize(t, max_steps=1)
        assert (r.steps, r.normal_form) == (1, False)
        assert r.term == parse("(\\y:1. y) Z[1]")
        r = normalize(t, max_steps=2)
        assert (r.steps, r.normal_form) == (2, True)

    def test_redex_nested_3000_deep(self):
        # the search and the rebuilt spine take no Python frame per level,
        # so the default recursion limit does not bound the depth
        n = 3000
        t = beta_step(parse("<" * n + "(\\x:1. x) Z[1]" + ", *>" * n))
        assert print_term(t) == print_term(parse("<" * n + "Z[1]" + ", *>" * n))


class TestComposeBasisIrrelevance:
    def test_zeta_vs_xi_elaboration(self):
        from zetacalc.syntax import compose, rotation

        m = rotation(Basis.Z, Phase.exact(1, 2))
        n = rotation(Basis.X, Phase.exact(1))
        for a, b in [(m, n), (n, m)]:
            tz = compose(a, b, Basis.Z)
            tx = compose(a, b, Basis.X)
            assert denotational_equal(EMPTY, tz, tx, 1e-9) is not None
