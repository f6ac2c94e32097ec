import dataclasses
import json

import numpy as np
import pytest

from zetacalc.diagram import (
    ArityError,
    Cap,
    Id,
    Par,
    Perm,
    Seq,
    Spider,
    par,
    seq,
    upsilon,
)
from zetacalc.evaluator import denote, equal_up_to_scalar, oracle_contract
from zetacalc import semantics
from zetacalc.semantics import (
    TranslationError,
    _past_w,
    _split_binary,
    context_labels,
    eval_as_map,
    translate,
)
from zetacalc.syntax import Basis, Phase, fn_parts, free_vars, parse, substitute
from zetacalc.types import (
    Context,
    Derivation,
    Entry,
    Numeral,
    Tensor,
    ZetaTypeError,
    context_of,
    infer,
    size,
    validate_derivation,
)

from conftest import (
    literal_map,
    literal_translate,
    rule_sides,
    term_pool,
    translated_derivations,
    translated_diagrams,
)

EMPTY = Context()
Q = Numeral(1)


def jd_of(src: str, ctx: Context = EMPTY):
    _, d = infer(ctx, parse(src))
    return translate(d)


class TestArities:
    def test_pool_arity_soundness(self):
        for src in term_pool():
            jd = jd_of(src)
            d = jd.diagram
            assert d.inputs == jd.ctx.wire_count()
            assert d.outputs == size(jd.type)
            assert len(jd.input_labels) == d.inputs
            assert len(jd.output_labels) == d.outputs

    def test_open_terms(self):
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Numeral(2)))
        for src in ["<x, y>", "x", "<y, <x, x>>"]:
            jd = jd_of(src, ctx)
            assert jd.diagram.inputs == 3

    def test_variable_is_identity(self):
        jd = jd_of("x", context_of(("x", Basis.Z, Q)))
        assert np.allclose(denote(jd.diagram), np.eye(2))


class TestSharingTerm:
    def test_ghz_state(self):
        jd = jd_of("Z x:1. <x,x>")
        v = denote(jd.diagram).ravel()
        expect = np.zeros(8, complex)
        expect[0] = expect[7] = 1
        assert np.allclose(v, expect)

    def test_sharing_map(self):
        m = denote(eval_as_map(jd_of("Z x:1. <x,x>")).diagram)
        assert np.allclose(m, [[1, 0], [0, 0], [0, 0], [0, 1]])

    def test_x_sharing_in_x_basis(self):
        # the X-binder copies X-basis poles: |+> -> |++>
        m = denote(eval_as_map(jd_of("X x:1. <x,x>")).diagram)
        plus = np.array([1, 1]) / np.sqrt(2)
        out = m @ plus
        c = equal_up_to_scalar(out.reshape(4, 1), np.kron(plus, plus).reshape(4, 1))
        assert c is not None


class TestEvalAsMap:
    def test_requires_function_type(self):
        with pytest.raises(TranslationError):
            eval_as_map(jd_of("Z[1]"))

    def test_iterated_uncurry(self):
        jd = jd_of("\\f:1->1. \\x:1. f x")
        once = eval_as_map(jd)
        twice = eval_as_map(once)
        assert (twice.diagram.inputs, twice.diagram.outputs) == (3, 1)

    def test_effect_as_map(self):
        m = denote(eval_as_map(jd_of("Z[-1]^pi")).diagram)
        # effect <0| - <1|
        assert np.allclose(m, [[1, -1]])


class TestAlphaInvariance:
    @pytest.mark.parametrize(
        "a,b",
        [
            ("Z x:1. <x,x>", "Z y:1. <y,y>"),
            ("\\x:1. x", "\\w:1. w"),
            ("X f:1->1*1. <f,f>", "X g:1->1*1. <g,g>"),
        ],
    )
    def test_equal_denotations(self, a, b):
        ma = denote(jd_of(a).diagram)
        mb = denote(jd_of(b).diagram)
        assert np.max(np.abs(ma - mb)) < 1e-9


class TestSharingCoherence:
    @pytest.mark.parametrize("basis", [Basis.Z, Basis.X])
    def test_three_way_vs_nested(self, basis):
        flat = upsilon(1, basis, 3)
        nested = Seq(upsilon(1, basis, 2), par(upsilon(1, basis, 2), Id(1)))
        c = equal_up_to_scalar(denote(flat), denote(nested), 1e-12)
        assert c is not None

    def test_term_level_three_uses(self):
        jd = jd_of("Z x:1. <x,<x,x>>")
        m = denote(jd.diagram).ravel()
        expect = np.zeros(16, complex)
        expect[0] = expect[15] = 1
        assert np.allclose(m, expect)


class TestLinearAbstraction:
    def test_phase0_binder_is_lambda_denotationally(self):
        mz = denote(eval_as_map(jd_of("Z x:1. x")).diagram)
        ml = denote(eval_as_map(jd_of("\\x:1. x")).diagram)
        assert np.allclose(mz, ml)
        assert equal_up_to_scalar(mz, np.eye(2), 1e-9) is not None


class TestSubstitutionComposition:
    """Substitution = composition when the substituted term commutes with
    sharing in the variable's basis."""

    @pytest.mark.parametrize("basis,n_src", [
        (Basis.Z, "X[1]"), (Basis.Z, "X[1]^pi"),
        (Basis.X, "Z[1]"), (Basis.X, "Z[1]^pi"),
    ])
    @pytest.mark.parametrize("m_src", ["x", "<x,x>", "<x,<x,x>>", "H x"])
    def test_substitution_is_composition(self, basis, n_src, m_src):
        ctx = Context((Entry("x", basis, Q),))
        m_term, n_term = parse(m_src), parse(n_src)
        _, dm = infer(ctx, m_term)
        _, dn = infer(EMPTY, n_term)
        composed = Seq(translate(dn).diagram, translate(dm).diagram)
        _, ds = infer(EMPTY, substitute(m_term, "x", n_term))
        direct = denote(translate(ds).diagram)
        assert equal_up_to_scalar(direct, denote(composed), 1e-9) is not None


class TestJudgementJson:
    def test_serializes(self):
        jd = jd_of("Z x:1. <x,x>")
        doc = json.loads(jd.to_json())
        assert doc["type"] == "1 -> 1 * 1"
        assert doc["diagram"]["kind"] in ("seq", "par")
        assert len(doc["labels"]["outputs"]) == 3

    def test_context_labels(self):
        ctx = context_of(("x", Basis.Z, Numeral(2)))
        assert context_labels(ctx) == (("x", 0), ("x", 1))


class TestDeepComposition:
    def test_long_rotation_chain(self):
        # 100 rotations by pi/4 add up to 25 pi, the same phase as pi
        chain = eval_as_map(jd_of(" o ".join(["rot Z^pi/4"] * 100)))
        m = denote(chain.diagram)
        ref = denote(eval_as_map(jd_of("rot Z^pi")).diagram)
        assert m.shape == (2, 2)
        assert equal_up_to_scalar(m, ref, 1e-12) is not None


class TestRouting:
    def test_w_chains_keep_exactly_the_free_variables(self):
        # just below its W node, each child of a binary node keeps exactly
        # the entries of the node's context that its subject uses, and a let
        # body exactly the binders its subject uses: every inferred
        # derivation is in the normal form translate takes
        binary = 0
        for ctx, term in [(EMPTY, parse(s)) for s in term_pool()] + rule_sides():
            try:
                _, d = infer(ctx, term)
            except ZetaTypeError:
                continue
            for node in d.walk():
                if node.rule not in ("A", "T", "E"):
                    continue
                c1, c2 = node.children
                for child in node.children:
                    own = 2 if node.rule == "E" and child is c2 else 0
                    assert child.ctx.entries[: len(child.ctx) - own] == node.ctx.entries
                    kept = {e.name for e in _past_w(child).ctx}
                    assert kept == set(free_vars(child.term))
                if node.rule == "E":
                    c1, c2 = c2, c1
                _split_binary(node.ctx, c1, c2)
                binary += 1
        assert binary > 500

    def test_router_is_id_exactly_in_block_order(self):
        # a binary node's router sends the context's wires to [first child's
        # block, second child's block]: none when no wire of the second
        # block precedes one of the first, else one Perm, never the identity
        # (no translated diagram holds one: see _removable_units). The
        # derivations take in every binary node of rule_sides(), and with
        # them each let in block order whose body keeps a binder: the binder
        # is not in the let's context, so the tuple test misses the order
        # and the walk must find it
        ids = perms = lets = 0
        for label, d, _ in translated_derivations():
            for node in d.walk():
                if node.rule not in ("A", "T", "E"):
                    continue
                first, second = node.children
                if node.rule == "E":
                    first, second = second, first
                router, p1, _, g1 = _split_binary(node.ctx, first, second)
                kept = {e.name for e in p1.ctx}
                blocks, at = ([], []), 0
                for e in node.ctx:
                    blocks[e.name not in kept].extend(range(at, at + size(e.type)))
                    at += size(e.type)
                order = blocks[0] + blocks[1]
                assert g1 == len(blocks[0]), label
                if order == list(range(at)):
                    assert router is None, label
                    ids += 1
                    lets += node.rule == "E" and not kept <= set(node.ctx.names)
                else:
                    assert isinstance(router, Perm), label
                    assert router.route(range(at)) == order, label
                    perms += 1
        assert ids > 1000 and perms > 20 and lets >= 15

    def _split_root(self, src, ctx, monkeypatch):
        """_split_binary of the root of src over ctx, and how many times it
        read an entry's wire count, which only its walk over the context
        does."""
        sizes = []
        monkeypatch.setattr(semantics, "size", lambda t: sizes.append(t) or size(t))
        _, d = infer(ctx, parse(src))
        return _split_binary(d.ctx, *d.children), len(sizes)

    def test_block_order_with_no_closed_child_needs_no_walk(self, monkeypatch):
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Q))
        (router, p1, p2, g1), walked = self._split_root("<x, y>", ctx, monkeypatch)
        assert p1.ctx.entries and p2.ctx.entries
        assert (router, g1, walked) == (None, 1, 0)

    def test_zero_wire_entry_out_of_block_order_needs_no_router(self, monkeypatch):
        # z, kept by the first child, follows a, kept by the second: out of
        # block order by entry, in block order by wire
        ctx = context_of(("a", Basis.Z, Q), ("z", Basis.X, Numeral(0)))
        (router, _, _, g1), walked = self._split_root("<z, a>", ctx, monkeypatch)
        assert (router, g1) == (None, 0) and walked

    def test_binary_node_routes_a_three_cycle(self):
        # wires (x, y, z) leave as (z, x, y); a router that inverted its
        # permutation would send them to (y, z, x)
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Q), ("z", Basis.Z, Q))
        want = np.zeros((8, 8))
        for col in range(8):
            x, y, z = col >> 2, col >> 1 & 1, col & 1
            want[4 * z + 2 * x + y, col] = 1
        got = denote(jd_of("<z, <x, y>>", ctx).diagram)
        assert np.max(np.abs(got - want)) < 1e-12


class TestNormalFormContract:
    """Derivations that validate_derivation accepts but that are not in the
    W/C-normal form infer builds are refused, not translated."""

    X1 = context_of(("x", Basis.Z, Q))

    def refused(self, d, match):
        validate_derivation(d)
        with pytest.raises(TranslationError, match=match):
            translate(d)

    def test_entry_kept_by_both_children(self):
        # the G child keeps x with no W
        term = parse("<x, Z[1]>")
        v = Derivation("V", self.X1, term.left, Q)
        g = Derivation("G", self.X1, term.right, Q)
        self.refused(Derivation("T", self.X1, term, Tensor(Q, Q), (v, g)), "both children")

    def test_entry_kept_by_neither_child(self):
        term = parse("<Z[1], Z[1]>")
        g = Derivation("G", EMPTY, term.left, Q)
        w = Derivation("W", self.X1, term.left, Q, (g,))
        self.refused(Derivation("T", self.X1, term, Tensor(Q, Q), (w, w)), "neither child")

    def test_closed_child_beside_a_child_keeping_part_of_the_context(self):
        # one child keeps nothing and the other only x of (x, y): y is kept
        # by neither, though one child is closed
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Q))
        term = parse("<x, Z[1]>")
        v = Derivation("V", self.X1, term.left, Q)
        g = Derivation("G", EMPTY, term.right, Q)
        w1, w2 = Derivation("W", ctx, v.term, Q, (v,)), Derivation("W", ctx, g.term, Q, (g,))
        self.refused(Derivation("T", ctx, term, Tensor(Q, Q), (w1, w2)), "neither child")

    def test_variable_over_an_unused_entry(self):
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Q))
        self.refused(Derivation("V", ctx, parse("x"), Q), "rule V")

    @pytest.mark.parametrize("src,rule", [("Z[1]", "G"), ("Z[-1]", "D"), ("*", "U")])
    def test_constant_over_an_unused_entry(self, src, rule):
        _, d = infer(EMPTY, parse(src))
        self.refused(Derivation(rule, self.X1, d.term, d.type), f"rule {rule}")


def _removable_units(d):
    """Seq nodes with an Id side, Par nodes with an Id(0) side, Par nodes
    joining two Ids and identity Perms, anywhere in d."""
    found, todo = [], [d]
    while todo:
        node = todo.pop()
        if isinstance(node, Seq):
            sides = (node.first, node.second)
            removable = any(isinstance(x, Id) for x in sides)
        elif isinstance(node, Par):
            sides = (node.top, node.bottom)
            removable = Id(0) in sides or all(isinstance(x, Id) for x in sides)
        elif isinstance(node, Perm):
            sides = ()
            removable = node.perm == tuple(range(node.inputs))
        else:
            continue
        if removable:
            found.append(node)
        todo += sides
    return found


class TestNoRemovableUnits:
    def test_translations_carry_no_unit(self):
        count = 0
        for src, d in translated_diagrams():
            assert _removable_units(d) == [], src
            count += 1
        assert count > 500

    def test_builders_apply_unit_laws_after_arity_checks(self):
        with pytest.raises(ArityError):
            seq(Id(1), Id(2))
        with pytest.raises(ArityError):
            seq(Spider(Basis.Z, Phase.zero(), 2, 3), Id(2))
        assert seq(Id(2)) == Id(2)
        assert seq() == Id(0)
        assert par() == Id(0)
        assert par(Id(0), Id(0)) == Id(0)
        assert par(Id(1), Id(0), Id(2)) == Id(3)
        h = Spider(Basis.X, Phase.exact(1, 2), 1, 1)
        assert seq(Id(1), h, Id(1)) == h
        assert par(Id(0), h, Id(0)) == h


def _derivations():
    """(label, derivation) for the pool, every typed rule side and the
    H x 1..20 chains."""
    cases = [(src, EMPTY, parse(src)) for src in term_pool()]
    cases += [(str(term), ctx, term) for ctx, term in rule_sides()]
    cases += [(f"H x {k}", EMPTY, parse(" o ".join(["H"] * k))) for k in range(1, 21)]
    for label, ctx, term in cases:
        try:
            _, d = infer(ctx, term)
        except ZetaTypeError:
            continue
        yield label, d


def _leaves(d) -> list:
    """Every leaf of d, Ids and Perms included."""
    leaves, todo = [], [d]
    while todo:
        node = todo.pop()
        if isinstance(node, Seq):
            todo += [node.second, node.first]
        elif isinstance(node, Par):
            todo += [node.bottom, node.top]
        else:
            leaves.append(node)
    return leaves


def test_translations_are_spiders_ids_and_perms():
    # a cup and a cap are spiders, and H's body is three of them
    count = 0
    for src, d in translated_diagrams():
        assert {type(n) for n in _leaves(d)} <= {Spider, Id, Perm}, src
        count += 1
    assert count > 500


class TestComposedRedexes:
    """`translate` composes every beta-redex and `eval_as_map` returns an
    abstraction's body; the snaked cup/cap translation is the reference."""

    def test_matches_the_literal_cup_cap_translation(self):
        count = 0
        for label, d in _derivations():
            jd = translate(d)
            pairs = [(jd.diagram, literal_translate(d))]
            if fn_parts(jd.type) is not None:
                pairs.append((eval_as_map(jd).diagram, literal_map(d)))
            for composed, snaked in pairs:
                assert (composed.inputs, composed.outputs) == (snaked.inputs, snaked.outputs)
                for evaluate in (denote, oracle_contract):
                    diff = evaluate(composed) - evaluate(snaked)
                    assert diff.size == 0 or np.max(np.abs(diff)) < 1e-12, label
                count += 1
        assert count > 800

    @pytest.mark.parametrize("k", range(1, 21))
    def test_h_chain_map_is_its_spiders(self, k):
        # its 3k spiders are H's 1 -> 1 rotations: no cup, cap or Perm
        leaves = _leaves(eval_as_map(jd_of(" o ".join(["H"] * k))).diagram)
        spiders = [n for n in leaves if isinstance(n, Spider)]
        assert len(spiders) == 3 * k
        assert all((n.inputs, n.outputs) == (1, 1) for n in spiders)
        assert {type(n) for n in leaves} <= {Spider, Id}

    def test_no_redex_leaves_a_cap(self):
        # an application caps one wire per wire of its argument, unless its
        # function is an abstraction, which is composed with no cap; so the
        # caps, the phase-0 Z 2 -> 0 spiders, of a diagram are exactly those
        # of its other applications and its effects Z[-2]
        redexes = 0
        for label, d in _derivations():
            expected = 0
            for node in d.walk():
                if node.rule == "D" and node.term.n == -2 and node.term.basis is Basis.Z:
                    expected += node.term.phase.is_zero
                if node.rule != "A":
                    continue
                head, _ = node.children
                if _past_w(head).rule == "B":
                    redexes += 1
                else:
                    expected += size(fn_parts(head.type)[0])
            caps = _leaves(translate(d).diagram).count(Cap())
            assert caps == expected, label
        assert redexes > 500

    @pytest.mark.parametrize("src", [
        "\\f:1->1. \\x:1. f x",
        "Z^pi/2 f:1->1. X^pi/4 x:1. Z^pi y:1*1. <f x, y>",
    ])
    def test_uncurried_again_with_no_snake(self, src):
        # the first uncurry of a curried abstraction returns its stored
        # body, and each later one caps that body's state; every level
        # gives the matrix of capping each state, the route taken without
        # the stored body, which is the reference
        m = jd_of(src)
        capped = dataclasses.replace(m, body=None)
        levels = 0
        while fn_parts(m.type) is not None:
            m, capped = eval_as_map(m), eval_as_map(capped)
            assert m.input_labels == capped.input_labels
            got = denote(m.diagram)
            for ref in (oracle_contract(m.diagram), denote(capped.diagram)):
                assert np.max(np.abs(got - ref)) < 1e-12
            levels += 1
        assert levels == src.count(".")

    @pytest.mark.parametrize("phase", ["", "^pi/2"])
    def test_body_has_one_rotation_stage_unless_phase_zero(self, phase, monkeypatch):
        _, b = infer(context_of(("y", Basis.Z, Q)), parse(f"Z{phase} x:1*1. <x, y>"))
        assert b.rule == "B"
        # stands for the premise's diagram, a (y, x) -> (x, y) map
        premise = Spider(Basis.X, Phase.zero(), 3, 3)
        monkeypatch.setattr(semantics, "_translate", lambda node: premise)
        body = semantics._body(b)
        if not phase:
            assert body is premise
        else:
            rot = Spider(Basis.Z, Phase.exact(1, 2), 1, 1)
            assert isinstance(body, Seq) and body.second is premise
            assert body.first == par(Id(1), par(rot, rot))

    def test_phase_zero_binder_has_no_rotation(self):
        assert eval_as_map(jd_of("Z x:1. x")).diagram == Id(1)
        rotated = eval_as_map(jd_of("Z^pi/2 x:1. x")).diagram
        assert rotated == Spider(Basis.Z, Phase.exact(1, 2), 1, 1)
