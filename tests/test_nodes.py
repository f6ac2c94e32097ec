"""IR node classes: value classes that are immutable by contract.

Terms, types, contexts, derivations and diagrams are built as non-frozen
dataclasses that compare and hash by value, all slotted but the term
nodes. Nothing assigns a node's field after it is built, and shared nodes
(every `H` of one parse, shared derivation subtrees and diagram bodies)
rely on that.
"""

import dataclasses
from fractions import Fraction

from zetacalc import diagram, semantics, syntax, theory, types
from zetacalc.diagram import Cap, Cup, Had, Id, Par, Perm, Scalar, Seq, Spider
from zetacalc.evaluator import WireBudgetError, denote, oracle_contract
from zetacalc.semantics import eval_as_map, translate
from zetacalc.syntax import Basis, Phase, compose, fn_parts, hadamard_term, parse, rotation
from zetacalc.types import (
    Context,
    Dual,
    Entry,
    Fn,
    Numeral,
    Tensor,
    TypeVar,
    ZetaTypeError,
    context_of,
    infer,
)

from conftest import rule_sides
from test_types import _sharing_sources, _subdiagrams, _subterms

EMPTY = Context()
Q = Numeral(1)


def _dataclasses():
    modules = (syntax, types, diagram, semantics, theory)
    return [
        c
        for m in modules
        for c in vars(m).values()
        if isinstance(c, type) and dataclasses.is_dataclass(c) and c.__module__ == m.__name__
    ]


def _run(ctx, term):
    """Every pipeline stage over one term: infer, translate, eval_as_map
    when the type is a function, denote and the oracle."""
    _, d = infer(ctx, term)
    jds = [translate(d)]
    if fn_parts(jds[0].type) is not None:
        jds.append(eval_as_map(jds[0]))
    for jd in jds:
        denote(jd.diagram)
        try:
            oracle_contract(jd.diagram)
        except WireBudgetError:
            pass


def _h_node(d):
    """The shared H derivation node of d."""
    return next(n for n in d.walk() if n.term is hadamard_term() and n.rule == "B")


def _fresh_h():
    """A fresh H derivation node, and a fresh translated body from another
    one, so that no stage has run on the first."""
    h = _h_node(infer(EMPTY, parse("H o H"))[1])
    return h, semantics._body(_h_node(infer(EMPTY, parse("H"))[1]), {})


class TestSharedNodesStayUnchanged:
    def test_after_every_stage(self):
        h_term = hadamard_term()
        fv_before = [dict(t.fv) for t in _subterms(h_term)]
        _, d = infer(EMPTY, parse(" o ".join(["H"] * 20)))
        h, fresh_body = _h_node(d), _fresh_h()[1]
        jd = translate(d)
        bodies = [s for s in _subdiagrams(jd.diagram) if s == fresh_body]
        assert bodies and all(s is bodies[0] for s in bodies)
        body = bodies[0]

        _run(EMPTY, d.term)
        for ctx, term in rule_sides():
            try:
                _run(ctx, term)
            except ZetaTypeError:
                pass
        for src in _sharing_sources():
            _run(EMPTY, parse(src))
        for graph in (jd.diagram, eval_as_map(jd).diagram):
            denote(graph)
            oracle_contract(graph)

        half = Phase.exact(1, 2)
        rebuilt = compose(
            rotation(Basis.Z, half),
            compose(rotation(Basis.X, half), rotation(Basis.Z, half)),
        )
        assert h_term is hadamard_term() and h_term == rebuilt
        assert [t.fv for t in _subterms(h_term)] == fv_before
        assert [t.fv for t in _subterms(rebuilt)] == fv_before
        fresh_h, fresh_body = _fresh_h()
        assert h == fresh_h and h is not fresh_h
        assert body == fresh_body and body is not fresh_body


def _samples():
    """One instance of each kind of node, built by the pipeline."""
    ctx = context_of(("y", Basis.X, Q))
    _, d = infer(ctx, parse("<y, (Z x:1. <x,x>) (H Z[1])>"))
    jd = translate(d)
    out = [jd, eval_as_map(translate(infer(EMPTY, parse("H"))[1]))]
    for node in d.walk():
        out += [node, node.ctx, *node.ctx, node.type, *_subterms(node.term)]
    out += list(_subdiagrams(jd.diagram))
    out += [Phase.radians(1.0), TypeVar(1), Dual(Numeral(1)), Perm((1, 0)), Scalar(2j)]
    out += [Id(1), Had(), Cup(), Cap(), Spider(Basis.Z, Phase.zero(), 1, 2)]
    out.append(theory.check_rule_instance(*theory.standard_instances()[0]))
    return out


class TestSlotsAndHashing:
    def test_every_node_class_but_terms_is_slotted(self):
        classes = [c for c in _dataclasses() if not issubclass(c, syntax.Term)]
        assert {Phase, Spider, Seq, Entry, Context, types.Derivation} <= set(classes)
        for cls in classes:
            for c in cls.__mro__[:-1]:
                assert "__slots__" in vars(c), c

    def test_no_instance_but_a_term_has_a_dict(self):
        samples = _samples()
        kinds = {type(x) for x in samples}
        assert {syntax.Abs, syntax.Gen, types.Derivation, Tensor, Seq, Par} <= kinds
        for x in samples:
            if not isinstance(x, syntax.Term):
                assert not hasattr(x, "__dict__"), type(x)

    def test_vars_of_a_term_lists_its_fields(self):
        # the benchmark's tracer counts term nodes through vars(term)
        term = parse("Z f. let <a,b> =Z f * in <b, (Z x:1. x) a>")
        for t in _subterms(term):
            fields = {f.name for f in dataclasses.fields(t)}
            assert vars(t) == {name: getattr(t, name) for name in fields}

    def test_equal_values_hash_equal(self):
        def twice(make):
            a, b = make(), make()
            assert a is not b and a == b and hash(a) == hash(b)

        twice(lambda: Phase(pi_multiple=Fraction(1, 2)))
        twice(lambda: Phase.radians(0.5))
        twice(lambda: Fn(Numeral(1), Tensor(TypeVar(3), Numeral(0))))
        twice(lambda: parse("Z x. <x, X^pi y:1->1. y (rot Z^pi/2) x>"))
        twice(lambda: compose(rotation(Basis.Z, Phase.exact(1, 4)), syntax.Var("f")))
        twice(lambda: Entry("x", Basis.Z, Numeral(2)))
        twice(lambda: context_of(("x", Basis.Z, Numeral(2)), ("y", Basis.X, Fn(Q, Q))))
        twice(lambda: Spider(Basis.X, Phase.exact(3, 2), 1, 2))
        twice(lambda: Id(3))
        twice(lambda: Perm((2, 0, 1)))
        twice(lambda: Scalar(0.5 + 1j))
        for leaf in (Had, Cup, Cap):
            twice(leaf)
        twice(lambda: Seq(Par(Cup(), Id(1)), Par(Id(1), Cap())))

    def test_zero_phase_is_one_constant(self):
        assert Phase.zero() is Phase.zero()
        assert Phase.zero() == Phase.exact(0) == Phase.exact(2)
