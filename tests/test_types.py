import dataclasses
import gc
import sys
from collections import Counter

import numpy as np
import pytest

from zetacalc import semantics, syntax, theory, types
from zetacalc.diagram import Par, Seq
from zetacalc.evaluator import denote
from zetacalc.semantics import translate
from zetacalc.syntax import Abs, App, Basis, Gen, Let, Phase, Tup, Unit, Var, parse, parse_type
from zetacalc.types import (
    TOP,
    AmbiguousTypeError,
    Context,
    ContextError,
    ContractionBasisError,
    Derivation,
    Dual,
    Entry,
    InvalidDerivationError,
    ZetaTypeError,
    Fn,
    LinearityError,
    Numeral,
    OccursCheckError,
    Tensor,
    TypeVar,
    UnboundVariableError,
    UnificationError,
    apply_subst,
    check,
    contains_var,
    context_of,
    derivation_summary,
    infer,
    labels,
    parse_context,
    print_context,
    print_type,
    size,
    unify,
    validate_derivation,
)
from conftest import literal_infer, merged_w_chains, rule_sides, term_pool

EMPTY = Context()
Q = Numeral(1)


class TestTypeBasics:
    def test_size(self):
        assert size(Numeral(3)) == 3
        assert size(Fn(Q, Tensor(Q, Q))) == 3
        assert size(TOP) == 0

    def test_labels_match_size(self):
        for t in [Numeral(2), Fn(Q, Tensor(Q, Q)), Dual(Tensor(Q, Numeral(2))), TOP]:
            assert len(labels(t)) == size(t)

    def test_labels_examples(self):
        assert labels(Numeral(2)) == [0, 1]
        assert labels(Dual(Q)) == [(0, "*")]
        assert labels(Tensor(Q, Q)) == [("L", 0), ("R", 0)]

    def test_parse_print_type(self):
        for s in ["1", "1 * 1", "1 -> 1 * 1", "(1 -> 1) -> 1", "0", "1'", "(1 * 1)'"]:
            assert print_type(parse_type(print_type(parse_type(s)))) == print_type(
                parse_type(s)
            )

    def test_fn_is_derived(self):
        assert Fn(Q, Numeral(2)) == Tensor(Dual(Q), Numeral(2))
        assert print_type(Fn(Q, Numeral(2))) == "1 -> 2"


class TestUnify:
    def test_bind(self):
        s = unify(TypeVar(1), Q)
        assert apply_subst(TypeVar(1), s) == Q

    def test_expand_derived_form(self):
        s = unify(Tensor(TypeVar(1), TOP), Fn(Q, TOP))
        assert apply_subst(TypeVar(1), s) == Dual(Q)

    def test_numeral_not_tensor(self):
        with pytest.raises(UnificationError):
            unify(Numeral(2), Tensor(Q, Q))

    def test_occurs_check(self):
        with pytest.raises(OccursCheckError):
            unify(TypeVar(1), Tensor(TypeVar(1), Q))


class TestContext:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ContextError):
            context_of(("x", Basis.Z, Q), ("x", Basis.X, Q))

    def test_parse_context_round_trip(self):
        c = parse_context("x:Z:1, f:X:1->1*1")
        assert c.names == ["x", "f"]
        assert c.wire_count() == 4
        assert parse_context(print_context(c)) == c

    def test_empty(self):
        assert parse_context("  ") == EMPTY

    def test_contraction_split_keeps_the_name_check(self):
        # the copies of x are x#1 and x#2, and the context already holds x#1
        ctx = context_of(("x", Basis.Z, Q), ("x#1", Basis.Z, Q))
        term = Tup(Var("x"), Tup(Var("x"), Var("x#1")))
        with pytest.raises(ContextError) as exc:
            infer(ctx, term)
        assert str(exc.value) == "duplicate context names in ['x#1', 'x#2', 'x#1']"


class TestInfer:
    def test_sharing(self):
        ctx = context_of(("x", Basis.Z, Q))
        ty, _ = infer(ctx, parse("<x,x>"))
        assert ty == Tensor(Q, Q)

    def test_function_typed_binder(self):
        ty, _ = infer(EMPTY, parse("X f:1->1*1. <f,f>"))
        fn = Fn(Q, Tensor(Q, Q))
        assert ty == Fn(fn, Tensor(fn, fn))

    def test_unit(self):
        ty, _ = infer(EMPTY, parse("*"))
        assert ty == TOP

    def test_effect(self):
        ty, _ = infer(EMPTY, parse("Z[-2]^pi"))
        assert ty == Fn(Numeral(2), TOP)

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            infer(EMPTY, parse("y"))

    def test_lambda_linearity(self):
        with pytest.raises(LinearityError):
            infer(EMPTY, parse("\\x:1. <x,x>"))
        with pytest.raises(LinearityError):
            infer(EMPTY, parse("\\x:1. *"))

    def test_ambiguous_reports_binder(self):
        with pytest.raises(AmbiguousTypeError, match="add an annotation at binder x"):
            infer(EMPTY, parse("Z x. x"))
        want = r"^ambiguous type \?2 -> \?2 \(add an annotation at binder y\)$"
        with pytest.raises(AmbiguousTypeError, match=want):
            infer(EMPTY, parse("(Z f. f) (Z y. y)"))

    # an application result cannot be annotated: the hint names the binder
    # whose context entry holds it, contracted copies f#k included
    @pytest.mark.parametrize("src, message", [
        ("Z f. f Z[1]", "ambiguous type 1 -> ?2 (add an annotation at binder f)"),
        ("Z f. <f Z[1], f Z[1]>",
         "ambiguous type 1 -> ?3 (add an annotation at binder f)"),
    ])
    def test_ambiguous_application_result_names_its_binder(self, src, message):
        with pytest.raises(AmbiguousTypeError) as exc:
            infer(EMPTY, parse(src))
        assert str(exc.value) == message

    def test_recursion_frontier(self):
        # derive takes one frame per term level; a second frame per level
        # would halve the depth it reaches at the default recursion limit
        ty, _ = infer(EMPTY, parse(" o ".join(["H"] * 200)))
        assert ty == Fn(Q, Q)

    def test_no_reference_cycles(self):
        # a cycle keeps what it holds, such as a substitution, alive until
        # the cycle collector runs
        term = parse(" o ".join(["H"] * 4))
        gc.collect()
        gc.disable()
        try:
            infer(EMPTY, term)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_alpha_stability(self):
        t1, _ = infer(EMPTY, parse("Z x:1. <x,x>"))
        t2, _ = infer(EMPTY, parse("Z y:1. <y,y>"))
        assert t1 == t2

    def test_annotated_recheck(self):
        ty, _ = infer(EMPTY, parse("Z x:1. <x,x>"))
        d = check(EMPTY, parse("Z x:1. <x,x>"), ty)
        assert d.type == ty

    def test_check_mismatch(self):
        with pytest.raises(UnificationError):
            check(EMPTY, parse("*"), Q)

    def test_shadowed_binder_freshened(self):
        ctx = context_of(("x", Basis.Z, Q))
        ty, d = infer(ctx, parse("<x, Z x:1. x>"))
        assert ty == Tensor(Q, Fn(Q, Q))
        validate_derivation(d)

    def test_shadowing_let_binders_keep_their_meaning(self):
        # x is freshened in the body premise alone, to a name that is not
        # the second binder's x': the body still reads the first part
        src = parse("Z x:1*1. let <x, x'> =Z x in x")
        d = infer(EMPTY, src)[1]
        let = d.children[0]
        assert d.term is src and let.rule == "E" and let.term is src.body
        body = let.children[1]
        assert body.term == Var(body.ctx.entries[-2].name)
        assert body.ctx.names[-2:] == ["x''", "x'"]


class TestDerivations:
    def test_pool_validates(self):
        for src in term_pool():
            _, d = infer(EMPTY, parse(src))
            validate_derivation(d)

    def test_root_subject_is_the_term_given(self):
        # a let that renames a binder does so in its body premise alone, so
        # no ancestor's subject is rebuilt
        cases = [(EMPTY, parse(s)) for s in term_pool()] + rule_sides()
        for ctx, term in cases:
            try:
                d = infer(ctx, term)[1]
            except ZetaTypeError:
                continue
            assert d.term is term, syntax.print_term(term)

    def test_c_node_for_sharing(self):
        _, d = infer(EMPTY, parse("Z x:1. <x,x>"))
        summary = derivation_summary(d)
        assert summary["c_nodes"] == [{"var": "x", "arity": 2, "basis": "Z"}]

    def test_c_arity_three(self):
        _, d = infer(EMPTY, parse("X x:1. <x,<x,x>>"))
        assert derivation_summary(d)["c_nodes"] == [{"var": "x", "arity": 3, "basis": "X"}]

    def test_same_name_contracted_twice(self):
        # one entry per C node, in walk order, though both contract an x
        _, d = infer(EMPTY, parse("<Z x:1. <x,x>, Z x:1. <x,<x,x>>>"))
        assert derivation_summary(d)["c_nodes"] == [
            {"var": "x", "arity": 2, "basis": "Z"},
            {"var": "x", "arity": 3, "basis": "Z"},
        ]

    def test_c_multiset_matches_occurrences(self):
        for src in term_pool():
            _, d = infer(EMPTY, parse(src))
            for node in d.walk():
                if node.rule == "C":
                    (e,) = node.dropped()
                    copies = len(node.children[0].ctx) - len(node.ctx) + 1
                    assert syntax.occurrences(e.name, node.term) == copies

    def test_w_node_for_unused(self):
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Q))
        _, d = infer(ctx, parse("x"))
        assert derivation_summary(d)["w_count"] == 1

    def test_copy_map_derivation_is_linear_in_its_ways(self):
        # one W node per weakening step, however many entries it drops;
        # the summary still counts the dropped entries
        k = 200
        _, d = infer(EMPTY, parse("Z x:1. " + "<x," * (k - 1) + "x" + ">" * (k - 1)))
        rules = Counter(node.rule for node in d.walk())
        assert sum(rules.values()) == 4 * k - 1 and rules["W"] == 2 * (k - 1)
        assert derivation_summary(d)["w_count"] == 20099
        validate_derivation(d)


class TestValidator:
    def _tamper(self, d: Derivation, **changes) -> Derivation:
        return dataclasses.replace(d, **changes)

    def test_rejects_wrong_type(self):
        _, d = infer(EMPTY, parse("Z[1]"))
        bad = self._tamper(d, type=Numeral(2))
        with pytest.raises(Exception):
            validate_derivation(bad)

    @staticmethod
    def _flip_to_x(node: Derivation, flipped) -> Derivation:
        """node with every context entry whose name passes flipped moved to basis X."""
        children = tuple(TestValidator._flip_to_x(c, flipped) for c in node.children)
        ctx = Context(tuple(
            Entry(e.name, Basis.X, e.type) if flipped(e.name) else e for e in node.ctx
        ))
        return dataclasses.replace(node, children=children, ctx=ctx)

    def test_contraction_basis_conflict(self):
        # flip the basis of the entry the C node contracts: its copies x#k
        # keep Z, and the re-checker must flag the mismatch
        _, d = infer(EMPTY, parse("Z x:1. <x,x>"))
        (c_node,) = d.children
        assert c_node.rule == "C"
        with pytest.raises(ContractionBasisError):
            validate_derivation(self._flip_to_x(c_node, lambda name: name == "x"))

    def test_occurrence_basis_conflict(self):
        # flip the basis of the copies x#k: they no longer share the
        # contracted entry's basis
        _, d = infer(EMPTY, parse("Z x:1. <x,x>"))
        with pytest.raises(ContractionBasisError):
            validate_derivation(self._flip_to_x(d, lambda name: "#" in name))

    @staticmethod
    def _contraction(ctx: Context, src: str, premise_ctx, premise_term) -> Derivation:
        """A C node over ctx |- src whose premise is the derivation infer
        gives premise_ctx |- premise_term, however it splits the context."""
        premise_ctx = context_of(*((name, Basis.Z, Q) for name in premise_ctx))
        _, child = infer(premise_ctx, premise_term)
        return Derivation("C", ctx, parse(src), child.type, (child,))

    def test_contraction_must_split_one_entry_in_place(self):
        xy = context_of(("x", Basis.Z, Q), ("y", Basis.Z, Q))
        x = context_of(("x", Basis.Z, Q))
        copies = ["x#1", "x#2"]
        pair = syntax.rename_free_occurrences(parse("<<x,x>,y>"), "x", copies)
        good = self._contraction(xy, "<<x,x>,y>", copies + ["y"], pair)
        validate_derivation(good)
        bad = [
            # two entries split
            self._contraction(
                xy, "<<x,x>,<y,y>>", copies + ["y#1", "y#2"],
                Tup(Tup(Var("x#1"), Var("x#2")), Tup(Var("y#1"), Var("y#2"))),
            ),
            # one entry renamed into a single copy
            self._contraction(x, "x", ["x#1"], Var("x#1")),
            # the copies after y, not in x's place
            self._contraction(xy, "<<x,x>,y>", ["y"] + copies, pair),
            # three copies of an entry used twice
            self._contraction(x, "<x,x>", copies + ["x#3"], Tup(Var("x#1"), Var("x#2"))),
        ]
        for d in bad:
            with pytest.raises(InvalidDerivationError):
                validate_derivation(d)

    def test_weakening_drops_only_unused_entries(self):
        ctx = context_of(("x", Basis.Z, Q), ("y", Basis.X, Q), ("z", Basis.Z, Q))
        _, d = infer(ctx, parse("y"))
        assert d.rule == "W" and d.dropped() == (ctx.entries[0], ctx.entries[2])
        validate_derivation(d)
        (v,) = d.children
        for bad in (self._tamper(d, ctx=v.ctx), self._tamper(d, term=parse("<x, y>"))):
            with pytest.raises(InvalidDerivationError):
                validate_derivation(bad)

    def test_let_body_premise_replays_the_renaming(self):
        # the let keeps its source binders; its body premise reads x, a
        # context name, renamed to x', and y as it is
        src = parse("Z x:1*1. let <x, y> =Z x in <y, x>")
        d = infer(EMPTY, src)[1]
        validate_derivation(d)
        let = d.children[0]
        bound, body = let.children
        assert let.term is src.body and body.ctx.names == ["x", "x'", "y"]
        assert body.term == parse("<y, x'>")
        # a body premise whose subject is the un-renamed body, and one of
        # the right type that reads the binders the other way round
        unrenamed = infer(body.ctx, src.body.body)[1]
        swapped = infer(body.ctx, parse("<x', y>"))[1]
        # a body premise whose renamed binder is the context name x; a
        # Context refuses duplicate names, so the entries are set after
        clash = dataclasses.replace(body.ctx)
        clash.entries = (body.ctx.entries[0], Entry("x", Basis.Z, Q), body.ctx.entries[2])
        for premise in (unrenamed, swapped, self._tamper(body, ctx=clash)):
            with pytest.raises(InvalidDerivationError):
                validate_derivation(self._tamper(d, children=(
                    self._tamper(let, children=(bound, premise)),
                )))

    def test_tampered_generator(self):
        _, d = infer(EMPTY, parse("Z[1]"))
        bad = self._tamper(d, term=Gen(Basis.Z, Phase.zero(), 2))
        with pytest.raises(Exception):
            validate_derivation(bad)


def _tampered(d: Derivation, rule: str, change) -> Derivation:
    """d with its first node of `rule`, in walk order, replaced by
    change(node) (a dict of fields), and every node above it rebuilt."""
    if d.rule == rule:
        return dataclasses.replace(d, **change(d))
    for i, child in enumerate(d.children):
        new = _tampered(child, rule, change)
        if new is not child:
            return dataclasses.replace(d, children=d.children[:i] + (new,) + d.children[i + 1:])
    return d


_Y = context_of(("y", Basis.Z, Q))
_PAIR = "let <a, b> =Z <Z[1], X[1]> in Z[1]"

# (source, rule of the tampered node, change, error, message): one rejecting
# statement of validate_derivation each, reached by changing one node of the
# derivation infer gives the source in the empty context
_REJECTED = [
    ("*", "U", lambda n: dict(type=Q), InvalidDerivationError,
     "rule U: conclusion is not Gamma |- * : 0"),
    ("Z x:1. x", "V", lambda n: dict(term=Unit()), InvalidDerivationError,
     "rule V: subject is not a variable"),
    ("Z x:1. x", "V", lambda n: dict(term=Var("y")), UnboundVariableError,
     "unbound variable y"),
    ("Z x:1. x", "V", lambda n: dict(type=Numeral(2)), InvalidDerivationError,
     "rule V: variable x has type 1"),
    ("Z[1]", "G", lambda n: dict(type=Numeral(2)), InvalidDerivationError,
     "rule G: conclusion does not match the generator rule"),
    ("Z[-1]", "D", lambda n: dict(type=Q), InvalidDerivationError,
     "rule D: conclusion does not match the effect rule"),
    ("Z x:1. x", "B", lambda n: dict(term=Unit()), InvalidDerivationError,
     "rule B: subject is not an abstraction"),
    ("Z x:1. x", "B", lambda n: dict(ctx=_Y), InvalidDerivationError,
     "rule B: premise context is not Gamma, x"),
    ("Z x:1. x", "B", lambda n: dict(term=parse("X x:1. x")), InvalidDerivationError,
     "rule B: binder does not match the appended entry"),
    ("Z x:1. x", "B", lambda n: dict(term=parse("Z x:1. <x, *>")), InvalidDerivationError,
     "rule B: premise subject is not the body"),
    ("Z x:1. x", "B", lambda n: dict(type=Fn(Q, Numeral(2))), InvalidDerivationError,
     "rule B: conclusion type is not A -> B"),
    ("Z x:1. <x, x>", "B", lambda n: dict(term=dataclasses.replace(n.term, is_lambda=True)),
     LinearityError, "lambda-bound variable x must occur exactly once"),
    ("(Z x:1. x) Z[1]", "A", lambda n: dict(term=Unit()), InvalidDerivationError,
     "rule A: subject is not an application"),
    ("(Z x:1. x) Z[1]", "A", lambda n: dict(ctx=_Y), InvalidDerivationError,
     "rule A: premise contexts differ from the conclusion context"),
    ("(Z x:1. x) Z[1]", "A", lambda n: dict(term=parse("(Z x:1. x) X[1]")),
     InvalidDerivationError, "rule A: premise subjects do not match"),
    ("(Z x:1. x) Z[1]", "A", lambda n: dict(type=Numeral(2)), InvalidDerivationError,
     "rule A: function type does not match argument and result"),
    ("<Z[1], X[1]>", "T", lambda n: dict(term=Unit()), InvalidDerivationError,
     "rule T: subject is not a tuple"),
    ("<Z[1], X[1]>", "T", lambda n: dict(ctx=_Y), InvalidDerivationError,
     "rule T: premise contexts differ from the conclusion context"),
    ("<Z[1], X[1]>", "T", lambda n: dict(term=parse("<Z[1], Z[1]>")), InvalidDerivationError,
     "rule T: premise subjects do not match"),
    ("<Z[1], X[1]>", "T", lambda n: dict(type=Numeral(2)), InvalidDerivationError,
     "rule T: conclusion type is not the tensor of the premises"),
    (_PAIR, "E", lambda n: dict(term=Unit()), InvalidDerivationError,
     "rule E: subject is not a let"),
    (_PAIR, "E", lambda n: dict(ctx=_Y), InvalidDerivationError,
     "rule E: bound-term context differs"),
    (_PAIR, "E", lambda n: dict(term=parse("let <a, b> =Z <Z[1], Z[1]> in Z[1]")),
     InvalidDerivationError, "rule E: bound term does not match"),
    # the one case that changes two fields: a bound term of type 2 has a
    # valid derivation of its own, which the let then takes
    (_PAIR, "E", lambda n: dict(term=dataclasses.replace(n.term, bound=parse("Z[2]")),
                                children=(infer(EMPTY, parse("Z[2]"))[1], n.children[1])),
     InvalidDerivationError, "rule E: bound term is not tensor-typed"),
    # the body's W node, which weakens away exactly the entries given to it
    (_PAIR, "W", lambda n: dict(ctx=context_of(("a", Basis.Z, Q))), InvalidDerivationError,
     "rule E: body context is not Gamma, x, y"),
    (_PAIR, "W", lambda n: dict(ctx=context_of(("a", Basis.X, Q), ("b", Basis.X, Q))),
     InvalidDerivationError, "rule E: body context is not Gamma, x, y"),
    ("Z x:1. Z[1]", "W", lambda n: dict(type=Numeral(2)), InvalidDerivationError,
     "rule W: subject or type changed across weakening"),
    ("Z x:1. <x, x>", "C", lambda n: dict(ctx=context_of(("x", Basis.Z, Numeral(2)))),
     InvalidDerivationError, "rule C: occurrence types differ"),
    ("Z x:1. <x, x>", "C", lambda n: dict(term=parse("<<x, *>, x>")), InvalidDerivationError,
     "rule C: premise subject is not the renamed conclusion subject"),
    ("Z x:1. <x, x>", "C", lambda n: dict(type=Numeral(3)), InvalidDerivationError,
     "rule C: type changed across contraction"),
    ("Z[1]", "G", lambda n: dict(rule="Q"), InvalidDerivationError,
     "rule Q: unknown rule 'Q'"),
]


@pytest.mark.parametrize(
    "src, rule, change, error, message", _REJECTED,
    ids=[case[4] for case in _REJECTED],
)
def test_validator_rejects_a_bad_node_of_each_rule(src, rule, change, error, message):
    _, d = infer(EMPTY, parse(src))
    validate_derivation(d)
    bad = _tampered(d, rule, change)
    assert bad is not d
    with pytest.raises(error) as info:
        validate_derivation(bad)
    assert type(info.value) is error and str(info.value) == message


def _naive_free_vars(term):
    """Free variables in first-use order, by walking the term."""
    out = []
    todo = [(term, frozenset())]
    while todo:
        t, bound = todo.pop()
        if isinstance(t, Var):
            if t.name not in bound and t.name not in out:
                out.append(t.name)
        elif isinstance(t, Abs):
            todo.append((t.body, bound | {t.var}))
        elif isinstance(t, App):
            todo.append((t.arg, bound))
            todo.append((t.fn, bound))
        elif isinstance(t, Tup):
            todo.append((t.right, bound))
            todo.append((t.left, bound))
        elif isinstance(t, Let):
            todo.append((t.body, bound | {t.var1, t.var2}))
            todo.append((t.bound, bound))
    return out


def _naive_occurrences(name, term):
    """Free occurrences of `name`, by walking the term."""
    k = 0
    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            k += t.name == name
        elif isinstance(t, Abs):
            if t.var != name:
                todo.append(t.body)
        elif isinstance(t, App):
            todo.extend((t.fn, t.arg))
        elif isinstance(t, Tup):
            todo.extend((t.left, t.right))
        elif isinstance(t, Let):
            todo.append(t.bound)
            if name not in (t.var1, t.var2):
                todo.append(t.body)
    return k


def _naive_counts(term):
    """The counts `fv` holds, walking the term once per variable."""
    return [(x, _naive_occurrences(x, term)) for x in _naive_free_vars(term)]


def _subterms(term):
    out, todo = [], [term]
    while todo:
        t = todo.pop()
        out.append(t)
        if isinstance(t, Abs):
            todo.append(t.body)
        elif isinstance(t, App):
            todo.extend((t.fn, t.arg))
        elif isinstance(t, Tup):
            todo.extend((t.left, t.right))
        elif isinstance(t, Let):
            todo.extend((t.bound, t.body))
    return out


def _sharing_sources():
    """The inputs of the `sharing` benchmark workload: the copy maps
    B x:1. <x,<x,...>> 6..11 ways in Z and X, and the higher-order share."""
    maps = [
        f"{basis} x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)
        for basis in "ZX"
        for ways in range(6, 12)
    ]
    return maps + ["(X f:1->1*1. <f,f>) (Z x:1. <x,x>)"]


# Unannotated binders that application fixes: weakening, contraction, tuples
# and lets under contexts that hold type variables
_OPEN_SOURCES = [
    "(Z x. <x,x>) Z[1]",
    "(Z x. Z y:1. <y,y>) Z[1]",
    "(X x. <x,<Z[1],x>>) X[1]^pi",
    "(Z f. <f Z[1], Z[0]>) (Z y:1. <y,y>)",
    "let <a,b> =X (Z x. <x,x>) Z[1] in <b,<a,Z[1]>>",
    "(Z x. <Z y:1. <y,y>, x>) Z[1]",
]


def _typing_cases():
    """Every pool term, both sides of every rule instance, H x 2..20, the
    sharing sources and _OPEN_SOURCES."""
    return (
        [(EMPTY, parse(s)) for s in term_pool()]
        + rule_sides()
        + [(EMPTY, parse(" o ".join(["H"] * n))) for n in range(2, 21)]
        + [(EMPTY, parse(s)) for s in _sharing_sources() + _OPEN_SOURCES]
    )


def _outcome(run):
    try:
        return run()
    except ZetaTypeError as exc:
        return type(exc)


# one input per way inference can fail, and inputs that only check's
# expected type resolves
_ERROR_SOURCES = [
    "Z x. x",
    "(Z f. f) (Z y. y)",
    "Z f. f Z[1]",
    "Z f. <f Z[1], f Z[1]>",
    "Z f. Z y. f y",
    "Z x. let <a,b> =Z x in <b,a>",
    "let <a,a> =Z <Z[1],Z[1]> in a",
    "let <a,b> =Z Z[1] in <a,b>",
    "Z f. <f, f f>",
    "Z[1] Z[1]",
    "\\x:1. <x,x>",
    "Z f. f (f Z[1])",
    # one W node drops both ambiguous binders: the reference meets g first
    "Z f. Z g. Z h:1. <h, <g, f>>",
]


def _result(run):
    """What run returns, or the type and message of the type error it
    raises."""
    try:
        return run()
    except ZetaTypeError as exc:
        return type(exc), str(exc)


def _literal_result(ctx, term, expected=None):
    """_result of the reference, its chains of one-entry W nodes merged."""
    return _result(lambda: merged_w_chains(literal_infer(ctx, term, expected)))


def _reference_cases():
    """_typing_cases, _SHARED_SOURCES and _ERROR_SOURCES, each also rebuilt
    with nothing shared."""
    sources = _SHARED_SOURCES + _ERROR_SOURCES
    cases = _typing_cases() + [(EMPTY, parse(s)) for s in sources]
    return cases + [(ctx, _unshared(term)) for ctx, term in cases]


class TestCountsOncePerInference:
    def test_derivations_match_naive_resolving(self):
        # the reference derives with type variables, then resolves every
        # node on its own
        for ctx, term in _reference_cases():
            got = _result(lambda: infer(ctx, term)[1])
            assert got == _literal_result(ctx, term), syntax.print_term(term)

    def test_check_matches_reference(self):
        for ctx, term in _reference_cases():
            inferred = _result(lambda: literal_infer(ctx, term))
            expected = [Fn(Q, Q), TOP]
            if isinstance(inferred, Derivation):
                expected.append(inferred.type)
            for t in expected:
                got = _result(lambda: check(ctx, term, t))
                assert got == _literal_result(ctx, term, t), (syntax.print_term(term), t)

    def test_counts_match_naive_in_first_use_order(self):
        # besides every typing case: a let binding one name twice, composites
        # with `_c` free on either side, and names shared in another order
        extra = ["let <a, a> =Z <b, Z[1]> in <a, b>", "let <a, b> =Z y in <b, <y, a>>",
                 "_c o H", "H o _c", "(Z _c. _c) o _c'", "<<a, b>, <b, <c, a>>>"]
        c_children = 0
        for ctx, term in _typing_cases() + [(EMPTY, parse(s)) for s in extra]:
            for t in _subterms(term):
                assert list(t.fv.items()) == _naive_counts(t), syntax.print_term(t)
            d = _outcome(lambda: infer(ctx, term)[1])
            if not isinstance(d, Derivation):
                continue
            # C-renamed and freshened terms too
            for node in d.walk():
                assert list(node.term.fv.items()) == _naive_counts(node.term)
                c_children += node.rule == "C"
        assert c_children > 100
        # the one dict of every closed binder's counts is never changed
        assert syntax._NONE_FREE == {}

    def test_no_per_node_term_walks(self, monkeypatch):
        calls = Counter()

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)

            return wrapped

        for module in (syntax, types):
            for name in ("free_vars", "occurrences"):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))

        def walks(n):
            term = parse(" o ".join(["H"] * n))
            calls.clear()
            infer(EMPTY, term)
            return sum(calls.values())

        assert walks(16) == walks(4)

    def test_name_checks_do_not_grow_with_the_term(self, monkeypatch):
        # contexts that inference derives from checked ones are not checked
        # again for duplicate names
        checks = 0
        post_init = Context.__post_init__

        def counting(ctx):
            nonlocal checks
            checks += 1
            post_init(ctx)

        monkeypatch.setattr(Context, "__post_init__", counting)

        def name_checks(n):
            nonlocal checks
            term = parse(" o ".join(["H"] * n))
            checks = 0
            infer(EMPTY, term)
            return checks

        assert name_checks(16) <= name_checks(4)


def _unshared(t):
    """A rebuild of term t in which no two nodes are one object."""
    if not isinstance(t, syntax.Term):
        return t
    fields = (f.name for f in dataclasses.fields(t) if f.init)
    return type(t)(**{name: _unshared(getattr(t, name)) for name in fields})


def _subdiagrams(d):
    todo = [d]
    while todo:
        node = todo.pop()
        yield node
        if isinstance(node, Seq):
            todo += [node.first, node.second]
        elif isinstance(node, Par):
            todo += [node.top, node.bottom]


# closed subterms repeated beside terms that do not resolve on their own
_SHARED_SOURCES = [
    "<H o H, Z y. *>",
    "<H, <Z x. x, H>>",
    "Z y:1. <H, <y, <H, Z z. z>>>",
    "(Z f. <H, <f Z[1], H>>) (Z x. x)",
    "<H o (Z x. x), H o H>",
]


class TestClosedSubtermsShared:
    """`H` is the one closed subterm object derived, resolved and translated
    once, every occurrence sharing the result; any other is derived again
    at each occurrence, with the same result as a rebuild that shares
    nothing."""

    def test_h_derived_and_translated_once(self):
        _, d = infer(EMPTY, parse("H o H o H"))
        hs = [n for n in d.walk() if n.term is syntax.hadamard_term() and n.rule == "B"]
        assert len(hs) == 3 and all(n is hs[0] for n in hs)
        assert hs[0] == infer(EMPTY, _unshared(syntax.hadamard_term()))[1]
        body = semantics._body(hs[0])
        copies = [s for s in _subdiagrams(translate(d).diagram) if s == body]
        assert len(copies) == 3 and all(s is copies[0] for s in copies)

    def test_same_as_with_nothing_shared(self):
        def result(ctx, term):
            try:
                return infer(ctx, term)
            except ZetaTypeError as exc:
                return type(exc), str(exc)

        cases = _typing_cases() + [(EMPTY, parse(s)) for s in _SHARED_SOURCES]
        for ctx, term in cases:
            assert result(ctx, term) == result(ctx, _unshared(term)), (
                syntax.print_term(term)
            )
        # one closed object other than H, whose walk makes type variables,
        # repeated: each occurrence gets a node of its own
        t = parse("(Z x. x) Z[1]")
        for term in (Tup(t, Tup(t, t)), theory._copies(t, 3)):
            (_, d), (_, u) = infer(EMPTY, term), infer(EMPTY, _unshared(term))
            assert d == u
            jd, ju = translate(d), translate(u)
            assert jd == ju
            assert np.array_equal(denote(jd.diagram), denote(ju.diagram))
            nodes = [n for n in d.walk() if n.term is t]
            assert len(nodes) == 3 and len({id(n) for n in nodes}) == 3

    # each ?N counts the variables of every H copy before it, as if each
    # copy were derived again
    @pytest.mark.parametrize("src, message", [
        ("<H o H, Z y. *>", "ambiguous type ?16 (add an annotation at binder y)"),
        # Z x. x does not resolve on its own, nor does the root
        ("<H, <Z x. x, H>>", "ambiguous type ?7 (add an annotation at binder x)"),
        ("Z y:1. <H, <y, <H, Z z. z>>>",
         "ambiguous type ?13 (add an annotation at binder z)"),
    ])
    def test_ambiguity_names_the_same_variable(self, src, message):
        with pytest.raises(AmbiguousTypeError) as exc:
            infer(EMPTY, parse(src))
        assert str(exc.value) == message

    def test_shared_node_listed_once_per_occurrence(self):
        # Z x. x resolves only once the expected type binds x
        f = Fn(Q, Q)
        d = check(EMPTY, parse("<H, <Z x. x, H>>"), Tensor(f, Tensor(f, f)))
        assert d.children[1].children[1] is d.children[0]
        # or once the application binds it
        _, d = infer(EMPTY, parse("(Z f. <H, <f Z[1], H>>) (Z x. x)"))
        hs = [n for n in d.walk() if n.term is syntax.hadamard_term() and n.rule == "B"]
        assert len(hs) == 2 and hs[0] is hs[1]
        assert not any(contains_var(n.type) for n in d.walk())


class TestHOncePerProcess:
    """H is typed and built once per process, and translated once: every
    call starts from that derivation node and body."""

    def test_calls_share_one_node_and_one_body(self):
        def hs(d):
            return [n for n in d.walk() if n.term is syntax.hadamard_term() and n.rule == "B"]

        _, d1 = infer(EMPTY, parse("H o H"))
        _, d2 = infer(context_of(("y", Basis.X, Q)), parse("<y, H Z[1]>"))
        d3 = check(EMPTY, parse("H"), Fn(Q, Q))
        nodes = hs(d1) + hs(d2) + hs(d3)
        assert len(nodes) == 4 and all(n is d3 for n in nodes)
        body = semantics._body(infer(EMPTY, _unshared(syntax.hadamard_term()))[1])
        copies = [s for d in (d1, d2) for s in _subdiagrams(translate(d).diagram) if s == body]
        assert len(copies) == 3 and all(s is copies[0] for s in copies)
        assert translate(d3).body is copies[0] and copies[0] is not body


def _recursive_walk(d):
    yield d
    for c in d.children:
        yield from _recursive_walk(c)


class TestWalk:
    def test_same_order_as_recursive_walk(self):
        terms = [parse(s) for s in term_pool()] + [parse(" o ".join(["H"] * 200))]
        for term in terms:
            _, d = infer(EMPTY, term)
            assert [id(n) for n in d.walk()] == [id(n) for n in _recursive_walk(d)]

    def test_post_order_yields_each_node_once_after_its_children(self):
        terms = [parse(s) for s in term_pool()] + [parse(" o ".join(["H"] * 200))]
        for term in terms:
            _, d = infer(EMPTY, term)
            order = [id(n) for n in d.post_order()]
            assert order == list(dict.fromkeys(id(n) for n in _recursive_post_order(d)))
        # the H x 200 derivation shares one H subtree
        assert len(order) < sum(1 for _ in d.walk())

    def test_validates_a_deep_derivation_at_the_default_recursion_limit(self):
        term = parse(" o ".join(["H"] * 600))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)  # infer still recurses per nesting level
        try:
            _, d = infer(EMPTY, term)
        finally:
            sys.setrecursionlimit(limit)
        validate_derivation(d)


def _recursive_post_order(d):
    for c in d.children:
        yield from _recursive_post_order(c)
    yield d
