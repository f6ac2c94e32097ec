import dataclasses
import gc
import sys
from collections import Counter

import pytest

from zetacalc import semantics, syntax, types
from zetacalc.diagram import Par, Seq
from zetacalc.semantics import translate
from zetacalc.syntax import Abs, App, Basis, Gen, Let, Phase, Tup, Var, parse, parse_type
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
        # x is freshened to x', the second binder's old name: the body still
        # reads the first part
        d = infer(EMPTY, parse("Z x:1*1. let <x, x'> =Z x in x"))[1]
        assert syntax.alpha_eq(d.term, parse("Z x:1*1. let <a, b> =Z x in a"))
        let = d.children[0]
        assert let.rule == "E" and let.children[1].term == Var(let.term.var1)


class TestDerivations:
    def test_pool_validates(self):
        for src in term_pool():
            _, d = infer(EMPTY, parse(src))
            validate_derivation(d)

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

    def test_tampered_generator(self):
        _, d = infer(EMPTY, parse("Z[1]"))
        bad = self._tamper(d, term=Gen(Basis.Z, Phase.zero(), 2))
        with pytest.raises(Exception):
            validate_derivation(bad)


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
        c_children = 0
        for ctx, term in _typing_cases():
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
    """Each closed subterm object is derived, resolved and translated once;
    every other occurrence shares the result."""

    def test_h_derived_and_translated_once(self):
        _, d = infer(EMPTY, parse("H o H o H"))
        hs = [n for n in d.walk() if n.term is syntax.hadamard_term() and n.rule == "B"]
        assert len(hs) == 3 and all(n is hs[0] for n in hs)
        assert hs[0] == infer(EMPTY, _unshared(syntax.hadamard_term()))[1]
        body = semantics._body(hs[0], {})
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
