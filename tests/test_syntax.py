import ast
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zetacalc import syntax
from zetacalc.syntax import (
    Abs,
    App,
    Basis,
    Gen,
    Let,
    ParseError,
    Phase,
    Tup,
    Unit,
    Var,
    ZetaError,
    alpha_eq,
    free_vars,
    hadamard_term,
    occurrences,
    parse,
    parse_type,
    print_term,
    rename_free_occurrences,
    rotation,
    substitute,
)
from zetacalc.types import parse_context
from conftest import (
    literal_parse,
    literal_parse_context,
    literal_parse_type,
    rule_sides,
    term_pool,
)


def test_syntax_imports_nothing_from_the_package():
    # syntax, types included, is the bottom layer: no relative import,
    # at module level or deferred into a function
    tree = ast.parse(Path(syntax.__file__).read_text())
    relative = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
    assert relative == []


class TestPhase:
    def test_exact_normalization(self):
        assert Phase.exact(5, 2).pi_multiple == Fraction(1, 2)
        assert Phase.exact(-1).pi_multiple == Fraction(1)
        assert Phase.exact(4).pi_multiple == Fraction(0)

    def test_exact_plus_exact_stays_exact(self):
        p = Phase.exact(1, 2) + Phase.exact(3, 2)
        assert p.is_exact and p.is_zero

    def test_mixed_promotes_to_radians(self):
        p = Phase.exact(1) + Phase.radians(0.5)
        assert not p.is_exact
        assert math.isclose(p.value, math.pi + 0.5)

    def test_negation(self):
        assert (-Phase.exact(1, 2)).pi_multiple == Fraction(3, 2)
        assert (-Phase.zero()).is_zero

    @given(
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
        st.fractions(min_value=-4, max_value=4, max_denominator=12),
    )
    def test_addition_mod_2pi(self, a, b):
        p = Phase.exact(a.numerator, a.denominator)
        q = Phase.exact(b.numerator, b.denominator)
        total = (p + q).value
        expected = (p.value + q.value) % (2 * math.pi)
        # compare on the circle: 0 and 2pi - 1e-15 are the same phase
        assert abs((total - expected + math.pi) % (2 * math.pi) - math.pi) <= 1e-12

    @pytest.mark.parametrize("make", [
        lambda: Phase.radians(-1e-20),
        lambda: -Phase.radians(1e-20),
    ])
    def test_tiny_negative_radians_fold_to_zero(self, make):
        # x % 2pi rounds up to 2pi itself for a tiny negative x
        assert make().radians_value == 0.0

    @pytest.mark.parametrize("src", ["Z[1]^rad(1e400)", "rot Z^-rad(1e400)"])
    def test_non_finite_radians_rejected(self, src):
        with pytest.raises(ParseError, match="not finite"):
            parse(src)

    @pytest.mark.parametrize("src, col", [
        ("Z[" + "9" * 5000 + "]", 3),
        ("Z^" + "9" * 5000 + "pi x:1. x", 3),
        ("Z x:" + "9" * 5000 + ". x", 5),
    ], ids=["arity", "phase", "type-numeral"])
    def test_integer_past_the_string_digit_limit(self, src, col):
        with pytest.raises(ParseError, match="5000 digits is too long") as e:
            parse(src)
        assert (e.value.line, e.value.col) == (1, col)

    def test_str_forms(self):
        assert str(Phase.exact(1)) == "pi"
        assert str(Phase.exact(2, 3)) == "2pi/3"
        assert "rad(" in str(Phase.radians(1.25))


class TestParse:
    def test_sharing_term(self):
        t = parse("Z x. <x, x>")
        assert t == Abs(Basis.Z, Phase.zero(), "x", None, Tup(Var("x"), Var("x")))

    def test_unit(self):
        assert parse("*") == Unit()

    def test_gen_with_phase(self):
        assert parse("X[2]^pi") == Gen(Basis.X, Phase.exact(1), 2)

    def test_negative_gen(self):
        assert parse("Z[-1]") == Gen(Basis.Z, Phase.zero(), -1)

    def test_lambda_sugar_sets_obligation(self):
        t = parse("\\x. x")
        assert isinstance(t, Abs) and t.is_lambda and t.basis == Basis.Z

    def test_h_desugars_to_rotation_chain(self):
        assert alpha_eq(parse("H"), hadamard_term())

    def test_rot_sugar(self):
        assert alpha_eq(parse("rot X^pi"), rotation(Basis.X, Phase.exact(1)))

    def test_compose_is_right_assoc(self):
        t = parse("a o b o c")
        # B0 x. a ((B0 y. b (c y)) x)
        assert isinstance(t, Abs)
        inner = t.body
        assert isinstance(inner, App) and inner.fn == Var("a")

    def test_application_left_assoc(self):
        t = parse("f a b")
        assert t == App(App(Var("f"), Var("a")), Var("b"))

    def test_let_with_basis(self):
        t = parse("let <a,b> =X y in <b,a>")
        assert isinstance(t, Let) and t.basis == Basis.X

    def test_annotation(self):
        t = parse("Z x:1*1. x")
        assert t.annotation is not None

    @pytest.mark.parametrize(
        "bad",
        ["Z[1", "<x,>", "let <a,b> = y in a", "Z x. ", "Z[1]^3", "(x", "x)", "?"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("Z x.\n  <x,>")
        assert exc.value.line == 2


class TestDepth:
    """The parser keeps no Python frame per nesting level: each of these
    parses at the default recursion limit. Shapes are walked in a loop,
    since dataclass `==` recurses."""

    DEPTH = 1000

    def test_nested_tuple(self):
        t = parse("<" * self.DEPTH + "Z[1]" + ", *>" * self.DEPTH)
        for _ in range(self.DEPTH):
            assert isinstance(t, Tup) and isinstance(t.right, Unit)
            t = t.left
        assert isinstance(t, Gen)

    def test_nested_parentheses(self):
        assert parse("(" * self.DEPTH + "x" + ")" * self.DEPTH) == Var("x")

    def test_nested_binders(self):
        t = parse("".join(f"Z x{i}. " for i in range(self.DEPTH)) + "x0")
        for i in range(self.DEPTH):
            assert isinstance(t, Abs) and t.var == f"x{i}"
            t = t.body
        assert t == Var("x0")

    def test_let_chain(self):
        t = parse("let <a, b> =Z " * self.DEPTH + "y" + " in <b, a>" * self.DEPTH)
        for _ in range(self.DEPTH):
            assert isinstance(t, Let) and t.body == Tup(Var("b"), Var("a"))
            t = t.bound
        assert t == Var("y")


class TestPrint:
    @pytest.mark.parametrize("src", term_pool())
    def test_round_trip_alpha_identity(self, src):
        t = parse(src)
        assert alpha_eq(parse(print_term(t)), t)

    def test_examples(self):
        assert print_term(Abs(Basis.Z, Phase.zero(), "x", None, Var("x"))) == "Z x. x"
        assert print_term(Gen(Basis.X, Phase.exact(1), -1)) == "X[-1]^pi"
        assert print_term(Tup(Unit(), Unit())) == "<*, *>"


class TestFreeVarsOccurrences:
    def test_free_vars_order(self):
        assert free_vars(parse("<y, <x, y>>")) == ["y", "x"]

    def test_binder_removes(self):
        assert free_vars(parse("Z x. <x, y>")) == ["y"]

    def test_let_binds_in_body_only(self):
        t = parse("let <a,b> =Z c in <a,b>")
        assert free_vars(t) == ["c"]

    def test_occurrences_shadowing(self):
        assert occurrences("x", parse("Z x. x")) == 0
        assert occurrences("x", parse("<x, Z x. x>")) == 1
        assert occurrences("x", parse("<x, <x, x>>")) == 3

    def test_deep_nest(self):
        # built directly, so that only free_vars and occurrences are under
        # test; TestDepth parses terms this deep
        t, uses = Var("x0"), Counter({"x0": 1})
        for i in range(1, 5001):
            if i % 2:
                leaf = f"x{i % 3}"
                t = Tup(t, Var(leaf))
            else:
                leaf = "y"
                t = App(Var(leaf), t)
            uses[leaf] += 1
        assert free_vars(t) == ["y", "x0", "x1", "x2"]
        for name, k in uses.items():
            assert occurrences(name, t) == k
        assert occurrences("z", t) == 0

    def test_rename_keeps_subtrees_without_the_name(self):
        t = parse("<Z y:1. y, <x, Z x:1. x>>")
        r = rename_free_occurrences(t, "x", ["x#1"])
        assert r.left is t.left
        assert r.right.right is t.right.right
        assert r.right.left == Var("x#1")
        with pytest.raises(ValueError):
            rename_free_occurrences(t, "x", ["x#1", "x#2"])

    def test_rename_under_a_let(self):
        t = parse("let <a, b> =Z <x, x> in <a, <b, x>>")
        r = rename_free_occurrences(t, "x", ["x1", "x2", "x3"])
        assert r == parse("let <a, b> =Z <x1, x2> in <a, <b, x3>>")
        # a let binder named x shadows it in the body only
        t = parse("let <x, b> =Z <x, y> in <x, b>")
        r = rename_free_occurrences(t, "x", ["x1"])
        assert r == parse("let <x, b> =Z <x1, y> in <x, b>")


class TestFreshNames:
    def test_parse_is_deterministic(self):
        for s in term_pool():
            assert parse(s) == parse(s), s

    def test_compose_binder_avoids_free_names(self):
        t = parse("_c o _c'")
        assert t.var == "_c''"
        assert free_vars(t) == ["_c", "_c'"]

    def test_sugar_binders_do_not_capture(self):
        # compose's first choice of binder is the user's name here
        t = parse("Z _c:1->1. (_c o rot Z^0)")
        assert free_vars(t.body) == ["_c"]
        assert t.body.var == "_c'"
        assert t.body.body.fn == Var("_c")


class TestSubstitute:
    def test_simple(self):
        t = substitute(parse("<x, x>"), "x", parse("Z[1]"))
        assert alpha_eq(t, parse("<Z[1], Z[1]>"))

    def test_capture_avoidance(self):
        t = substitute(parse("Z y. <x, y>"), "x", Var("y"))
        assert isinstance(t, Abs)
        assert t.var != "y"
        assert t.body == Tup(Var("y"), Var(t.var))

    def test_no_op_when_absent(self):
        m = parse("Z x. x")
        assert alpha_eq(substitute(m, "z", Unit()), m)

    def test_identity_substitution(self):
        m = parse("Z y. <x, y>")
        assert alpha_eq(substitute(m, "x", Var("x")), m)

    def test_free_vars_law(self):
        m = parse("<x, y>")
        n = parse("<z, w>")
        got = free_vars(substitute(m, "x", n))
        assert set(got) == {"y", "z", "w"}

    def test_let_binder_renamed_away_from_the_replacement(self):
        t = substitute(parse("let <a, b> =Z y in <a, x>"), "x", Var("a"))
        assert t == parse("let <a', b> =Z y in <a', a>")

    def test_nested_collision(self):
        # renaming y must not be captured by an inner binder already named y'
        m = parse("Z y. Z q. <x, <y, q>>")
        t = substitute(m, "x", Var("y"))
        assert "y" in free_vars(t)


class TestAlphaEq:
    def test_renamed_binders(self):
        assert alpha_eq(parse("Z x. x"), parse("Z y. y"))

    def test_free_variable_mismatch(self):
        assert not alpha_eq(parse("Z x. <x,x>"), parse("Z y. <y,x>"))

    def test_phase_sensitivity(self):
        assert alpha_eq(parse("Z^pi/2 x. x"), parse("Z^pi/2 y. y"))
        assert not alpha_eq(parse("Z^pi/2 x. x"), parse("Z^pi x. x"))

    def test_exact_vs_radian_phase(self):
        assert alpha_eq(
            Gen(Basis.Z, Phase.exact(1), 1), Gen(Basis.Z, Phase.radians(math.pi), 1)
        )

    def test_basis_mismatch(self):
        assert not alpha_eq(parse("Z x. x"), parse("X x. x"))


def _outcome(read, src):
    """What a reader makes of src: the value, or the error with its place."""
    try:
        return read(src)
    except ZetaError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "col", None)


def _workload_sources():
    """The sources the benchmark parses: the n-way copy maps, the
    higher-order share and the H chains."""
    for basis in "ZX":
        for phase in ("", "^pi/2", "^pi", "^3pi/2"):
            for ways in range(6, 12):
                yield f"{basis}{phase} x:1. " + "<x," * (ways - 1) + "x" + ">" * (ways - 1)
    yield "(X f:1->1*1. <f,f>) (Z x:1. <x,x>)"
    for n in range(2, 21):
        yield " o ".join(["H"] * n)


# Malformed terms, each named by the error branch it reaches.
_MALFORMED = [
    ("unexpected-character", "?"),
    ("unexpected-character-after-term", "Z x:1. x & y"),
    ("expect-rot-caret", "rot Z pi"),
    ("expect-gen-close", "Z[1"),
    ("expect-gen-close-found", "Z[1 x]"),
    ("expect-binder-ident", "Z . x"),
    ("expect-binder-dot", "Z x x"),
    ("expect-lambda-ident", "\\. x"),
    ("expect-lambda-dot", "\\x x"),
    ("expect-tuple-comma", "<x>"),
    ("expect-tuple-close", "<x, y"),
    ("expect-let-open", "let a"),
    ("expect-let-first-ident", "let <1, b> =Z y in a"),
    ("expect-let-comma", "let <a b> =Z y in a"),
    ("expect-let-second-ident", "let <a, 1> =Z y in a"),
    ("expect-let-close", "let <a, b =Z y in a"),
    ("expect-let-equals", "let <a, b> Z y in a"),
    ("expect-let-in", "let <a, b> =Z y, a"),
    ("expect-paren-close", "(x"),
    ("expect-int-num", "Z[x]"),
    ("expect-int-num-after-minus", "Z[-]"),
    ("expect-rad-open", "Z[1]^rad 1"),
    ("expect-rad-num", "Z[1]^rad(x)"),
    ("expect-rad-close", "Z[1]^rad(1"),
    ("expect-annotation-paren-close", "Z x:(1. x"),
    ("trailing-input", "x)"),
    ("trailing-input-after-gen", "Z[1] ]"),
    ("non-finite-rad", "Z[1]^rad(1e400)"),
    ("non-finite-negative-rad", "rot Z^-rad(1e400)"),
    ("zero-denominator", "Z^pi/0 x:1. x"),
    ("negative-denominator", "Z^3pi/-2 x:1. x"),
    ("bare-nonzero-integer-phase", "Z[1]^3"),
    ("non-integer-gen-decimal", "Z[1.5]"),
    ("non-integer-gen-exponent", "Z[1e3]"),
    ("non-integer-phase-multiple", "Z^1.5pi x:1. x"),
    ("expected-a-type", "Z x:. x"),
    ("expected-a-type-after-arrow", "Z x:1->. x"),
    ("expected-basis-rot", "rot Y^pi"),
    ("expected-basis-let", "let <a,b> = y in a"),
    ("expected-a-phase", "Z^x y. y"),
    ("expected-a-term-empty", ""),
    ("expected-a-term-binder-body", "Z x. "),
    ("expected-a-term-tuple-right", "<x,>"),
    ("expected-a-term-after-o", "a o"),
    ("multi-line-expect", "Z x.\n  <x,>"),
    ("multi-line-character", "\n\n  ?"),
    ("multi-line-trailing", "Z x:1.\n\tx\n )"),
    ("multi-line-let", "let <a,b> =Z\n y\n in\n a b )"),
    ("multi-line-end-of-input", "<x,\n y\n"),
]


class TestAgainstLiteralParse:
    """`parse`, `parse_type` and `parse_context` against the reference
    reader in conftest: the same value, or the same error message, line
    and column."""

    @pytest.mark.parametrize("src", [
        *term_pool(),
        *(print_term(term) for _, term in rule_sides()),
        *_workload_sources(),
    ])
    def test_terms(self, src):
        assert _outcome(parse, src) == _outcome(literal_parse, src)

    @pytest.mark.parametrize("src", [s for _, s in _MALFORMED],
                             ids=[name for name, _ in _MALFORMED])
    def test_malformed_terms(self, src):
        got = _outcome(parse, src)
        assert isinstance(got, tuple) and got[0] is ParseError
        assert got == _outcome(literal_parse, src)

    @pytest.mark.parametrize("src", [
        "1", "0", "1*1", "1->1*1", "(1->1)->1", "1'", "(1*2)''", "1 -> 1 -> 1",
        "", "x", "1 ->", "(1", "1 *", "1 2", "1.5", "1 -", "1 - 1", "-1", "(1->)",
    ])
    def test_types(self, src):
        assert _outcome(parse_type, src) == _outcome(literal_parse_type, src)

    @pytest.mark.parametrize("src", [
        "", "  ", "x:Z:1", "x:Z:1, f:X:1->1*1", "x", "x:Y:1", "x:Z", "x:Z:1,",
        "x:Z:1 y", "1:Z:1", "x Z:1", "x:Z 1", "x:Z:1,\n y:X:", "x:Z:1, x:Z:1",
    ])
    def test_contexts(self, src):
        assert _outcome(parse_context, src) == _outcome(literal_parse_context, src)

    _LEXEMES = [
        "Z", "X", "H", "rot", "let", "in", "o", "rad", "pi", "x", "y", "_c",
        "0", "1", "2", "1.5", "1e400", "<", ">", ",", ".", ":", "^", "[", "]",
        "*", "\\", "/", "-", "->", "=", "(", ")", "'", "?", "\n",
    ]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(_LEXEMES), st.sampled_from(["", " ", "\n"])),
                    max_size=14))
    def test_lexeme_strings(self, pieces):
        src = "".join(lexeme + sep for lexeme, sep in pieces)
        assert _outcome(parse, src) == _outcome(literal_parse, src)
        assert _outcome(parse_type, src) == _outcome(literal_parse_type, src)
        assert _outcome(parse_context, src) == _outcome(literal_parse_context, src)
