"""The equational theory, decided numerically.

Each rule is a term schema with metavariables; an instance is checked by
typing both sides, translating to diagrams, and comparing denotations up to
a nonzero scalar. The relation is denotational equality, which is exactly
what soundness of the equational theory asserts.

`compare` decides a pair by a ladder of named methods, and its result says
which one decided. `same-diagram` comes first: the semantics is
compositional, so two sides that translate to the same diagram denote one
matrix, and that matrix is evaluated once and fitted to itself. Otherwise
`dense` evaluates both sides and fits one to the other. Each side's
derivation is released once it is translated, so the two are not held
while the matrices are evaluated. Every function here that evaluates
passes its `budget` on to `denote`; None, the default, is unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from .diagram import same

# equal_up_to_scalar and max_deviation are not called here; they stay
# because perfbench/tracing.py reads and swaps them by name, with infer,
# translate and denote, around each traced op
from .evaluator import (
    BOTH_ZERO,
    DEFAULT_TOL,
    WireBudgetError,
    denote,
    equal_up_to_scalar,
    max_deviation,
    scalar_fit,
)
from .semantics import translate
from .syntax import (
    Abs,
    App,
    Basis,
    Gen,
    Let,
    Numeral,
    Phase,
    Tensor,
    Term,
    Tup,
    Type,
    Unit,
    Var,
    ZetaError,
    _freshen,
    compose,
    free_vars,
    hadamard_term,
    lam,
    occurrences,
    print_term,
    print_type,
    rotation,
    substitute,
)
from .types import (
    Context,
    Entry,
    ZetaTypeError,
    infer,
    size,
)


@dataclass(slots=True, unsafe_hash=True)
class EquationRule:
    """A schema M == N under a side condition.

    `lhs`/`rhs` build terms from a bindings dict; `side_condition` may
    inspect the bindings and the ambient context (some conditions, like the
    congruence subgoal, are themselves semantic)."""

    id: str
    metavariables: tuple[str, ...]
    lhs: Callable[[dict], Term]
    rhs: Callable[[dict], Term]
    side_condition: Callable[[dict, Context, float, Optional[int]], bool]
    description: str = ""


@dataclass(slots=True, unsafe_hash=True)
class RuleVerdict:
    rule_id: str
    bindings: str
    status: str  # sound | unsound | side-condition-unmet | type-error
    scalar: Optional[complex] = None
    deviation: Optional[float] = None
    detail: str = ""

    def to_json_obj(self) -> dict:
        return {
            "rule": self.rule_id,
            "bindings": self.bindings,
            "status": self.status,
            "scalar": None
            if self.scalar is None
            else [self.scalar.real, self.scalar.imag],
            "deviation": self.deviation,
            "detail": self.detail,
        }


def _always(bindings, ctx, tol, budget) -> bool:
    return True


def _linear(bindings, ctx, tol, budget) -> bool:
    return occurrences("x", bindings["M"]) == 1


def _x_not_free(bindings, ctx, tol, budget) -> bool:
    return "x" not in free_vars(bindings["M"])


def _pauli_exponent(bindings, ctx, tol, budget) -> bool:
    return bindings["a"] in (0, 1)


def _pi_commute_cond(bindings, ctx, tol, budget) -> bool:
    # X^{a pi} flips Z-phases only for odd a; at a = 0 both sides agree only
    # when the binder phase is self-inverse (2 alpha = 0 mod 2 pi).
    if bindings["a"] % 2 == 1:
        return True
    alpha: Phase = bindings["alpha"]
    return alpha.is_exact and alpha.pi_multiple in (0, 1)


def _cong_subgoal(bindings, ctx, tol, budget) -> bool:
    """Check the premise M == N denotationally in the extended context."""
    extended = ctx.extended(Entry("x", bindings["basis"], bindings["ann"]))
    try:
        eq = denotational_equal(extended, bindings["M"], bindings["N"], tol, budget)
    except ZetaTypeError:
        return False
    return eq is not None


def _fresh_for(m: Term, hint: str) -> str:
    return _freshen(hint, set(free_vars(m)))


def _abs(basis: Basis, phase: Phase, m: Term, ann) -> Term:
    return Abs(basis, phase, "x", ann, m)


def rules() -> list[EquationRule]:
    """The 13 rule schemas; rules with a `basis` metavariable produce their
    basis-dual instances by instantiation."""

    def r_alpha(b):
        return lam("x", b["M"], b.get("ann"))

    def r_alpha_rhs(b):
        y = _fresh_for(b["M"], "y")
        return lam(y, substitute(b["M"], "x", Var(y)), b.get("ann"))

    def r_beta(b):
        return App(lam("x", b["M"], b.get("ann")), b["N"])

    def r_beta_rhs(b):
        return substitute(b["M"], "x", b["N"])

    def r_eta(b):
        return lam("x", App(b["M"], Var("x")), b.get("ann"))

    def r_eta_rhs(b):
        return b["M"]

    def r_cong(b):
        return _abs(b["basis"], b["alpha"], b["M"], b["ann"])

    def r_cong_rhs(b):
        return _abs(b["basis"], b["alpha"], b["N"], b["ann"])

    def r_embed(b):
        return _abs(b["basis"], Phase.zero(), b["M"], b.get("ann"))

    def r_embed_rhs(b):
        return lam("x", b["M"], b.get("ann"))

    def r_phase_absorb(b):
        return App(_abs(b["basis"], b["alpha"], b["M"], Numeral(1)),
                   Gen(b["basis"], b["theta"], 1))

    def r_phase_absorb_rhs(b):
        return App(_abs(b["basis"], Phase.zero(), b["M"], Numeral(1)),
                   Gen(b["basis"], b["theta"] + b["alpha"], 1))

    def r_rot_compose(b):
        return compose(_abs(b["basis"], b["alpha"], b["M"], Numeral(1)),
                       rotation(b["basis"], b["theta"]))

    def r_rot_compose_rhs(b):
        return _abs(b["basis"], b["alpha"] + b["theta"], b["M"], Numeral(1))

    def r_copy(b):
        gen = Gen(b["basis"].complement, Phase.exact(b["a"]), 1)
        return App(_abs(b["basis"], b["alpha"], b["M"], Numeral(1)), gen)

    def r_copy_rhs(b):
        gen = Gen(b["basis"].complement, Phase.exact(b["a"]), 1)
        return substitute(b["M"], "x", gen)

    def r_pi_commute(b):
        rot = rotation(b["basis"].complement, Phase.exact(b["a"]))
        return compose(_abs(b["basis"], b["alpha"], b["M"], Numeral(1)), rot)

    def r_pi_commute_rhs(b):
        rot = rotation(b["basis"].complement, Phase.exact(b["a"]))
        m2 = substitute(b["M"], "x", App(rot, Var("x")))
        return _abs(b["basis"], -b["alpha"], m2, Numeral(1))

    def r_color(b):
        return _abs(b["basis"], b["alpha"], b["M"], b["ann"])

    def r_color_rhs(b):
        # The dual-color binder sees the Hadamard image of the input: bind a
        # fresh y, substitute H y for x, and precompose the whole function
        # with H.
        y = _fresh_for(b["M"], "y")
        m2 = substitute(b["M"], "x", App(hadamard_term(), Var(y)))
        inner = Abs(b["basis"].complement, b["alpha"], y, b["ann"], m2)
        return compose(inner, hadamard_term())

    def r_hgen(b):
        return App(hadamard_term(), Gen(b["basis"], b["alpha"], 1))

    def r_hgen_rhs(b):
        return Gen(b["basis"].complement, b["alpha"], 1)

    def r_unit_left(b):
        return Tup(Unit(), b["M"])

    def r_unit_left_rhs(b):
        return b["M"]

    def r_unit_right(b):
        return Tup(b["M"], Unit())

    def r_unit_right_rhs(b):
        return b["M"]

    return [
        EquationRule("alpha", ("M", "ann"), r_alpha, r_alpha_rhs, _linear,
                     "renaming the bound variable"),
        EquationRule("beta-linear", ("M", "N", "ann"), r_beta, r_beta_rhs, _linear,
                     "linear beta reduction"),
        EquationRule("eta", ("M", "ann"), r_eta, r_eta_rhs, _x_not_free,
                     "eta expansion of a function term"),
        EquationRule("cong-abs", ("basis", "alpha", "M", "N", "ann"),
                     r_cong, r_cong_rhs, _cong_subgoal,
                     "congruence under abstraction"),
        EquationRule("lambda-embed", ("basis", "M", "ann"), r_embed, r_embed_rhs,
                     _linear, "phase-0 binders of linear variables are lambdas"),
        EquationRule("phase-absorb", ("basis", "alpha", "theta", "M"),
                     r_phase_absorb, r_phase_absorb_rhs, _always,
                     "a generator argument absorbs the binder phase"),
        EquationRule("rot-compose", ("basis", "alpha", "theta", "M"),
                     r_rot_compose, r_rot_compose_rhs, _always,
                     "composing with a same-basis rotation adds phases"),
        EquationRule("copy", ("basis", "alpha", "a", "M"), r_copy, r_copy_rhs,
                     _pauli_exponent,
                     "dual-basis poles copy through sharing"),
        EquationRule("pi-commute", ("basis", "alpha", "a", "M"),
                     r_pi_commute, r_pi_commute_rhs, _pi_commute_cond,
                     "dual-basis pi rotations commute, negating the phase"),
        EquationRule("color-change", ("basis", "alpha", "M", "ann"),
                     r_color, r_color_rhs, _always,
                     "conjugating by Hadamard swaps the binder basis"),
        EquationRule("h-gen", ("basis", "alpha"), r_hgen, r_hgen_rhs, _always,
                     "Hadamard maps one basis generator to the other"),
        EquationRule("unit-left", ("M",), r_unit_left, r_unit_left_rhs, _always,
                     "unit is neutral on the left of a pair"),
        EquationRule("unit-right", ("M",), r_unit_right, r_unit_right_rhs, _always,
                     "unit is neutral on the right of a pair"),
    ]


@dataclass(slots=True, unsafe_hash=True)
class Comparison:
    """How two judgements' denotations compare. `status` is equal, distinct
    or size-mismatch (the types have different wire counts, so nothing was
    evaluated); `scalar` is the c with [[t1]] = c [[t2]] (None when both
    sides vanish), and `deviation` is max|[[t1]] - c [[t2]]|. `method` names
    the rung that decided: same-diagram or dense (None on a size
    mismatch)."""

    status: str
    type1: Type
    type2: Type
    scalar: Optional[complex] = None
    deviation: Optional[float] = None
    method: Optional[str] = None


def compare(
    ctx: Context, t1: Term, t2: Term, tol: float, budget: Optional[int] = None
) -> Comparison:
    """Type both terms in ctx, check their wire counts, translate them, and
    decide by the first rung that applies:

    1. same-diagram: the two diagrams are equal node for node
       (`diagram.same`), so they denote one matrix; it is evaluated once and
       fitted to itself.
    2. dense: both are evaluated and one matrix is fitted to the other up
       to a nonzero scalar.

    Either way one `scalar_fit` within tol gives the witness and the
    deviation, and side 1 is evaluated first. Each derivation is released
    once it is translated. `budget` bounds evaluation as in `denote`.
    Raises typing, translation and budget errors."""
    ty1, d1 = infer(ctx, t1)
    ty2, d2 = infer(ctx, t2)
    if size(ty1) != size(ty2):
        return Comparison("size-mismatch", ty1, ty2)
    g1 = translate(d1).diagram
    del d1
    g2 = translate(d2).diagram
    del d2
    # unbounded, pass the diagram alone: perfbench/tracing.py swaps in a
    # one-argument denote
    bound = () if budget is None else (budget,)
    m1 = denote(g1, *bound)
    if same(g1, g2):
        method, m2 = "same-diagram", m1
    else:
        method, m2 = "dense", denote(g2, *bound)
    witness, deviation = scalar_fit(m1, m2, tol)
    if witness is None:
        return Comparison("distinct", ty1, ty2, deviation=deviation, method=method)
    scalar = None if witness is BOTH_ZERO else witness
    return Comparison("equal", ty1, ty2, scalar, deviation, method)


def denotational_equal(
    ctx: Context, t1: Term, t2: Term, tol: float, budget: Optional[int] = None
):
    """Scalar witness if both judgements denote proportional matrices of the
    same shape, else None. Raises typing and budget errors."""
    result = compare(ctx, t1, t2, tol, budget)
    if result.status != "equal":
        return None
    return BOTH_ZERO if result.scalar is None else result.scalar


def describe_bindings(bindings: dict) -> str:
    parts = []
    for k in sorted(bindings):
        v = bindings[k]
        if isinstance(v, Term):
            parts.append(f"{k}={print_term(v)}")
        elif isinstance(v, Type):
            parts.append(f"{k}={print_type(v)}")
        else:
            parts.append(f"{k}={v}")
    return ", ".join(parts)


def check_rule_instance(
    rule: EquationRule, bindings: dict, ctx: Context, tol: float = DEFAULT_TOL,
    budget: Optional[int] = None,
) -> RuleVerdict:
    """A budget refusal is raised, naming the rule and the bindings."""
    desc = describe_bindings(bindings)
    try:
        lhs = rule.lhs(bindings)
        rhs = rule.rhs(bindings)
    except (ZetaError, KeyError) as exc:
        return RuleVerdict(rule.id, desc, "type-error", detail=str(exc))
    try:
        if not rule.side_condition(bindings, ctx, tol, budget):
            return RuleVerdict(rule.id, desc, "side-condition-unmet")
        result = compare(ctx, lhs, rhs, tol, budget)
    except ZetaTypeError as exc:
        return RuleVerdict(rule.id, desc, "type-error", detail=str(exc))
    except WireBudgetError as exc:
        raise WireBudgetError(f"{rule.id} [{desc}]: {exc}") from None
    if result.status == "size-mismatch":
        return RuleVerdict(
            rule.id, desc, "type-error",
            detail="sides have different wire counts"
            f" ({size(result.type1)} vs {size(result.type2)})",
        )
    status = "sound" if result.status == "equal" else "unsound"
    return RuleVerdict(rule.id, desc, status, result.scalar, result.deviation)


# ---------------------------------------------------------------------------
# Sharing commutation (the semantic side condition for substitution)


def commutes_with_sharing(
    ctx: Context, term: Term, basis: Basis, n: int, tol: float = DEFAULT_TOL,
    budget: Optional[int] = None,
) -> bool:
    """Does `term` (M : A) commute with sharing n ways in `basis`? That is
    (B y:A. <y, ..., y>) M == <M, ..., M>, n copies a side, decided by
    `compare` within tol and `budget`: contracting each context entry n
    ways, in its own basis, shares the context. ValueError if n < 0."""
    if n < 0:
        raise ValueError(f"cannot share {n} ways")
    ty, _ = infer(ctx, term)
    lhs = App(Abs(basis, Phase.zero(), "y", ty, _copies(Var("y"), n)), term)
    return compare(ctx, lhs, _copies(term, n), tol, budget).status == "equal"


def _copies(t: Term, n: int) -> Term:
    """The right-nested n-tuple <t, <t, ...>>: t itself for n = 1, * for 0."""
    if n == 0:
        return Unit()
    return t if n == 1 else Tup(t, _copies(t, n - 1))


# ---------------------------------------------------------------------------
# Linear beta reduction


@dataclass(slots=True, unsafe_hash=True)
class NormalizeResult:
    term: Term
    steps: int
    normal_form: bool


def _is_linear_redex(t: Term) -> bool:
    if not (isinstance(t, App) and isinstance(t.fn, Abs)):
        return False
    fn = t.fn
    if not fn.phase.is_zero:
        return False
    k = occurrences(fn.var, fn.body)
    if k > 1:
        return False
    if k == 0 and free_vars(t.arg):
        # discarding an open term would silently drop context wires
        return False
    return True


# the subterms beta_step searches, left to right, by class
_SUBTERMS = {Abs: ("body",), App: ("fn", "arg"), Tup: ("left", "right"), Let: ("bound", "body")}


def beta_step(term: Term) -> Optional[Term]:
    """Reduce the leftmost-outermost linear redex (phase-0 binder, bound
    variable used at most once; a vacuous binder only for closed arguments).
    Shared redexes are not reduced here: their soundness is semantic. The
    search runs in pre-order over an explicit stack of (subterm, path above
    it) pairs, a path being a (parent, field, path above the parent) link,
    and the spine above the redex is rebuilt in a loop, so no Python frame
    is used per nesting level."""
    todo = [(term, None)]
    while todo:
        t, path = todo.pop()
        if _is_linear_redex(t):
            t = substitute(t.fn.body, t.fn.var, t.arg)
            while path is not None:
                parent, name, path = path
                t = replace(parent, **{name: t})
            return t
        fields = _SUBTERMS.get(type(t), ())
        todo.extend((getattr(t, f), (t, f, path)) for f in reversed(fields))
    return None


def normalize(term: Term, max_steps: int = 1000) -> NormalizeResult:
    steps = 0
    while steps < max_steps:
        nxt = beta_step(term)
        if nxt is None:
            return NormalizeResult(term, steps, True)
        term = nxt
        steps += 1
    return NormalizeResult(term, steps, beta_step(term) is None)


# ---------------------------------------------------------------------------
# The standard instantiation pool (used by the CLI `rules` command and the
# acceptance suite)


def _m_pool_qubit() -> list[Term]:
    """Shapes over a single free variable x of type 1."""
    zy = Abs(Basis.Z, Phase.zero(), "y", Numeral(1), Tup(Var("y"), Var("x")))
    return [
        Var("x"),
        Tup(Var("x"), Var("x")),
        App(hadamard_term(), Var("x")),
        Tup(Var("x"), Tup(Var("x"), Var("x"))),
        App(zy, Gen(Basis.Z, Phase.zero(), 1)),
    ]


def _m_pool_pair() -> list[Term]:
    """Shapes over a single free variable x of type 1*1."""
    return [
        Var("x"),
        Tup(Var("x"), Var("x")),
        Let(Basis.Z, "a", "b", None, None, Var("x"), Tup(Var("b"), Var("a"))),
    ]


def _n_pool() -> list[Term]:
    return [
        Gen(Basis.Z, Phase.zero(), 1),
        Gen(Basis.X, Phase.exact(1), 1),
        App(hadamard_term(), Gen(Basis.Z, Phase.exact(1, 2), 1)),
    ]


def standard_instances() -> list[tuple[EquationRule, dict, Context]]:
    """The documented pool: types {1, 1*1}, phases {0, pi/2, pi}, a in {0,1},
    both bases, five M shapes."""
    phases = [Phase.zero(), Phase.exact(1, 2), Phase.exact(1)]
    bases = [Basis.Z, Basis.X]
    pool: list[tuple[EquationRule, dict, Context]] = []
    empty = Context()
    by_id = {r.id: r for r in rules()}

    def m_cases():
        # (M, annotation for x, context basis irrelevant: x is bound)
        yield from ((m, Numeral(1)) for m in _m_pool_qubit())

    for m, ann in m_cases():
        pool.append((by_id["alpha"], {"M": m, "ann": ann}, empty))
        pool.append((by_id["lambda-embed"],
                     {"basis": Basis.Z, "M": m, "ann": ann}, empty))
        for n in _n_pool():
            pool.append((by_id["beta-linear"], {"M": m, "N": n, "ann": ann}, empty))

    # eta over function-typed M
    for m in [
        rotation(Basis.Z, Phase.exact(1, 2)),
        hadamard_term(),
        Abs(Basis.Z, Phase.zero(), "z", Numeral(1), Tup(Var("z"), Var("z"))),
        Gen(Basis.Z, Phase.zero(), -1),
        Gen(Basis.X, Phase.exact(1), -1),
    ]:
        pool.append((by_id["eta"], {"M": m, "ann": None}, empty))

    # congruence: subgoal pairs that are denotationally equal
    ident = lam("w", Var("w"))
    cong_pairs = [
        (Var("x"), App(ident, Var("x"))),
        (Tup(Var("x"), Var("x")), Tup(Var("x"), App(ident, Var("x")))),
        (App(hadamard_term(), Var("x")),
         App(hadamard_term(), App(ident, Var("x")))),
    ]
    for basis in bases:
        for alpha in phases:
            for m, n in cong_pairs:
                pool.append((by_id["cong-abs"],
                             {"basis": basis, "alpha": alpha, "M": m, "N": n,
                              "ann": Numeral(1)}, empty))

    for basis in bases:
        for alpha in phases:
            for m, _ in m_cases():
                pool.append((by_id["color-change"],
                             {"basis": basis, "alpha": alpha, "M": m,
                              "ann": Numeral(1)}, empty))
            for theta in phases:
                for m in [Var("x"), Tup(Var("x"), Var("x"))]:
                    pool.append((by_id["phase-absorb"],
                                 {"basis": basis, "alpha": alpha, "theta": theta,
                                  "M": m}, empty))
                    pool.append((by_id["rot-compose"],
                                 {"basis": basis, "alpha": alpha, "theta": theta,
                                  "M": m}, empty))
            for a in (0, 1):
                for m, _ in m_cases():
                    pool.append((by_id["copy"],
                                 {"basis": basis, "alpha": alpha, "a": a, "M": m},
                                 empty))
                for m in [Var("x"), Tup(Var("x"), Var("x"))]:
                    pool.append((by_id["pi-commute"],
                                 {"basis": basis, "alpha": alpha, "a": a, "M": m},
                                 empty))
        for alpha in phases:
            pool.append((by_id["h-gen"], {"basis": basis, "alpha": alpha}, empty))

    # unit rules over a few closed and open subjects
    unit_ctx = Context((Entry("x", Basis.Z, Numeral(1)),))
    for m, ctx in [
        (Gen(Basis.Z, Phase.zero(), 1), empty),
        (Unit(), empty),
        (Var("x"), unit_ctx),
        (Tup(Var("x"), Var("x")), unit_ctx),
    ]:
        pool.append((by_id["unit-left"], {"M": m}, ctx))
        pool.append((by_id["unit-right"], {"M": m}, ctx))

    # pair-typed shapes exercise composite sharing through cong-abs
    pair = Tensor(Numeral(1), Numeral(1))
    for basis in bases:
        for m in _m_pool_pair():
            pool.append((by_id["cong-abs"],
                         {"basis": basis, "alpha": Phase.zero(), "M": m,
                          "N": m, "ann": pair}, empty))
    return pool


def run_suite(tol: float = DEFAULT_TOL, budget: Optional[int] = None) -> list[RuleVerdict]:
    return [check_rule_instance(rule, bindings, ctx, tol, budget)
            for rule, bindings, ctx in standard_instances()]
