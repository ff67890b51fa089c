"""Hypothesis generation of well-typed *FreezeML* terms.

Unlike :mod:`tests.strategies` (ML fragment only), this generator
exercises the whole language: frozen variables, ``$`` generalisation,
``@`` instantiation, polymorphic prelude constants and annotated
binders.  Terms are built *type-directed* -- each production records the
type it promises -- so every generated term typechecks by construction,
which the property tests then verify against the real inferencer, the
System F elaborator and the Figure 7 validator.

The type language used by the generator is a small closed universe over
the Figure 2 prelude:

    Int | Bool | PolyId (= forall a. a -> a) | List PolyId
        | Int -> Int | Int * Bool
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.terms import (
    App,
    BoolLit,
    FrozenVar,
    IntLit,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Term,
    Var,
    generalise,
    instantiate,
)
from repro.syntax.parser import parse_type

INT = "Int"
BOOL = "Bool"
POLY_ID = "forall a. a -> a"
IDS = "List (forall a. a -> a)"
INT2INT = "Int -> Int"
PAIR_IB = "Int * Bool"

UNIVERSE = (INT, BOOL, POLY_ID, IDS, INT2INT, PAIR_IB)


def surface_type(tag: str):
    return parse_type(tag)


@st.composite
def freezeml_terms(draw, target: str | None = None, depth: int = 3, env=()):
    """Draw a (term, type-tag) pair; the term has exactly that type."""
    if target is None:
        target = draw(st.sampled_from(UNIVERSE))
    term = draw(_term_of(target, depth, dict(env)))
    return term, target


def _term_of(target: str, depth: int, env: dict[str, str]):
    options = list(_ground(target, env))
    if depth > 0:
        options.extend(_compound(target, depth, env))
    return st.one_of(options)


def _ground(target: str, env: dict[str, str]):
    """Leaves: literals, prelude constants, in-scope variables."""
    if target == INT:
        yield st.builds(IntLit, st.integers(0, 99))
    if target == BOOL:
        yield st.builds(BoolLit, st.booleans())
    if target == POLY_ID:
        yield st.just(FrozenVar("id"))
        yield st.just(generalise(Lam("u", Var("u"))))
        yield st.just(App(Var("head"), Var("ids")))
    if target == IDS:
        yield st.just(Var("ids"))
        yield st.just(App(App(Var("::"), FrozenVar("id")), Var("ids")))
        yield st.just(App(Var("single"), FrozenVar("id")))
    if target == INT2INT:
        yield st.just(Var("inc"))
        # NB: a bare `id` would infer at a -> a (more general than the
        # promised tag), so functions are eta-expanded at Int instead:
        yield st.just(Lam("n", App(Var("inc"), Var("n"))))
    if target == PAIR_IB:
        yield st.just(App(Var("poly"), FrozenVar("id")))
    for name, tag in env.items():
        if tag == target:
            if tag == POLY_ID:
                # a plain occurrence would be instantiated away from the
                # promised polymorphic type; freeze it (Freeze rule)
                yield st.just(FrozenVar(name))
            else:
                yield st.just(Var(name))


def _compound(target: str, depth: int, env: dict[str, str]):
    sub = depth - 1

    # let x = <any> in <target>
    def let_of(bound_tag):
        return st.builds(
            lambda bound, body: Let(f"v{depth}", bound, body),
            _term_of(bound_tag, sub, env),
            _term_of(target, sub, {**env, f"v{depth}": bound_tag}),
        )

    yield st.sampled_from(UNIVERSE).flatmap(let_of)

    if target == INT:
        # (head ids)@ <int>  and  <Int->Int> <Int>
        yield st.builds(
            lambda n: App(instantiate(App(Var("head"), Var("ids"))), n),
            _term_of(INT, sub, env),
        )
        yield st.builds(
            App, _term_of(INT2INT, sub, env), _term_of(INT, sub, env)
        )
        yield st.builds(
            lambda a, b: App(App(Var("+"), a), b),
            _term_of(INT, sub, env),
            _term_of(INT, sub, env),
        )
        yield st.builds(
            lambda xs: App(Var("length"), xs), _term_of(IDS, sub, env)
        )
    if target == BOOL:
        yield st.builds(
            lambda p: App(Var("snd"), p), _term_of(PAIR_IB, sub, env)
        )
    if target == POLY_ID:
        # auto ~<poly-id values only when frozen var> -- use head ids
        yield st.builds(
            lambda xs: App(Var("head"), xs), _term_of(IDS, sub, env)
        )
        # annotated lambda applied: (fun (x : forall a. a->a) -> x ~x) <poly>
        auto_like = LamAnn(
            "x", surface_type(POLY_ID), App(Var("x"), FrozenVar("x"))
        )

        def frozen_poly(env_now):
            # only *variables* can be frozen; route through a let
            return st.builds(
                lambda bound: Let(
                    "p", bound, App(auto_like, FrozenVar("p"))
                ),
                _value_of_polyid(sub, env_now),
            )

        yield frozen_poly(env)
    if target == IDS:
        yield st.builds(
            lambda x, xs: App(App(Var("::"), x), xs),
            _frozen_or_generalised_polyid(sub, env),
            _term_of(IDS, sub, env),
        )
        yield st.builds(
            lambda xs: App(Var("tail"), xs), _term_of(IDS, sub, env)
        )
        yield st.builds(
            lambda xs, ys: App(App(Var("++"), xs), ys),
            _term_of(IDS, sub, env),
            _term_of(IDS, sub, env),
        )
    if target == PAIR_IB:
        yield st.builds(
            lambda f: App(Var("poly"), f),
            _frozen_or_generalised_polyid(sub, env),
        )


def _value_of_polyid(depth: int, env):
    """A *guarded value* of type forall a. a -> a (for let-generalising)."""
    return st.one_of(
        st.just(generalise(Lam("w", Var("w")))),
        st.just(App(Var("head"), Var("ids"))),
    )


def _frozen_or_generalised_polyid(depth: int, env):
    """Terms of type forall a. a -> a usable in argument position."""
    return st.one_of(
        st.just(FrozenVar("id")),
        st.just(generalise(Lam("w", Var("w")))),
        st.builds(
            lambda xs: App(Var("head"), xs), _term_of(IDS, depth, env)
        ),
    )


@st.composite
def let_chains(draw, max_defs: int = 5):
    """Draw a top-level ``let`` chain over the type universe.

    Definitions are optionally annotated (``let (d : A) = M``, or an
    annotated parameter), and one shape is the value-restricted
    ``id id``, whose binding type keeps a free flexible variable, so
    later definitions can sit past an open binding.  Annotations are
    drawn to agree with their definition most of the time, but not
    always: an ill-typed chain is a legitimate input too.
    """
    scope: dict[str, str] = {}  # closed definitions usable by _term_of
    open_names: list[str] = []
    chain: list[tuple[str, Term, str | None]] = []
    for i in range(draw(st.integers(1, max_defs))):
        name = f"d{i}"
        shape = draw(st.sampled_from(("term", "fun", "open", "through")))
        if shape == "through" and not open_names:
            shape = "open"
        ann: str | None = None
        tag: str | None
        bound: Term
        if shape == "term":
            tag = draw(st.sampled_from(UNIVERSE))
            bound = draw(_term_of(tag, 2, dict(scope)))
            pick = draw(st.integers(0, 7))
            if pick == 7:
                ann = draw(st.sampled_from(UNIVERSE))
            elif pick >= 4:
                ann = tag
        elif shape == "fun":
            if draw(st.booleans()):
                bound = Lam("x", Var("x"))
                ann = draw(st.sampled_from((None, INT2INT, POLY_ID)))
            else:
                bound = LamAnn("x", surface_type(INT), Var("x"))
                ann = draw(st.sampled_from((None, INT2INT)))
            tag = POLY_ID if ann in (None, POLY_ID) and isinstance(bound, Lam) else INT2INT
        elif shape == "open":
            bound = App(Var("id"), Var("id"))
            ann = draw(st.sampled_from((None, None, INT2INT)))
            tag = INT2INT if ann else None
        else:
            through = draw(st.sampled_from(open_names))
            bound = Lam("y", App(Var(through), Var("y")))
            ann = draw(st.sampled_from((None, INT2INT)))
            tag = INT2INT if ann else None
        chain.append((name, bound, ann))
        if tag is None:
            open_names.append(name)
        else:
            scope[name] = tag
    if scope and draw(st.booleans()):
        main: Term = Var(draw(st.sampled_from(sorted(scope))))
    else:
        main = draw(_term_of(draw(st.sampled_from(UNIVERSE)), 1, dict(scope)))
    term = main
    for name, bound, ann in reversed(chain):
        if ann is None:
            term = Let(name, bound, term)
        else:
            term = LetAnn(name, surface_type(ann), bound, term)
    return term
