"""Syntactic lint passes (``FML40x``): pure walks over the parsed term.

These need no solver state, so they run under every engine and still
apply when the program fails to typecheck -- ``repro lint`` on an
ill-typed file reports the type error *and* the syntactic findings.

The binder rules (``FML401``-``FML403``, ``FML406``, and ``FML411``'s
exemption) all read one memoised scope resolution
(:meth:`LintContext.scopes`), a single linear walk that resolves every
variable occurrence to its binder.

All passes skip machine-generated ``%tmpN`` binders (the ``$``/``@``
sugar of Section 2 expands through them): they are not user-written
names, and their counter values depend on process history, which would
break the byte-determinism contract of the serving tier.
"""

from __future__ import annotations

from typing import Iterator

from ..core.terms import (
    App,
    FrozenVar,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Term,
    Var,
    subterms,
)
from ..core.types import TCon, TForall, Type, format_type, ftv_set
from ..diagnostics import Diagnostic
from .framework import LintContext, lint_pass, warning


def _is_sugar_name(name: str) -> bool:
    """Machine-generated binder from the ``$``/``@`` expansion?"""
    return name.startswith("%")


class _Binder:
    """One binder occurrence on the resolver's stack: its node, the
    name it binds, whether a variable resolved to it, and whether its
    scope is open yet (a ``let`` opens only after its bound term)."""

    __slots__ = ("node", "name", "used", "entered")

    def __init__(self, node: Term, name: str) -> None:
        self.node = node
        self.name = name
        self.used = False
        self.entered = False


class Scopes:
    """The outcome of one scope-resolution walk (see :func:`resolve_scopes`)."""

    __slots__ = ("unused", "shadowing", "lam_bound_freezes")

    def __init__(
        self,
        unused: list[Term],
        shadowing: list[Term],
        lam_bound_freezes: frozenset[int],
    ) -> None:
        #: binder occurrences no variable resolves to.
        self.unused = unused
        #: binder occurrences re-using the name of an enclosing in-term
        #: binder (prelude constants do not count).
        self.shadowing = shadowing
        #: identities of ``FrozenVar`` nodes whose innermost binder is
        #: an unannotated lambda (shared with the inference passes:
        #: ``FML411`` must not double-report what ``FML406`` covers).
        self.lam_bound_freezes = lam_bound_freezes


def resolve_scopes(term: Term) -> Scopes:
    """Resolve every ``Var``/``FrozenVar`` to its innermost in-term
    binder in one pre-order walk with an explicit stack.

    ``scope`` maps each name to the stack of its open binders, so a
    lookup and a binder's entry and exit are O(1): the walk is linear
    in the term, however deep its ``let`` chain.  A ``let``'s bound term
    sees the *outer* scope; only its body is in the binder's scope.
    """
    scope: dict[str, list[_Binder]] = {}
    unused: list[Term] = []
    shadowing: list[Term] = []
    lam_bound: set[int] = set()
    stack: list[Term | _Binder] = [term]

    def enter(binder: _Binder, body: Term) -> None:
        frames = scope.setdefault(binder.name, [])
        if frames:
            shadowing.append(binder.node)
        frames.append(binder)
        binder.entered = True
        stack.append(binder)  # popped again on leaving the scope
        stack.append(body)

    while stack:
        item = stack.pop()
        if isinstance(item, _Binder):
            if not item.entered:
                assert isinstance(item.node, (Let, LetAnn))
                enter(item, item.node.body)
                continue
            scope[item.name].pop()
            if not item.used:
                unused.append(item.node)
        elif isinstance(item, (Var, FrozenVar)):
            frames = scope.get(item.name)
            if frames:
                innermost = frames[-1]
                innermost.used = True
                if isinstance(item, FrozenVar) and type(innermost.node) is Lam:
                    lam_bound.add(id(item))
        elif isinstance(item, (Lam, LamAnn)):
            enter(_Binder(item, item.param), item.body)
        elif isinstance(item, App):
            stack.append(item.arg)
            stack.append(item.fn)
        elif isinstance(item, (Let, LetAnn)):
            stack.append(_Binder(item, item.var))
            stack.append(item.bound)
    return Scopes(unused, shadowing, frozenset(lam_bound))


@lint_pass("unused-binding", group="syntactic", codes=("FML401", "FML402"))
def unused_binding(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML401``: a ``let`` binding (including a desugared top-level
    ``def``) whose body never mentions the bound variable.
    ``FML402``: a lambda parameter the body never mentions."""
    for node in ctx.scopes().unused:
        if isinstance(node, (Let, LetAnn)):
            if not _is_sugar_name(node.var):
                yield warning(
                    "FML401",
                    f"let binding `{node.var}` is never used",
                    ctx.span_of(node),
                    hint="remove the binding, or use it in the body",
                )
        else:
            assert isinstance(node, (Lam, LamAnn))
            if not _is_sugar_name(node.param):
                yield warning(
                    "FML402",
                    f"lambda parameter `{node.param}` is never used",
                    ctx.span_of(node),
                )


@lint_pass("shadowing", group="syntactic", codes=("FML403",))
def shadowing(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML403``: a binder re-using the name of an enclosing binder.

    Only *in-term* binders count: re-binding a prelude constant
    (``id``, ``choose``, ...) is deliberate in half the paper's
    examples and would be pure noise.
    """
    for node in ctx.scopes().shadowing:
        if isinstance(node, (Lam, LamAnn)):
            if not _is_sugar_name(node.param):
                yield warning(
                    "FML403",
                    f"lambda parameter `{node.param}` shadows an "
                    "enclosing binding of the same name",
                    ctx.span_of(node),
                )
        else:
            assert isinstance(node, (Let, LetAnn))
            if not _is_sugar_name(node.var):
                yield warning(
                    "FML403",
                    f"let binding `{node.var}` shadows an enclosing "
                    "binding of the same name",
                    ctx.span_of(node),
                )


@lint_pass("duplicate-definition", group="syntactic", codes=("FML404",))
def duplicate_definition(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML404``: the program format defines the same name twice; the
    later definition silently shadows the earlier one."""
    first: dict[str, int] = {}
    for name, span in ctx.def_sites:
        earlier = first.get(name)
        if earlier is None:
            first[name] = span.line
        else:
            yield warning(
                "FML404",
                f"duplicate top-level definition of `{name}` "
                f"(first defined at line {earlier})",
                span,
                hint="the later definition shadows the earlier one",
            )


def _vacuous_quantifiers(ty: Type) -> Iterator[str]:
    """Binders ``forall a. T`` with ``a`` not free in ``T``, outermost
    first (an inner shadowing binder makes the outer one vacuous)."""
    if isinstance(ty, TForall):
        if ty.var not in ftv_set(ty.body):
            yield ty.var
        yield from _vacuous_quantifiers(ty.body)
    elif isinstance(ty, TCon):
        for arg in ty.args:
            yield from _vacuous_quantifiers(arg)


@lint_pass("unused-quantifier", group="syntactic", codes=("FML405",))
def unused_quantifier(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML405``: an annotation quantifies a variable its body never
    uses -- ``forall a. Int`` promises polymorphism it cannot deliver."""
    for node in subterms(ctx.term):
        if isinstance(node, LamAnn):
            ann, owner = node.ann, f"parameter `{node.param}`"
        elif isinstance(node, LetAnn):
            ann, owner = node.ann, f"binding `{node.var}`"
            if _is_sugar_name(node.var):
                owner = "this `$` generalisation"
        else:
            continue
        for var in _vacuous_quantifiers(ann):
            yield warning(
                "FML405",
                f"annotation `{format_type(ann)}` on {owner} quantifies "
                f"`{var}`, which does not occur in the quantifier body",
                ctx.span_of(node),
                hint="drop the vacuous quantifier",
            )


@lint_pass("frozen-monomorphic-param", group="syntactic", codes=("FML406",))
def frozen_monomorphic_param(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML406``: ``~x`` where ``x`` is bound by an *unannotated*
    lambda.  Such a parameter is kind-``mono`` (the "never guess
    polymorphism" invariant of Section 3.2), so the freeze cannot
    suppress any instantiation -- there is no polymorphism to keep."""
    frozen = ctx.scopes().lam_bound_freezes
    for node in subterms(ctx.term):
        if isinstance(node, FrozenVar) and id(node) in frozen:
            yield warning(
                "FML406",
                f"freezing `{node.name}` has no effect: it is bound by an "
                "unannotated lambda, so its type is always monomorphic",
                ctx.span_of(node),
                hint="drop the `~`, or annotate the lambda parameter "
                "with a polymorphic type",
            )
