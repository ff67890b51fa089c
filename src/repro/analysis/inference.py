"""Inference-aware lint passes (``FML41x``): consult solver results.

These passes run one *instrumented* Figure 16 inference over the term
(shared across passes via :meth:`LintContext.inference`): an
:class:`~repro.core.infer.Inferencer` subclass records the type of
every ``~x`` occurrence and every value-restriction demotion (through
the :meth:`~repro.core.infer.Inferencer.note_generalisation` hook) as
the run proceeds.

The redundant-annotation pass asks, per annotation, whether erasing it
leaves the program's principal type unchanged up to alpha-equivalence.
Inference is principal, so in a top-level ``let`` chain whose bindings
so far all have *closed* types (no free flexible variables), the rest
of the program sees a definition only through its binding type: the
definition is inferred once, on its own, and nothing else links it to
what follows.  An annotation on or inside such a definition is decided
by re-inferring that definition alone, in the environment restricted
to its free variables -- linear work over the whole chain.  The
whole-program probe (erase, re-infer the whole term) still decides
when that local answer is not conclusive: the definition's type
changed (the program's may not have), the annotation sits in ``main``
or past a binding with an open type, or the session sets a fuel/depth
budget (whole-run quantities a local run cannot account for).

They only run under the ``freezeml`` engine -- they drive its
inferencer directly -- and they degrade to silence whenever a probe
run fails (ill-typed without the annotation, budget exhausted, ...):
a lint must never fail a check, and "the probe failed" exactly means
"the annotation is not redundant".
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterator

from ..core.env import TypeEnv
from ..core.infer import Inferencer, InferenceResult, infer_raw, normalise_type
from ..core.terms import (
    App,
    FrozenVar,
    Lam,
    LamAnn,
    Let,
    LetAnn,
    Term,
    free_vars,
    subterms,
)
from ..core.types import TForall, Type, alpha_equal, format_type, ftv_set
from ..diagnostics import Diagnostic
from ..errors import FreezeMLError
from ..names import display_names, is_flexible_name
from ..syntax.pretty import pretty_type
from .framework import LintContext, lint_pass, warning

#: Upper bound on redundant-annotation probe runs per lint (each probe
#: is one full inference).  Programs with more annotations get the
#: first ``MAX_ANNOTATION_PROBES`` in traversal order -- a documented
#: cap, not a correctness condition.
MAX_ANNOTATION_PROBES = 64


class _Recorder(Inferencer):
    """The instrumented inferencer: observes, never interferes."""

    def __init__(self, **options: Any) -> None:
        super().__init__(**options)
        #: every ``FrozenVar`` occurrence with its (possibly unsolved)
        #: looked-up type, in evaluation order.
        self.frozen: list[tuple[FrozenVar, Type]] = []
        #: every value-restriction demotion: the ``let`` node and the
        #: generalisation candidates that were pinned monomorphic.
        self.demotions: list[tuple[Let, tuple[str, ...]]] = []

    def infer_node(
        self, delta: Any, gamma: Any, term: Term
    ) -> tuple[Type, Any]:
        ty, payload = super().infer_node(delta, gamma, term)
        if isinstance(term, FrozenVar):
            self.frozen.append((term, ty))
        return ty, payload

    def note_generalisation(
        self,
        term: Term,
        candidates: tuple[str, ...],
        binders: tuple[str, ...],
    ) -> None:
        if candidates and not binders and isinstance(term, Let):
            self.demotions.append((term, candidates))


class InstrumentedRun:
    """The shared outcome of the instrumented inference."""

    __slots__ = ("result", "recorder")

    def __init__(self, result: InferenceResult, recorder: _Recorder) -> None:
        self.result = result
        self.recorder = recorder


def _infer(ctx: LintContext, term: Term) -> InferenceResult:
    """One inference run under the context's exact session options.
    Raises :class:`~repro.errors.FreezeMLError` like any engine call."""
    return infer_raw(
        term,
        ctx.env,
        ctx.delta,
        strategy=ctx.strategy,
        value_restriction=ctx.value_restriction,
        budget=ctx.budget,
    )


def instrumented_run(ctx: LintContext) -> InstrumentedRun | None:
    """Run the recorder once; ``None`` when the term is ill-typed (the
    check itself reports that -- lint stays quiet)."""
    recorders: list[_Recorder] = []

    def factory(**options: Any) -> _Recorder:
        recorder = _Recorder(**options)
        recorders.append(recorder)
        return recorder

    try:
        result = infer_raw(
            ctx.term,
            ctx.env,
            ctx.delta,
            strategy=ctx.strategy,
            value_restriction=ctx.value_restriction,
            budget=ctx.budget,
            inferencer_factory=factory,  # type: ignore[arg-type]
        )
    except (FreezeMLError, RecursionError):
        return None
    return InstrumentedRun(result, recorders[0])


# ---------------------------------------------------------------------------
# FML410: redundant annotation
# ---------------------------------------------------------------------------


def _erase_annotation(term: Term, target: Term) -> Term:
    """A copy of ``term`` with the one annotated node ``target``
    (matched by identity) replaced by its unannotated form."""
    if term is target:
        if isinstance(term, LamAnn):
            return Lam(term.param, term.body)
        assert isinstance(term, LetAnn)
        return Let(term.var, term.bound, term.body)
    if isinstance(term, Lam):
        return Lam(term.param, _erase_annotation(term.body, target))
    if isinstance(term, LamAnn):
        return LamAnn(term.param, term.ann, _erase_annotation(term.body, target))
    if isinstance(term, App):
        return App(
            _erase_annotation(term.fn, target), _erase_annotation(term.arg, target)
        )
    if isinstance(term, Let):
        return Let(
            term.var,
            _erase_annotation(term.bound, target),
            _erase_annotation(term.body, target),
        )
    if isinstance(term, LetAnn):
        return LetAnn(
            term.var,
            term.ann,
            _erase_annotation(term.bound, target),
            _erase_annotation(term.body, target),
        )
    return term


def _described(node: Term) -> str | None:
    """How an FML410 message names an annotated node; ``None`` for
    nodes that carry no user-written annotation."""
    if isinstance(node, LamAnn):
        return f"parameter `{node.param}`"
    if isinstance(node, LetAnn) and not node.var.startswith("%"):
        return f"binding `{node.var}`"
    return None


def _binding_probe(binding: Let | LetAnn, bound: Term) -> Let | LetAnn:
    """``let x = M in ~x`` (an annotated binding keeps its annotation):
    the frozen ``x`` has exactly the type the binding gives ``x``."""
    if isinstance(binding, LetAnn):
        return LetAnn(binding.var, binding.ann, bound, FrozenVar(binding.var))
    return Let(binding.var, bound, FrozenVar(binding.var))


def _binding_type(
    ctx: LintContext, spine_env: dict[str, Type], probe: Let | LetAnn
) -> Type | None:
    """The binding type ``probe`` infers, or ``None`` when it fails.

    The environment is the session's, overlaid with the spine bindings
    before this one, restricted to the free variables of the bound
    term: ``infer_raw`` still checks scoping and environment
    well-formedness, but over O(|bound|) entries rather than the whole
    program's."""
    entries = []
    for name in free_vars(probe.bound):
        ty = spine_env.get(name)
        if ty is None:
            ty = ctx.env.get(name)
        if ty is not None:
            entries.append((name, ty))
    try:
        return infer_raw(
            probe,
            TypeEnv(entries),
            ctx.delta,
            strategy=ctx.strategy,
            value_restriction=ctx.value_restriction,
        ).ty
    except (FreezeMLError, RecursionError):
        return None


def _is_closed(ty: Type) -> bool:
    """No free flexible variables: nothing links the binding's own
    inference to the rest of the program but this type."""
    return not any(is_flexible_name(var) for var in ftv_set(ty))


@lint_pass("redundant-annotation", group="inference", codes=("FML410",))
def redundant_annotation(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML410``: erasing the annotation infers an alpha-equal type.

    The rule is whole-program: erase the annotation, re-infer the whole
    term, compare principal types up to alpha-equivalence; a failing
    probe means the annotation carries real typing information and is
    skipped silently.  Most annotations are decided per definition
    instead, walking the top-level ``let`` spine once:

    * each spine binding's type is inferred from ``let x = M in ~x`` in
      the spine environment, and the walk stops at the first binding
      whose type has free flexible variables (or fails to infer);
    * while every binding so far is *closed*, the rest of the program
      sees binding ``x`` only through its principal binding type, so
      for an annotation on or inside ``M``: if ``M`` stops typechecking
      without it, so does the whole program (skip); if the binding
      type is alpha-equal to the original (so closed too), so is the
      program's (warn);
    * otherwise -- the binding type changed (the program's type may
      still not), or the annotation is in ``main`` or past an open
      binding, or a fuel/depth budget is set (both are whole-run
      quantities) -- the whole-program probe decides, as above.
    """
    run = ctx.inference()
    if run is None:
        return
    base_ty = normalise_type(run.result.ty)
    pending = min(
        sum(1 for node in subterms(ctx.term) if _described(node) is not None),
        MAX_ANNOTATION_PROBES,
    )
    probes = 0

    def finding(node: LamAnn | LetAnn, described: str) -> Diagnostic:
        return warning(
            "FML410",
            f"annotation `{format_type(node.ann)}` on {described} is "
            "redundant: the same type is inferred without it",
            ctx.span_of(node),
            hint="drop the annotation",
        )

    def whole_program_agrees(node: Term) -> bool:
        try:
            probe = _infer(ctx, _erase_annotation(ctx.term, node))
        except (FreezeMLError, RecursionError):
            return False
        return alpha_equal(normalise_type(probe.ty), base_ty)

    spine = ctx.term
    spine_env: dict[str, Type] = {}
    while (
        probes < pending
        and ctx.budget is None
        and isinstance(spine, (Let, LetAnn))
    ):
        binding = spine
        binding_ty = _binding_type(
            ctx, spine_env, _binding_probe(binding, binding.bound)
        )
        if binding_ty is None or not _is_closed(binding_ty):
            break
        for node in chain((binding,), subterms(binding.bound)):
            described = _described(node)
            if described is None:
                continue
            if probes >= MAX_ANNOTATION_PROBES:
                return
            probes += 1
            if node is binding:
                erased: Let | LetAnn = Let(
                    binding.var, binding.bound, FrozenVar(binding.var)
                )
            else:
                erased = _binding_probe(
                    binding, _erase_annotation(binding.bound, node)
                )
            erased_ty = _binding_type(ctx, spine_env, erased)
            if erased_ty is None:
                continue
            # Alpha-equal to a closed type means closed too.
            if alpha_equal(erased_ty, binding_ty) or whole_program_agrees(node):
                assert isinstance(node, (LamAnn, LetAnn))
                yield finding(node, described)
        spine_env[binding.var] = binding_ty
        spine = binding.body

    for node in subterms(spine):
        described = _described(node)
        if described is None:
            continue
        if probes >= MAX_ANNOTATION_PROBES:
            return
        probes += 1
        if whole_program_agrees(node):
            assert isinstance(node, (LamAnn, LetAnn))
            yield finding(node, described)


# ---------------------------------------------------------------------------
# FML411: redundant freeze
# ---------------------------------------------------------------------------


@lint_pass("redundant-freeze", group="inference", codes=("FML411",))
def redundant_freeze(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML411``: ``~x`` where ``x``'s type has no top-level
    quantifier, so there is no instantiation to suppress and the freeze
    changes nothing.  (Freezes of unannotated lambda parameters are the
    syntactic ``FML406``'s finding and are skipped here.)"""
    run = ctx.inference()
    if run is None:
        return
    covered = ctx.scopes().lam_bound_freezes
    solver = run.result.solver
    for node, ty in run.recorder.frozen:
        if node.name.startswith("%") or id(node) in covered:
            continue
        zonked = solver.zonk(ty)
        if not isinstance(zonked, TForall):
            shown = pretty_type(normalise_type(zonked))
            yield warning(
                "FML411",
                f"freeze of `{node.name}` is redundant: its type "
                f"`{shown}` has no top-level quantifier to preserve",
                ctx.span_of(node),
                hint="drop the `~`",
            )


# ---------------------------------------------------------------------------
# FML412: value-restriction demotion
# ---------------------------------------------------------------------------


@lint_pass("value-restriction-demotion", group="inference", codes=("FML412",))
def value_restriction_demotion(ctx: LintContext) -> Iterator[Diagnostic]:
    """``FML412``: a ``let`` whose bound type had generalisable free
    variables, all pinned monomorphic because the bound term is not a
    guarded value (Figure 3's ``GVal``).  The quiet polymorphism loss
    the paper's Section 3.2 discusses -- surfaced with the variables
    that were demoted."""
    run = ctx.inference()
    if run is None:
        return
    for node, candidates in run.recorder.demotions:
        # Candidate names are machine-generated (`%N`); show positional
        # display letters instead, which are deterministic functions of
        # the program (never of process history).
        supply = display_names(set())
        shown = ", ".join(next(supply) for _ in candidates)
        count = len(candidates)
        plural = "s" if count != 1 else ""
        if node.var.startswith("%tmp"):
            message = (
                f"`$` does not generalise here: the value restriction pins "
                f"{count} type variable{plural} ({shown}) to monomorphic "
                "because the term is not a guarded value"
            )
        else:
            message = (
                f"let binding `{node.var}` is not generalised: the value "
                f"restriction pins {count} type variable{plural} ({shown}) "
                "to monomorphic because the bound term is not a guarded value"
            )
        yield warning(
            "FML412",
            message,
            ctx.span_of(node),
            hint="bind a guarded value, or annotate the binding",
        )
