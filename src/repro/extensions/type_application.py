"""Visible type application (paper Section 6).

"Given that FreezeML is explicit about the order of quantifiers, adding
support for explicit type application [4] is straightforward.  We have
implemented this feature in Links."  We implement it as a new term form
``TyApp(M, A)`` with the evident rule: if ``M : forall a. B`` then
``TyApp(M, A) : B[A/a]``.

The inferencer is extended by subclassing: unknown nodes are handled
before delegation to the core algorithm, so every existing rule (and the
elaborator hook -- type application elaborates to System F type
application) is reused unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.env import TypeEnv
from ..core.infer import Inferencer, normalise_type
from ..core.kinds import KindEnv
from ..core.subst import Subst
from ..core.terms import Term, format_term
from ..core.types import TForall, Type, format_type
from ..errors import KindError, TypeInferenceError


@dataclass(frozen=True, repr=False, slots=True)
class TyApp(Term):
    """Visible type application ``M [A]``."""

    fn: Term
    ty_arg: Type

    def __str__(self) -> str:
        return f"{format_term(self.fn)} [{format_type(self.ty_arg)}]"


class TypeApplicationInferencer(Inferencer):
    """The core inferencer extended with the TyApp rule."""

    def infer_node(self, delta, gamma, term):
        if isinstance(term, TyApp):
            fn_ty, fn_p = self.infer_node(delta, gamma, term.fn)
            fn_ty = self.solver.prune(fn_ty)
            if not isinstance(fn_ty, TForall):
                raise TypeInferenceError(
                    f"visible type application of non-polymorphic term "
                    f"`{term.fn}` : {fn_ty}"
                )
            try:
                # Scope/arity check against the live flexible environment
                # (a POLY kind check can fail on nothing else), without
                # materialising a KindEnv per TyApp node.
                self.solver.ensure_well_formed(delta, term.ty_arg)
            except KindError as exc:
                raise TypeInferenceError(str(exc)) from exc
            result_ty = Subst.singleton(fn_ty.var, term.ty_arg)(fn_ty.body)
            payload = self.elaborator.inst(fn_p, (term.ty_arg,))
            return result_ty, payload
        return super().infer_node(delta, gamma, term)


def infer_type_vta(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    *,
    normalise: bool = True,
    **options,
) -> Type:
    """Infer with visible type application enabled.

    Well-scopedness of TyApp nodes cannot be checked by the core
    ``well_scoped`` judgement (which doesn't know the node), so type
    argument kinding is checked during inference instead.
    """
    env = env or TypeEnv.empty()
    delta = delta or KindEnv.empty()
    inferencer = TypeApplicationInferencer(**options)
    # Private env copy: infer_node extends it by push/pop mutation.
    ty, _payload = inferencer.infer_node(delta, env.copy_for_mutation(), term)
    ty = inferencer.solver.zonk(ty)
    return normalise_type(ty) if normalise else ty
