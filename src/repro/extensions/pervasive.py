"""Pervasive instantiation (paper Section 3.2, third strategy).

"Another possibility is to instantiate all terms, except those that are
explicitly frozen or generalised.  Here, it also makes sense to extend
the ``⌈−⌉`` operator to act on arbitrary terms."

The paper defers this strategy (its *declarative* account needs two
mutually recursive judgements) but it is algorithmically a small layer
over Figure 16: after inferring any term's type, instantiate its
top-level quantifiers with fresh flexible variables -- unless the term
is a frozen variable, a frozen *term* ``⌈M⌉`` (the new construct), or a
generalisation ``$V`` / ``$(V : A)``.

Consequences, which the tests check:

* ``(head ids) 42`` typechecks (like eliminator instantiation);
* ``head ids`` now has type ``a -> a``, not ``forall a. a -> a`` --
  explicit generalisation becomes necessary where it wasn't before;
* ``⌈head ids⌉`` recovers the Figure 1 behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.env import TypeEnv
from ..core.infer import Inferencer, normalise_type
from ..core.kinds import KindEnv
from ..core.terms import (
    FrozenVar,
    Term,
    format_term,
    match_generalise,
    match_generalise_ann,
)
from ..core.types import TForall, Type


@dataclass(frozen=True, repr=False, slots=True)
class FreezeTerm(Term):
    """The generalised freeze operator ``⌈M⌉`` on arbitrary terms."""

    body: Term

    def __str__(self) -> str:
        return f"~({format_term(self.body)})"


class PervasiveInferencer(Inferencer):
    """Figure 16 with instantiation applied to every non-frozen term."""

    def infer_node(self, delta, gamma, term):
        if isinstance(term, FreezeTerm):
            # The frozen term keeps its quantifiers; its *subterms* are
            # still inferred under the pervasive regime (the recursion
            # below dispatches back into this class).
            inner = term.body
            while isinstance(inner, FreezeTerm):
                inner = inner.body
            return super().infer_node(delta, gamma, inner)

        ty, payload = super().infer_node(delta, gamma, term)
        if self._keeps_quantifiers(term):
            return ty, payload
        # The inferred type may be a solved variable; look through the
        # store to see whether a quantifier prefix surfaced.
        head = self.solver.prune(ty)
        if not isinstance(head, TForall):
            return ty, payload

        body, type_args = self.solver.instantiate(
            self.solver.zonk(head), self.supply
        )
        return body, self.elaborator.inst(payload, type_args)

    @staticmethod
    def _keeps_quantifiers(term: Term) -> bool:
        """Frozen or generalised terms escape pervasive instantiation."""
        if isinstance(term, (FrozenVar, FreezeTerm)):
            return True
        if match_generalise(term) is not None:
            return True
        if match_generalise_ann(term) is not None:
            return True
        return False


def infer_type_pervasive(
    term: Term,
    env: TypeEnv | None = None,
    delta: KindEnv | None = None,
    *,
    normalise: bool = True,
    **options,
) -> Type:
    """Infer under pervasive instantiation.

    ``FreezeTerm`` nodes are not part of the core well-scopedness
    judgement, so annotations inside them are kind-checked during
    inference (as for visible type application).
    """
    env = env or TypeEnv.empty()
    delta = delta or KindEnv.empty()
    inferencer = PervasiveInferencer(**options)
    # Private env copy: infer_node extends it by push/pop mutation.
    ty, _payload = inferencer.infer_node(delta, env.copy_for_mutation(), term)
    ty = inferencer.solver.zonk(ty)
    return normalise_type(ty) if normalise else ty
