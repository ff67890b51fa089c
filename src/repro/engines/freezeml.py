"""The paper's engine: Figure 16 inference on the mutable solver."""

from __future__ import annotations

from typing import Any

from .base import Engine
from ..core.infer import VARIABLE, infer_raw
from ..core.kinds import KindEnv
from ..core.terms import FrozenVar, Let, Term


class FreezeMLEngine(Engine):
    """The default engine; honours ``strategy`` and ``value_restriction``."""

    name = "freezeml"
    supports_strategy = True
    generalises = True

    def infer(
        self,
        term: Term,
        env,
        *,
        delta: KindEnv | None = None,
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        spans: Any = None,
        budget: Any = None,
    ):
        result = infer_raw(
            term,
            env,
            delta if delta is not None else KindEnv.empty(),
            strategy=strategy,
            value_restriction=value_restriction,
            spans=spans,
            budget=budget,
        )
        return result.ty

    def definition_type(
        self,
        name: str,
        term: Term,
        env,
        *,
        delta: KindEnv | None = None,
        strategy: str = VARIABLE,
        value_restriction: bool = True,
        spans: Any = None,
        budget: Any = None,
    ):
        # Faithful to the paper: the definition's type is the type of the
        # frozen variable in `let name = term in ~name`.
        probe = Let(name, term, FrozenVar(name))
        return self.infer(
            probe,
            env,
            delta=delta,
            strategy=strategy,
            value_restriction=value_restriction,
            spans=spans,
            budget=budget,
        )
