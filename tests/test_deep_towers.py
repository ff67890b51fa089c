"""Deep-tower regression: the worklist loops beat the recursion limit.

Before the iterative rewrite, ``SolverState.zonk``/``_unify``,
``Subst.apply`` and ``kind_of`` were deep Python recursions: a
512-level arrow or quantifier tower blew ``sys.setrecursionlimit`` long
before any budget fired, degrading to the FML912 backstop.  These tests
run the same workloads under ``sys.setrecursionlimit(256)`` -- far less
than the tower depth -- and must succeed outright.

(Types are built programmatically: the parser and pretty-printer are
term/display-path recursions outside this PR's scope, and the point is
the solver engine.)
"""

from __future__ import annotations

import pytest

from repro.core.infer import infer_raw
from repro.core.env import TypeEnv
from repro.core.kinds import Kind, KindEnv
from repro.core.solver import SolverState
from repro.core.subst import Subst
from repro.core.terms import Var
from repro.core.types import INT, TForall, TVar, arrow, ftv_set, list_of
from repro.core.wellformed import kind_of
from tests.helpers import recursion_limit

DEPTH = 512
EMPTY = KindEnv.empty()


def arrow_tower(depth: int, leaf):
    """A right-nested arrow tower of ``depth`` distinct nodes:
    ``int -> (int -> ( ... leaf))``."""
    ty = leaf
    for _ in range(depth):
        ty = arrow(INT, ty)
    return ty


def forall_tower(depth: int, prefix: str, body):
    """``forall p0. forall p1. ... body`` with distinct binder names."""
    ty = body
    for i in reversed(range(depth)):
        ty = TForall(f"{prefix}{i}", ty)
    return ty


class TestDeepUnify:
    def test_arrow_tower_unifies_and_binds_at_the_leaf(self):
        left = arrow_tower(DEPTH, TVar("%deep_l"))
        right = arrow_tower(DEPTH, TVar("%deep_r"))
        state = SolverState()
        state.declare_all(["%deep_l", "%deep_r"], Kind.MONO)
        with recursion_limit(256):
            state.unify(EMPTY, left, right)
            assert state.zonk(left) is state.zonk(right)

    def test_quantifier_tower_unifies_across_alpha_variants(self):
        left = forall_tower(DEPTH, "a", arrow(TVar("a0"), INT))
        right = forall_tower(DEPTH, "b", arrow(TVar("b0"), INT))
        state = SolverState()
        with recursion_limit(256):
            state.unify(EMPTY, left, right)

    def test_quantifier_order_mismatch_still_detected_when_deep(self):
        from repro.errors import UnificationError

        body = arrow(TVar("a0"), TVar("a1"))
        left = TForall("a0", TForall("a1", body))
        right = TForall("a1", TForall("a0", body))
        state = SolverState()
        with recursion_limit(256):
            with pytest.raises(UnificationError):
                state.unify(EMPTY, left, right)


class TestDeepZonk:
    def test_deep_store_chain_resolves(self):
        state = SolverState()
        names = [f"%chain{i}" for i in range(DEPTH)]
        state.declare_all(names, Kind.MONO)
        for i in range(DEPTH - 1):
            state.set_binding(names[i], arrow(INT, TVar(names[i + 1])))
        state.set_binding(names[-1], INT)
        with recursion_limit(256):
            solved = state.zonk(TVar(names[0]))
        assert solved == arrow_tower(DEPTH - 1, INT)
        # Repeat zonks hit the global memo (same interned node).
        assert state.zonk(TVar(names[0])) is solved

    def test_deep_tower_wellformedness_and_occurs(self):
        state = SolverState()
        state.declare("%deep", Kind.MONO)
        tower = arrow_tower(DEPTH, INT)
        with recursion_limit(256):
            state.unify(EMPTY, TVar("%deep"), tower)
        assert state.zonk(TVar("%deep")) is tower


class TestDeepSubstAndKinds:
    def test_subst_apply_reaches_a_deep_leaf(self):
        tower = arrow_tower(DEPTH, TVar("leaf"))
        sub = Subst({"leaf": INT})
        with recursion_limit(256):
            applied = sub(tower)
        assert applied == arrow_tower(DEPTH, INT)

    def test_ftv_and_kind_of_on_deep_towers(self):
        tower = arrow_tower(DEPTH, TVar("leaf"))
        quantified = forall_tower(DEPTH, "q", INT)
        env = KindEnv.empty().extend("leaf", Kind.MONO)
        with recursion_limit(256):
            assert ftv_set(tower) == frozenset({"leaf"})
            assert kind_of(env, tower) is Kind.MONO
            assert kind_of(KindEnv.empty(), quantified) is Kind.POLY


class TestDeepInference:
    def test_var_with_deep_env_type_typechecks(self):
        """End-to-end ``infer_raw`` with a 512-deep environment type:
        env well-formedness, zonking and instantiation all run under the
        tight recursion limit."""
        deep = arrow_tower(DEPTH, INT)
        env = TypeEnv.empty().extend("x", deep)
        with recursion_limit(256):
            result = infer_raw(Var("x"), env)
        assert result.ty is deep

    def test_var_with_deep_quantifier_prefix_instantiates(self):
        deep = forall_tower(DEPTH, "q", arrow(TVar("q0"), list_of(TVar("q511"))))
        env = TypeEnv.empty().extend("poly", deep)
        with recursion_limit(256):
            result = infer_raw(Var("poly"), env)
        # The prefix instantiated to fresh flexibles: an arrow between
        # two flexible variables.
        ty = result.ty
        assert ty.con == "->"


class TestDeepML:
    def test_ml_unify_on_deep_towers(self):
        from repro.ml.typecheck import MLInferencer

        inf = MLInferencer()
        left = arrow_tower(DEPTH, TVar("%ml_l"))
        right = arrow_tower(DEPTH, TVar("%ml_r"))
        with recursion_limit(256):
            inf._unify(left, right)
            assert inf._zonk(left) is inf._zonk(right)
