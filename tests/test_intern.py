"""Hash-consing invariants: identity == structural equality, no leaks.

The intern tables in :mod:`repro.core.types` guarantee that two
structurally equal type nodes are the *same object* -- that is the
substrate for the solver's identity fast paths (``left is right`` in
``_unify``, the zonk/apply memos, shared ``ftv`` caches).  These tests
pin down both directions of the invariant, the weak-table lifecycle
(nodes die with their last owner; the tables do not grow without bound
across solver runs), and the ``REPRO_NO_INTERN`` escape hatch.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
import weakref

import pytest
from hypothesis import given, settings

from repro.core.kinds import Kind, KindEnv
from repro.core.solver import SolverState
from repro.core.types import (
    INT,
    TCon,
    TForall,
    TVar,
    Type,
    INTERNING,
    arrow,
    intern_cache_clear,
    intern_stats,
    list_of,
)

# Identity and lifecycle assertions only hold with the tables on; under
# the REPRO_NO_INTERN escape hatch they are skipped (TestEscapeHatch
# still runs -- it spawns its own no-intern subprocess either way).
requires_interning = pytest.mark.skipif(
    not INTERNING, reason="interning disabled via REPRO_NO_INTERN"
)
from tests.strategies import monotypes, polytypes


def rebuild(ty: Type) -> Type:
    """Reconstruct a structurally identical type through the public
    constructors, sharing nothing with the input object graph."""
    if isinstance(ty, TVar):
        return TVar(str(ty.name))
    if isinstance(ty, TCon):
        return TCon(str(ty.con), tuple(rebuild(a) for a in ty.args))
    assert isinstance(ty, TForall)
    return TForall(str(ty.var), rebuild(ty.body))


def structurally_equal(left: Type, right: Type) -> bool:
    """Structural equality computed independently of ``Type.__eq__``
    (which fast-paths on identity -- the very thing under test)."""
    if isinstance(left, TVar):
        return isinstance(right, TVar) and left.name == right.name
    if isinstance(left, TCon):
        return (
            isinstance(right, TCon)
            and left.con == right.con
            and len(left.args) == len(right.args)
            and all(structurally_equal(a, b) for a, b in zip(left.args, right.args))
        )
    assert isinstance(left, TForall)
    return (
        isinstance(right, TForall)
        and left.var == right.var
        and structurally_equal(left.body, right.body)
    )


@requires_interning
class TestInternIdentity:
    """intern(t1) is intern(t2)  iff  t1 and t2 are structurally equal."""

    @given(monotypes())
    def test_rebuilding_a_monotype_returns_the_same_object(self, ty):
        assert rebuild(ty) is ty

    @given(polytypes())
    def test_rebuilding_a_polytype_returns_the_same_object(self, ty):
        assert rebuild(ty) is ty

    @settings(max_examples=200)
    @given(polytypes(), polytypes())
    def test_identity_iff_structural_equality(self, left, right):
        assert (left is right) == structurally_equal(left, right)
        # And __eq__ agrees with the independent checker in both cases.
        assert (left == right) == structurally_equal(left, right)

    def test_shared_ftv_cache(self):
        """The free-variable cache computed through one owner is visible
        through every other owner of the (identical) node."""
        from repro.core.types import ftv_peek, ftv_set

        one = arrow(TVar("fresh_cache_probe"), INT)
        other = arrow(TVar("fresh_cache_probe"), INT)
        assert one is other
        ftv_set(one)
        assert ftv_peek(other) == frozenset({"fresh_cache_probe"})


@requires_interning
class TestInternLifecycle:
    """The weak tables release nodes with their last owner."""

    def test_nodes_are_collected_when_unreferenced(self):
        ty = arrow(TVar("leak_probe_a"), TVar("leak_probe_b"))
        ref = weakref.ref(ty)
        del ty
        # The recency ring holds new nodes strongly for a while (that is
        # its job); dropping it must be enough to release the type.
        intern_cache_clear()
        gc.collect()
        assert ref() is None

    def test_table_size_returns_to_baseline_across_solver_runs(self):
        """Running many solver instances over throwaway types must not
        grow the intern tables without bound."""
        intern_cache_clear()
        gc.collect()
        before = intern_stats()

        def run(tag: int) -> None:
            state = SolverState()
            names = [f"%leak{tag}_{i}" for i in range(16)]
            state.declare_all(names, Kind.MONO)
            ty = INT
            for name in names:
                ty = arrow(TVar(name), ty)
            state.unify(KindEnv.empty(), TVar(names[0]), list_of(INT))
            state.zonk(ty)

        for tag in range(20):
            run(tag)
        intern_cache_clear()
        gc.collect()
        after = intern_stats()
        # Everything allocated inside run() was reachable only from the
        # dead SolverState; allow nothing but the probes other tests in
        # this process may have pinned (i.e. no monotonic growth).
        assert after["tvar"] <= before["tvar"]
        assert after["tcon"] <= before["tcon"]
        assert after["tforall"] <= before["tforall"]

    def test_stats_report_interning_enabled(self):
        assert intern_stats()["interning"] == 1

    def test_recency_ring_pins_and_releases(self):
        """Fresh nodes sit in the strong ring until cleared; the stats
        expose the occupancy."""
        intern_cache_clear()
        assert intern_stats()["recent"] == 0
        ty = arrow(TVar("%ring_probe_a"), TVar("%ring_probe_b"))
        assert intern_stats()["recent"] >= 3  # two vars + the arrow
        ref = weakref.ref(ty)
        del ty
        gc.collect()
        # Still alive: the ring is the remaining strong owner.
        assert ref() is not None
        intern_cache_clear()
        gc.collect()
        assert ref() is None


class TestEscapeHatch:
    """REPRO_NO_INTERN=1 disables the tables (used by the CI diff job)."""

    def test_subprocess_without_interning_still_equal_not_identical(self):
        code = (
            "from repro.core.types import TVar, arrow, INT, intern_stats\n"
            "a = arrow(INT, TVar('x'))\n"
            "b = arrow(INT, TVar('x'))\n"
            "assert intern_stats()['interning'] == 0\n"
            "assert a is not b\n"
            "assert a == b\n"
            "print('ok')\n"
        )
        env = dict(os.environ, REPRO_NO_INTERN="1")
        env["PYTHONPATH"] = "src"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_verdicts_identical_without_interning(self):
        """Inference results do not depend on interning (byte-level
        determinism is CI's job; object-level agreement is checked
        here on one representative program)."""
        program = "let id = \\x. x in (id 1, ~id)"
        code = (
            "import json\n"
            "from repro.api import Session\n"
            f"r = Session().check({program!r})\n"
            "print(json.dumps(r.to_dict(), sort_keys=True))\n"
        )
        outs = []
        for no_intern in ("0", "1"):
            env = dict(os.environ, REPRO_NO_INTERN=no_intern, PYTHONPATH="src")
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]

    def test_error_names_identical_without_interning(self):
        """Fresh-name numbering in error messages does not depend on
        interning.  In these programs unification meets quantifier
        pairs that are one shared node only when interned; skolems drawn
        from the flexible counter used to renumber every later ``%N``.
        The golden bytes pin the numbering itself too."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        files = ["tests/golden/planted_1_27.fml", "tests/golden/planted_1_33.fml"]
        with open(os.path.join(root, "tests/golden/planted_names.json")) as fh:
            golden = fh.read()
        for no_intern in ("0", "1"):
            env = dict(os.environ, REPRO_NO_INTERN=no_intern, PYTHONPATH="src")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "check", *files, "--json"],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
            )
            assert proc.returncode == 1, proc.stderr
            assert proc.stdout == golden, f"REPRO_NO_INTERN={no_intern}"

    @pytest.mark.parametrize(
        "args",
        [
            ["examples/poly_id.fml", "--max-depth", "3"],
            ["tests/golden/budget_chain.fml", "--fuel", "169", "--max-depth", "14"],
        ],
    )
    def test_budget_verdicts_identical_without_interning(self, args):
        """Where a budgeted check runs out does not depend on interning:
        without it, equal types are distinct nodes, and unification must
        still treat them as equal rather than walk (and pay for) them."""
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        outs = []
        for no_intern in ("0", "1"):
            env = dict(os.environ, REPRO_NO_INTERN=no_intern, PYTHONPATH="src")
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "check", *args, "--json"],
                capture_output=True,
                text=True,
                env=env,
                cwd=root,
            )
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
