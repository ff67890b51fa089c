"""Budget accounting is pinned: where a budgeted check runs out.

A fuel budget counts solver steps (inference nodes, unification steps,
bindings, zonk resolutions) and ``max_depth`` bounds the combined
inference/unification depth, so *which* of ``FML901``/``FML902`` a
budgeted check reports, and where, is part of the verdict.  A solver
change that is meant to be invisible must charge the same steps in the
same order -- including the zonk memo's invalidation, since a zonk only
charges for store entries it has not already resolved.

``tests/golden/budget_grid.json`` holds, for each program and each
budget, the error codes with their spans and the verdict type, lint off
and on.  ``budget_chain.fml`` is a generated 35-definition program on
which skipping one memo invalidation flips ``fuel=71, max_depth=9``
from ``FML901`` to ``FML902``.  Regenerate the golden file (``python
tests/test_budget_grid.py``) only for an intended verdict change.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.service import SessionConfig, TypecheckService

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "budget_grid.json"
PROGRAMS = [
    *sorted(str(p.relative_to(ROOT)) for p in (ROOT / "examples").glob("*.fml")),
    "tests/golden/budget_chain.fml",
]
FUELS = [*range(1, 394, 7), None]
DEPTHS = [None, 3, 6, 9, 14]


def outcome(result) -> str:
    """Error codes with spans, then the type: ``FML901@4:10-4:23 | -``."""
    errors = [
        f"{d.code}@{d.span.line}:{d.span.column}-{d.span.end_line}:{d.span.end_column}"
        for d in result.diagnostics
        if d.severity.value == "error"
    ]
    return f"{' '.join(errors) or 'ok'} | {result.type_str or '-'}"


def grid(lint: bool) -> dict[str, dict[str, list[str]]]:
    """``{program: {"depth=D": ["FUELS: outcome", ...]}}``: each depth's
    fuel axis run-length encoded (``"1..64"`` or ``"71"``; ``None`` is
    unlimited)."""
    table: dict[str, dict[str, list[str]]] = {p: {} for p in PROGRAMS}
    sources = {p: (ROOT / p).read_text() for p in PROGRAMS}
    for depth in DEPTHS:
        column: dict[str, list[tuple[str, str]]] = {p: [] for p in PROGRAMS}
        for fuel in FUELS:
            config = SessionConfig(fuel=fuel, max_depth=depth, lint=lint)
            with TypecheckService(config, cache=False) as service:
                for p in PROGRAMS:
                    column[p].append((str(fuel), outcome(service.check(sources[p]).result)))
        for p in PROGRAMS:
            runs: list[list[str]] = []
            for fuel, out in column[p]:
                if runs and runs[-1][2] == out and fuel != "None":
                    runs[-1][1] = fuel
                else:
                    runs.append([fuel, fuel, out])
            table[p][f"depth={depth}"] = [
                f"{a if a == b else f'{a}..{b}'}: {out}" for a, b, out in runs
            ]
    return table


@pytest.mark.parametrize("lint", [False, True], ids=["lint-off", "lint-on"])
def test_budget_grid_matches_golden(lint):
    expected = json.loads(GOLDEN.read_text())["lint" if lint else "plain"]
    assert grid(lint) == expected


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({"plain": grid(False), "lint": grid(True)}, indent=1) + "\n"
    )
