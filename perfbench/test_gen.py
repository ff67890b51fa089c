"""Tests for the benchmark's generator and failure accounting.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import harness  # noqa: E402
import wl_serve  # noqa: E402


def test_same_seed_same_bytes():
    a = gen.program_set(7, "batch-large", 12, 50, 500)
    b = gen.program_set(7, "batch-large", 12, 50, 500)
    assert [(p.source, p.main_type, p.defect_line) for p in a] == [
        (p.source, p.main_type, p.defect_line) for p in b]
    other = gen.program_set(8, "batch-large", 12, 50, 500)
    assert [p.source for p in a] != [p.source for p in other]


def test_sizes_and_defect_positions_do_not_depend_on_seed():
    def layout(seed):
        out = []
        for p in gen.program_set(seed, "batch-large", 40, 50, 500):
            lines = p.source.splitlines()
            out.append((p.defs, lines[p.defect_line - 1].split()[1] if p.defect_line else None))
        return sorted(out, key=repr)

    assert layout(1) == layout(2) == layout(3)


def test_sizes_are_stratified_log_uniform():
    programs = gen.program_set(3, "t", 20, 50, 500)
    sizes = sorted(p.defs for p in programs)
    assert 50 <= sizes[0] < 60 and 420 < sizes[-1] <= 500
    assert all(p.source.count("\ndef ") + p.source.startswith("def ") == p.defs
               for p in programs)


def test_planted_defects_are_present():
    programs = gen.program_set(5, "t", 30, 50, 500)
    planted = [p for p in programs if not p.ok]
    assert len(planted) == round(30 * gen.PLANTED_SHARE)
    by_size = sorted(programs, key=lambda p: p.defs)
    at = [i for i, p in enumerate(by_size) if not p.ok]
    assert {b - a for a, b in zip(at, at[1:])} == {round(1 / gen.PLANTED_SHARE)}
    shapes = [re.escape(d).replace(r"\{n\}", r"d\d+").replace(r"\{ID\}", r"\S+")
              .replace(r"\{INT\}", r"\S+").replace(r"\{BOOL\}", r"\S+")
              for d in gen.DEFECTS]
    for program in planted:
        line = program.source.splitlines()[program.defect_line - 1]
        assert any(re.fullmatch(shape, line) for shape in shapes), line
    assert all(p.main_type for p in programs if p.ok)


def test_serve_mix_proportions():
    requests = wl_serve.Traffic(2).take(300)
    hits = sum(1 for p, lint, _ in requests if p.name.startswith("fig1-"))
    linted = sum(1 for _p, lint, _ in requests if lint)
    assert (hits, linted, len(requests)) == (150, 45, 300)
    assert len({p.name for p, _l, _b in requests if not p.name.startswith("fig1-")}) == 150


def test_accounting_flags_wrong_and_degraded_verdicts():
    ok = gen.Program("ok", "main = 1\n", 0, "Int")
    planted = gen.Program("bad", "# x\ndef d0 = poly id\nmain = 1\n", 1, None, 2)
    error = {"code": "FML102", "span": {"line": 1, "end_line": 3}}
    assert harness.judge(ok, {"ok": True, "type": "Int"}) == harness.OK
    assert harness.judge(ok, {"ok": True, "type": "Bool"}) == harness.WRONG
    assert harness.judge(planted, {"ok": True, "type": "Int"}) == harness.WRONG
    assert harness.judge(planted, {"ok": False, "diagnostics": [error]}) == harness.OK
    degraded = {"ok": False, "diagnostics": [{"code": "FML912"}]}
    assert harness.judge(ok, degraded) == harness.DEGRADED


def test_known_answers_hold_on_small_programs():
    from repro.service import TypecheckService

    programs = gen.program_set(11, "t", 10, 4, 40) + [
        gen.figure1_program(i) for i in range(len(gen.FIGURE1))]
    with TypecheckService() as service:
        for program in programs:
            payload = service.check(program.source).result.to_dict()
            assert harness.judge(program, payload) == harness.OK, program.name
