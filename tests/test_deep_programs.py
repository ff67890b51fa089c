"""Long programs at the interpreter's default recursion limit.

A top-level program is one ``let`` per definition around ``main``
(paper Section 6), so its let spine is as long as the program.  The
inferencer, the scope check and the parser walk let spines and operator
chains in loops, so a program of thousands of definitions checks at
``sys.setrecursionlimit(1000)``.  What still recurses -- parentheses,
the System F elaborator, the derivation builder, the evaluator --
degrades to the ``FML912`` diagnostic in every ``Session`` request and
never raises.

Also pinned here, with values taken from the recursive formulation:
where a let spine's failures are located, how fuel and depth budgets
trip along it, what the subclassed inferencers answer on let chains,
and the spans of every operator production of the parser.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.core.reference import reference_infer_type
from repro.core.terms import App, FrozenVar, IntLit, Let, LetAnn, Term, Var
from repro.corpus.signatures import prelude
from repro.extensions import TyApp, infer_type_pervasive, infer_type_vta
from repro.extensions.toplevel import desugar_program, parse_program
from repro.service import SessionConfig, TypecheckService
from repro.syntax.parser import parse_term, parse_term_spanned, parse_type
from repro.syntax.pretty import pretty_type
from repro.translate.freezeml_to_f import elaborate
from tests.helpers import recursion_limit

SRC = Path(__file__).resolve().parent.parent / "src"

DEFINITIONS = 2000
DEFAULT_LIMIT = 1000


def long_program(n: int) -> str:
    """``n`` definitions cycling through annotated, generalised,
    instantiated and frozen bindings, each using an earlier one."""
    lines = ["sig f0 : forall a. a -> a", "def f0 x = x"]
    for i in range(1, n):
        step = i % 5
        if step == 0:
            lines += [f"sig f{i} : forall a. a -> a", f"def f{i} x = f{i - 2} x"]
        elif step == 1:
            lines.append(f"def f{i} = f{i - 1} {i}")
        elif step == 2:
            lines.append(f"def f{i} = single ~f{i - 2}")
        elif step == 3:
            lines.append(f"def f{i} = $(fun x -> f{i - 3} x)")
        else:
            lines.append(f"def f{i} = poly ~f{i - 1}")
    lines.append(f"main = (f{n - 1}, f{n - 2})")
    return "\n".join(lines) + "\n"


def long_let_term(n: int) -> str:
    """A bare term of ``n`` nested lets."""
    lets = ["let x0 = id in"]
    for i in range(1, n):
        if i % 3 == 0:
            lets.append(f"let x{i} = fun y -> x{i - 1} y in")
        elif i % 3 == 1:
            lets.append(f"let x{i} = single ~x{i - 1} in")
        else:
            lets.append(f"let x{i} = head x{i - 1} in")
    last_id = (n - 1) - (n - 1) % 3
    return "\n".join(lets) + f"\n(x{last_id} 1, ~x{last_id})"


def reference_type(term: Term) -> str:
    """The paper-literal inferencer's answer; it recurses per ``let``."""
    with recursion_limit(50_000):
        return pretty_type(reference_infer_type(term, prelude()))


@pytest.fixture(scope="module")
def program():
    source = long_program(DEFINITIONS)
    return source, reference_type(desugar_program(*parse_program(source)))


@pytest.fixture(scope="module")
def let_term():
    source = long_let_term(DEFINITIONS)
    return source, reference_type(parse_term(source))


def codes(result) -> list[str]:
    return [d.code for d in result.diagnostics]


class TestLongProgramsCheck:
    def test_session_check(self, program):
        source, expected = program
        with recursion_limit(DEFAULT_LIMIT):
            result = Session().check(source)
        assert result.ok, codes(result)
        assert result.type_str == expected

    def test_session_check_with_lint(self, program):
        source, expected = program
        with recursion_limit(DEFAULT_LIMIT):
            result = Session().check(source, lint=True)
        assert result.ok
        assert result.type_str == expected
        assert "FML912" not in codes(result)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_service(self, program, jobs):
        source, expected = program
        with recursion_limit(DEFAULT_LIMIT):
            with TypecheckService(SessionConfig(), jobs=jobs) as service:
                result = service.check(source).result
        assert result.ok, codes(result)
        assert result.type_str == expected

    def test_cli_subprocess(self, program, tmp_path):
        source, expected = program
        path = tmp_path / "long.fml"
        path.write_text(source)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", str(path), "--json"],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        (verdict,) = json.loads(proc.stdout)["programs"]
        assert verdict["type"] == expected

    def test_bare_let_term(self, let_term):
        source, expected = let_term
        with recursion_limit(DEFAULT_LIMIT):
            session = Session()
            inferred = session.infer(source)
            checked = session.check(source)
        assert inferred.ok and checked.ok, codes(inferred) + codes(checked)
        assert inferred.type_str == checked.type_str == expected


# -- every request is guarded -------------------------------------------------

PARENS = "(" * 2000 + "1" + ")" * 2000
LONG_LETS = " ".join(f"let x{i} = {'1' if i == 0 else f'x{i - 1}'} in" for i in range(1500))
LONG_LETS += " x1499"


class TestRecursionNeverEscapesASession:
    @pytest.mark.parametrize(
        "request_",
        [
            lambda s: s.infer(PARENS),
            lambda s: s.infer_definition("x", PARENS),
            lambda s: s.define("x", PARENS),
            lambda s: s.elaborate(PARENS),
            lambda s: s.derive(PARENS),
            lambda s: s.evaluate(PARENS),
            lambda s: s.run_program(f"def x = {PARENS}\nmain = x"),
            lambda s: s.check(PARENS),
            lambda s: s.check(PARENS, lint=True),
            lambda s: s.check(f"def x = {PARENS}\nmain = x", lint=True),
        ],
        ids=[
            "infer", "infer_definition", "define", "elaborate", "derive",
            "evaluate", "run_program", "check", "check-lint", "check-program",
        ],
    )
    def test_nested_parentheses_degrade_to_fml912(self, request_):
        session = Session()
        with recursion_limit(DEFAULT_LIMIT):
            result = request_(session)
        assert not result.ok
        assert codes(result) == ["FML912"]
        assert session.bindings == {}

    @pytest.mark.parametrize(
        "name", ["infer", "elaborate", "derive", "evaluate", "check"]
    )
    def test_long_let_terms_answer(self, name):
        with recursion_limit(DEFAULT_LIMIT):
            result = getattr(Session(), name)(LONG_LETS)
        assert result.ok or codes(result) == ["FML912"]
        if name in ("infer", "check"):
            assert result.ok and result.type_str == "Int"

    def test_define_answers(self):
        with recursion_limit(DEFAULT_LIMIT):
            result = Session().define("big", LONG_LETS)
        assert result.ok or codes(result) == ["FML912"]


# -- spans and budgets along a let spine ---------------------------------------

CHAIN = "let a = 1 in\nlet b = a in\nlet c = b in\nlet d = c in\nd"


def located(result) -> list[tuple[str, tuple[int, int, int, int] | None]]:
    return [
        (d.code, d.span and (d.span.line, d.span.column, d.span.end_line, d.span.end_column))
        for d in result.diagnostics
    ]


class TestLetSpineLocations:
    def test_annotation_failure_points_at_its_own_let(self):
        result = Session().check(
            "let f = fun x -> x in\nlet (g : forall a. a -> Int) = fun x -> x in\ng"
        )
        assert located(result) == [("FML102", (2, 1, 3, 2))]

    @pytest.mark.parametrize(
        "fuel, expected",
        [
            (1, [("FML901", (1, 9, 1, 10))]),
            (2, [("FML901", (2, 1, 5, 2))]),
            (3, [("FML901", (2, 9, 2, 10))]),
            (4, [("FML901", (3, 1, 5, 2))]),
            (5, [("FML901", (3, 9, 3, 10))]),
            (6, [("FML901", (4, 1, 5, 2))]),
            (7, [("FML901", (4, 9, 4, 10))]),
            (8, [("FML901", (5, 1, 5, 2))]),
            *[(n, []) for n in range(9, 16)],
        ],
    )
    def test_fuel_trips_where_the_recursion_did(self, fuel, expected):
        assert located(Session(fuel=fuel).check(CHAIN)) == expected

    @pytest.mark.parametrize(
        "depth, expected",
        [
            (1, [("FML902", (1, 9, 1, 10))]),
            (2, [("FML902", (2, 9, 2, 10))]),
            (3, [("FML902", (3, 9, 3, 10))]),
            (4, [("FML902", (4, 9, 4, 10))]),
            (5, []),
            (6, []),
            (7, []),
        ],
    )
    def test_depth_trips_where_the_recursion_did(self, depth, expected):
        assert located(Session(max_depth=depth).check(CHAIN)) == expected

    def test_budget_on_annotated_spine(self):
        source = (
            "let (a : Int) = 1 in\nlet b = fun x -> x in\n"
            "let (c : forall a. a -> a) = b in\nlet e = c a in\ne"
        )
        fuel = {n: located(Session(fuel=n).check(source)) for n in (2, 3, 4, 6, 12, 13)}
        assert fuel == {
            2: [("FML901", (1, 1, 5, 2))],
            3: [("FML901", (2, 1, 5, 2))],
            4: [("FML901", (2, 9, 2, 19))],
            6: [("FML901", (3, 1, 5, 2))],
            12: [("FML901", (4, 1, 5, 2))],
            13: [("FML901", (4, 9, 4, 12))],
        }
        assert located(Session(max_depth=4).check(source)) == [
            ("FML902", (3, 1, 5, 2))
        ]
        assert located(Session(max_depth=7).check(source)) == []


# -- subclassed inferencers and the elaborator on let chains -------------------

PRELUDE = prelude()


class TestLetChainsUnderExtensions:
    @pytest.mark.parametrize(
        "source, expected",
        [
            ("let a = ids in let b = head a in let c = b 3 in c", "Int"),
            ("let x = fun y -> y in let (z : forall a. a -> a) = x in let w = z 1 in ~z", "a -> a"),
            ("let x = choose id in let y = x in y", "(a -> a) -> a -> a"),
            ("let f = single ~id in let p = poly ~id in let n = length f in p", "Int * Bool"),
            ("let a = 1 in let y = a in let x = $(fun v -> v) in ~x", "a -> a"),
            ("let a = 1 in let (x : forall a. a -> a) = fun v -> v in ~x", "a -> a"),
            ("let a = ids in let b = head a in b", "a -> a"),
        ],
    )
    def test_pervasive(self, source, expected):
        assert pretty_type(infer_type_pervasive(parse_term(source), PRELUDE)) == expected

    def test_visible_type_application(self):
        chain = Let(
            "x",
            Var("id"),
            LetAnn(
                "y",
                parse_type("forall a. a -> a"),
                Var("x"),
                Let("z", TyApp(FrozenVar("y"), parse_type("Int")), App(Var("z"), IntLit(1))),
            ),
        )
        assert pretty_type(infer_type_vta(chain, PRELUDE)) == "Int"
        frozen = Let("x", FrozenVar("id"), Let("y", TyApp(FrozenVar("x"), parse_type("Bool")), FrozenVar("y")))
        assert pretty_type(infer_type_vta(frozen, PRELUDE)) == "Bool -> Bool"

    @pytest.mark.parametrize(
        "source, fterm, ftype",
        [
            (
                "let a = ids in let b = head a in let c = b 3 in c",
                "let (a : List (forall a. a -> a)) = ids in let (b : forall a. a -> a) = "
                "head [forall a. a -> a] a in let (c : Int) = b [Int] 3 in c",
                "Int",
            ),
            (
                "let x = fun y -> y in let (z : forall a. a -> a) = x in let w = z 1 in ~z",
                "let (x : forall %1. %1 -> %1) = /\\%1. fun (y : %1) -> y in "
                "let (z : forall a. a -> a) = /\\a. x [a] in let (w : Int) = z [Int] 1 in z",
                "forall a. a -> a",
            ),
            (
                "let x = choose id in let y = x in y",
                "let (x : (%2 -> %2) -> %2 -> %2) = choose [%2 -> %2] (id [%2]) in "
                "let (y : (%2 -> %2) -> %2 -> %2) = x in y",
                "(%2 -> %2) -> %2 -> %2",
            ),
            (
                "let f = single ~id in let p = poly ~id in let n = length f in p",
                "let (f : List (forall a. a -> a)) = single [forall a. a -> a] id in "
                "let (p : Int * Bool) = poly id in let (n : Int) = length [forall a. a -> a] f in p",
                "Int * Bool",
            ),
        ],
    )
    def test_system_f_elaboration(self, source, fterm, ftype):
        result = elaborate(parse_term(source), PRELUDE)
        assert str(result.fterm) == fterm
        assert pretty_type(result.ty) == ftype


# -- parser spans of every operator production ---------------------------------


def span_walk(source: str) -> list[tuple[str, tuple[int, int, int, int] | None]]:
    """Every node of the parse in preorder, with its recorded span."""
    term, spans = parse_term_spanned(source)
    out = []
    stack: list[Term] = [term]
    while stack:
        node = stack.pop()
        span = spans.get(node)
        out.append(
            (type(node).__name__, span and (span.line, span.column, span.end_line, span.end_column))
        )
        children = [getattr(node, f.name) for f in dataclasses.fields(node)]
        stack.extend(reversed([c for c in children if isinstance(c, Term)]))
    return out


@pytest.mark.parametrize(
    "source, expected",
    [
        ("x :: y :: zs", [("App", (1, 1, 1, 13)), ("App", None), ("Var", None), ("Var", (1, 1, 1, 2)), ("App", (1, 6, 1, 13)), ("App", None), ("Var", None), ("Var", (1, 6, 1, 7)), ("Var", (1, 11, 1, 13))]),
        ("xs ++ ys ++ zs", [("App", (1, 1, 1, 15)), ("App", None), ("Var", None), ("App", (1, 1, 1, 9)), ("App", None), ("Var", None), ("Var", (1, 1, 1, 3)), ("Var", (1, 7, 1, 9)), ("Var", (1, 13, 1, 15))]),
        ("a + b + c", [("App", (1, 1, 1, 10)), ("App", None), ("Var", None), ("App", (1, 1, 1, 6)), ("App", None), ("Var", None), ("Var", (1, 1, 1, 2)), ("Var", (1, 5, 1, 6)), ("Var", (1, 9, 1, 10))]),
        ("f x y", [("App", (1, 1, 1, 6)), ("App", (1, 1, 1, 4)), ("Var", (1, 1, 1, 2)), ("Var", (1, 3, 1, 4)), ("Var", (1, 5, 1, 6))]),
        ("id@ 1", [("App", (1, 1, 1, 6)), ("Let", (1, 1, 1, 4)), ("Var", (1, 1, 1, 3)), ("Var", None), ("IntLit", (1, 5, 1, 6))]),
        ("(f x)@@", [("Let", (1, 1, 1, 8)), ("Let", (1, 1, 1, 7)), ("App", (1, 2, 1, 5)), ("Var", (1, 2, 1, 3)), ("Var", (1, 4, 1, 5)), ("Var", None), ("Var", None)]),
        ("$id", [("Let", (1, 1, 1, 4)), ("Var", None), ("FrozenVar", None)]),
        ("$(fun x -> x)", [("Let", (1, 1, 1, 14)), ("Lam", (1, 3, 1, 13)), ("Var", (1, 12, 1, 13)), ("FrozenVar", None)]),
        ("$(fun x -> x : forall a. a -> a)", [("LetAnn", (1, 1, 1, 33)), ("Lam", (1, 3, 1, 13)), ("Var", (1, 12, 1, 13)), ("FrozenVar", None)]),
        ("[1, 2, 3]", [("App", (1, 1, 1, 10)), ("App", None), ("Var", None), ("IntLit", (1, 2, 1, 3)), ("App", None), ("App", None), ("Var", None), ("IntLit", (1, 5, 1, 6)), ("App", None), ("App", None), ("Var", None), ("IntLit", (1, 8, 1, 9)), ("Var", None)]),
        ("(1, true)", [("App", (1, 1, 1, 10)), ("App", None), ("Var", None), ("IntLit", (1, 2, 1, 3)), ("BoolLit", (1, 5, 1, 9))]),
        ("1 + 2 :: f x ++ [y]@", [("App", (1, 1, 1, 21)), ("App", None), ("Var", None), ("App", (1, 1, 1, 6)), ("App", None), ("Var", None), ("IntLit", (1, 1, 1, 2)), ("IntLit", (1, 5, 1, 6)), ("App", (1, 10, 1, 21)), ("App", None), ("Var", None), ("App", (1, 10, 1, 13)), ("Var", (1, 10, 1, 11)), ("Var", (1, 12, 1, 13)), ("Let", (1, 17, 1, 21)), ("App", (1, 17, 1, 20)), ("App", None), ("Var", None), ("Var", (1, 18, 1, 19)), ("Var", None), ("Var", None)]),
        ("(a :: b) + c", [("App", (1, 1, 1, 13)), ("App", None), ("Var", None), ("App", (1, 2, 1, 8)), ("App", None), ("Var", None), ("Var", (1, 2, 1, 3)), ("Var", (1, 7, 1, 8)), ("Var", (1, 12, 1, 13))]),
    ],
)
def test_operator_spans(source, expected):
    assert span_walk(source) == expected


def test_long_operator_chains_parse_flat():
    with recursion_limit(DEFAULT_LIMIT):
        cons = parse_term(" :: ".join(["1"] * 3000) + " :: []")
        plus = parse_term(" + ".join(["1"] * 3000) + " ++ xs")
    depth = 0
    while isinstance(cons, App):
        cons = cons.arg
        depth += 1
    assert depth == 3000
    assert isinstance(plus, App) and plus.fn.fn == Var("++")
