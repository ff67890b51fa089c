"""The static-analysis tier (`repro.analysis` / `python -m repro lint`).

The acceptance bar, per rule and per layer:

* every ``FML4xx`` rule fires on a canonical trigger with an **exact
  source span**, and stays quiet on the nearest non-trigger;
* warnings are :data:`~repro.diagnostics.Severity.WARNING` and never
  flip ``ok`` (or the CLI exit status, without ``--strict-warnings``);
* lint-enabled verdicts are byte-deterministic: serial vs ``--jobs 2``
  through the service, HTTP vs CLI through the server, and the lint
  flag is part of the cache fingerprint so lint-on and lint-off
  verdicts can never answer each other's requests;
* messages never leak machine-generated names (``%tmpN`` counters
  depend on process history, which would break those bytes).
"""

from __future__ import annotations

import json
import urllib.request
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.analysis.inference as lint_inference
from repro.analysis import GROUPS, LintContext, all_passes, run_lint
from repro.analysis.inference import MAX_ANNOTATION_PROBES, redundant_annotation
from repro.api import Session
from repro.core.infer import ELIMINATOR, VARIABLE, infer_raw, normalise_type
from repro.core.kinds import KindEnv
from repro.core.terms import App, Lam, LamAnn, Let, LetAnn, Term, subterms
from repro.core.types import alpha_equal, format_type
from repro.cli import parse_check_args, run_check
from repro.diagnostics import Severity
from repro.errors import (
    INFERENCE_WARNING_CODES,
    SYNTACTIC_WARNING_CODES,
    WARNING_CODES,
    FreezeMLError,
    is_warning_code,
)
from repro.service import CheckRequest, SessionConfig, TypecheckService
from tests.freezeml_strategies import let_chains
from tests.helpers import PRELUDE

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
GOLDEN = Path(__file__).resolve().parent / "golden" / "lint_examples.json"
CHAIN = Path(__file__).resolve().parent / "golden" / "lint_chain.fml"


def lint(source: str, **session_kwargs) -> list:
    """Warnings for one source through the public Session surface."""
    result = Session(**session_kwargs).lint(source)
    return [d for d in result.diagnostics if d.severity is Severity.WARNING]


def codes(diags) -> list[str]:
    return [d.code for d in diags]


def at(diags, code: str):
    found = [d for d in diags if d.code == code]
    assert found, f"no {code} in {[d.code for d in diags]}"
    return found


class TestRegistry:
    def test_every_warning_code_has_a_pass_and_vice_versa(self):
        declared = set()
        for p in all_passes():
            declared.update(p.codes)
        assert declared == set(WARNING_CODES)

    def test_groups_partition_the_family(self):
        assert SYNTACTIC_WARNING_CODES | INFERENCE_WARNING_CODES == set(
            WARNING_CODES
        )
        assert not SYNTACTIC_WARNING_CODES & INFERENCE_WARNING_CODES

    def test_pass_groups_match_code_groups(self):
        for p in all_passes():
            family = (
                SYNTACTIC_WARNING_CODES
                if p.group == "syntactic"
                else INFERENCE_WARNING_CODES
            )
            assert set(p.codes) <= family, (p.name, p.codes)

    def test_is_warning_code(self):
        assert is_warning_code("FML401")
        assert not is_warning_code("FML101")
        assert not is_warning_code("FML903")

    def test_groups_order(self):
        assert GROUPS == ("syntactic", "inference")


class TestSyntacticRules:
    def test_fml401_unused_let_with_exact_span(self):
        diags = lint("let x = 1 in 2")
        (d,) = at(diags, "FML401")
        assert "`x`" in d.message
        assert (d.span.line, d.span.column) == (1, 1)
        assert (d.span.end_line, d.span.end_column) == (1, 15)

    def test_fml401_quiet_when_used(self):
        assert "FML401" not in codes(lint("let x = 1 in x"))

    def test_fml402_unused_param_with_exact_span(self):
        diags = lint("fun x -> fun y -> x")
        (d,) = at(diags, "FML402")
        assert "`y`" in d.message
        assert (d.span.line, d.span.column) == (1, 10)

    def test_fml402_quiet_when_used(self):
        assert "FML402" not in codes(lint("fun x -> x"))

    def test_fml403_shadowing_with_exact_span(self):
        diags = lint("fun x -> let x = 1 in x")
        (d,) = at(diags, "FML403")
        assert "shadows" in d.message
        assert (d.span.line, d.span.column) == (1, 10)

    def test_fml403_prelude_rebinding_is_not_shadowing(self):
        # `id` is a prelude constant, not an in-term binder.
        assert "FML403" not in codes(lint("let id = 1 in id"))

    def test_fml403_sibling_scopes_do_not_shadow(self):
        source = "(fun x -> x) (let x = 1 in x)"
        assert "FML403" not in codes(lint(source))

    def test_fml404_duplicate_definition_with_exact_span(self):
        source = "def f x = x\ndef f x = x\nmain = f 1\n"
        diags = lint(source)
        (d,) = at(diags, "FML404")
        assert "first defined at line 1" in d.message
        assert (d.span.line, d.span.column) == (2, 5)
        assert (d.span.end_line, d.span.end_column) == (2, 6)

    def test_fml404_distinct_names_quiet(self):
        source = "def f x = x\ndef g x = x\nmain = f (g 1)\n"
        assert "FML404" not in codes(lint(source))

    def test_fml405_vacuous_quantifier_with_exact_span(self):
        diags = lint("let (x : forall a. Int) = 1 in x")
        (d,) = at(diags, "FML405")
        assert "`a`" in d.message
        assert (d.span.line, d.span.column) == (1, 1)

    def test_fml405_used_quantifier_quiet(self):
        assert "FML405" not in codes(
            lint("let (f : forall a. a -> a) = fun x -> x in f 1")
        )

    def test_fml406_frozen_lambda_param_with_exact_span(self):
        diags = lint("fun f -> ~f")
        (d,) = at(diags, "FML406")
        assert "monomorphic" in d.message
        assert (d.span.line, d.span.column) == (1, 10)
        assert (d.span.end_line, d.span.end_column) == (1, 12)

    def test_fml406_annotated_param_quiet(self):
        source = "fun (f : forall a. a -> a) -> ~f"
        diags = lint(source)
        assert "FML406" not in codes(diags)
        # ...and the freeze there is *not* redundant either: it keeps
        # the quantifier.
        assert "FML411" not in codes(diags)

    def test_syntactic_rules_survive_ill_typed_programs(self):
        # The program fails to typecheck; syntactic findings ride along
        # after the error, inference-aware ones degrade to silence.
        result = Session().lint("let x = 1 in auto id")
        assert not result.ok
        assert result.diagnostics[0].severity is Severity.ERROR
        trailing = codes(result.diagnostics[1:])
        assert "FML401" in trailing
        assert not set(trailing) & INFERENCE_WARNING_CODES


class TestInferenceRules:
    def test_fml410_redundant_annotation_with_exact_span(self):
        diags = lint("let (x : Int) = 1 in x")
        (d,) = at(diags, "FML410")
        assert "`Int`" in d.message and "`x`" in d.message
        assert (d.span.line, d.span.column) == (1, 1)

    def test_fml410_informative_annotation_quiet(self):
        # Without the annotation the value restriction pins the type;
        # with it, `f` is polymorphic -- the annotation earns its keep.
        source = "let (f : forall a. a -> a) = id id in f"
        assert "FML410" not in codes(lint(source))

    def test_fml410_needed_for_typeability_quiet(self):
        # Erasing the parameter annotation makes the term ill-typed
        # (`f` is used polymorphically); the probe fails, no warning.
        source = "fun (f : forall a. a -> a) -> pair (f 1) (f True)"
        assert "FML410" not in codes(lint(source))

    def test_fml411_redundant_freeze_with_exact_span(self):
        diags = lint("let x = 1 in ~x")
        (d,) = at(diags, "FML411")
        assert "`Int`" in d.message
        assert (d.span.line, d.span.column) == (1, 14)
        assert (d.span.end_line, d.span.end_column) == (1, 16)

    def test_fml411_polymorphic_freeze_quiet(self):
        assert "FML411" not in codes(lint("poly ~id"))

    def test_fml412_value_restriction_demotion_with_exact_span(self):
        diags = lint("let f = id id in f 1")
        (d,) = at(diags, "FML412")
        assert "`f`" in d.message and "value restriction" in d.message
        assert "(a)" in d.message  # which variable, display-lettered
        assert (d.span.line, d.span.column) == (1, 1)

    def test_fml412_guarded_value_generalises_quiet(self):
        assert "FML412" not in codes(lint("let f = fun x -> x in f 1"))

    def test_fml412_off_without_value_restriction(self):
        source = "let f = id id in f 1"
        assert "FML412" not in codes(lint(source, value_restriction=False))

    def test_fml412_dollar_sugar_names_no_machine_variables(self):
        diags = lint("$(id id)")
        (d,) = at(diags, "FML412")
        assert "`$`" in d.message

    def test_inference_rules_skipped_off_engine(self):
        # Under HMF the FreezeML inferencer is not the oracle; only the
        # syntactic group runs.
        diags = lint("let x = 1 in ~x", engine="hmf")
        assert not set(codes(diags)) & INFERENCE_WARNING_CODES

    def test_no_machine_names_in_any_demo_message(self):
        source = (EXAMPLES_DIR / "lint_demo.fml").read_text()
        for d in lint(source):
            assert "%" not in d.message, d.message
            assert "%" not in d.hint, d.hint


def _tree(term: Term) -> Term:
    """``term`` rebuilt with no binder node shared between positions
    (the hypothesis strategies reuse ``st.just`` nodes, and annotation
    erasure matches nodes by identity)."""
    if isinstance(term, Lam):
        return Lam(term.param, _tree(term.body))
    if isinstance(term, LamAnn):
        return LamAnn(term.param, term.ann, _tree(term.body))
    if isinstance(term, App):
        return App(_tree(term.fn), _tree(term.arg))
    if isinstance(term, Let):
        return Let(term.var, _tree(term.bound), _tree(term.body))
    if isinstance(term, LetAnn):
        return LetAnn(term.var, term.ann, _tree(term.bound), _tree(term.body))
    return term


def _erased(term: Term, target: Term) -> Term:
    """``term`` with the annotation on ``target`` dropped."""
    if term is target:
        if isinstance(term, LamAnn):
            return Lam(term.param, term.body)
        assert isinstance(term, LetAnn)
        return Let(term.var, term.bound, term.body)
    if isinstance(term, (Lam, LamAnn)):
        body = _erased(term.body, target)
        if isinstance(term, Lam):
            return Lam(term.param, body)
        return LamAnn(term.param, term.ann, body)
    if isinstance(term, App):
        return App(_erased(term.fn, target), _erased(term.arg, target))
    if isinstance(term, Let):
        return Let(term.var, _erased(term.bound, target), _erased(term.body, target))
    if isinstance(term, LetAnn):
        return LetAnn(
            term.var, term.ann, _erased(term.bound, target), _erased(term.body, target)
        )
    return term


def _whole_program_fml410(ctx: LintContext) -> list[str]:
    """The whole-program rule, independently: erase each annotation in
    pre-order (up to the probe cap), re-infer the whole term, flag it
    when the normalised type is alpha-equal to the original."""

    def infer(term: Term):
        return normalise_type(
            infer_raw(
                term,
                ctx.env,
                ctx.delta,
                strategy=ctx.strategy,
                value_restriction=ctx.value_restriction,
                budget=ctx.budget,
            ).ty
        )

    try:
        base = infer(ctx.term)
    except FreezeMLError:
        return []
    flagged: list[str] = []
    annotated = [
        node
        for node in subterms(ctx.term)
        if isinstance(node, LamAnn)
        or (isinstance(node, LetAnn) and not node.var.startswith("%"))
    ]
    for node in annotated[:MAX_ANNOTATION_PROBES]:
        try:
            same = alpha_equal(infer(_erased(ctx.term, node)), base)
        except FreezeMLError:
            continue
        if same:
            owner = (
                f"parameter `{node.param}`"
                if isinstance(node, LamAnn)
                else f"binding `{node.var}`"
            )
            flagged.append(
                f"annotation `{format_type(node.ann)}` on {owner} is "
                "redundant: the same type is inferred without it"
            )
    return flagged


def _closed_chain(defs: int = 200) -> str:
    """A closed ``sig``/``def`` chain: every binding type is closed, and
    each of its 63 annotations is redundant (under the probe cap)."""
    lines = ["sig d0 : Int -> Int", "def d0 x = x + 1"]
    for i in range(1, defs):
        prev = f"d{i - 1}"
        if i % 8 == 0:
            lines += [f"sig d{i} : Int -> Int", f"def d{i} x = {prev} (x + 1)"]
        elif i % 16 == 4:
            lines.append(f"def d{i} = fun (y : Int) -> {prev} y")
        else:
            lines.append(f"def d{i} x = {prev} x")
    lines.append(f"main = d{defs - 1} 1")
    return "\n".join(lines) + "\n"


class TestRedundantAnnotationLocality:
    """FML410 decides most annotations per definition; each side of the
    local / whole-program choice keeps the whole-program verdict."""

    def test_local_type_differs_but_program_type_matches(self):
        # Erased, `g` is `forall a. a -> a`, not `Int -> Int`; the
        # whole-program probe still sees `Int` for `g 1`.
        assert "FML410" in codes(lint("let (g : Int -> Int) = fun x -> x in g 1"))

    def test_annotation_past_an_open_binding_stays_quiet(self):
        # `r` keeps a free flexible variable; the annotation is what
        # fixes it to Int, so erasing it changes the program's type.
        source = "let r = id id in let (f : Int -> Int) = fun x -> r x in f"
        assert "FML410" not in codes(lint(source))

    def test_annotation_in_main_is_flagged(self):
        assert "FML410" in codes(lint("let a = 1 in (fun (x : Int) -> x) a"))

    @pytest.mark.parametrize(
        "source, flagged",
        [
            ("let (g : Int -> Int) = fun x -> x in g 1", True),
            ("let r = id id in let (f : Int -> Int) = fun x -> r x in f", False),
            ("let a = 1 in (fun (x : Int) -> x) a", True),
            ("let (x : Int) = 1 in x", True),
        ],
    )
    def test_same_verdicts_under_a_fuel_budget(self, source, flagged):
        assert ("FML410" in codes(lint(source, fuel=100_000))) is flagged

    def test_tight_fuel_keeps_the_whole_program_verdict(self):
        # Fuel is spent by the whole run, so under a budget only the
        # whole-program probe can decide.  At the least fuel this
        # program needs, erasing the parameter annotation runs out.
        source = "let (f : Int -> Int) = fun (x : Int) -> x in f 1"
        fuel = next(n for n in range(1, 1000) if Session(fuel=n).check(source).ok)
        assert not Session(fuel=fuel).check(source.replace("(x : Int)", "x")).ok

        def flagged(diags) -> list[str]:
            return [d.message for d in diags if d.code == "FML410"]

        assert any("parameter `x`" in m for m in flagged(lint(source)))
        assert not any(
            "parameter `x`" in m for m in flagged(lint(source, fuel=fuel))
        )

    @pytest.mark.parametrize("fuel", [None, 10**7])
    def test_probe_cap_counts_annotations_in_traversal_order(self, fuel):
        # 79 redundant annotations: one on `d0`, then two per sig'd
        # definition.  Only the first MAX_ANNOTATION_PROBES in pre-order
        # are decided -- the cap falls between the two annotations of
        # `d32` -- on the per-definition path and the whole-program one.
        lines = ["def d0 = fun (x : Int) -> x"]
        for i in range(1, 40):
            lines += [f"sig d{i} : Int -> Int", f"def d{i} x = d{i - 1} x"]
        diags = lint("\n".join(lines + ["main = d39 1"]), fuel=fuel)
        flagged = [d for d in diags if d.code == "FML410"]
        assert len(flagged) == MAX_ANNOTATION_PROBES
        assert "binding `d32`" in flagged[-1].message

    @settings(max_examples=150, deadline=None)
    @given(
        let_chains(),
        st.booleans(),
        st.sampled_from((VARIABLE, ELIMINATOR)),
    )
    def test_matches_the_whole_program_rule(self, chain, restricted, strategy):
        ctx = LintContext(
            source="",
            term=_tree(chain),
            spans=None,
            env=PRELUDE,
            delta=KindEnv.empty(),
            engine="freezeml",
            strategy=strategy,
            value_restriction=restricted,
        )
        found = [d.message for d in redundant_annotation(ctx)]
        assert found == _whole_program_fml410(ctx), str(chain)

    def test_closed_chain_never_probes_the_whole_program(self, monkeypatch):
        calls = []
        whole_program = lint_inference._infer

        def counting(ctx, term):
            calls.append(term)
            return whole_program(ctx, term)

        monkeypatch.setattr(lint_inference, "_infer", counting)
        diags = lint(_closed_chain())
        assert codes(diags).count("FML410") == 63
        assert calls == []

    def test_golden_chain_file_is_current(self):
        # CI diffs `repro lint tests/golden/lint_chain.fml --json` against
        # the golden byte-exactly; compare with a normalised label here.
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run_check([str(CHAIN), "--json", "--lint"])
        doc = json.loads(buffer.getvalue())
        golden = json.loads(CHAIN.with_suffix(".json").read_text())
        for program in doc["programs"] + golden["programs"]:
            program["file"] = Path(program["file"]).name
        assert doc == golden


class TestResultContract:
    def test_warnings_never_flip_ok(self):
        result = Session().lint("let x = 1 in 2")
        assert result.ok
        assert codes(result.diagnostics) == ["FML401"]

    def test_check_without_lint_is_warning_free(self):
        result = Session().check("let x = 1 in 2")
        assert result.ok and result.diagnostics == ()

    def test_to_dict_orders_and_marks_severity(self):
        payload = Session().lint("let x = 1 in 2").to_dict()
        assert list(payload) == [
            "request",
            "engine",
            "ok",
            "source",
            "type",
            "rendered",
            "cached",
            "diagnostics",
        ]
        (diag,) = payload["diagnostics"]
        assert diag["severity"] == "warning"
        assert diag["span"] == {
            "line": 1,
            "column": 1,
            "end_line": 1,
            "end_column": 15,
        }

    def test_findings_are_sorted_by_span_then_code(self):
        source = "let x = 1 in let y = ~x in 2"
        result = Session().lint(source)
        keys = [
            (d.span.line, d.span.column, d.code) for d in result.diagnostics
        ]
        assert keys == sorted(keys)

    def test_lint_is_check_with_lint(self):
        assert (
            Session().lint("let x = 1 in 2")
            == Session().check("let x = 1 in 2", lint=True)
        )


class TestDeterminismAndCaching:
    SOURCES = [
        "let x = 1 in let y = 2 in ~x",
        "let f = id id in f 1",
        "fun g -> ~g",
        "let x = 1 in let y = 2 in ~x",  # repeat: cached flag in play
        "sig f : forall a. a -> a\ndef f x = x\ndef f y = y\nmain = f 1\n",
    ]

    def _payloads(self, jobs: int) -> list[dict]:
        requests = [CheckRequest(source=s) for s in self.SOURCES]
        with TypecheckService(SessionConfig(lint=True), jobs=jobs) as service:
            responses = service.check_many(requests)
        out = []
        for response in responses:
            payload = response.to_dict()
            payload.pop("duration_ms", None)
            payload["cached"] = response.cached
            out.append(payload)
        return out

    def test_serial_vs_jobs2_byte_identical(self):
        serial = json.dumps(self._payloads(1), sort_keys=True)
        pooled = json.dumps(self._payloads(2), sort_keys=True)
        assert serial == pooled

    def test_lint_flag_extends_the_cache_fingerprint(self):
        plain = TypecheckService(SessionConfig())
        linting = TypecheckService(SessionConfig(lint=True))
        try:
            source = "let x = 1 in 2"
            assert plain.cache_key(source) != linting.cache_key(source)
        finally:
            plain.close()
            linting.close()

    def test_lint_verdicts_round_trip_the_persistent_cache(self, tmp_path):
        from repro.cache import PersistentCache

        cache = PersistentCache(str(tmp_path / "verdicts.sqlite"))
        config = SessionConfig(lint=True)
        source = "let x = 1 in 2"
        with TypecheckService(config, persistent_cache=cache) as service:
            first = service.check_many([CheckRequest(source=source)])[0]
        cache2 = PersistentCache(str(tmp_path / "verdicts.sqlite"))
        with TypecheckService(config, persistent_cache=cache2) as service:
            again = service.check_many([CheckRequest(source=source)])[0]
        assert again.result.diagnostics == first.result.diagnostics
        assert again.result.diagnostics[0].severity is Severity.WARNING

    def test_http_bytes_match_cli_bytes(self, tmp_path):
        from repro.server import ServerThread

        demo = EXAMPLES_DIR / "lint_demo.fml"
        out = tmp_path / "cli.json"
        import contextlib
        import io

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = run_check([str(demo), "--json", "--lint"])
        assert code == 0
        cli_doc = json.loads(buffer.getvalue())

        with ServerThread(config=SessionConfig()) as handle:
            body = json.dumps(
                {
                    "lint": True,
                    "programs": [
                        {"source": demo.read_text(), "label": str(demo)}
                    ],
                }
            ).encode()
            request = urllib.request.Request(
                handle.url + "/check",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                http_doc = json.loads(response.read())
            stats = json.loads(
                urllib.request.urlopen(handle.url + "/stats").read()
            )
        assert http_doc == cli_doc
        # Lint traffic is its own broker class with its own caches.
        assert "default+lint" in stats["classes"]
        assert "default" in stats["classes"]

    def test_golden_examples_file_is_current(self, tmp_path):
        # CI runs `repro lint examples/*.fml --json` from the repo root
        # and diffs against the golden byte-exactly; here the run may
        # start from any cwd, so compare with normalised file labels.
        import contextlib
        import io

        files = sorted(str(p) for p in EXAMPLES_DIR.glob("*.fml"))
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            run_check(files + ["--json", "--lint"])

        def normalised(doc: dict) -> dict:
            for program in doc["programs"]:
                program["file"] = Path(program["file"]).name
            return doc

        assert normalised(json.loads(buffer.getvalue())) == normalised(
            json.loads(GOLDEN.read_text())
        ), "regenerate tests/golden/lint_examples.json"


class TestCLI:
    def test_check_args_accept_lint_flags(self):
        opts = parse_check_args(["a.fml", "--lint", "--strict-warnings"])
        assert opts["lint"] and opts["strict_warnings"]

    def test_check_args_default_lint_off(self):
        opts = parse_check_args(["a.fml"])
        assert not opts["lint"] and not opts["strict_warnings"]

    def test_warnings_keep_exit_zero_without_strict(self, tmp_path, capsys):
        target = tmp_path / "warn.fml"
        target.write_text("let x = 1 in 2")
        assert run_check([str(target), "--lint"]) == 0
        out = capsys.readouterr().out
        assert "warning[FML401]" in out
        assert f"{target}: ok: Int" in out

    def test_strict_warnings_flip_exit_one(self, tmp_path, capsys):
        target = tmp_path / "warn.fml"
        target.write_text("let x = 1 in 2")
        assert run_check([str(target), "--lint", "--strict-warnings"]) == 1

    def test_strict_warnings_quiet_program_still_zero(self, tmp_path):
        target = tmp_path / "clean.fml"
        target.write_text("let f = fun x -> x in f 1")
        assert run_check([str(target), "--lint", "--strict-warnings"]) == 0

    def test_repl_lint_renders_warnings(self):
        import io

        from repro.cli import Repl

        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle(":lint let x = 1 in 2")
        text = out.getvalue()
        assert "  : Int" in text
        assert "warning: let binding `x` is never used [FML401" in text
        assert repl.error_count == 0

    def test_repl_lint_error_still_counts(self):
        import io

        from repro.cli import Repl

        out = io.StringIO()
        repl = Repl(out=out)
        assert repl.handle(":lint auto id")
        assert repl.error_count == 1
        assert "error:" in out.getvalue()
