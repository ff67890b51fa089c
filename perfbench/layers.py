"""The traced run: one op through its public entry point (the parent
span), then the same input re-run layer by layer through each layer's
public function (the child spans).

Layers are named after the program's modules:

* ``cli``      -- ``python -m repro check`` (interpreter start, import, check)
* ``syntax``   -- lexer/parser and ``extensions.toplevel`` program parsing
* ``core``     -- inference through the ``engines`` registry
* ``analysis`` -- the lint passes (``analysis.run_lint``)
* ``api``      -- ``Result.to_dict`` plus the JSON bytes clients receive
* ``service``  -- ``TypecheckService`` and its in-memory cache
* ``cache``    -- ``PersistentCache`` (SQLite)
* ``server``   -- ``python -m repro serve`` over HTTP

Spans on a workload's blocking path go to the ``path`` recorder; layers
off that path are measured on the same inputs by probes recorded
separately, so every traced run reports every layer metric while the
shares only ever count the blocking path.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    ROOT, Client, Recorder, ServerProc, child_env, median, pct, verdict_bytes,
)

# Layer self times that make up an op, per root span name.
PATH_LAYERS = ("cli.op", "cli.import", "cli.interp", "cli.check", "server.request",
               "service.check", "service.cache_key", "syntax.parse",
               "analysis.lint", "core.infer", "api.serialise")


def is_program(source: str) -> bool:
    """The program-format test ``Session.check`` applies."""
    for raw in source.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            head = line.split(None, 1)[0]
            return head in ("sig", "def") or head.startswith("main")
    return False


class Replay:
    """Re-runs one source layer by layer under the default session
    configuration (the same calls ``Session.check`` makes)."""

    def __init__(self, lint: bool) -> None:
        from repro.analysis import LintContext, run_lint
        from repro.api import Session
        from repro.engines import get_engine
        from repro.errors import FreezeMLError
        from repro.extensions import toplevel
        from repro.syntax.lexer import tokenize
        from repro.syntax.parser import parse_term_spanned

        self.lint = lint
        self.session = Session()
        self.engine = get_engine(self.session.engine)
        self._lint_context, self._run_lint = LintContext, run_lint
        self._errors = (FreezeMLError, RecursionError)
        self._toplevel, self._parse_term = toplevel, parse_term_spanned
        self._tokenize = tokenize
        self.warnings = 0

    def tokens(self, source: str) -> int:
        """Tokens the parser consumes (``sig`` types, ``def``/``main``
        right-hand sides, or the whole bare term); counted untimed."""
        if not is_program(source):
            return len(self._tokenize(source))
        count = 0
        for raw in source.splitlines():
            line = raw.strip()
            if line.startswith("sig "):
                count += len(self._tokenize(line.partition(":")[2]))
            elif line.startswith(("def ", "main")):
                count += len(self._tokenize(line.partition("=")[2]))
        return count

    def parse(self, source: str):
        if not is_program(source):
            term, spans = self._parse_term(source)
            return term, spans, False, ()
        if self.lint:
            term, spans, sites = self._toplevel.parse_program_spanned(source)
            return term, spans, True, sites
        definitions, main = self._toplevel.parse_program(source)
        return self._toplevel.desugar_program(definitions, main), None, True, ()

    def run(self, rec: Recorder, op: int, parent: int | None, source: str,
            service=None) -> None:
        """Child spans of one ``service.check``: cache key, parse, lint,
        infer.  Parse or inference failures are part of the replay."""
        s = self.session
        if service is not None:
            with rec.span("service.cache_key", op, parent):
                service.cache_key(source)
        with rec.span("syntax.parse", op, parent):
            try:
                term, spans, program, sites = self.parse(source)
            except self._errors:
                return
        if self.lint:
            with rec.span("analysis.lint", op, parent):
                try:
                    found = self._run_lint(self._lint_context(
                        source=source, term=term, spans=spans, env=s.env,
                        delta=s.delta, engine=s.engine, strategy=s.strategy,
                        value_restriction=s.value_restriction, budget=s.budget,
                        program=program, def_sites=sites))
                except RecursionError:
                    found = ()
            self.warnings += len(found)
        with rec.span("core.infer", op, parent):
            try:
                self.engine.infer(term, s.env, delta=s.delta, strategy=s.strategy,
                                     value_restriction=s.value_restriction,
                                     spans=spans, budget=s.budget)
            except self._errors:
                pass


def serialise(rec: Recorder, op: int, parent: int | None, response) -> int:
    """``api.serialise``: ``to_dict`` plus the JSON bytes; returns the size."""
    with rec.span("api.serialise", op, parent):
        payload = response.to_dict()
        payload.pop("duration_ms", None)
        size = len(verdict_bytes(payload))
    return size


# -- the CLI op -----------------------------------------------------------------


def run_cli(files: list[str], cwd: Path = ROOT) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--json", *files],
        cwd=cwd, env=child_env(), capture_output=True, stdin=subprocess.DEVNULL,
    )
    return proc.returncode, proc.stdout


def _python(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                   check=True, stdin=subprocess.DEVNULL, capture_output=True)


def cli_op(rec: Recorder, op: int, files: list[str], sources: list[str],
           replay: Replay, sizes: list[int], cwd: Path = ROOT) -> tuple[int, bytes]:
    """``cli.op`` (one ``repro check --json`` child) with children
    ``cli.import`` (``-c "import repro.cli"``, itself parent of
    ``cli.interp``, ``-c pass``) and ``cli.check``, the in-process
    check and serialisation of the same files, whose ``service.check``
    spans get layer replays as children."""
    from repro.service import TypecheckService

    with rec.span("cli.op", op) as root:
        code, out = run_cli(files, cwd)
    with rec.span("cli.import", op, root) as imp:
        _python("import repro.cli")
    with rec.span("cli.interp", op, imp):
        _python("pass")
    service = TypecheckService(jobs=1)
    checked = []
    with rec.span("cli.check", op, root) as check:
        for source in sources:
            with rec.span("service.check", op, check) as sc:
                response = service.check(source)
            sizes.append(serialise(rec, op, check, response))
            checked.append((sc, source))
    for sc, source in checked:
        replay.run(rec, op, sc, source, service)
    service.close()
    return code, out


# -- the HTTP op ----------------------------------------------------------------


def request_body(source: str, lint: bool) -> bytes:
    """A single-program ``POST /check`` body (``lint`` picks the
    server's lint broker class)."""
    return json.dumps({"source": source, "lint": True} if lint else {"source": source}).encode()


def http_pass(rec: Recorder, server: ServerProc, requests, replays: dict[bool, Replay],
              *, full: bool, sizes: list[int], counters: dict, key_log: list | None = None):
    """Sequential keep-alive ``POST /check`` for each ``(program, lint,
    body)``: ``server.request`` spans whose children are the in-process
    ``service.check`` of the same source on a mirror service fed the
    same sequence (so hits and misses line up with the server's) and
    ``api.serialise``.  With ``full`` the miss path is replayed layer by
    layer under ``service.check``.  Yields ``(program, status, body)``."""
    from repro.service import SessionConfig, TypecheckService

    mirrors = {lint: TypecheckService(SessionConfig(lint=lint), jobs=1) for lint in (False, True)}
    client = Client(server)
    try:
        for program, lint, body in requests:
            op = rec.new_op()
            with rec.span("server.request", op) as root:
                status, raw = client.post(body)
            mirror = mirrors[lint]
            with rec.span("service.check", op, root) as sc:
                response = mirror.check(program.source)
            if full and not response.cached:
                replays[lint].run(rec, op, sc, program.source, mirror)
            elif full:
                with rec.span("service.cache_key", op, sc):
                    mirror.cache_key(program.source)
            sizes.append(serialise(rec, op, root, response))
            if key_log is not None:
                key_log.append((mirror.cache_key(program.source), response.result,
                                response.cached))
            yield program, status, raw
    finally:
        client.close()
        hits = sum(m.stats.hits for m in mirrors.values())
        total = sum(m.stats.requests for m in mirrors.values())
        counters["hit_ratio"] = hits / total if total else 0.0
        for mirror in mirrors.values():
            mirror.close()


def server_stats_delta(before: dict, after: dict) -> dict[str, float]:
    """Serving counters accumulated between two ``/stats`` snapshots."""
    def totals(doc: dict) -> dict[str, float]:
        out = {"requests": 0, "hits": 0, "coalesced": 0, "shed": 0}
        for entry in doc["classes"].values():
            for key in out:
                out[key] += entry[key]
        out["http_errors"] = doc["http_errors"]
        return out

    b, a = totals(before), totals(after)
    requests = a["requests"] - b["requests"]
    return {
        "server.hit_ratio": (a["hits"] - b["hits"]) / requests if requests else 0.0,
        "server.coalesced": a["coalesced"] - b["coalesced"],
        "server.shed": a["shed"] - b["shed"],
        "server.http_errors": a["http_errors"] - b["http_errors"],
    }


# -- the cache replay -------------------------------------------------------------


def cache_replay(rec: Recorder, key_log: list, path: Path) -> int:
    """Replay a run's hit/miss key sequence against a fresh
    ``PersistentCache``: a miss is a ``get`` then a ``put``, a hit a
    ``get``.  Returns the final entry count."""
    from repro.cache import PersistentCache

    with PersistentCache(path) as cache:
        for key, result, hit in key_log:
            op = rec.new_op()
            with rec.span("cache.get", op):
                cache.get(key)
            if not hit:
                with rec.span("cache.put", op):
                    cache.put(key, result)
        return len(cache)


# -- metrics from spans -------------------------------------------------------------


def _per_op(rows, name: str) -> list[float]:
    by_op: dict[int, float] = {}
    for span, op, _parent, self_ms in rows:
        if span == name:
            by_op[op] = by_op.get(op, 0.0) + self_ms
    return list(by_op.values())


def _inclusive(rec: Recorder, name: str) -> list[float]:
    return [(end - start) * 1000.0 for _sid, span, start, end, _p, _op in rec.spans
            if span == name]


def layer_metrics(path: Recorder, probe: Recorder, *, tokens: int, defs: int,
                  warnings: int, sizes: list[int], hit_ratio: float,
                  entries: int, server: dict[str, float], gen_late_ms: list[float],
                  traced_ms: list[float], untraced_ms: list[float]
                  ) -> dict[str, tuple[float, str, int]]:
    """Every per-layer metric: medians of per-op self times (from the
    blocking path where the layer is on it, else from the probes), work
    counts, and each layer's share of the blocking path."""
    path_rows, probe_rows = path.self_ms(), probe.self_ms()
    roots = [(end - start) * 1000.0 for _sid, _n, start, end, parent, _op in path.spans
             if parent is None]
    total_ms = sum(roots)

    def rows_for(name: str):
        return path_rows if any(r[0] == name for r in path_rows) else probe_rows

    def med(name: str) -> tuple[float, str, int]:
        values = _per_op(rows_for(name), name)
        return (median(values) if values else 0.0), "ms", len(values)

    def share(name: str) -> tuple[float, str, int]:
        own = sum(r[3] for r in path_rows if r[0] == name)
        return (own / total_ms if total_ms else 0.0), "frac", len(roots)

    def total(name: str) -> float:
        return sum(r[3] for r in rows_for(name) if r[0] == name)

    check_rec = path if _inclusive(path, "cli.check") else probe
    check_ms = _inclusive(check_rec, "cli.check")
    parse_s = total("syntax.parse") / 1000.0
    overhead = (median(traced_ms) / median(untraced_ms) - 1.0) if untraced_ms else 0.0
    m: dict[str, tuple[float, str, int]] = {
        "cli.interp_ms": med("cli.interp"),
        "cli.import_ms": med("cli.import"),
        "cli.check_ms": (median(check_ms) if check_ms else 0.0, "ms", len(check_ms)),
        "cli.self_ms": med("cli.op"),
        "syntax.parse_ms": med("syntax.parse"),
        "syntax.tokens": (tokens, "count", 1),
        "syntax.tokens_per_s": (tokens / parse_s if parse_s else 0.0, "1/s", 1),
        "syntax.share": share("syntax.parse"),
        "core.infer_ms": med("core.infer"),
        "core.us_per_def": (total("core.infer") * 1000.0 / defs if defs else 0.0, "us", defs),
        "core.share": share("core.infer"),
        "analysis.lint_ms": med("analysis.lint"),
        "analysis.warnings": (warnings, "count", 1),
        "analysis.share": share("analysis.lint"),
        "api.serialise_ms": med("api.serialise"),
        "api.verdict_bytes": (median(sizes) if sizes else 0.0, "bytes", len(sizes)),
        "service.self_ms": med("service.check"),
        "service.cache_key_ms": med("service.cache_key"),
        "service.hit_ratio": (hit_ratio, "frac", 1),
        "cache.put_ms": med("cache.put"),
        "cache.get_ms": med("cache.get"),
        "cache.entries": (entries, "count", 1),
        "server.overhead_ms": med("server.request"),
    }
    for key, value in server.items():
        m[key] = (value, "frac" if key.endswith("ratio") else "count", 1)
    m["harness.gen_late_p99_ms"] = (pct(gen_late_ms, 99) if gen_late_ms else 0.0, "ms",
                                    len(gen_late_ms))
    m["harness.trace_overhead_frac"] = (overhead, "frac", len(traced_ms))
    return m


def accounting(path: Recorder, untraced_ms: list[float]) -> str:
    """How the blocking path's layer self times add up against the
    untraced median op time."""
    rows = path.self_ms()
    roots = {op: 0.0 for _s, _n, _b, _e, parent, op in path.spans if parent is None}
    by_layer: dict[str, list[float]] = {}
    for name in PATH_LAYERS:
        values = _per_op(rows, name)
        if values:
            by_layer[name] = values
    for _name, op, _parent, self_ms in rows:
        if op in roots:
            roots[op] += self_ms
    accounted = median(list(roots.values())) if roots else 0.0
    p50 = median(untraced_ms) if untraced_ms else 0.0
    parts = ", ".join(f"{name} {median(v):.3f}" for name, v in by_layer.items())
    negative = sum(1 for r in rows if r[3] < -0.05)
    return (f"accounting: layer self times sum to {accounted:.3f} ms per op "
            f"(median) against untraced p50 {p50:.3f} ms "
            f"({(accounted / p50 - 1.0) if p50 else 0.0:+.3f}); medians [{parts}]; "
            f"{negative} spans with negative self time")


def write_trace(workload: str, seed: int, path: Recorder, probe: Recorder) -> Path:
    out = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.jsonl"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        for phase, rec in (("path", path), ("probe", probe)):
            for sid, name, start, end, parent, op in rec.spans:
                fh.write(json.dumps({"phase": phase, "id": sid, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "op": op}) + "\n")
    return out


def now() -> float:
    return time.perf_counter()
