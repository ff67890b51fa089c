"""Shared benchmark plumbing: paths, statistics, verdict checking, the
span recorder, subprocess environments and the ``repro serve`` process.

Everything the benchmark reads or writes stays inside the checkout it
runs from: scratch files go under ``.perfbench/`` at the repository
root and are removed when the run ends; traces are written there too.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import http.client
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no sources, a server that
    will not start, ...).  The run exits non-zero without a result."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Knobs that would change what is measured (fault plans, interning,
    # cache locations) come from the environment; the benchmark runs the
    # program with its defaults.
    for name in list(os.environ):
        if name.startswith("REPRO_") or name == "XDG_CACHE_HOME":
            del os.environ[name]


@contextlib.contextmanager
def scratch_dir():
    """A fresh directory under ``.perfbench/``, removed afterwards."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def settle() -> None:
    """End of set-up: move everything the harness holds (inputs, the
    imported program) out of the collector's view, so garbage
    collection during the measurement scans only what ops allocate."""
    gc.collect()
    gc.freeze()


def child_env(home: Path | None = None) -> dict[str, str]:
    """Environment for a ``python -m repro`` child: the checkout's
    sources on the path, and (for the server) a private ``HOME`` so no
    run reads a verdict cache it did not write."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    if home is not None:
        env["HOME"] = str(home)
    return env


def rusage_mb(who: int) -> float:
    """Peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# -- statistics ----------------------------------------------------------------


def pct(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return statistics.median(values)


# -- verdicts ------------------------------------------------------------------

OK, DEGRADED, WRONG = "ok", "degraded", "wrong"


def judge(program, payload: dict) -> str:
    """Compare one verdict (a ``Result.to_dict`` payload) with the
    program's known answer.  A resilience code (``FML9xx``) is a
    degraded verdict; anything else that differs from the construction
    is wrong."""
    diagnostics = payload.get("diagnostics") or []
    if any(d.get("code", "").startswith("FML9") for d in diagnostics):
        return DEGRADED
    if program.ok:
        return OK if payload.get("ok") and payload.get("type") == program.main_type else WRONG
    if payload.get("ok") or not diagnostics:
        return WRONG
    first = diagnostics[0]
    span = first.get("span") or {}
    located = span.get("line", 0) <= program.defect_line <= span.get("end_line", 0)
    return OK if first.get("code", "").startswith("FML1") and located else WRONG


@dataclass
class Tally:
    """Failure accounting and the response digest of one run.

    Every attempted op is counted; a failed op is a wrong or degraded
    verdict, a non-200 response or an unexpected exit code.  Wrong
    verdicts are listed by program.  The digest covers the response
    bytes of every distinct program (sorted by name), so it is the
    same across runs and between traced and untraced runs."""

    attempted: int = 0
    failed: int = 0
    degraded: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    bodies: dict[str, str] = field(default_factory=dict)

    def verdict(self, program, payload: dict, body: bytes | str | None = None) -> bool:
        status = judge(program, payload)
        if body is not None:
            raw = body.encode() if isinstance(body, str) else body
            self.bodies.setdefault(program.name, hashlib.sha256(raw).hexdigest())
        if status == DEGRADED:
            self.degraded += 1
        elif status == WRONG and program.name not in self.wrong:
            self.wrong.append(program.name)
        return status == OK

    def op(self, good: bool, error: str | None = None) -> None:
        self.attempted += 1
        if not good:
            self.failed += 1
        if error is not None and len(self.errors) < 20:
            self.errors.append(error)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.bodies):
            h.update(f"{name}\0{self.bodies[name]}\n".encode())
        return h.hexdigest()[:16]

    def report(self) -> None:
        frac = self.failed / self.attempted if self.attempted else 0.0
        print(f"failed_frac = {frac:.4f} frac ({self.failed}/{self.attempted} ops; "
              f"{self.degraded} degraded verdicts, {len(self.wrong)} wrong programs)")
        for name in self.wrong:
            print(f"WRONG VERDICT: {name}")
        for error in self.errors:
            print(f"op error: {error}")
        print(f"response digest = {self.digest()} over {len(self.bodies)} programs")


def verdict_bytes(payload: dict) -> bytes:
    """The exact bytes ``repro check --json`` and ``POST /check`` emit."""
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


# -- output --------------------------------------------------------------------


def emit(tally: Tally, metrics: dict[str, tuple[float, str, int]]) -> None:
    """Print every metric by name with its unit and sample count, then
    the one-line JSON result (always the last line of stdout)."""
    for name, (value, unit, n) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (n={n})")
    tally.report()
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }), flush=True)


# -- spans ---------------------------------------------------------------------


class Recorder:
    """In-memory span recorder.  A span is ``(id, name, start, end,
    parent, op)``; spans are written once, at the end of the run.

    In the traced run the parent span is an op through its public entry
    point and its children re-run the same input layer by layer, so a
    span's self time is its duration minus its children's durations."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.ops = 0

    def new_op(self) -> int:
        """A fresh op id: every op in one recorder has its own."""
        self.ops += 1
        return self.ops - 1

    @contextlib.contextmanager
    def span(self, name: str, op: int, parent: int | None = None):
        sid = len(self.spans)
        self.spans.append((sid, name, 0.0, 0.0, parent, op))
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent, op)

    def self_ms(self) -> list[tuple[str, int, int | None, float]]:
        """``(name, op, parent, self_ms)`` for every span."""
        children = [0.0] * len(self.spans)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                children[parent] += end - start
        return [
            (name, op, parent, (end - start - children[sid]) * 1000.0)
            for sid, name, start, end, parent, op in self.spans
        ]


# -- the server process ----------------------------------------------------------

_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


class ServerProc:
    """``python -m repro serve`` with default flags, on a free port, with
    a fresh ``--cache`` file and ``HOME`` inside ``workdir``.  Ready when
    ``/healthz`` answers; stopped with SIGTERM, which must exit 0."""

    def __init__(self, workdir: Path, *, timeout: float = 30.0) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.log = workdir / "serve.log"
        self.started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port=0",
                 f"--cache={workdir / 'verdicts.sqlite'}"],
                cwd=ROOT, env=child_env(home=workdir),
                stdout=log, stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
            )
        try:
            self.host, self.port = self._wait_ready(timeout)
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.started

    def _wait_ready(self, timeout: float) -> tuple[str, int]:
        deadline = time.perf_counter() + timeout
        address = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise SetupError(f"repro serve exited {self.proc.returncode}: "
                                 f"{self.log.read_text(errors='replace')[-500:]}")
            if address is None:
                match = _LISTENING.search(self.log.read_text(errors="replace"))
                if match:
                    address = match.group(1), int(match.group(2))
            if address is not None:
                try:
                    conn = http.client.HTTPConnection(*address, timeout=2)
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        conn.close()
                        return address
                    conn.close()
                except OSError:
                    pass
            time.sleep(0.002)
        raise SetupError("repro serve did not answer /healthz in time")

    def get(self, path: str) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", path)
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def rss_mb(self) -> float:
        """Peak resident memory of the server (``VmHWM``)."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise SetupError("no VmHWM for the server process")

    def stop(self) -> None:
        """SIGTERM (drain-clean shutdown); exit code 0 is required."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.kill()
                raise SetupError("repro serve ignored SIGTERM")
        if self.proc.returncode != 0:
            raise SetupError(f"repro serve exited {self.proc.returncode} on SIGTERM")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


@contextlib.contextmanager
def serving(workdir: Path):
    """A :class:`ServerProc` for the ``with`` block: stopped cleanly
    (SIGTERM, exit 0 required) after it, killed if the block raises."""
    server = ServerProc(workdir)
    try:
        yield server
    except BaseException:
        server.kill()
        raise
    server.stop()


class Client:
    """One keep-alive HTTP connection for sequential requests."""

    def __init__(self, server: ServerProc) -> None:
        self.conn = http.client.HTTPConnection(server.host, server.port, timeout=60)

    def post(self, body: bytes) -> tuple[int, bytes]:
        self.conn.request("POST", "/check", body=body,
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()
