"""``batch-large`` and ``lint-batch``: a closed loop of one in-process
caller, each op one ``TypecheckService(jobs=1).check`` on a distinct
generated program.  Every run checks the same fixed, seeded set of
programs in whole passes (a fresh service per pass, so every op is a
miss); it never checks "as many as fit in a time window".  The number
of passes follows from ``--seconds`` alone, never from a clock, so two
runs of one seed attempt (and fail) exactly the same ops."""

from __future__ import annotations

import resource
import subprocess
import sys

import gen
import layers
from harness import (
    ROOT, Recorder, Tally, child_env, median, pct, rusage_mb,
    scratch_dir, serving, settle, verdict_bytes,
)
from layers import now

WORKLOADS = {
    # name: (lint, programs, smallest, largest, nominal seconds per pass)
    "batch-large": (False, 192, 50, 500, 6.0),
    "lint-batch": (True, 64, 20, 300, 18.0),
}


def passes_for(name: str, seconds: float) -> int:
    """Whole passes that fill about ``seconds`` at the nominal pass time
    (measured on a 2-vCPU VM with Python 3.11; a faster checker simply
    finishes sooner)."""
    return max(1, round(seconds / WORKLOADS[name][4]))


_IMPORT_AND_BUILD = (
    "import time; t = time.perf_counter(); "
    "from repro.service import SessionConfig, TypecheckService; "
    "TypecheckService(SessionConfig(lint={lint}), jobs=1); "
    "print(time.perf_counter() - t)"
)


SETUP_REPS = 5


def setup(name: str, seed: int, reps: int = SETUP_REPS) -> tuple[list, float]:
    """Generate the program set and time import plus construction of the
    service in fresh interpreters; median of ``reps`` each."""
    lint, count, lo, hi, _pass_s = WORKLOADS[name]
    gen_s, build_s = [], []
    for _ in range(reps):
        t = now()
        programs = gen.program_set(seed, name, count, lo, hi)
        gen_s.append(now() - t)
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_AND_BUILD.format(lint=lint)],
            cwd=ROOT, env=child_env(), capture_output=True, check=True, text=True,
            stdin=subprocess.DEVNULL,
        ).stdout
        build_s.append(float(out))
    return programs, median(gen_s) + median(build_s)


def payload_of(response) -> dict:
    payload = response.result.to_dict()
    payload.pop("duration_ms", None)
    return payload


def run(name: str, seed: int, seconds: float, trace: bool):
    programs, setup_s = setup(name, seed)
    from repro.service import SessionConfig

    config = SessionConfig(lint=WORKLOADS[name][0])
    settle()
    if trace:
        return _traced(name, seed, programs, config)
    passes = passes_for(name, seconds)
    tally, latencies, good_defs, wall = _measure(programs, config, passes)
    n = len(latencies)
    print(f"{passes} passes over {len(programs)} programs "
          f"({sum(p.defs for p in programs)} definitions per pass) in {wall:.2f} s")
    return tally, {
        "setup_s": (setup_s, "s", SETUP_REPS),
        "p50_ms": (median(latencies), "ms", n),
        "p90_ms": (pct(latencies, 90), "ms", n),
        "p99_ms": (pct(latencies, 99), "ms", n),
        "defs_per_s": (good_defs / wall, "1/s", n),
        "max_rps": (n / wall, "1/s", n),
        "peak_rss_mb": (rusage_mb(resource.RUSAGE_SELF), "MB", 1),
    }


def _measure(programs, config, passes: int):
    """``passes`` whole passes over ``programs``."""
    from repro.service import TypecheckService

    tally, latencies, good_defs = Tally(), [], 0
    start = now()
    for done in range(passes):
        service = TypecheckService(config, jobs=1)
        for program in programs:
            t0 = now()
            response = service.check(program.source)
            latencies.append((now() - t0) * 1000.0)
            payload = payload_of(response)
            good = tally.verdict(program, payload,
                                 verdict_bytes(payload) if done == 0 else None)
            tally.op(good)
            good_defs += program.defs if good else 0
        service.close()
    return tally, latencies, good_defs, now() - start


def _traced(name: str, seed: int, programs, config):
    """Each program once untraced and once traced, back to back (a
    fresh service each time, so both are misses; the order alternates,
    because the second check of a program finds its types interned),
    the traced op's layers replayed as its children; then probes for
    the layers off this workload's path.  Drift in machine speed hits
    both twins alike; the harness gap between them is the lateness."""
    from repro.service import TypecheckService

    path, probe = Recorder(), Recorder()
    replay = layers.Replay(config.lint)
    tally, untraced, traced, gaps, sizes, key_log = Tally(), [], [], [], [], []
    tokens = defs = 0
    for i, program in enumerate(programs):
        op = path.new_op()
        ends = []
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            service = TypecheckService(config, jobs=1)
            t0 = now()
            if ends:
                gaps.append((t0 - ends[-1]) * 1000.0)
            if traced_turn:
                with path.span("service.check", op) as root:
                    response = service.check(program.source)
                traced_service = service
            else:
                service.check(program.source)
            ends.append(now())
            (traced if traced_turn else untraced).append((ends[-1] - t0) * 1000.0)
            if not traced_turn:
                service.close()
        service = traced_service
        replay.run(path, op, root, program.source, service)
        payload = payload_of(response)
        tally.op(tally.verdict(program, payload, verdict_bytes(payload)))
        sizes.append(layers.serialise(probe, probe.new_op(), None, response))
        key_log.append((service.cache_key(program.source), response.result, False))
        tokens += replay.tokens(program.source)
        defs += program.defs
        service.close()
    print(layers.accounting(path, untraced))
    extra = probes(programs, config.lint, probe, key_log,
                   lint_replay=None if config.lint else layers.Replay(True))
    warnings = replay.warnings if config.lint else extra.pop("warnings")
    metrics = layers.layer_metrics(
        path, probe, tokens=tokens, defs=defs, warnings=warnings, sizes=sizes,
        hit_ratio=0.0, gen_late_ms=gaps,
        traced_ms=traced, untraced_ms=untraced, **extra)
    print(f"trace written to {layers.write_trace(name, seed, path, probe)}")
    return tally, metrics


def probes(programs, lint: bool, probe: Recorder, key_log: list,
           lint_replay=None) -> dict:
    """Off-path layers on this workload's own programs: the CLI over a
    small sample, HTTP over a larger one, the SQLite cache over the
    run's key sequence, and (when the workload does not lint) lint over
    the smallest programs."""
    sample = sorted(programs, key=lambda p: p.defs)
    out: dict = {}
    with scratch_dir() as tmp:
        files = []
        for program in sample[:4]:
            path = tmp / f"{program.name}.fml"
            path.write_text(program.source)
            files.append(str(path))
        replay = layers.Replay(False)
        sizes: list[int] = []
        for _ in range(3):
            layers.cli_op(probe, probe.new_op(), files, [p.source for p in sample[:4]], replay,
                          sizes)
        out["entries"] = layers.cache_replay(probe, key_log, tmp / "replay.sqlite")
        with serving(tmp / "serve") as server:
            before = server.get("/stats")
            requests = [(p, lint, layers.request_body(p.source, lint)) for p in programs[:12]]
            for _ in layers.http_pass(probe, server, requests, {}, full=False, sizes=[],
                                      counters={}):
                pass
            out["server"] = layers.server_stats_delta(before, server.get("/stats"))
    if lint_replay is not None:
        for program in sample[:4]:
            lint_replay.run(probe, probe.new_op(), None, program.source)
        out["warnings"] = lint_replay.warnings
    return out
