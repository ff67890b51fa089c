"""``cli-files``: a closed loop of ``python -m repro check --json`` child
processes, one at a time, each over the four ``examples/*.fml`` files
plus a few small seeded generated programs.  Interpreter start-up and
import dominate, so this is where lazy imports and CLI work show.

Not listed in ``BENCHMARK.json``: about 70 invocations per 20 s make its
p99 nearly the maximum, which one descheduled child decides (see
``README.md``)."""

from __future__ import annotations

import json
import resource
import shutil

import gen
import layers
from harness import (
    ROOT, Recorder, Tally, median, pct, rusage_mb, scratch_dir, serving,
    settle, verdict_bytes,
)
from layers import now

#: The examples' known verdicts: A10 and D3 of Figure 1, and the Int
#: the two program-format examples build by construction.
EXAMPLES = {
    "ids_program.fml": "Int",
    "lint_demo.fml": "Int",
    "poly_id.fml": "Int * Bool",
    "st.fml": "Int",
}
GENERATED = 4
TRACED_OPS = 8


def setup(seed: int, workdir, reps: int = 3) -> tuple[list, float]:
    """Lay out every input file in ``workdir`` and warm up with one
    untimed invocation, which fills the OS file cache the later ops read
    (median of ``reps``).  Files are named, not pathed, so the verdict
    bytes do not depend on where the run happens."""
    times = []
    for _ in range(reps):
        t = now()
        programs = []
        for name, expected in EXAMPLES.items():
            source = (ROOT / "examples" / name).read_text()
            shutil.copyfile(ROOT / "examples" / name, workdir / name)
            defs = sum(1 for line in source.splitlines() if line.startswith("def "))
            programs.append(gen.Program(name, source, defs, expected))
        for program in gen.program_set(seed, "cli", GENERATED, 4, 12):
            (workdir / f"{program.name}.fml").write_text(program.source)
            programs.append(gen.Program(f"{program.name}.fml", program.source,
                                       program.defs, program.main_type,
                                       program.defect_line))
        layers.run_cli([p.name for p in programs], cwd=workdir)
        times.append(now() - t)
    return programs, median(times)


def judge_op(tally: Tally, programs, code: int, out: bytes, digest: bool) -> tuple[bool, int]:
    """Check one invocation: exit code and every program's verdict.
    Returns (op ok, definitions in correctly verdicted programs)."""
    expected_code = 0 if all(p.ok for p in programs) else 1
    try:
        entries = {e["file"]: e for e in json.loads(out)["programs"]}
    except (ValueError, KeyError):
        tally.op(False, f"exit {code}, unreadable output")
        return False, 0
    good, defs = code == expected_code, 0
    for program in programs:
        entry = entries.get(program.name)
        if entry is None:
            good = False
            continue
        fine = tally.verdict(program, entry, verdict_bytes(entry) if digest else None)
        good &= fine
        defs += program.defs if fine else 0
    tally.op(good, None if code == expected_code else f"exit {code}, expected {expected_code}")
    return good, defs


def run(name: str, seed: int, seconds: float, trace: bool):
    with scratch_dir() as workdir:
        programs, setup_s = setup(seed, workdir)
        files = [p.name for p in programs]
        settle()
        if trace:
            return _traced(name, seed, programs, files, workdir)
        tally, latencies, good_defs, wall = _measure(programs, files, workdir, seconds)
    n = len(latencies)
    return tally, {
        "setup_s": (setup_s, "s", 3),
        "p50_ms": (median(latencies), "ms", n),
        "p90_ms": (pct(latencies, 90), "ms", n),
        "p99_ms": (pct(latencies, 99), "ms", n),
        "defs_per_s": (good_defs / wall, "1/s", n),
        "max_rps": (n / wall, "1/s", n),
        "peak_rss_mb": (rusage_mb(resource.RUSAGE_CHILDREN), "MB", n),
    }


def _measure(programs, files, workdir, seconds: float):
    """Invocations while the next one should end within ``seconds``."""
    tally, latencies, good_defs = Tally(), [], 0
    start = now()
    while not latencies or (now() - start) * (len(latencies) + 1) / len(latencies) <= seconds:
        t0 = now()
        code, out = layers.run_cli(files, cwd=workdir)
        latencies.append((now() - t0) * 1000.0)
        good_defs += judge_op(tally, programs, code, out, digest=len(latencies) == 1)[1]
    return tally, latencies, good_defs, now() - start


def _traced(name: str, seed: int, programs, files, workdir):
    """``TRACED_OPS`` invocations, each untraced and then traced back to
    back (the harness gap between them is the lateness), with layer
    replays; then probes for the layers off this workload's path."""
    path, probe = Recorder(), Recorder()
    replay = layers.Replay(False)
    tally, sizes, traced, untraced, gaps = Tally(), [], [], [], []
    sources = [p.source for p in programs]
    for _ in range(TRACED_OPS):
        op = path.new_op()
        t0 = now()
        layers.run_cli(files, cwd=workdir)
        t1 = now()
        untraced.append((t1 - t0) * 1000.0)
        code, out = layers.cli_op(path, op, files, sources, replay, sizes, cwd=workdir)
        start, end = next((s, e) for _i, n, s, e, _p, o in path.spans
                          if n == "cli.op" and o == op)
        traced.append((end - start) * 1000.0)
        gaps.append((start - t1) * 1000.0)
        judge_op(tally, programs, code, out, digest=op == 0)
    print(layers.accounting(path, untraced))

    from repro.service import TypecheckService

    key_log = []
    with TypecheckService(jobs=1) as service:
        for program in programs:
            response = service.check(program.source)
            key_log.append((service.cache_key(program.source), response.result, False))
    entries = layers.cache_replay(probe, key_log, workdir / "replay.sqlite")
    with serving(workdir / "serve") as server:
        before = server.get("/stats")
        requests = [(p, False, layers.request_body(p.source, False)) for p in programs]
        for _ in layers.http_pass(probe, server, requests, {}, full=False, sizes=[],
                                  counters={}):
            pass
        server_delta = layers.server_stats_delta(before, server.get("/stats"))
    lint_replay = layers.Replay(True)
    for program in programs:
        lint_replay.run(probe, probe.new_op(), None, program.source)
    metrics = layers.layer_metrics(
        path, probe, tokens=sum(replay.tokens(s) for s in sources) * TRACED_OPS,
        defs=sum(p.defs for p in programs) * TRACED_OPS, warnings=lint_replay.warnings,
        sizes=sizes, hit_ratio=0.0, entries=entries, server=server_delta,
        gen_late_ms=gaps, traced_ms=traced, untraced_ms=untraced)
    print(f"trace written to {layers.write_trace(name, seed, path, probe)}")
    return tally, metrics
