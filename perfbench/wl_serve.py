"""``serve-mix``: an open loop from one process over at most ``nproc``
keep-alive connections against a ``python -m repro serve`` child.

The seeded mix is 50% repeated Figure 1 rows (memory-cache hits), 35%
fresh small generated programs (misses written through to SQLite) and
15% fresh programs with ``"lint": true`` (the second broker class).
Each request is timed from its due time.  Latency percentiles come from
a fixed light rate of 100 req/s; ``max_rps`` from a search over
fractions of the measured saturation throughput (see ``_rate_search``).

Not listed in ``BENCHMARK.json``: on a contended 2-vCPU host its tail
metrics are not steady enough to gate on (see ``README.md``)."""

from __future__ import annotations

import asyncio
import gc
import json
import math
import os
import random

import gen
import layers
from harness import (
    Recorder, ServerProc, Tally, median, pct, scratch_dir, serving, settle,
)
from layers import now

LIGHT_RPS = 100.0
P99_LIMIT_MS = 50.0
#: Rate search, as fractions of the measured saturation throughput.
BURST, START, STEP, MIN_FRAC, MAX_FRAC = 600, 0.8, 0.1, 0.4, 1.2
CONNECTIONS = max(1, min(os.cpu_count() or 1, 4))
SPAWNS = 3


class Traffic:
    """The seeded request stream ``(program, lint, body)``, made in
    blocks of 100 with exact proportions (50 hits, 35 misses, 15 lint)
    shuffled per block.  ``take`` generates more blocks on demand, which
    only ever happens between measured phases."""

    def __init__(self, seed: int) -> None:
        self.seed, self.blocks, self.buffer = seed, 0, []
        self.rng = random.Random(f"serve-mix:{seed}")

    def prepare(self, count: int) -> None:
        while len(self.buffer) < count:
            self._block()

    def take(self, count: int) -> list[tuple]:
        self.prepare(count)
        out, self.buffer = self.buffer[:count], self.buffer[count:]
        return out

    def _block(self) -> None:
        seed, block, rng = self.seed, self.blocks, self.rng
        self.blocks += 1
        misses = gen.program_set(seed, f"serve{block}", 35, 4, 12)
        linted = gen.program_set(seed, f"serve-lint{block}", 15, 4, 12)
        kinds = ["hit"] * 50 + ["miss"] * 35 + ["lint"] * 15
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "hit":
                program, lint = gen.figure1_program(rng.randrange(len(gen.FIGURE1))), False
            elif kind == "miss":
                program, lint = misses.pop(), False
            else:
                program, lint = linted.pop(), True
            self.buffer.append((program, lint, layers.request_body(program.source, lint)))


# -- the open-loop client ---------------------------------------------------------


async def _read_response(reader: asyncio.StreamReader) -> tuple[int, bytes]:
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        key, _, value = line.partition(b":")
        if key.strip().lower() == b"content-length":
            length = int(value)
    return status, await reader.readexactly(length)


async def _open_loop(host: str, port: int, requests, rate: float | None):
    """Send ``requests`` at ``rate`` per second on a fixed schedule
    (``None``: all due at once, so each connection runs closed-loop).
    Returns ``(due, issued, done, status, body)`` per request (loop
    clock seconds)."""
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    results: list = [None] * len(requests)
    conns = [await asyncio.open_connection(host, port) for _ in range(CONNECTIONS)]
    t0 = loop.time() + 0.01

    async def feed() -> None:
        for i in range(len(requests)):
            due = t0 + i / rate if rate else t0
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            queue.put_nowait((i, due, loop.time()))
        for _ in conns:
            queue.put_nowait(None)

    async def work(reader, writer) -> None:
        while (item := await queue.get()) is not None:
            i, due, issued = item
            body = requests[i][2]
            writer.write(b"POST /check HTTP/1.1\r\nHost: bench\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n" + body)
            await writer.drain()
            status, raw = await _read_response(reader)
            results[i] = (due, issued, loop.time(), status, raw)
        writer.close()
        await writer.wait_closed()

    await asyncio.gather(feed(), *(work(r, w) for r, w in conns))
    return results


def send(server: ServerProc, requests, rate: float | None):
    """Run the open loop with the client's garbage collector off, so its
    pauses never show up as server latency (collected afterwards)."""
    gc.disable()
    try:
        return asyncio.run(_open_loop(server.host, server.port, requests, rate))
    finally:
        gc.enable()
        gc.collect()


def account(tally: Tally, requests, results, digest: bool) -> tuple[list[float], int]:
    """Judge every response; returns latencies from due time (ms) and
    the definitions in correctly verdicted programs."""
    latencies, defs = [], 0
    for (program, _lint, _body), (due, _issued, done, status, raw) in zip(requests, results):
        latencies.append((done - due) * 1000.0)
        if status != 200:
            tally.op(False, f"HTTP {status} for {program.name}")
            continue
        good = tally.verdict(program, json.loads(raw), raw if digest else None)
        tally.op(good)
        defs += program.defs if good else 0
    return latencies, defs


def step_passes(latencies: list[float], failures: int) -> bool:
    """Within the latency limit, with no growing backlog: p99 at most
    50 ms, no failed op, and the last quarter of the step no slower
    than twice the first quarter (plus 5 ms)."""
    quarter = max(1, len(latencies) // 4)
    first, last = median(latencies[:quarter]), median(latencies[-quarter:])
    return (failures == 0 and pct(latencies, 99) <= P99_LIMIT_MS
            and last <= 2.0 * first + 5.0)


# -- the workload -------------------------------------------------------------------


def run(name: str, seed: int, seconds: float, trace: bool):
    light_s = seconds / 2.0
    with scratch_dir() as tmp:
        t = now()
        traffic = Traffic(seed)
        light = traffic.take(int(LIGHT_RPS * light_s))
        traffic.prepare(BURST + int(LIGHT_RPS * seconds * 2.5))  # for the rate search
        gen_s = now() - t
        if trace:
            settle()
            return _traced(name, seed, light, traffic, tmp)
        spawns = []
        for k in range(SPAWNS - 1):
            with serving(tmp / f"serve{k}") as server:
                spawns.append(server.ready_s)
        with serving(tmp / "serve") as server:
            spawns.append(server.ready_s)
            settle()
            tally = Tally()
            results = send(server, light, LIGHT_RPS)
            latencies, _ = account(tally, light, results, digest=True)
            late = [(issued - due) * 1000.0 for due, issued, *_ in results]
            max_rps, defs_per_s, steps = _rate_search(server, traffic, max(0.5, seconds / 10.0),
                                                      tally)
            rss = server.rss_mb()
    n = len(latencies)
    print(f"light phase: {n} requests at {LIGHT_RPS:g} req/s, generator late p99 "
          f"{pct(late, 99):.3f} ms; rate search: {steps}")
    return tally, {
        "setup_s": (gen_s + median(spawns), "s", SPAWNS),
        "p50_ms": (median(latencies), "ms", n),
        "p90_ms": (pct(latencies, 90), "ms", n),
        "p99_ms": (pct(latencies, 99), "ms", n),
        "defs_per_s": (defs_per_s, "1/s", BURST),
        "max_rps": (max_rps, "1/s", len(steps) - 1),
        "peak_rss_mb": (rss, "MB", 1),
    }


def _rate_search(server: ServerProc, traffic: Traffic, step_s: float, tally: Tally):
    """Find the highest offered rate that meets the latency limit.

    A closed-loop burst of ``BURST`` requests measures the server's
    saturation throughput ``C`` (and the definitions it checks per
    second there).  Open-loop steps of ``step_s`` seconds then walk
    ``STEP`` fractions of ``C`` up (or down) from ``START`` to the first
    change of verdict, bisect that bracket once, and interpolate
    ``log p99`` against rate inside it (if even ``MIN_FRAC`` fails, the
    answer is that rate scaled down by the p99 overshoot).  Returns
    ``(max_rps, defs_per_s, log)``; the log starts with ``(C, None,
    "saturation")`` followed by ``(rate, p99, passed)`` per step."""
    steps: list[tuple] = []

    burst = traffic.take(BURST)
    results = send(server, burst, None)
    _latencies, defs = account(tally, burst, results, digest=False)
    elapsed = max(r[2] for r in results) - min(r[1] for r in results)
    capacity, defs_per_s = BURST / elapsed, defs / elapsed
    steps.append((round(capacity, 1), None, "saturation"))

    def step(rate: float) -> tuple[float, bool]:
        requests = traffic.take(int(rate * step_s))
        before = tally.failed
        results = send(server, requests, rate)
        latencies, _defs = account(tally, requests, results, digest=False)
        p99 = pct(latencies, 99)
        passed = step_passes(latencies, tally.failed - before)
        steps.append((round(rate, 1), round(p99, 2), passed))
        return p99, passed

    frac = START
    p99, passed = step(frac * capacity)
    lo = hi = None
    while True:
        if passed:
            lo = (frac, p99)
        else:
            hi = (frac, p99)
        if lo and hi or not MIN_FRAC <= frac + (STEP if passed else -STEP) <= MAX_FRAC:
            break
        frac += STEP if passed else -STEP
        p99, passed = step(frac * capacity)
    if lo and hi:
        mid = (lo[0] + hi[0]) / 2.0
        p99, passed = step(mid * capacity)
        if passed:
            lo = (mid, p99)
        else:
            hi = (mid, p99)
    if lo is None:  # nothing passed down to MIN_FRAC
        return MIN_FRAC * capacity * (P99_LIMIT_MS / hi[1]), defs_per_s, steps
    if hi is None or hi[1] <= P99_LIMIT_MS:  # passed up to MAX_FRAC (or failed on backlog)
        return lo[0] * capacity, defs_per_s, steps
    # Interpolate log(p99) against rate inside the final bracket.
    t = (math.log(P99_LIMIT_MS) - math.log(lo[1])) / (math.log(hi[1]) - math.log(lo[1]))
    return (lo[0] + (hi[0] - lo[0]) * min(1.0, max(0.0, t))) * capacity, defs_per_s, steps


def _traced(name: str, seed: int, light, traffic: Traffic, tmp):
    """Pass A replays the light phase untraced (open loop, fresh
    server): untraced latencies, generator lateness and the server's
    counters.  Pass B sends the same requests one at a time to another
    fresh server, each ``server.request`` span followed by its layer
    replays.  Then the SQLite cache replay and CLI probes."""
    with serving(tmp / "serveA") as server:
        before = server.get("/stats")
        results = send(server, light, LIGHT_RPS)
        server_delta = layers.server_stats_delta(before, server.get("/stats"))
    untraced, _ = account(Tally(), light, results, digest=False)
    late = [(issued - due) * 1000.0 for due, issued, *_ in results]

    path, probe = Recorder(), Recorder()
    replays = {False: layers.Replay(False), True: layers.Replay(True)}
    tally, sizes, key_log, counters = Tally(), [], [], {}
    with serving(tmp / "serveB") as server:
        for program, status, raw in layers.http_pass(path, server, light, replays, full=True,
                                                     sizes=sizes, counters=counters,
                                                     key_log=key_log):
            if status != 200:
                tally.op(False, f"HTTP {status} for {program.name}")
            else:
                tally.op(tally.verdict(program, json.loads(raw), raw))
    traced = [(e - s) * 1000.0 for _i, n, s, e, parent, _o in path.spans
              if n == "server.request"]
    print(layers.accounting(path, untraced))
    entries = layers.cache_replay(probe, key_log, tmp / "replay.sqlite")
    fresh = [p for p, lint, _b in traffic.buffer if p.defs and not lint][:4]
    files = []
    for program in fresh:
        (tmp / f"{program.name}.fml").write_text(program.source)
        files.append(f"{program.name}.fml")
    for _ in range(3):
        layers.cli_op(probe, probe.new_op(), files, [p.source for p in fresh], replays[False],
                      [], cwd=tmp)
    tokens = sum(replays[lint].tokens(p.source) for p, lint, _b in light)
    metrics = layers.layer_metrics(
        path, probe, tokens=tokens, defs=sum(p.defs for p, _l, _b in light),
        warnings=replays[True].warnings, sizes=sizes, hit_ratio=counters["hit_ratio"],
        entries=entries, server=server_delta, gen_late_ms=late, traced_ms=traced,
        untraced_ms=untraced)
    print(f"trace written to {layers.write_trace(name, seed, path, probe)}")
    return tally, metrics
