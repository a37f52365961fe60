"""End-to-end benchmark of the ``python -m repro`` CLI.

Usage (from the repository root)::

    python3 perfbench/run.py --workload reproduce_cold --seed 1 --seconds 30 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``reproduce_cold`` -- one cold ``repro run`` per scenario kind into a
  fresh cache: unit compute, cache writes and progress publishing.
* ``control_plane_warm`` -- a closed loop with one client cycling the
  control-plane verbs and warm ``run`` calls against a cache filled in
  set-up: interpreter start, cache reads and reduce.
* ``live_ward`` -- one ``repro live --drain --serve 0 --log-events`` ward
  with two SSE subscribers reading ``/events`` to the end of the stream:
  engine dispatch, alarms, event log and hub.

Timed launches are interleaved with runs of ``perfbench/refprog.py``, a
fixed program that never imports ``repro``; walls are reported in
``ref`` units (launch wall / mean wall of the reference runs just before
and after it) so host-speed drift largely cancels.  Children run with BLAS/OpenMP pinned to one
thread.  ``--trace 1`` runs the workload once plain and once under
``perfbench/traced.py`` and reports the per-layer split instead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed operation is a non-zero exit, a
result payload that differs from its pin (``perfbench/pins.json``) or
from its repetitions, a warm run that computed anything, or an SSE
stream that ended without the final frame.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
PINS_PATH = BENCH / "pins.json"
PY = sys.executable

WORKLOADS = ("reproduce_cold", "control_plane_warm", "live_ward")

#: The program seed is the benchmark seed modulo this; pins.json holds
#: a digest for every program seed at full size.
PROGRAM_SEEDS = 16

#: Wall budget of one child process (the whole run must end in 180 s).
CHILD_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
}

KINDS = ("attack", "passive_ber", "mimo", "physio", "fleet")


@dataclass(frozen=True)
class Sizes:
    """Every size the workloads use; ``FULL`` is the benchmark's."""

    #: (kind, scenario, overrides): cold runs sized so unit compute is
    #: about two thirds of each invocation on a 2-core host.
    cold: tuple
    #: (scenario, overrides) the control-plane cache holds.
    warm: tuple
    #: ``repro live`` arguments of one ward.
    ward: tuple
    #: ``repro live`` arguments of the live workload's set-up launch.
    ward_setup: tuple
    #: Nominal seconds of one cold pass / control call / live ward on a
    #: 2-core host: ``--seconds`` divided by these sets the work count.
    cold_pass_s: float
    call_s: float
    ward_s: float
    #: Fewest control-plane calls per run: the median needs ten beyond it.
    min_calls: int
    #: Set-up repetitions per run (``setup_s`` is their median).
    setups: int


FULL = Sizes(
    cold=(
        ("attack", "attack-success-shielded", ("--trials", "1000")),
        ("passive_ber", "passive-ber-by-location", ("--trials", "300")),
        ("mimo", "mimo-eavesdropper", ("--trials", "800")),
        ("physio", "physio-leakage-shielded", ("--trials", "80")),
        ("fleet", "fleet-privacy-leakage", ("--patients", "300")),
    ),
    warm=(
        ("fleet-attack-prevalence", ("--patients", "1000", "--chunk-size", "5")),
        ("attack-success-shielded", ("--trials", "20")),
        ("passive-ber-by-location", ("--trials", "20")),
        ("mimo-eavesdropper", ("--trials", "20")),
        ("physio-leakage-shielded", ("--trials", "10")),
        ("fleet-privacy-leakage", ("--patients", "20")),
    ),
    ward=("--patients", "800", "--duration", "300", "--bursts", "20"),
    ward_setup=("--patients", "20", "--duration", "10"),
    cold_pass_s=30.0,
    call_s=1.5,
    ward_s=10.0,
    min_calls=20,
    setups=2,
)

TINY = Sizes(
    cold=(
        ("attack", "attack-success-shielded", ("--trials", "4", "--locations", "1,8")),
        ("passive_ber", "passive-ber-by-location", ("--trials", "4", "--locations", "1,8")),
        ("mimo", "mimo-eavesdropper", ("--trials", "4")),
        ("physio", "physio-leakage-shielded", ("--trials", "4")),
        ("fleet", "fleet-privacy-leakage", ("--patients", "10")),
    ),
    warm=(
        ("fleet-attack-prevalence", ("--patients", "40", "--chunk-size", "10")),
        ("attack-success-shielded", ("--trials", "4", "--locations", "1,8")),
        ("passive-ber-by-location", ("--trials", "4", "--locations", "1,8")),
        ("mimo-eavesdropper", ("--trials", "4")),
        ("physio-leakage-shielded", ("--trials", "4")),
        ("fleet-privacy-leakage", ("--patients", "10")),
    ),
    # Long enough (about 2 s of drain) that both subscribers connect
    # before the engine ends, even on a loaded host.
    ward=("--patients", "600", "--duration", "240", "--bursts", "4"),
    ward_setup=("--patients", "5", "--duration", "5"),
    cold_pass_s=1e9,
    call_s=1e9,
    ward_s=1e9,
    min_calls=1,
    setups=1,
)


class BenchError(RuntimeError):
    """The harness itself cannot measure (not a failed program operation)."""


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def load_pins() -> dict:
    try:
        return json.loads(PINS_PATH.read_text())
    except FileNotFoundError:
        return {}


@dataclass
class Proc:
    wall: float
    rc: int
    rss_mb: float
    out: str
    err: str


@dataclass
class Harness:
    """Launches children, keeps the reference walls and the op tally."""

    work: Path
    pins: dict
    env: dict = field(init=False)
    refs: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    span_files: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    _ids: itertools.count = field(default_factory=itertools.count)

    def __post_init__(self) -> None:
        (self.work / "tmp").mkdir(parents=True, exist_ok=True)
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env.update(
            PYTHONPATH=str(SRC),
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            TMPDIR=str(self.work / "tmp"),
        )
        self.env = env

    def path(self, stem: str) -> Path:
        return self.work / f"{stem}{next(self._ids)}"

    def launch(self, args: list) -> Proc:
        out_path, err_path = self.path("out"), self.path("err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [PY, *args], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            status, rss_mb = wait_child(proc)
            wall = time.perf_counter() - start
        return Proc(
            wall, status, rss_mb,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
        )

    def repro_argv(self, args: list, traced: bool) -> list:
        """Interpreter arguments of ``python -m repro ARGS`` (or traced)."""
        if not traced:
            return ["-m", "repro", *args]
        spans = self.path("spans").with_suffix(".npz")
        self.span_files.append(spans)
        return [str(BENCH / "traced.py"), str(spans), *args]

    def repro(self, args: list, traced: bool = False) -> Proc:
        """One program launch, its peak RSS kept."""
        proc = self.launch(self.repro_argv(args, traced))
        self.peak_rss_mb = max(self.peak_rss_mb, proc.rss_mb)
        return proc

    def ref(self) -> None:
        proc = self.launch([str(BENCH / "refprog.py")])
        if proc.rc != 0:
            raise BenchError(f"reference program failed: {proc.err[-500:]}")
        self.refs.append(proc.wall)

    def ref_median(self) -> float:
        return statistics.median(self.refs)

    def ref_around(self, mark: int) -> float:
        """Mean wall of the reference runs just before and after the
        launch made when ``mark`` reference runs had been recorded."""
        near = self.refs[max(mark - 1, 0):mark + 1]
        return sum(near) / len(near)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check_repro(self, proc: Proc, what: str) -> bool:
        if proc.rc != 0:
            tail = proc.err.strip().splitlines()[-1:] or [""]
            return self.op(False, f"{what}: exit {proc.rc}: {tail[0]}")
        return True

    def check_digest(self, key: str, value: str, what: str) -> bool:
        """Pinned digest if there is one, else equal to earlier repetitions."""
        expected = self.pins.get(key) or self.digests.get(key)
        self.digests.setdefault(key, value)
        if expected is not None and expected != value:
            return self.op(False, f"{what}: digest {value[:12]} != {expected[:12]}")
        return True


def wait_child(proc: subprocess.Popen):
    """Reap ``proc`` with its own rusage; kill it past the time budget."""
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# reproduce_cold
# ----------------------------------------------------------------------


def cold_pass(h: Harness, sizes: Sizes, seed: int, traced: bool) -> list:
    """Cold-run each kind once into a fresh cache; ref-bracketed."""
    rows = []
    h.ref()
    for kind, scenario, overrides in sizes.cold:
        args = [*overrides, "--seed", str(seed)]
        cache = h.path("cold-cache")
        mark = len(h.refs)
        proc = h.repro(
            ["run", scenario, *args, "--cache-dir", str(cache), "--format", "json"],
            traced,
        )
        what = f"cold {scenario}"
        if h.check_repro(proc, what):
            payload = json.loads(proc.out)
            units = payload["units"]["computed"]
            key = f"cold|{scenario}|{' '.join(args)}"
            value = digest([payload["scenario_hash"], payload["points"]])
            ok = h.check_digest(key, value, what)
            if ok and units != payload["units"]["total"]:
                ok = h.op(False, f"{what}: computed {units} of {payload['units']['total']}")
            if ok:
                h.op(True, what)
        shutil.rmtree(cache, ignore_errors=True)
        rows.append((kind, proc.wall, mark))
        h.ref()
    return rows


def reproduce_cold(h: Harness, sizes: Sizes, seed: int, seconds: float, trace: bool):
    setup = [h.launch(["-m", "repro", "list"]) for _ in range(sizes.setups)]
    if any(p.rc for p in setup):
        raise BenchError("set-up launch `repro list` failed")
    setup_s = statistics.median(p.wall for p in setup)
    if trace:
        plain = cold_pass(h, sizes, seed, traced=False)
        traced = cold_pass(h, sizes, seed, traced=True)
        return {"overhead_s": sum(r[1] for r in traced) - sum(r[1] for r in plain)}
    passes = [
        cold_pass(h, sizes, seed, traced=False)
        for _ in range(max(1, round(seconds / sizes.cold_pass_s)))
    ]
    rows = [r for p in passes for r in p]
    per_kind, raw = {}, {}
    for kind in KINDS:
        per_kind[kind] = statistics.median(
            r[1] / h.ref_around(r[2]) for r in rows if r[0] == kind
        )
        raw[kind] = statistics.median(r[1] for r in rows if r[0] == kind)
        print(f"  cold {kind:<12} {per_kind[kind]:8.4f} ref  {raw[kind]:8.3f} s")
    return {
        "setup_s": setup_s,
        "wall_ref": sum(per_kind.values()),
        "raw_wall_s": sum(raw.values()),
    }


# ----------------------------------------------------------------------
# control_plane_warm
# ----------------------------------------------------------------------


def fill_cache(h: Harness, sizes: Sizes, seed: int, cache: Path) -> dict:
    """Cold traced runs of every warm scenario, in two concurrent lanes.

    Returns each scenario's reference points (what warm runs must equal).
    """
    jobs = [
        (scenario, [*overrides, "--seed", str(seed)])
        for scenario, overrides in sizes.warm
    ]
    # Balanced lanes: the fleet fill (longest) with the two cheapest.
    lanes = [jobs[:2] + jobs[5:], jobs[2:5]]
    results: dict = {}

    def lane(items):
        for scenario, args in items:
            results[scenario] = h.launch([
                "-m", "repro", "run", scenario, *args, "--cache-dir", str(cache),
                "--trace", "--format", "json",
            ])

    threads = [threading.Thread(target=lane, args=(items,)) for items in lanes]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    points = {}
    for scenario, proc in results.items():
        if proc.rc != 0:
            raise BenchError(f"cache fill of {scenario} failed: {proc.err[-500:]}")
        payload = json.loads(proc.out)
        points[scenario] = digest(payload["points"])
    return points


def control_calls(sizes: Sizes, seed: int, cache: Path) -> list:
    """One cycle of the verb mix: (label, argv, warm scenario or None)."""
    c = ["--cache-dir", str(cache)]
    warm = {s: [*o, "--seed", str(seed)] for s, o in sizes.warm}
    fleet = sizes.warm[0][0]
    runs = [
        (f"run {s}", ["run", s, *warm[s], *c, "--format", "json"], s)
        for s, _ in sizes.warm
    ]
    others = [
        ("list", ["list"], None),
        ("status", ["status", fleet, *warm[fleet], *c], None),
        ("report", ["report", *c], None),
        ("history", ["history", *c], None),
        ("export-metrics", ["export-metrics", fleet, *warm[fleet], *c], None),
        ("top --once", ["top", fleet, "--once", *warm[fleet], *c], None),
        ("cache stats", ["cache", "stats", *c], None),
    ]
    mix = []
    for i in range(max(len(runs), len(others))):
        mix.extend(runs[i:i + 1])
        mix.extend(others[i:i + 1])
    return mix


def control_loop(h: Harness, calls: list, points: dict, traced: bool) -> list:
    """Closed loop, one client; a reference run after every fourth call."""
    rows = []
    h.ref()
    for i, (label, argv, scenario) in enumerate(calls):
        mark = len(h.refs)
        proc = h.repro(argv, traced)
        what = f"warm {label}"
        if h.check_repro(proc, what):
            ok = True
            if scenario is not None:
                payload = json.loads(proc.out)
                if payload["units"]["computed"] != 0:
                    ok = h.op(False, f"{what}: computed {payload['units']['computed']} units")
                elif digest(payload["points"]) != points[scenario]:
                    ok = h.op(False, f"{what}: points differ from the cold fill")
            if ok:
                h.op(True, what)
        rows.append((label, proc.wall, scenario is not None, mark))
        if i % 4 == 3 or i == len(calls) - 1:
            h.ref()
    return rows


def control_plane_warm(h: Harness, sizes: Sizes, seed: int, seconds: float, trace: bool):
    setup_walls = []
    for _ in range(sizes.setups):
        cache = h.path("warm-cache")
        start = time.perf_counter()
        points = fill_cache(h, sizes, seed, cache)
        setup_walls.append(time.perf_counter() - start)
    cycle = control_calls(sizes, seed, cache)
    if trace:
        plain = control_loop(h, cycle, points, traced=False)
        traced = control_loop(h, cycle, points, traced=True)
        return {"overhead_s": sum(r[1] for r in traced) - sum(r[1] for r in plain)}
    n_calls = max(sizes.min_calls, round(seconds / sizes.call_s), 1)
    calls = [cycle[i % len(cycle)] for i in range(n_calls)]
    rows = control_loop(h, calls, points, traced=False)
    ratios = [r[1] / h.ref_around(r[3]) for r in rows]
    warm = [r for r in rows if r[2]]
    print(f"  calls {len(rows)}  warm runs {len(warm)}")
    print(f"  warm run p50   "
          f"{statistics.median(r[1] / h.ref_around(r[3]) for r in warm):8.4f} ref  "
          f"{statistics.median(r[1] for r in warm):8.3f} s")
    return {
        "setup_s": statistics.median(setup_walls),
        "wall_ref": statistics.median(ratios),
        "raw_wall_s": statistics.median(r[1] for r in rows),
    }


# ----------------------------------------------------------------------
# live_ward
# ----------------------------------------------------------------------

_PORT = re.compile(rb"live monitor on http://[^:]+:(\d+)")
_SIM_T = re.compile(r"sim t=([0-9.]+)s")
_EVENTS = re.compile(r"events: (\d+) total, (\d+)/s")


def subscribe(port: int, result: dict) -> None:
    """Read ``/events`` until the server ends the stream."""
    frames, last, head = 0, b"", None
    buf = bytearray()
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(b"GET /events HTTP/1.1\r\nHost: bench\r\n\r\n")
            while True:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                buf += chunk
                if head is None:
                    end = buf.find(b"\r\n\r\n")
                    if end < 0:
                        continue
                    head, buf = bytes(buf[:end]), buf[end + 4:]
                cut = buf.rfind(b"\n\n")
                if cut >= 0:
                    frames += buf[:cut + 2].count(b"event: frame\n")
                    tail = buf[:cut].rsplit(b"\n\n", 1)[-1]
                    last = tail
                    del buf[:cut + 2]
    except OSError as exc:
        result["error"] = str(exc)
    result.update(head=head or b"", frames=frames, last=last, leftover=bytes(buf))


def final_frame_ok(result: dict, sim_t: float | None) -> str | None:
    """Why a finished SSE stream is incomplete, or None."""
    if "error" in result:
        return result["error"]
    if not result["head"].startswith(b"HTTP/1.1 200"):
        return "no 200 response"
    if result["leftover"].strip():
        return "stream ended inside a frame"
    if not result["frames"] or not result["last"].startswith(b"event: frame\ndata: "):
        return "no frames"
    data = json.loads(result["last"].split(b"data: ", 1)[1])
    if sim_t is None or round(data["t"], 1) != sim_t:
        return f"last frame at t={data['t']} but the engine ended at {sim_t}"
    return None


def live_ward_once(h: Harness, sizes: Sizes, seed: int, traced: bool) -> dict:
    log = h.path("events").with_suffix(".jsonl")
    argv = h.repro_argv([
        "live", "--drain", "--serve", "0", "--log-events", str(log),
        *sizes.ward, "--seed", str(seed),
    ], traced)
    err_path = h.path("err")
    subs = [{} for _ in range(2)]
    threads = []
    lines: list[bytes] = []
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [PY, *argv], cwd=ROOT, env=h.env,
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                lines.append(line)
                match = _PORT.search(line)
                if match and not threads:
                    port = int(match.group(1))
                    threads = [
                        threading.Thread(target=subscribe, args=(port, r)) for r in subs
                    ]
                    for t in threads:
                        t.start()
        finally:
            rc, rss_mb = wait_child(proc)
            wall = time.perf_counter() - start
            watchdog.cancel()
            proc.stdout.close()
    for t in threads:
        t.join(60)
    h.peak_rss_mb = max(h.peak_rss_mb, rss_mb)
    out = b"".join(lines).decode(errors="replace")
    what = "live ward"
    events = drain_s = 0.0
    ok = rc == 0 or h.op(False, f"{what}: exit {rc}: {err_path.read_text()[-300:]}")
    if ok:
        m_t, m_ev = _SIM_T.search(out), _EVENTS.search(out)
        if not (m_t and m_ev and log.exists()):
            ok = h.op(False, f"{what}: no final status or event log")
    if ok:
        events = int(m_ev.group(1))
        drain_s = events / int(m_ev.group(2))
        sha = hashlib.sha256(log.read_bytes()).hexdigest()
        ok = h.check_digest(f"live|{' '.join(sizes.ward)}|--seed {seed}", sha, what)
        if ok:
            h.op(True, what)
    sim_t = float(m_t.group(1)) if ok else None
    for i, r in enumerate(subs):
        problem = final_frame_ok(r, sim_t) if r else "never connected"
        h.op(problem is None, f"sse subscriber {i}: {problem}")
    log.unlink(missing_ok=True)
    return {"wall": wall, "events": events, "drain_s": drain_s}


def live_ward(h: Harness, sizes: Sizes, seed: int, seconds: float, trace: bool):
    setup = [
        h.launch(["-m", "repro", "live", "--drain", "--serve", "0",
                  *sizes.ward_setup, "--seed", str(seed)])
        for _ in range(sizes.setups)
    ]
    if any(p.rc for p in setup):
        raise BenchError(f"set-up launch `repro live` failed: {setup[0].err[-300:]}")
    setup_s = statistics.median(p.wall for p in setup)

    def wards(n: int, traced: bool) -> list:
        rows = []
        h.ref()
        for _ in range(n):
            mark = len(h.refs)
            rows.append(dict(live_ward_once(h, sizes, seed, traced), mark=mark))
            h.ref()
        return rows

    if trace:
        plain, traced = wards(1, False), wards(1, True)
        return {"overhead_s": traced[0]["wall"] - plain[0]["wall"]}
    rows = wards(max(1, round(seconds / sizes.ward_s)), False)
    drain_s = statistics.median(r["drain_s"] for r in rows)
    print(f"  live drain     {drain_s:8.3f} s  events {rows[0]['events']:.0f}  "
          f"{rows[0]['events'] / drain_s:.0f}/s" if drain_s else "  live drain failed")
    return {
        "setup_s": setup_s,
        "wall_ref": statistics.median(r["wall"] / h.ref_around(r["mark"]) for r in rows),
        "raw_wall_s": statistics.median(r["wall"] for r in rows),
    }


# ----------------------------------------------------------------------
# Per-layer table (traced runs)
# ----------------------------------------------------------------------

PER_LAYER = {
    "startup.import_cli_s": "s",
    "startup.modules": "count",
    "startup.scipy_modules": "count",
    "runner.plan_s": "s",
    "runner.units": "count",
    **{f"runner.evaluate_unit.{k}_s": "s" for k in KINDS},
    **{f"runner.evaluate_unit.{k}_calls": "count" for k in KINDS},
    "runner.reduce_self_s": "s",
    "cache.get_s": "s",
    "cache.get_calls": "count",
    "cache.put_s": "s",
    "cache.put_calls": "count",
    "cache.cached_keys_s": "s",
    "cache.hit_ratio": "ratio",
    "progress.publish_s": "s",
    "progress.publish_calls": "count",
    "ecg.sample_batch_s": "s",
    "ecg.sample_batch_calls": "count",
    "ecg.records": "count",
    "codec.encode_batch_s": "s",
    "waveform.packet_bits_batch_s": "s",
    "waveform.run_batch_s": "s",
    "waveform.run_batch_calls": "count",
    "waveform.packets": "count",
    "jamming.eigh_calls": "count",
    "jamming.eigh_distinct": "count",
    "jamming.eigh_s": "s",
    "jamming.generate_s": "s",
    "mimo.attack_s": "s",
    "mimo.attack_calls": "count",
    "inference.infer_batch_s": "s",
    "inference.detect_beats_s": "s",
    "inference.detect_beats_calls": "count",
    "inference.estimate_heart_rate_s": "s",
    "accel.kernels_s": "s",
    "accel.kernel_calls": "count",
    "testbed.attack_once_s": "s",
    "testbed.attack_once_calls": "count",
    "live.run_s": "s",
    "live.dispatch_self_s": "s",
    "live.events": "count",
    "alarms.process_s": "s",
    "alarms.fired": "count",
    "eventlog.event_s": "s",
    "hub.flush_s": "s",
    "hub.flushes": "count",
    "hub.frame_bytes": "bytes",
    "hub.dropped": "count",
    "trace.overhead_s": "s",
}

#: Span name -> (inclusive-time metric, call-count metric or None).
_SPAN_METRICS = {
    "runner.plan": ("runner.plan_s", None),
    **{f"runner.evaluate_unit.{k}": (f"runner.evaluate_unit.{k}_s", None) for k in KINDS},
    "cache.get": ("cache.get_s", None),
    "cache.put": ("cache.put_s", None),
    "cache.cached_keys": ("cache.cached_keys_s", None),
    "progress.publish": ("progress.publish_s", None),
    "ecg.sample_batch": ("ecg.sample_batch_s", "ecg.sample_batch_calls"),
    "codec.encode_batch": ("codec.encode_batch_s", None),
    "waveform.packet_bits_batch": ("waveform.packet_bits_batch_s", None),
    "waveform.run_batch": ("waveform.run_batch_s", "waveform.run_batch_calls"),
    "jamming.eigh": ("jamming.eigh_s", None),
    "jamming.generate": ("jamming.generate_s", None),
    "mimo.attack": ("mimo.attack_s", "mimo.attack_calls"),
    "inference.infer_batch": ("inference.infer_batch_s", None),
    "inference.detect_beats": ("inference.detect_beats_s", None),
    "inference.estimate_heart_rate": ("inference.estimate_heart_rate_s", None),
    "accel.kernel": ("accel.kernels_s", None),
    "testbed.attack_once": ("testbed.attack_once_s", "testbed.attack_once_calls"),
    "live.run": ("live.run_s", None),
    "alarms.process": ("alarms.process_s", None),
    "eventlog.event": ("eventlog.event_s", None),
    "hub.flush": ("hub.flush_s", None),
}

#: Span name -> self-time metric (span minus the spans it caused).
_SELF_METRICS = {"runner.reduce": "runner.reduce_self_s", "live.run": "live.dispatch_self_s"}

_STARTUP_PROBE = (
    "import json, sys, time\n"
    "t = time.perf_counter()\n"
    "import repro.campaigns.cli\n"
    "t = time.perf_counter() - t\n"
    "mods = list(sys.modules)\n"
    "print(json.dumps({'s': t, 'modules': len(mods), "
    "'scipy': sum(m == 'scipy' or m.startswith('scipy.') for m in mods)}))\n"
)


def startup_probe(h: Harness, n: int = 3) -> dict:
    """``import repro.campaigns.cli`` timed in fresh interpreters."""
    probes = []
    for _ in range(n):
        proc = h.launch(["-c", _STARTUP_PROBE])
        if proc.rc != 0:
            raise BenchError(f"startup probe failed: {proc.err[-300:]}")
        probes.append(json.loads(proc.out))
    return {
        "startup.import_cli_s": statistics.median(p["s"] for p in probes),
        "startup.modules": probes[0]["modules"],
        "startup.scipy_modules": probes[0]["scipy"],
    }


def layer_table(span_files: list) -> dict:
    import numpy as np

    metrics = {name: 0.0 if unit in ("s", "ratio") else 0 for name, unit in PER_LAYER.items()}
    hits = 0
    for path in span_files:
        if not path.exists():
            raise BenchError(f"traced launch wrote no spans: {path.name}")
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            name_id, parent, nested = data["name_id"], data["parent"], data["nested"]
            dur = data["end"] - data["start"]
        names = meta["names"]
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        for nid, span in enumerate(names):
            mask = name_id == nid
            top = mask & (nested == 0)
            if span in _SPAN_METRICS:
                total, calls = _SPAN_METRICS[span]
                metrics[total] += float(dur[top].sum())
                if calls:
                    metrics[calls] += int(mask.sum())
            if span in _SELF_METRICS:
                metrics[_SELF_METRICS[span]] += float((dur[mask] - child[mask]).sum())
        for key, value in meta["counts"].items():
            if key in metrics:  # every counter adds up across launches
                metrics[key] += value
        hits += meta["counts"].get("cache.get_hits", 0)
    if metrics["cache.get_calls"]:
        metrics["cache.hit_ratio"] = hits / metrics["cache.get_calls"]
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------

RUNNERS = {
    "reproduce_cold": reproduce_cold,
    "control_plane_warm": control_plane_warm,
    "live_ward": live_ward,
}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
        pins: dict) -> dict:
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    h = Harness(work, pins)
    program_seed = seed % PROGRAM_SEEDS
    try:
        measured = RUNNERS[workload](h, sizes, program_seed, seconds, trace)
        if trace:
            layers = layer_table(h.span_files)
            layers.update(startup_probe(h))
            layers["trace.overhead_s"] = measured["overhead_s"]
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            measured["peak_rss_mb"] = h.peak_rss_mb
            metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}
            print(f"  reference      {h.ref_median():8.3f} s median of {len(h.refs)}")
            print(f"  wall_ref       {measured['wall_ref']:8.4f} ref  "
                  f"{measured['raw_wall_s']:8.3f} s (raw)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass
    for error in h.errors:
        print(f"  FAILED {error}")
    return {
        "correct": h.failed == 0,
        "attempted": h.attempted,
        "failed": h.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smoke-test sizes (no pins apply; not for measurement)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sizes = TINY if args.tiny else FULL
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     sizes, {} if args.tiny else load_pins())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    print(f"  attempted {result['attempted']}  failed {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
