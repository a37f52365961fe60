"""Run ``python -m repro`` with per-layer spans recorded from outside.

Usage::

    python perfbench/traced.py SPANS.npz <repro arguments...>

Installs run-time wrappers around the public calls at each layer seam
(nothing under ``src/`` changes), then runs the ``repro`` package as
``__main__`` with the remaining arguments.  Spans -- name, start, end,
parent -- and counters stay in memory and are written to ``SPANS.npz``
when the interpreter exits; ``perfbench/run.py`` turns them into the
per-layer table.
"""

from __future__ import annotations

import array
import atexit
import functools
import hashlib
import json
import runpy
import sys
import time
import types
from collections import Counter

import numpy as np


class Recorder:
    """In-memory span and counter store (compact typed arrays).

    A span is *nested* when a span of the same name is already open
    below it; inclusive layer times skip nested spans so recursion and
    re-entrant wrappers never count twice.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.nested = array.array("b")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.nested.append(1 if self._open[nid] else 0)
        self._open[nid] += 1
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open[self.name_id[idx]] -= 1
        # Synchronous spans close in LIFO order; an async span (the live
        # engine's run) may close under spans of other tasks that are
        # already gone, so remove by identity rather than pop blindly.
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:
            self._stack.remove(idx)

    def write(self, path: str) -> None:
        meta = {"names": self.names, "counts": dict(self.counts)}
        np.savez(
            path,
            meta=np.array(json.dumps(meta)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            nested=np.frombuffer(self.nested, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


REC = Recorder()


def wrap(owner, attr: str, name, after=None) -> None:
    """Replace ``owner.attr`` with a span-recording wrapper.

    ``name`` is a span name or a callable of the call arguments that
    returns one; ``after(args, kwargs, result)`` updates counters.
    """
    orig = getattr(owner, attr)
    namer = name if callable(name) else (lambda *a, **k: name)

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        idx = REC.begin(namer(*args, **kwargs))
        try:
            result = orig(*args, **kwargs)
        finally:
            REC.finish(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def wrap_async(owner, attr: str, name: str, after=None) -> None:
    orig = getattr(owner, attr)

    @functools.wraps(orig)
    async def wrapper(*args, **kwargs):
        idx = REC.begin(name)
        try:
            result = await orig(*args, **kwargs)
        finally:
            REC.finish(idx)
        if after is not None:
            after(args, kwargs, result)
        return result

    setattr(owner, attr, wrapper)


def counting(key: str, amount=lambda args, kwargs, result: 1):
    def after(args, kwargs, result):
        REC.counts[key] += amount(args, kwargs, result)
    return after


def _arg(args, kwargs, position: int, keyword: str):
    return kwargs[keyword] if keyword in kwargs else args[position]


class _JammingLinalg:
    """``numpy.linalg`` as seen from ``repro.core.jamming``: ``eigh``
    is timed and its inputs fingerprinted (distinct inputs vs calls is
    the duplicate-factorization ratio); everything else passes through."""

    def __init__(self) -> None:
        self._distinct: set[bytes] = set()

    def eigh(self, a, *args, **kwargs):
        arr = np.ascontiguousarray(a)
        self._distinct.add(
            hashlib.sha1(repr(arr.shape).encode() + arr.tobytes()).digest()
        )
        REC.counts["jamming.eigh_calls"] += 1
        REC.counts["jamming.eigh_distinct"] = len(self._distinct)
        idx = REC.begin("jamming.eigh")
        try:
            return np.linalg.eigh(a, *args, **kwargs)
        finally:
            REC.finish(idx)

    def __getattr__(self, attr):
        return getattr(np.linalg, attr)


class _JammingNumpy(types.ModuleType):
    def __init__(self) -> None:
        super().__init__("numpy")
        self.linalg = _JammingLinalg()

    def __getattr__(self, attr):
        return getattr(np, attr)


_KERNELS: dict[int, object] = {}


def _traced_get_kernel(orig):
    @functools.wraps(orig)
    def get_kernel(*args, **kwargs):
        kernel = orig(*args, **kwargs)
        wrapped = _KERNELS.get(id(kernel))
        if wrapped is None:
            holder = types.SimpleNamespace(fn=kernel)
            wrap(holder, "fn", "accel.kernel", counting("accel.kernel_calls"))
            wrapped = _KERNELS[id(kernel)] = holder.fn
        return wrapped
    return get_kernel


def install() -> None:
    """Wrap every layer seam the per-layer table names."""
    import repro.campaigns.runner as runner
    import repro.core.jamming as jamming
    import repro.live.alarms as alarms
    import repro.live.engine as engine
    import repro.live.events as events
    import repro.live.serve as serve
    import repro.phy.fsk as fsk
    import repro.physio.ecg as ecg
    import repro.physio.inference as inference
    from repro.adversary.mimo import MIMOEavesdropper
    from repro.campaigns.cache import ResultCache
    from repro.experiments.testbed import AttackTestbed
    from repro.experiments.waveform_lab import PassiveLab
    from repro.fleet.runner import FleetChunkSpec
    from repro.obs.progress import ProgressPublisher
    from repro.physio.codec import WaveformCodec

    # -- campaigns.runner ------------------------------------------------
    wrap(runner, "plan_scenario_units", "runner.plan",
         counting("runner.units", lambda a, k, r: len(r)))
    kinds = {
        runner.AttackChunkSpec: "attack",
        runner._PassiveChunkSpec: "passive_ber",
        runner._MimoChunkSpec: "mimo",
        runner._PhysioChunkSpec: "physio",
        FleetChunkSpec: "fleet",
    }

    def unit_name(spec, *_a, **_k):
        return f"runner.evaluate_unit.{kinds.get(type(spec), 'other')}"

    def unit_count(args, kwargs, result):
        REC.counts[unit_name(args[0]) + "_calls"] += 1

    wrap(runner, "evaluate_unit", unit_name, unit_count)
    wrap(runner.CampaignRunner, "_reduce", "runner.reduce")

    # -- campaigns.cache -------------------------------------------------
    def cache_get(args, kwargs, result):
        REC.counts["cache.get_calls"] += 1
        REC.counts["cache.get_hits"] += result is not None

    wrap(ResultCache, "get", "cache.get", cache_get)
    wrap(ResultCache, "put", "cache.put", counting("cache.put_calls"))
    wrap(ResultCache, "cached_keys", "cache.cached_keys")

    # -- obs.progress ----------------------------------------------------
    wrap(ProgressPublisher, "publish", "progress.publish",
         counting("progress.publish_calls"))

    # -- physio ----------------------------------------------------------
    wrap(ecg.ECGGenerator, "sample_batch", "ecg.sample_batch",
         counting("ecg.records", lambda a, k, r: int(_arg(a, k, 1, "n_records"))))
    wrap(WaveformCodec, "encode_batch", "codec.encode_batch")
    wrap(inference.AttackerInference, "infer_batch", "inference.infer_batch")
    wrap(inference, "detect_beats", "inference.detect_beats",
         counting("inference.detect_beats_calls"))
    wrap(inference, "estimate_heart_rate", "inference.estimate_heart_rate")

    # -- experiments.waveform_lab / testbed ------------------------------
    wrap(PassiveLab, "telemetry_packet_bits_batch", "waveform.packet_bits_batch")
    wrap(PassiveLab, "run_batch", "waveform.run_batch",
         counting("waveform.packets", lambda a, k, r: int(r.n_packets)))
    wrap(AttackTestbed, "attack_once", "testbed.attack_once")

    # -- core.jamming / adversary.mimo -----------------------------------
    jamming.np = _JammingNumpy()
    wrap(jamming.ShapedJammer, "generate", "jamming.generate")
    wrap(MIMOEavesdropper, "attack", "mimo.attack")

    # -- accel: every module that bound get_kernel at import -------------
    for module in (jamming, fsk, ecg, inference):
        module.get_kernel = _traced_get_kernel(module.get_kernel)

    # -- live ------------------------------------------------------------
    def engine_done(args, kwargs, result):
        REC.counts["live.events"] += int(args[0].events_total)

    wrap_async(engine.LiveEngine, "run", "live.run", engine_done)
    wrap(alarms.AlarmPipeline, "process", "alarms.process",
         counting("alarms.fired", lambda a, k, r: len(r)))
    wrap(events.EventLog, "event", "eventlog.event")
    wrap(serve.BroadcastHub, "flush", "hub.flush", counting("hub.flushes"))
    wrap(serve.BroadcastHub, "render_frame", "hub.render_frame",
         counting("hub.frame_bytes", lambda a, k, r: len(r) if r else 0))

    offer = serve.Subscriber.offer

    @functools.wraps(offer)
    def counted_offer(self, frame):
        before = self.dropped
        offer(self, frame)
        REC.counts["hub.dropped"] += self.dropped - before

    serve.Subscriber.offer = counted_offer


def main() -> None:
    spans_path = sys.argv[1]
    install()
    atexit.register(REC.write, spans_path)
    sys.argv = ["python -m repro", *sys.argv[2:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
