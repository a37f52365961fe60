"""Fixed reference program for host-speed normalization.

The benchmark interleaves runs of this program with the CLI launches it
times and reports each launch wall as a ratio to the reference walls
around it (the ``ref`` unit).  It never imports ``repro``, so no change
to the program under test can move it; it pays the costs a
``python -m repro`` launch pays -- interpreter start and the same heavy
scipy imports (most of a control-plane call), numpy kernels and
pure-Python loops -- so host-speed drift moves it and the launches
together.

It prints one JSON line with the seconds of each phase (``import_s``,
``numpy_s``, ``python_s``) for inspecting which one drifts; the
benchmark uses the launch wall around it.

Run: ``python perfbench/refprog.py``.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import zlib  # noqa: E402

import numpy as np  # noqa: E402
import scipy.fft  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.signal  # noqa: E402
import scipy.special  # noqa: E402
import scipy.stats  # noqa: E402


def numpy_work() -> float:
    rng = np.random.default_rng(12345)
    total = 0.0
    for _ in range(10):
        x = rng.standard_normal((64, 4096))
        spec = scipy.fft.rfft(x, axis=1)
        total += float(np.abs(spec).sum())
        a = rng.standard_normal((96, 96))
        total += float(scipy.linalg.eigh(a @ a.T, eigvals_only=True)[-1])
        total += float(scipy.special.erfc(np.abs(x[:, :512])).sum())
    return total


def python_work() -> int:
    table: dict[int, list[int]] = {}
    acc = 0
    for i in range(300_000):
        key = (i * 2654435761) % 4099
        bucket = table.setdefault(key, [])
        bucket.append(i)
        acc ^= key << (i % 7)
    blob = json.dumps({str(k): v[:4] for k, v in table.items()}).encode()
    return acc ^ zlib.crc32(blob)


if __name__ == "__main__":
    t0 = time.perf_counter()
    numpy_work()
    t1 = time.perf_counter()
    python_work()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t0 - _START, "numpy_s": t1 - t0, "python_s": t2 - t1}))
