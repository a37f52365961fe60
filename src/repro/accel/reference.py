"""Numpy kernels: the pinned semantics of every hot path.

Campaign cache hashes and golden Expectation verdicts are pinned to the
numbers these functions return, so a change here must keep them
bit-identical.  The hypothesis parity suite
(``tests/test_accel_parity.py``) pins each kernel against the inline
expression it was extracted from.

Kernel contracts
----------------

``jam_tone_colour(factor, draws)``
    ``(n_bits, 2, 2)`` complex colouring factors applied per bin to
    ``(count, n_bits, 2)`` i.i.d. complex draws; returns the coloured
    ``(count, n_bits, 2)`` spectrum (the IFFT stays at the call site).

``fsk_coherent_bits(chunks, correlators, h)``
    Coherent FSK decision for integer modulation index ``h``:
    ``(n_bits, spb)`` complex bit chunks against a ``(spb, 2)``
    conjugated tone matrix; returns hard bits ``(n_bits,)`` int64.

``ecg_wave_accumulate(flat, record_index, centers, amps, sigma, fs, half, n)``
    One Gaussian wave component scattered into a flattened
    ``(n_records * n,)`` waveform buffer, in place, over a
    ``[-half, +half]`` sample window per beat.

``hr_unbiased_autocorr(x, lag_hi)``
    Unbiased autocorrelation of a demeaned record for lags
    ``0..lag_hi`` inclusive.

``beat_refractory_suppress(candidates_desc, refractory)``
    Greedy refractory suppression over peak candidates already sorted
    strongest-first; returns the kept sample indices in acceptance
    order (the caller sorts).  Only the nearest kept index on each side
    of a candidate can violate the window, so the check bisects the
    sorted kept indices and compares those two.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

__all__ = [
    "jam_tone_colour",
    "fsk_coherent_bits",
    "ecg_wave_accumulate",
    "hr_unbiased_autocorr",
    "beat_refractory_suppress",
]


def jam_tone_colour(factor: np.ndarray, draws: np.ndarray) -> np.ndarray:
    return (factor[None] @ draws[..., None])[..., 0]


def fsk_coherent_bits(
    chunks: np.ndarray, correlators: np.ndarray, h: int
) -> np.ndarray:
    n_bits = chunks.shape[0]
    correlations = chunks @ correlators
    # Phase at the start of bit i is i*pi*h (mod 2*pi): the conjugated
    # reference contributes exp(-1j * pi * h * i) to each correlation.
    rotation = np.exp(-1j * np.pi * h * np.arange(n_bits))
    metrics = np.real(correlations * rotation[:, None])
    return (metrics[:, 1] > metrics[:, 0]).astype(np.int64)


def ecg_wave_accumulate(
    flat: np.ndarray,
    record_index: np.ndarray,
    centers: np.ndarray,
    amps: np.ndarray,
    sigma: float,
    fs: float,
    half: int,
    n: int,
) -> None:
    offsets = np.arange(-half, half + 1)
    idx = np.round(centers * fs).astype(np.int64)[:, None] + offsets
    t_rel = idx / fs - centers[:, None]
    values = amps[:, None] * np.exp(-0.5 * (t_rel / sigma) ** 2)
    valid = (idx >= 0) & (idx < n)
    flat_idx = record_index[:, None] * n + np.clip(idx, 0, n - 1)
    np.add.at(flat, flat_idx[valid], values[valid])


def hr_unbiased_autocorr(x: np.ndarray, lag_hi: int) -> np.ndarray:
    n = len(x)
    ac = np.correlate(x, x, mode="full")[n - 1:]
    # Unbiased: each lag's sum has n-lag terms.
    ac = ac / (n - np.arange(n))
    return ac[: lag_hi + 1]


def beat_refractory_suppress(
    candidates_desc: np.ndarray, refractory: float
) -> np.ndarray:
    kept: list[int] = []
    ordered: list[int] = []  # ``kept``, sorted
    for idx in candidates_desc.tolist():
        pos = bisect_left(ordered, idx)
        right_ok = pos == len(ordered) or ordered[pos] - idx >= refractory
        left_ok = pos == 0 or idx - ordered[pos - 1] >= refractory
        if right_ok and left_ok:
            kept.append(idx)
            insort(ordered, idx)
    return np.array(kept, dtype=np.int64)
