"""Parity properties: every named kernel vs its pre-extraction inline form.

The kernels in :mod:`repro.accel.reference` are checked against the
straight-line inline formulas their call sites computed before the
extraction, across hypothesis-driven dtype/shape/seed sweeps -- so
routing through :func:`repro.accel.get_kernel` cannot have changed a
number.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import get_kernel, reference

pytestmark = pytest.mark.statistical

seeds = st.integers(0, 2**32 - 1)


def _jam_inputs(seed, n_jams, n_bits):
    rng = np.random.default_rng(seed)
    factor = rng.standard_normal((n_bits, 2, 2)) + 1j * rng.standard_normal(
        (n_bits, 2, 2)
    )
    draws = rng.standard_normal((n_jams, n_bits, 2)) + 1j * rng.standard_normal(
        (n_jams, n_bits, 2)
    )
    return factor, draws


def _fsk_inputs(seed, n_bits, sps):
    rng = np.random.default_rng(seed)
    chunks = rng.standard_normal((n_bits, sps)) + 1j * rng.standard_normal(
        (n_bits, sps)
    )
    correlators = rng.standard_normal((sps, 2)) + 1j * rng.standard_normal(
        (sps, 2)
    )
    return chunks, correlators


def _ecg_inputs(seed, n_records, n_samples, n_beats):
    rng = np.random.default_rng(seed)
    record_index = rng.integers(0, n_records, size=n_beats).astype(np.int64)
    # Centers deliberately spill past both edges to exercise clipping.
    centers = rng.uniform(-0.3, n_samples / 100.0 + 0.3, size=n_beats)
    amps = rng.standard_normal(n_beats)
    amps[rng.random(n_beats) < 0.2] = 0.0  # exercise the amp==0 skip
    return record_index, centers, amps


class TestNumpyReferenceVsInline:
    """The extracted kernels reproduce the former inline expressions."""

    @given(seeds, st.integers(1, 12), st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_jam_tone_colour(self, seed, n_jams, n_bits):
        factor, draws = _jam_inputs(seed, n_jams, n_bits)
        out = reference.jam_tone_colour(factor, draws)
        inline = (factor[None] @ draws[..., None])[..., 0]
        assert out.dtype == inline.dtype
        np.testing.assert_array_equal(out, inline)

    @given(seeds, st.integers(1, 64), st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_fsk_coherent_bits(self, seed, n_bits, sps):
        chunks, correlators = _fsk_inputs(seed, n_bits, sps)
        h = 0.5
        out = reference.fsk_coherent_bits(chunks, correlators, h)
        correlations = chunks @ correlators
        rotation = np.exp(-1j * np.pi * h * np.arange(n_bits))
        metrics = np.real(correlations * rotation[:, None])
        inline = (metrics[:, 1] > metrics[:, 0]).astype(np.int64)
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, inline)

    @given(seeds, st.integers(1, 5), st.integers(1, 20))
    @settings(max_examples=30, deadline=None)
    def test_ecg_wave_accumulate(self, seed, n_records, n_beats):
        n = 160
        fs, sigma, half = 100.0, 0.04, 8
        record_index, centers, amps = _ecg_inputs(seed, n_records, n, n_beats)
        flat = np.zeros(n_records * n)
        reference.ecg_wave_accumulate(
            flat, record_index, centers, amps, sigma, fs, half, n
        )
        expected = np.zeros(n_records * n)
        offsets = np.arange(-half, half + 1)
        idx = np.round(centers * fs).astype(np.int64)[:, None] + offsets
        t_rel = idx / fs - centers[:, None]
        values = amps[:, None] * np.exp(-0.5 * (t_rel / sigma) ** 2)
        valid = (idx >= 0) & (idx < n)
        flat_idx = record_index[:, None] * n + np.clip(idx, 0, n - 1)
        np.add.at(expected, flat_idx[valid], values[valid])
        np.testing.assert_array_equal(flat, expected)

    @given(seeds, st.integers(8, 256))
    @settings(max_examples=40, deadline=None)
    def test_hr_unbiased_autocorr(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        lag_hi = n - 1
        out = reference.hr_unbiased_autocorr(x, lag_hi)
        full = np.correlate(x, x, mode="full")[n - 1 :]
        inline = (full / (n - np.arange(n)))[: lag_hi + 1]
        np.testing.assert_array_equal(out, inline)

    @given(
        seeds,
        st.integers(0, 400),
        st.floats(0.0, 30.0, allow_nan=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_beat_refractory_suppress(self, seed, n_cands, refractory):
        # Dense candidates (up to ~1 per sample, duplicates included)
        # and fractional windows put kept neighbours on both sides of
        # most candidates, so the bisect's nearest-neighbour checks
        # are exercised against the scan over every kept index.
        rng = np.random.default_rng(seed)
        cands = rng.integers(0, 500, size=n_cands).astype(np.int64)
        out = reference.beat_refractory_suppress(cands, refractory)
        kept: list[int] = []
        for idx in cands:
            if all(abs(int(idx) - k) >= refractory for k in kept):
                kept.append(int(idx))
        assert out.dtype == np.int64
        assert out.tolist() == kept


class TestGetKernel:
    def test_every_reference_kernel_is_looked_up_by_name(self):
        for name in reference.__all__:
            assert get_kernel(name) is getattr(reference, name)

    def test_unknown_kernel_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown kernel"):
            get_kernel("no_such_kernel")
