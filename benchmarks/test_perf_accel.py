"""Benchmarks of the named hot-path kernels in ``repro.accel.reference``.

One benchmark per kernel, each at the shape its hottest call site
runs, so ``compare.py`` gates every kernel against regression.
"""

import numpy as np

from repro.accel import reference

_RNG = np.random.default_rng(123)

# jam_tone_colour at the batched-sweep shape (40 jams x 250 bits).
_FACTOR = (
    _RNG.standard_normal((250, 2, 2)) + 1j * _RNG.standard_normal((250, 2, 2))
)
_DRAWS = _RNG.standard_normal((40, 250, 4)).view(np.complex128)

# fsk_coherent_bits at one max-length packet (250 bits x 6 samples).
_CHUNKS = (
    _RNG.standard_normal((250, 6)) + 1j * _RNG.standard_normal((250, 6))
)
_CORRELATORS = (
    _RNG.standard_normal((6, 2)) + 1j * _RNG.standard_normal((6, 2))
)

# ecg_wave_accumulate at a fleet-shard shape: 100 records x 6.4 s.
_N_SAMPLES = 768
_N_RECORDS = 100
_BEATS_PER_RECORD = 8
_N_BEATS = _N_RECORDS * _BEATS_PER_RECORD
_RECORD_INDEX = np.repeat(np.arange(_N_RECORDS, dtype=np.int64),
                          _BEATS_PER_RECORD)
_CENTERS = np.tile(
    np.linspace(0.3, 5.9, _BEATS_PER_RECORD), _N_RECORDS
) + _RNG.uniform(-0.05, 0.05, size=_N_BEATS)
_AMPS = np.full(_N_BEATS, 1.0)

# hr_unbiased_autocorr at the attacker's record length (768 samples at
# 120 Hz; lag range spans 40-200 BPM).
_X = _RNG.standard_normal(_N_SAMPLES)
_X -= _X.mean()
_LAG_HI = 181

# beat_refractory_suppress at a heavily corrupted record (many spurious
# candidates -- the worst case partial jamming produces).
_CANDIDATES = _RNG.choice(_N_SAMPLES, size=200, replace=False).astype(np.int64)
_STRENGTHS = _RNG.standard_normal(200)
_CAND_DESC = _CANDIDATES[np.argsort(_STRENGTHS)[::-1]]


def test_perf_accel_jam_tone_colour(benchmark):
    out = benchmark(reference.jam_tone_colour, _FACTOR, _DRAWS)
    assert out.shape == (40, 250, 2)


def test_perf_accel_fsk_coherent_bits(benchmark):
    out = benchmark(reference.fsk_coherent_bits, _CHUNKS, _CORRELATORS, 1)
    assert out.shape == (250,)
    assert set(out.tolist()) <= {0, 1}


def test_perf_accel_ecg_wave_accumulate(benchmark):
    def run():
        flat = np.zeros(_N_RECORDS * _N_SAMPLES)
        reference.ecg_wave_accumulate(
            flat, _RECORD_INDEX, _CENTERS, _AMPS, 0.055, 120.0, 27, _N_SAMPLES
        )
        return flat

    out = benchmark(run)
    assert out.any()


def test_perf_accel_hr_autocorr(benchmark):
    out = benchmark(reference.hr_unbiased_autocorr, _X, _LAG_HI)
    assert out.shape == (_LAG_HI + 1,)


def test_perf_accel_beat_suppress(benchmark):
    out = benchmark(reference.beat_refractory_suppress, _CAND_DESC, 30.0)
    assert np.diff(np.sort(out)).min() >= 30
