"""Binary FSK modem matching the Medtronic IMDs' physical layer.

The paper's IMDs (Virtuoso ICD, Concerto CRT) transmit binary FSK in a
300 kHz MICS channel with energy concentrated around +/-50 kHz (Fig. 4).
We model that as continuous-phase binary FSK: a '0' bit is a tone at
``-deviation`` and a '1' bit a tone at ``+deviation``, with the phase
carried across bit boundaries (continuous-phase keying keeps the spectrum
compact, as the measured profile in Fig. 4 shows).

Two demodulators are provided:

* :class:`NoncoherentFSKDemodulator` -- the *optimal* noncoherent detector
  the paper equips the eavesdropper with ([38] in the paper): per-bit
  correlation against both tones followed by an envelope comparison.  It
  needs no phase reference, so it is the strongest practical attack on an
  FSK signal whose carrier phase the adversary cannot track through
  jamming.
* :class:`CoherentFSKDemodulator` -- a genie-aided coherent detector used
  in tests to bound the noncoherent detector's loss.

Both demodulators accept an optional per-bit soft output used by the
jamming-detection logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.accel import get_kernel
from repro.phy.signal import Waveform

__all__ = [
    "FSKConfig",
    "FSKModulator",
    "NoncoherentFSKDemodulator",
    "CoherentFSKDemodulator",
]


@dataclass(frozen=True)
class FSKConfig:
    """Parameters of the binary-FSK physical layer.

    Defaults model the Medtronic MICS telemetry observed in the paper:
    100 kb/s with +/-50 kHz tones inside a 300 kHz channel, simulated at
    600 kHz (6 samples per bit).  The modulation index is
    ``2 * deviation / bit_rate = 1.0``, which makes the two tones
    orthogonal over a bit period for noncoherent detection.
    """

    bit_rate: float = 100e3
    deviation_hz: float = 50e3
    sample_rate: float = 600e3

    def __post_init__(self) -> None:
        if self.bit_rate <= 0 or self.deviation_hz <= 0 or self.sample_rate <= 0:
            raise ValueError("FSK parameters must be positive")
        if self.sample_rate % self.bit_rate != 0:
            raise ValueError(
                "sample_rate must be an integer multiple of bit_rate "
                f"(got {self.sample_rate} / {self.bit_rate})"
            )

    @property
    def samples_per_bit(self) -> int:
        return int(self.sample_rate / self.bit_rate)

    @property
    def modulation_index(self) -> float:
        return 2.0 * self.deviation_hz / self.bit_rate

    def tone_frequencies(self) -> tuple[float, float]:
        """(f0, f1): the tone used for a '0' bit and for a '1' bit."""
        return (-self.deviation_hz, self.deviation_hz)

    def bit_duration(self) -> float:
        return 1.0 / self.bit_rate

    def n_samples(self, n_bits: int) -> int:
        return n_bits * self.samples_per_bit


@lru_cache(maxsize=64)
def _tone_templates(config: FSKConfig) -> tuple[np.ndarray, np.ndarray]:
    """Unit-amplitude one-bit tone templates at f0 and f1.

    Cached per config: experiments construct modulators/demodulators per
    trial, and the ``np.exp`` synthesis would otherwise dominate their
    setup cost.  The returned arrays are read-only shared state.
    """
    n = config.samples_per_bit
    t = np.arange(n) / config.sample_rate
    f0, f1 = config.tone_frequencies()
    template0 = np.exp(2j * np.pi * f0 * t)
    template1 = np.exp(2j * np.pi * f1 * t)
    template0.setflags(write=False)
    template1.setflags(write=False)
    return template0, template1


@lru_cache(maxsize=64)
def _tone_matrix(config: FSKConfig) -> np.ndarray:
    """Conjugated tone templates stacked as a ``(samples_per_bit, 2)``
    correlator matrix, so a whole batch of bit intervals demodulates as
    one matmul."""
    template0, template1 = _tone_templates(config)
    matrix = np.conj(np.stack([template0, template1], axis=1))
    matrix.setflags(write=False)
    return matrix


class FSKModulator:
    """Continuous-phase binary FSK modulator."""

    def __init__(self, config: FSKConfig | None = None):
        self.config = config or FSKConfig()

    def modulate(self, bits: np.ndarray | list[int], amplitude: float = 1.0) -> Waveform:
        """Map a bit sequence to a continuous-phase FSK waveform.

        The instantaneous frequency during bit ``b`` is
        ``(2b - 1) * deviation`` and the phase accumulates continuously
        across bit boundaries.
        """
        bits = np.asarray(bits, dtype=np.int64)
        if bits.ndim != 1:
            raise ValueError("bits must be a one-dimensional sequence")
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must contain only 0s and 1s")
        cfg = self.config
        spb = cfg.samples_per_bit
        # Per-sample instantaneous frequency, then integrate to phase.
        freqs = (2.0 * bits - 1.0) * cfg.deviation_hz
        per_sample = np.repeat(freqs, spb)
        phase_steps = 2.0 * np.pi * per_sample / cfg.sample_rate
        phase = np.cumsum(phase_steps) - phase_steps  # phase at sample start
        return Waveform(amplitude * np.exp(1j * phase), cfg.sample_rate)

    def modulate_batch(
        self, bits: np.ndarray, amplitude: float = 1.0
    ) -> np.ndarray:
        """Modulate many bit sequences at once.

        ``bits`` is ``(n_packets, n_bits)``; the result is the complex
        sample matrix ``(n_packets, n_bits * samples_per_bit)``.  Each row
        equals :meth:`modulate` of that row's bits -- the batched sweeps
        rely on this row-for-row equivalence.
        """
        bits = np.asarray(bits, dtype=np.int64)
        if bits.ndim != 2:
            raise ValueError("modulate_batch expects a (n_packets, n_bits) array")
        if bits.size and not np.all((bits == 0) | (bits == 1)):
            raise ValueError("bits must contain only 0s and 1s")
        cfg = self.config
        spb = cfg.samples_per_bit
        freqs = (2.0 * bits - 1.0) * cfg.deviation_hz
        per_sample = np.repeat(freqs, spb, axis=1)
        phase_steps = 2.0 * np.pi * per_sample / cfg.sample_rate
        phase = np.cumsum(phase_steps, axis=1) - phase_steps
        return amplitude * np.exp(1j * phase)


class NoncoherentFSKDemodulator:
    """Optimal noncoherent (envelope) detector for binary FSK.

    For each bit interval the receiver correlates the signal against both
    tone templates and picks the tone with the larger envelope -- the
    optimal noncoherent rule for orthogonal binary FSK (Meyr et al. [38]).
    """

    def __init__(self, config: FSKConfig | None = None):
        self.config = config or FSKConfig()
        self._template0, self._template1 = _tone_templates(self.config)
        self._correlators = _tone_matrix(self.config)

    def demodulate(self, waveform: Waveform, n_bits: int | None = None) -> np.ndarray:
        """Hard-decision bits from a received waveform."""
        mag0, mag1 = self.envelopes(waveform, n_bits)
        return (mag1 > mag0).astype(np.int64)

    def envelopes(
        self, waveform: Waveform, n_bits: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bit correlation magnitudes against the f0 and f1 tones.

        These are the soft statistics behind :meth:`demodulate`; the
        shield's detector uses their ratio as a decoding-confidence
        measure.
        """
        if waveform.sample_rate != self.config.sample_rate:
            raise ValueError("waveform sample rate does not match demodulator config")
        spb = self.config.samples_per_bit
        available = len(waveform) // spb
        if n_bits is None:
            n_bits = available
        if n_bits > available:
            raise ValueError(
                f"waveform holds only {available} bits, {n_bits} requested"
            )
        chunks = waveform.samples[: n_bits * spb].reshape(n_bits, spb)
        magnitudes = np.abs(chunks @ self._correlators)
        return magnitudes[:, 0], magnitudes[:, 1]

    def demodulate_batch(
        self, samples: np.ndarray, n_bits: int | None = None
    ) -> np.ndarray:
        """Hard-decision bits for a whole batch of received packets.

        ``samples`` is ``(n_packets, n_samples)``; the result is
        ``(n_packets, n_bits)``.  The entire batch correlates against the
        tone templates in a single reshape + matmul -- the per-packet
        envelope-detector loop the batched sweeps replace.
        """
        mag0, mag1 = self.envelopes_batch(samples, n_bits)
        return (mag1 > mag0).astype(np.int64)

    def envelopes_batch(
        self, samples: np.ndarray, n_bits: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-bit envelopes for a ``(n_packets, n_samples)`` batch."""
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.ndim != 2:
            raise ValueError("envelopes_batch expects a (n_packets, n_samples) array")
        spb = self.config.samples_per_bit
        n_packets, n_samples = samples.shape
        available = n_samples // spb
        if n_bits is None:
            n_bits = available
        if n_bits > available:
            raise ValueError(
                f"waveforms hold only {available} bits, {n_bits} requested"
            )
        chunks = samples[:, : n_bits * spb].reshape(n_packets * n_bits, spb)
        magnitudes = np.abs(chunks @ self._correlators).reshape(n_packets, n_bits, 2)
        return magnitudes[:, :, 0], magnitudes[:, :, 1]

    def bit_error_rate(
        self, waveform: Waveform, reference_bits: np.ndarray | list[int]
    ) -> float:
        """Fraction of bits decoded incorrectly against a known reference."""
        reference_bits = np.asarray(reference_bits, dtype=np.int64)
        decoded = self.demodulate(waveform, n_bits=len(reference_bits))
        return float(np.mean(decoded != reference_bits))


class CoherentFSKDemodulator:
    """Genie-aided coherent FSK detector (phase reference known).

    Correlates against both tones with the true carrier phase and compares
    the real parts.  Only used as an upper-bound reference in tests; real
    receivers in the simulation are noncoherent.
    """

    def __init__(self, config: FSKConfig | None = None):
        self.config = config or FSKConfig()

    def demodulate(self, waveform: Waveform, n_bits: int | None = None) -> np.ndarray:
        n_bits = self._resolve_bit_count(waveform, n_bits)
        # Per-bit phase accumulation: the modulator adds
        # ``2*pi*(+/-deviation)*T_bit = +/-pi*h`` per bit (h = modulation
        # index).  For integer h the two signs coincide modulo 2*pi, so the
        # accumulated phase is closed-form in the bit index and the whole
        # packet demodulates as one reshape + matmul.  Non-integer h keeps
        # the decision-feedback loop.
        h = self.config.modulation_index
        if abs(h - round(h)) < 1e-9:
            return self._demodulate_vectorized(waveform, n_bits, int(round(h)))
        return self._demodulate_loop(waveform, n_bits)

    def _resolve_bit_count(self, waveform: Waveform, n_bits: int | None) -> int:
        available = len(waveform) // self.config.samples_per_bit
        if n_bits is None:
            n_bits = available
        if n_bits > available:
            raise ValueError(
                f"waveform holds only {available} bits, {n_bits} requested"
            )
        return n_bits

    def _demodulate_vectorized(
        self, waveform: Waveform, n_bits: int, h: int
    ) -> np.ndarray:
        spb = self.config.samples_per_bit
        chunks = waveform.samples[: n_bits * spb].reshape(n_bits, spb)
        return get_kernel("fsk_coherent_bits")(
            chunks, _tone_matrix(self.config), h
        )

    def _demodulate_loop(
        self, waveform: Waveform, n_bits: int | None = None
    ) -> np.ndarray:
        """Decision-feedback reference implementation (kept as the ground
        truth the vectorized path is pinned against)."""
        cfg = self.config
        spb = cfg.samples_per_bit
        n_bits = self._resolve_bit_count(waveform, n_bits)
        # Rebuild the continuous-phase templates for each hypothesis bit by
        # tracking the phase the modulator would have accumulated.  For a
        # per-bit genie detector we approximate with phase-aligned tones.
        t = np.arange(spb) / cfg.sample_rate
        f0, f1 = cfg.tone_frequencies()
        bits = np.empty(n_bits, dtype=np.int64)
        phase = 0.0
        for i in range(n_bits):
            chunk = waveform.samples[i * spb : (i + 1) * spb]
            ref0 = np.exp(1j * (2 * np.pi * f0 * t + phase))
            ref1 = np.exp(1j * (2 * np.pi * f1 * t + phase))
            m0 = np.real(chunk @ np.conj(ref0))
            m1 = np.real(chunk @ np.conj(ref1))
            bit = int(m1 > m0)
            bits[i] = bit
            freq = f1 if bit else f0
            phase += 2 * np.pi * freq * spb / cfg.sample_rate
        return bits
