"""The simulation's hot-path kernels, looked up by name.

The five profiled hot kernels -- jam tone-correlation colouring, the
coherent-FSK vectorized demod, the ECG windowed scatter-add, and the
attacker's autocorrelation-HR / beat-detection loop -- live in
:mod:`repro.accel.reference` and are fetched per batch by name::

    from repro.accel import get_kernel
    kernel = get_kernel("hr_unbiased_autocorr")

The call sites bind ``get_kernel`` at import, so a profiling harness
(``perfbench/traced.py``) can swap in a timed wrapper per module.

See ``docs/performance.md`` for the recipe for adding a kernel.
"""

from typing import Callable

from repro.accel import reference

__all__ = ["get_kernel"]

_KERNELS: dict[str, Callable] = {
    name: getattr(reference, name) for name in reference.__all__
}


def get_kernel(name: str) -> Callable:
    """The kernel function registered under ``name``."""
    try:
        return _KERNELS[name]
    except KeyError:
        raise KeyError(
            f"unknown kernel {name!r}; known: {', '.join(sorted(_KERNELS))}"
        ) from None
