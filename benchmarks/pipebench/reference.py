"""A fixed piece of reference work, timed alongside the items.

The reference does what the chain's items do, on inputs that never change and
with no chordsim code: FFTs, a complex matrix product over exponentials (the
shape of a hologram) and a plain Python loop.  Its CPU time tracks how fast
the host runs this kind of work at the moment; the driver uses it to express
item and set-up times at a fixed host speed (see ``driver._run_workers``).
It writes into buffers allocated once, so its time does not depend on the
state in which an item left the memory allocator: with fresh output arrays
the pass took 2.8-4.0 ms between ``full_capture`` items, against 3.5-3.8 ms
between ``channel_sweep`` items.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of one reference pass on the baseline machine of
# benchmarks/README.md; a throughput is scaled to a host that runs one pass
# in this time.
NOMINAL_S = 0.003
# Reference time kept at this share of the item time of a run.
SHARE = 0.05

_rng = np.random.default_rng(0)
_SIGNAL = _rng.standard_normal((8, 4096)) + 1j * _rng.standard_normal((8, 4096))
_PHASES = 1j * _rng.uniform(-np.pi, np.pi, (128, 256))
_WEIGHTS = _rng.standard_normal((64, 128)) + 0j
_SPECTRUM = np.empty_like(_SIGNAL)
_ROUND_TRIP = np.empty_like(_SIGNAL)
_STEERING = np.empty_like(_PHASES)
_SURFACE = np.empty((_WEIGHTS.shape[0], _PHASES.shape[1]), dtype=complex)
_MAGNITUDE = np.empty(_SURFACE.shape)


def _work():
    np.fft.fft(_SIGNAL, axis=1, out=_SPECTRUM)
    np.fft.ifft(_SPECTRUM, axis=1, out=_ROUND_TRIP)
    np.exp(_PHASES, out=_STEERING)
    np.matmul(_WEIGHTS, _STEERING, out=_SURFACE)
    np.abs(_SURFACE, out=_MAGNITUDE)
    s = 0.0
    for k in range(3000):
        s += k * 0.5


def run() -> tuple[float, float]:
    """Run the reference work twice; return the CPU seconds of the second
    run (the pass) and of both.  The first run brings the reference's data
    back into the caches after an item, so that the pass times the host and
    not what the item left in the caches."""
    c = time.process_time()
    _work()
    warm = time.process_time()
    _work()
    end = time.process_time()
    return end - warm, end - c
