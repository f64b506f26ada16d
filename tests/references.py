"""Reference functions the tests hold the package to; no command runs them.

``frequency_response`` evaluates a filter design directly, ``step`` makes one swarm
step of the loop that ``run_until_converged`` replaced, ``load_recording`` reads an NSR
file whole, and ``same_recording`` compares two recordings, in memory or on disk, bit
for bit.
"""

from dataclasses import replace

import numpy as np

from swarmbci.dsp import FilterSpec
from swarmbci.recording import Recording, open_recording
from swarmbci.swarm import SwarmConfig, SwarmState, _advance, _offsets


def frequency_response(spec: FilterSpec, freq_hz: float, fs: float) -> tuple[float, float]:
    """Evaluate H(e^{j 2 pi f / fs}) directly; returns (magnitude, phase)."""
    if not (0 <= freq_hz <= fs / 2):
        raise ValueError(f"frequency must be in [0, fs/2], got {freq_hz}")
    z_inv = np.exp(-1j * 2.0 * np.pi * freq_hz / fs) ** np.arange(3)
    h = np.prod((spec.sos[:, :3] @ z_inv) / (spec.sos[:, 3:] @ z_inv))
    return float(np.abs(h)), float(np.angle(h))


def step(state: SwarmState, cfg: SwarmConfig) -> SwarmState:
    """One synchronous kinematic step (see ``swarm._advance``), counted in ``step_count``."""
    moved = _advance(state.positions, *_offsets(state.positions, state.targets), cfg)
    return replace(state, positions=moved, step_count=state.step_count + 1)


def load_recording(path) -> Recording:
    """Read an NSR file, with the checks of :func:`open_recording`, into a :class:`Recording`."""
    src = open_recording(path)
    return Recording(src.subject_id, src.sampling_rate_hz, src.layout,
                     src.window(0, src.n_samples), list(src.markers), src.notch_applied_hz)


def same_recording(a, b) -> bool:
    """Whether ``a`` and ``b``, each a ``Recording`` or an opened ``RecordingFile``, have the
    same header fields and every sample bit for bit (as uint32: NaN payloads and -0.0 count)."""
    def header(rec):
        return (rec.subject_id, rec.sampling_rate_hz, rec.layout, tuple(rec.markers),
                rec.notch_applied_hz, rec.n_samples)

    return header(a) == header(b) and np.array_equal(a.window(0, a.n_samples).view(np.uint32),
                                                     b.window(0, b.n_samples).view(np.uint32))
