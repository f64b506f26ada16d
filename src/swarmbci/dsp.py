"""IIR filter design and zero-phase filtering.

Designs come from scipy (Butterworth bandpass via bilinear transform
with prewarped band edges, biquad notch with unit-circle zeros); the
frequency response evaluator below is an independent direct evaluation
of H(e^{jw}) used to verify the designs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import signal

#: Relative size a filter transient may keep after :attr:`FilterSpec.settle_len`.
SETTLE_TOL = 1e-8


@dataclass(frozen=True)
class FilterSpec:
    """Transfer-function coefficients b (feedforward) and a (feedback)."""

    b: tuple[float, ...]
    a: tuple[float, ...]
    description: str = ""

    def __post_init__(self):
        b = tuple(float(v) for v in self.b)
        a = tuple(float(v) for v in self.a)
        if not a or a[0] != 1.0:
            raise ValueError("a[0] must be 1 (normalized denominator)")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)
        if len(a) > 1:
            poles = np.roots(a)
            max_mag = float(np.max(np.abs(poles))) if poles.size else 0.0
            if max_mag >= 1.0:
                raise ValueError(
                    f"unstable filter: pole magnitude {max_mag:.6g} >= 1"
                )

    @property
    def pad_len(self) -> int:
        """Reflection pad length used by :func:`filtfilt`."""
        return 3 * (max(len(self.a), len(self.b)) - 1)

    @property
    def settle_len(self) -> int:
        """Samples in which a transient decays below :data:`SETTLE_TOL` of its size.

        Transients decay as r**n for the largest pole magnitude r; 0 for a FIR filter.
        """
        r = float(np.max(np.abs(np.roots(self.a)))) if len(self.a) > 1 else 0.0
        return math.ceil(math.log(SETTLE_TOL) / math.log(r)) if r > 0 else 0


def design_bandpass(low_hz: float, high_hz: float, order: int, fs: float) -> FilterSpec:
    """Butterworth bandpass of the given analog prototype order.

    The discrete filter (order ``2 * order``) is obtained by the
    bilinear transform with both band edges prewarped, so |H| at
    ``low_hz`` and ``high_hz`` is exactly 1/sqrt(2).
    """
    if not (0 < low_hz < high_hz < fs / 2):
        raise ValueError(
            f"band edges must satisfy 0 < low < high < fs/2, "
            f"got ({low_hz}, {high_hz}) at fs={fs}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    b, a = signal.butter(order, [low_hz, high_hz], btype="bandpass", fs=fs)
    desc = f"butter{order}-bandpass-{low_hz:g}-{high_hz:g}@{fs:g}"
    return FilterSpec(tuple(b / a[0]), tuple(a / a[0]), desc)


def design_notch(freq_hz: float, q: float, fs: float) -> FilterSpec:
    """Second-order notch: zeros on the unit circle at +-freq_hz, unity gain at DC and Nyquist."""
    if not (0 < freq_hz < fs / 2):
        raise ValueError(f"notch frequency must be in (0, fs/2), got {freq_hz} at fs={fs}")
    if q <= 0:
        raise ValueError("q must be > 0")
    b, a = signal.iirnotch(freq_hz, q, fs=fs)
    return FilterSpec(tuple(b / a[0]), tuple(a / a[0]), f"notch-{freq_hz:g}-q{q:g}@{fs:g}")


def frequency_response(spec: FilterSpec, freq_hz: float, fs: float) -> tuple[float, float]:
    """Evaluate H(e^{j 2 pi f / fs}) directly; returns (magnitude, phase)."""
    if not (0 <= freq_hz <= fs / 2):
        raise ValueError(f"frequency must be in [0, fs/2], got {freq_hz}")
    w = 2.0 * np.pi * freq_hz / fs
    k_b = np.arange(len(spec.b))
    k_a = np.arange(len(spec.a))
    num = np.sum(np.asarray(spec.b) * np.exp(-1j * w * k_b))
    den = np.sum(np.asarray(spec.a) * np.exp(-1j * w * k_a))
    h = num / den
    return float(np.abs(h)), float(np.angle(h))


def filtfilt(spec: FilterSpec, x: np.ndarray) -> np.ndarray:
    """Zero-phase forward-backward filtering of a single-channel signal.

    Odd-reflection padding of ``spec.pad_len`` samples is applied at
    both ends and stripped afterwards. Net magnitude response is |H|^2,
    net phase response is zero. Output length equals input length.
    """
    x = np.asarray(x)
    if x.ndim != 1:
        raise ValueError("filtfilt expects a 1-D signal")
    min_len = 3 * max(len(spec.a), len(spec.b))
    if len(x) <= min_len:
        raise ValueError(f"signal too short for padding: need > {min_len} samples, got {len(x)}")
    y = signal.filtfilt(spec.b, spec.a, x.astype(np.float64, copy=False),
                        padtype="odd", padlen=spec.pad_len)
    return y.astype(x.dtype) if x.dtype == np.float32 else y


def filter_channels(spec: FilterSpec, data: np.ndarray) -> np.ndarray:
    """Apply :func:`filtfilt` to every row of a channels x samples array, in one call.

    Each output row is bit-identical to :func:`filtfilt` of that row.
    """
    data = np.asarray(data)
    min_len = 3 * max(len(spec.a), len(spec.b))
    if data.shape[-1] <= min_len:
        raise ValueError(
            f"signal too short for padding: need > {min_len} samples, got {data.shape[-1]}"
        )
    y = signal.filtfilt(spec.b, spec.a, data.astype(np.float64, copy=False),
                        axis=-1, padtype="odd", padlen=spec.pad_len)
    return y.astype(data.dtype) if data.dtype == np.float32 else y
