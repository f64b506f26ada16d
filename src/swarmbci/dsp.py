"""IIR filter design and zero-phase filtering with second-order sections.

Designs come from scipy (Butterworth bandpass via bilinear transform
with prewarped band edges, as a cascade of second-order sections); the
frequency response evaluator below is an independent direct evaluation
of H(e^{jw}) used to verify the designs. ``scipy.signal`` is imported by
the functions that use it, so a command that filters nothing (``simulate``)
does not pay for its import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Relative size a filter transient may keep after :attr:`FilterSpec.settle_len`.
SETTLE_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Cascade of second-order sections, one row ``(b0, b1, b2, 1, a1, a2)`` each."""

    sos: np.ndarray
    description: str = ""
    #: Steady-state initial conditions of each section for a unit step (Gustafsson 1996).
    zi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        sos = np.array(self.sos, dtype=np.float64)
        if sos.ndim != 2 or sos.shape[0] < 1 or sos.shape[1] != 6:
            raise ValueError(f"sos must be n_sections x 6, got shape {sos.shape}")
        if np.any(sos[:, 3] != 1.0):
            raise ValueError("a0 must be 1 in every section (normalized denominator)")
        object.__setattr__(self, "sos", sos)
        max_mag = float(np.max(np.abs(self.poles)))
        if max_mag >= 1.0:
            raise ValueError(f"unstable filter: pole magnitude {max_mag:.6g} >= 1")
        from scipy.signal import sosfilt_zi

        object.__setattr__(self, "zi", sosfilt_zi(sos))

    @property
    def poles(self) -> np.ndarray:
        """Roots of every section's z**2 + a1 z + a2, solved exactly per section."""
        a1, a2 = self.sos[:, 4], self.sos[:, 5]
        root = np.sqrt(a1.astype(complex) ** 2 - 4.0 * a2)
        return np.concatenate([(-a1 + root) / 2.0, (-a1 - root) / 2.0])

    @property
    def pad_len(self) -> int:
        """Odd-extension length used by :func:`filter_channels` at each end."""
        return 6 * len(self.sos)

    @property
    def settle_len(self) -> int:
        """Samples in which a transient decays below :data:`SETTLE_TOL` of its size.

        Transients decay as r**n for the largest pole magnitude r; 0 for a FIR filter.
        """
        r = float(np.max(np.abs(self.poles)))
        return math.ceil(math.log(SETTLE_TOL) / math.log(r)) if r > 0 else 0


def design_bandpass(low_hz: float, high_hz: float, order: int, fs: float) -> FilterSpec:
    """Butterworth bandpass of the given analog prototype order.

    The discrete filter (order ``2 * order``, ``order`` sections) is
    obtained by the bilinear transform with both band edges prewarped,
    so |H| at ``low_hz`` and ``high_hz`` is exactly 1/sqrt(2).
    """
    if not (0 < low_hz < high_hz < fs / 2):
        raise ValueError(
            f"band edges must satisfy 0 < low < high < fs/2, "
            f"got ({low_hz}, {high_hz}) at fs={fs}"
        )
    if order < 1:
        raise ValueError("order must be >= 1")
    from scipy.signal import butter

    sos = butter(order, [low_hz, high_hz], btype="bandpass", fs=fs, output="sos")
    return FilterSpec(sos, f"butter{order}-bandpass-{low_hz:g}-{high_hz:g}@{fs:g}")


def frequency_response(spec: FilterSpec, freq_hz: float, fs: float) -> tuple[float, float]:
    """Evaluate H(e^{j 2 pi f / fs}) directly; returns (magnitude, phase)."""
    if not (0 <= freq_hz <= fs / 2):
        raise ValueError(f"frequency must be in [0, fs/2], got {freq_hz}")
    z_inv = np.exp(-1j * 2.0 * np.pi * freq_hz / fs) ** np.arange(3)
    h = np.prod((spec.sos[:, :3] @ z_inv) / (spec.sos[:, 3:] @ z_inv))
    return float(np.abs(h)), float(np.angle(h))


def filter_channels(spec: FilterSpec, data: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Zero-phase forward-backward filtering along the last axis of a 1-D or 2-D array.

    Odd-reflection padding of ``spec.pad_len`` samples is applied at
    both ends and stripped afterwards, and each pass starts from the
    steady state ``spec.zi`` scaled to its first sample. Net magnitude
    response is |H|^2, net phase response is zero. The result equals
    ``scipy.signal.sosfiltfilt(spec.sos, data, padlen=spec.pad_len)``
    bit for bit; ``zi`` is solved once per :class:`FilterSpec`, not per call.

    The padded signal is built in float64, in ``out`` if given: an array of
    ``data``'s leading shape with room for ``n + 2 * spec.pad_len`` samples,
    whose pages a caller filtering many windows can keep. The result is
    float32 for float32 ``data`` without ``out``, else float64.
    """
    from scipy.signal import sosfilt

    data = np.asarray(data)
    if data.ndim not in (1, 2):
        raise ValueError(f"filter_channels expects a 1-D or 2-D array, got ndim={data.ndim}")
    pad, n = spec.pad_len, data.shape[-1]
    if n <= pad:
        raise ValueError(f"signal too short for padding: need > {pad} samples, got {n}")
    if out is None:
        ext = np.empty(data.shape[:-1] + (n + 2 * pad,))
    elif (out.dtype != np.float64 or out.shape[:-1] != data.shape[:-1]
          or out.shape[-1] < n + 2 * pad):
        raise ValueError(f"out must be float64 of shape {data.shape[:-1]} + (>= {n + 2 * pad},), "
                         f"got {out.dtype} {out.shape}")
    else:
        ext = out[..., :n + 2 * pad]
    x = ext[..., pad:pad + n]
    np.copyto(x, data)
    np.subtract(2 * x[..., :1], x[..., pad:0:-1], out=ext[..., :pad])
    np.subtract(2 * x[..., -1:], x[..., -2:-pad - 2:-1], out=ext[..., pad + n:])
    zi = spec.zi.reshape((len(spec.sos),) + (1,) * (x.ndim - 1) + (2,))
    y, _ = sosfilt(spec.sos, ext, zi=zi * ext[..., :1])
    # The backward pass reads its reversed input from ``ext``, so the forward
    # pass's output is freed before sosfilt copies that input. With one such
    # copy alive at a time, the allocator can give both passes, and the next
    # call, the same pages; two alive at once were returned to the system
    # together and faulted in afresh for every window.
    np.copyto(ext, y[..., ::-1])
    del y
    y, _ = sosfilt(spec.sos, ext, zi=zi * ext[..., :1])
    y = y[..., ::-1][..., pad:-pad]
    return y.astype(np.float32) if data.dtype == np.float32 and out is None else y
