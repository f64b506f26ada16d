"""IIR filter design and zero-phase filtering with second-order sections, in NumPy.

:func:`design_bandpass` follows SciPy's ``butter(..., output="sos")`` step by step
(Butterworth prototype, lowpass-to-bandpass, bilinear transform with prewarped band
edges, nearest pole-zero pairing) and equals it bit for bit. :func:`filter_channels`
runs each pass of the forward-backward filter as a block filter (Burrus 1972, "Block
realization of digital filters"): blocks of ``_BLOCK`` samples are matrix products,
and a prefix scan (Blelloch 1990) carries the state from block to block. Its result
differs from ``scipy.signal.sosfiltfilt`` by rounding only. Nothing here imports SciPy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: Relative size a filter transient may keep after :attr:`FilterSpec.settle_len`.
SETTLE_TOL = 1e-8
#: Samples per block of a filter pass.
_BLOCK = 32
#: Padded samples filtered together: 16 rows of a 1 kHz trial window, whose tile stays in L2,
#: or a whole 64-channel 250 Hz window, in a quarter of the GIL-holding calls of 16-row tiles.
_TILE = 16 * 5504


@dataclass(frozen=True, eq=False)
class FilterSpec:
    """Cascade of second-order sections, one row ``(b0, b1, b2, 1, a1, a2)`` each.

    As one direct-form-II-transposed state space of 2S states, L = ``_BLOCK`` samples ``x``
    from a start state ``v`` give the outputs ``[x, v] @ _to_output`` and the end state
    ``x @ _to_state + v @ A^L``. ``_carry`` holds the transposed A^(L 2^k) down to 1e-300,
    so the scan meets no subnormal product.
    """

    sos: np.ndarray
    description: str = ""
    #: Steady-state initial conditions of each section for a unit step (Gustafsson 1996).
    zi: np.ndarray = field(init=False, repr=False)
    _to_output: np.ndarray = field(init=False, repr=False)  # (L + 2S, L): Toeplitz, then state
    _to_state: np.ndarray = field(init=False, repr=False)  # (L, 2S)
    _carry: tuple = field(init=False, repr=False)  # of (2S, 2S)

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
        # As scipy.signal.sosfilt_zi: each section's lfilter_zi, (I - companion(a).T) zi = B,
        # scaled by the DC gain of the sections before it.
        b, a1, a2, one = sos[:, :3], sos[:, 4], sos[:, 5], np.ones(len(sos))
        i_minus_a = np.moveaxis(np.array([[1.0 + a1, -one], [a2, one]]), -1, 0)
        zi = np.linalg.solve(i_minus_a, (b[:, 1:] - sos[:, 4:] * b[:, :1])[..., None])[..., 0]
        gain = np.sum(b, axis=1) / np.sum(sos[:, 3:], axis=1)
        object.__setattr__(self, "zi", np.concatenate(([1.0], np.cumprod(gain[:-1])))[:, None] * zi)

        # One block from each unit input sample, then each unit start state, through the sections.
        n = 2 * len(sos)
        inputs, state = np.eye(_BLOCK, _BLOCK + n), np.eye(n, _BLOCK + n, _BLOCK)
        outputs = np.empty((_BLOCK, _BLOCK + n))
        for i in range(_BLOCK):
            u = inputs[i]
            for k, (b0, b1, b2, _, a1, a2) in enumerate(sos):
                y = b0 * u + state[2 * k]
                state[2 * k], state[2 * k + 1] = b1 * u - a1 * y + state[2 * k + 1], b2 * u - a2 * y
                u = y
            outputs[i] = u
        object.__setattr__(self, "_to_output", outputs.T.copy())
        object.__setattr__(self, "_to_state", state[:, :_BLOCK].T.copy())
        carry, power = [], state[:, _BLOCK:]
        while np.max(np.abs(power)) >= 1e-300:
            carry.append(power.T.copy())
            power = power @ power
        object.__setattr__(self, "_carry", tuple(carry))

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

    def padded_len(self, n: int) -> int:
        """Samples :func:`filter_channels` works on for ``n``: both pads, up to a whole block."""
        return -(-(n + 2 * self.pad_len) // _BLOCK) * _BLOCK

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
    # SciPy's butter(order, (low_hz, high_hz), "bandpass", fs=fs, output="sos"), operation for
    # operation: prewarped edges, the prototype's poles moved to the band, then the bilinear
    # transform, which puts ``order`` zeros at z = 1 and as many at z = -1.
    warped = 2 * 2.0 * np.tan(np.pi * (np.asarray([low_hz, high_hz], dtype=np.float64)
                                       / (float(fs) / 2)) / 2.0)
    bw, wo = float(warped[1] - warped[0]), float(np.sqrt(warped[0] * warped[1]))
    p = -np.exp(1j * np.pi * np.arange(1 - order, order, 2.0) / (2 * order)) * bw / 2
    p = np.concatenate((p + np.sqrt(p**2 - wo**2), p - np.sqrt(p**2 - wo**2)))
    gain = bw**order * np.real(4.0**order / np.prod(4.0 - p))
    p = (4.0 + p) / (4.0 - p)
    # As zpk2sos: one pole of each conjugate pair, then the real poles, by real part.
    p = p[np.lexsort((abs(p.imag), p.real))]
    real = abs(p.imag) <= 100 * np.finfo(np.float64).eps * abs(p)
    p, z = np.concatenate((p[~real & (p.imag > 0)], p[real].real)), np.repeat([-1.0, 1.0], order)
    sos = np.zeros((order, 6))
    for s in range(order - 1, -1, -1):  # the poles nearest the unit circle go last
        i = np.argmin(np.abs(1 - np.abs(p)))
        p1, p = p[i], np.delete(p, i)
        if np.isreal(p1):  # paired with the real pole left nearest the circle
            i = np.flatnonzero(np.isreal(p))[np.argmin(np.abs(1 - np.abs(p[np.isreal(p)])))]
            p2, p = p[i], np.delete(p, i)
        else:
            p2 = np.conj(p1)
        i = np.argsort(np.abs(z - p1), kind="stable")[:2]  # the two zeros nearest p1
        sos[s], z = np.concatenate((np.poly(z[i]), np.poly([p1, p2]))), np.delete(z, i)
    sos[0, :3] *= gain
    return FilterSpec(sos, f"butter{order}-bandpass-{low_hz:g}-{high_hz:g}@{fs:g}")


def filter_channels(spec: FilterSpec, data: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Zero-phase forward-backward filtering along the last axis of a 1-D or 2-D array.

    Odd-reflection padding of ``spec.pad_len`` samples is applied at
    both ends and stripped afterwards, and each pass starts from the
    steady state ``spec.zi`` scaled to its first sample. Net magnitude
    response is |H|^2, net phase response is zero. This is
    ``scipy.signal.sosfiltfilt(spec.sos, data, padlen=spec.pad_len)`` in block form, up
    to rounding: ~5e-14 of the largest output for 8-30 Hz at 1 kHz, ~1e-10 for an
    order-4 1-4 Hz design. A row's result does not depend on the other rows.

    Rows are filtered in tiles of ``_TILE`` padded samples (one row at least), in float64,
    in ``out`` if given: an array of ``data``'s leading shape with room for ``spec.padded_len(n)``
    samples, whose pages a caller filtering many windows can keep, and of which the result
    is a view. The result is float32 for float32 ``data`` without ``out``, else float64.
    """
    data = np.asarray(data)
    if data.ndim not in (1, 2):
        raise ValueError(f"filter_channels expects a 1-D or 2-D array, got ndim={data.ndim}")
    pad, n = spec.pad_len, data.shape[-1]
    if n <= pad:
        raise ValueError(f"signal too short for padding: need > {pad} samples, got {n}")
    size, end = spec.padded_len(n), n + 2 * pad
    if out is None:
        buf = np.empty(data.shape[:-1] + (size,))
    elif out.dtype != np.float64 or out.shape[:-1] != data.shape[:-1] or out.shape[-1] < size:
        raise ValueError(f"out must be float64 of shape {data.shape[:-1]} + (>= {size},), "
                         f"got {out.dtype} {out.shape}")
    else:
        buf = out[..., :size]
    rows, signal, m = buf.reshape(-1, size), data.reshape(-1, n), size // _BLOCK
    last = end - (m - 1) * _BLOCK  # samples of the padded signal in the last block
    height = max(1, _TILE // size)
    tile = np.empty((min(height, len(rows)), m, _BLOCK + 2 * len(spec.sos)))
    for r in range(0, len(rows), height):
        ext = rows[r:r + height]
        blocks, x = tile[:len(ext)], ext[:, pad:pad + n]
        np.copyto(x, signal[r:r + height])
        np.subtract(2 * x[:, :1], x[:, pad:0:-1], out=ext[:, :pad])
        np.subtract(2 * x[:, -1:], x[:, -2:-pad - 2:-1], out=ext[:, pad + n:end])
        ext[:, end:] = 0.0
        np.copyto(blocks[..., :_BLOCK], ext.reshape(len(ext), m, _BLOCK))
        _filter_blocks(spec, blocks, ext)
        # The backward pass is a forward pass over the reversed output.
        np.copyto(blocks[:, :-1, :_BLOCK],
                  ext[:, end - 1:last - 1:-1].reshape(len(ext), m - 1, _BLOCK))
        np.copyto(blocks[:, -1, :last], ext[:, last - 1::-1])
        blocks[:, -1, last:_BLOCK] = 0.0
        _filter_blocks(spec, blocks, ext)
    y = buf[..., end - 1 - pad:pad - 1:-1]
    return y.astype(np.float32) if data.dtype == np.float32 and out is None else y


def _filter_blocks(spec: FilterSpec, blocks: np.ndarray, out: np.ndarray) -> None:
    """One causal pass of ``spec`` over each row of ``blocks`` (rows, m, ``_BLOCK`` + 2S),
    whose m blocks of samples fill the first ``_BLOCK`` columns, into ``out`` (rows, m *
    ``_BLOCK``). Each block's start state is written to the last 2S columns; the
    first's is ``spec.zi`` scaled to the row's first sample.
    """
    rows, m, width = blocks.shape
    ends = blocks[..., :_BLOCK] @ spec._to_state  # each block's end state from a zero start
    # Block-major, so each scan step is one product: starts[j] is block j's start state.
    # The spare starts[m] keeps every product at two rows or more, as one row rounds otherwise.
    starts = np.empty((m + 1, rows, width - _BLOCK))
    np.multiply(spec.zi.reshape(-1), blocks[:, 0, :1], out=starts[0])
    np.copyto(starts[1:], ends.transpose(1, 0, 2))
    # Hillis-Steele scan: once the step carrying states ``span`` blocks ahead is added,
    # every start holds the sum over the 2 * span blocks before it.
    flat, span = starts.reshape((m + 1) * rows, -1), 1
    for carry in spec._carry:
        if span >= m:
            break
        flat[span * rows:] += flat[:-span * rows] @ carry
        span *= 2
    np.copyto(blocks[..., _BLOCK:], starts[:m].transpose(1, 0, 2))
    np.matmul(blocks, spec._to_output, out=out.reshape(rows, m, _BLOCK))
