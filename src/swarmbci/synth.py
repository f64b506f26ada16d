"""Seeded synthetic EEG generator with controllable class separability.

A fixed 4 x n_sources pattern matrix assigns each command class two
dominant latent sources. Sources are band-limited (8-30 Hz) Gaussian
noise mixed into channels through a random orthogonal matrix; during a
trial's imagery window the class's dominant sources are amplified by
(1 + separability * pattern). Separability 0 makes all four classes
statistically identical, so downstream accuracy sits at chance.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from swarmbci.config import POSITIVE, check_fields
from swarmbci.dsp import design_bandpass, filter_channels
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    ParadigmTiming,
    Recording,
)

#: Band the latent sources occupy, matching the decoding passband.
SOURCE_BAND_HZ = (8.0, 30.0)
_SOURCE_FILTER_ORDER = 4
_MIX_BLOCK = 16384  # frames of one row's mixing product added to the data at a time


@dataclass(frozen=True)
class SynthConfig:
    """Shape and difficulty of one synthetic subject."""

    n_channels: int = 64
    fs_hz: float = 1000.0
    trials_per_class: int = 50
    timing: ParadigmTiming = field(default_factory=ParadigmTiming)
    separability: float = 0.9
    noise_floor: float = 0.05
    seed: int = 0
    n_sources: int = 8

    def __post_init__(self):
        check_fields(self, n_channels="int >= 1", fs_hz=f"finite and > {2 * SOURCE_BAND_HZ[1]}",
                     trials_per_class="int >= 1", separability="finite and >= 0 and <= 1",
                     noise_floor=POSITIVE, seed="int >= 0", n_sources="int >= 8")
        if self.n_sources > self.n_channels:
            raise ValueError("n_sources must not exceed n_channels")


def pattern_matrix(n_sources: int = 8) -> np.ndarray:
    """Fixed 4 x n_sources class-to-source pattern.

    Row c is zero except entries 2c and 2c+1, set to 1/sqrt(2): every
    class owns two dominant sources, rows are mutually orthogonal and
    L2-normalized. Hard-coded so oracle tests can target classes.
    """
    if n_sources < 8:
        raise ValueError("pattern_matrix needs n_sources >= 8")
    p = np.zeros((4, n_sources))
    for c in range(4):
        p[c, 2 * c] = p[c, 2 * c + 1] = 1.0 / np.sqrt(2.0)
    return p


def generate_subject(cfg: SynthConfig, subject_id: str | None = None) -> Recording:
    """Generate one subject's continuous recording with trial markers.

    Deterministic given ``cfg``: the mixing matrix, class order, and all
    noise derive from a single generator seeded with ``cfg.seed``.

    One helper thread makes every draw, in stream order: the mixing normals,
    the label shuffle and the sources, then each noise row, straight into
    its data row. Meanwhile this thread designs the source filter and filters
    each source row with ``dsp.filter_channels`` through one padded buffer, then
    finishes each noise row as soon as it is drawn: it scales the row and adds the
    row's mixing product, one column block at a time, so only the last row's finish
    follows the draws. The rows from ``n_channels - 4 * n_sources`` on are
    handed to the helper only once the float64 sources are freed, so the
    peak memory does not depend on which thread runs ahead. An error here
    cancels every row not yet started, and before the sources are freed no
    row past that gate is drawn at all. A failed draw is raised here when its
    row is reached; the helper may first try the other rows handed to it so
    far. The result equals the single-threaded ``mix @ sources + noise`` bit
    for bit.
    """
    if subject_id is None:
        subject_id = f"synth-{cfg.seed}"
    rng = np.random.default_rng(cfg.seed)
    fs = cfg.fs_hz
    gap = int(round((cfg.timing.rest_s + cfg.timing.cue_s + cfg.timing.fixation_s) * fs))
    t_len = cfg.timing.imagery_len(fs)
    n_trials = 4 * cfg.trials_per_class
    total = n_trials * (gap + t_len)
    data = np.empty((cfg.n_channels, total), dtype=np.float32)
    # In rows of ``total`` float32: while the float64 sources (2 n_sources rows) and
    # their std's temporary (as many) live, at most gate + 4 n_sources rows are held,
    # and the heap may still hold the source filter's freed scratch: its padded row,
    # tile and block states, 6 rows, fewer than n_sources. All of it stays under the
    # sequential peak of n_channels data rows plus n_sources float32 source rows.
    gate = max(0, cfg.n_channels - 4 * cfg.n_sources)

    # The helper makes a single-threaded run's draws, in its order: one worker runs
    # the tasks as submitted. They call only Generator and NumPy functions:
    # bench/tracer.py keeps one span stack per process.
    def draw_sources():
        g = rng.standard_normal((cfg.n_channels, cfg.n_sources))
        labels = np.repeat(np.arange(1, 5), cfg.trials_per_class)
        rng.shuffle(labels)
        return g, labels, rng.standard_normal((cfg.n_sources, total))

    def draw_row(ch):
        rng.standard_normal(dtype=np.float32, out=data[ch])

    with ThreadPoolExecutor(max_workers=1) as pool:
        drawn = pool.submit(draw_sources)
        rows = [pool.submit(draw_row, ch) for ch in range(gate)]
        try:
            band = design_bandpass(SOURCE_BAND_HZ[0], SOURCE_BAND_HZ[1],
                                   _SOURCE_FILTER_ORDER, fs)
            g, labels, sources = drawn.result()
            del drawn  # a Future keeps its result: the float64 sources
            # Random orthogonal mixing (orthonormal columns, signs canonicalized).
            mix, r = np.linalg.qr(g)
            mix = mix * np.sign(np.diag(r))
            padded = np.empty(band.padded_len(total))
            for j in range(cfg.n_sources):
                sources[j] = filter_channels(band, sources[j], out=padded)
            del padded
            # Normalize so each source has unit in-band standard deviation.
            sources /= sources.std(axis=1, keepdims=True)

            pattern = pattern_matrix(cfg.n_sources)
            markers = []
            for i, label in enumerate(labels):
                onset = i * (gap + t_len) + gap
                scale = 1.0 + cfg.separability * pattern[label - 1]
                sources[:, onset:onset + t_len] *= scale[:, None]
                markers.append(EventMarker(onset, int(label)))

            src32 = sources.astype(np.float32)
            del sources
            rows += [pool.submit(draw_row, ch) for ch in range(gate, cfg.n_channels)]

            # One row's column blocks of the mixing product give the full sgemm's sums
            # bit for bit; float32 addition commutes, so noise + product is product + noise.
            mix32 = mix.astype(np.float32)
            for ch in range(cfg.n_channels):
                rows[ch].result()
                row = data[ch:ch + 1]  # 2-D: a 1-row matrix product is twice a vector's speed
                row *= cfg.noise_floor
                for a in range(0, total, _MIX_BLOCK):
                    row[:, a:a + _MIX_BLOCK] += mix32[ch:ch + 1] @ src32[:, a:a + _MIX_BLOCK]
        finally:
            for future in rows:
                future.cancel()  # a row not yet started is never drawn

    layout = (ChannelLayout.default_64() if cfg.n_channels == 64
              else ChannelLayout.generic(cfg.n_channels))
    return Recording(subject_id, fs, layout, data, markers, None)
