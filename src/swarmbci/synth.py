"""Seeded synthetic EEG generator with controllable class separability.

A fixed 4 x n_sources pattern matrix assigns each command class two
dominant latent sources. Sources are band-limited (8-30 Hz) Gaussian
noise mixed into channels through a random orthogonal matrix; during a
trial's imagery window the class's dominant sources are amplified by
(1 + separability * pattern). Separability 0 makes all four classes
statistically identical, so downstream accuracy sits at chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

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
        if self.n_sources > self.n_channels:
            raise ValueError("n_sources must not exceed n_channels")
        if self.n_sources < 8:
            raise ValueError("need at least 8 sources (2 dominant per class)")
        if not (0.0 <= self.separability <= 1.0):
            raise ValueError("separability must be in [0, 1]")
        if self.noise_floor <= 0:
            raise ValueError("noise_floor must be > 0")
        if self.trials_per_class < 1:
            raise ValueError("trials_per_class must be >= 1")
        if not (2 * SOURCE_BAND_HZ[1] < self.fs_hz < math.inf):
            raise ValueError(f"fs_hz must be finite and exceed {2 * SOURCE_BAND_HZ[1]} Hz")


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
    """
    if subject_id is None:
        subject_id = f"synth-{cfg.seed}"
    rng = np.random.default_rng(cfg.seed)
    fs = cfg.fs_hz
    gap = int(round((cfg.timing.rest_s + cfg.timing.cue_s + cfg.timing.fixation_s) * fs))
    t_len = int(round(cfg.timing.imagery_s * fs))
    n_trials = 4 * cfg.trials_per_class
    total = n_trials * (gap + t_len)

    # Random orthogonal mixing (orthonormal columns, signs canonicalized).
    g = rng.standard_normal((cfg.n_channels, cfg.n_sources))
    mix, r = np.linalg.qr(g)
    mix = mix * np.sign(np.diag(r))

    labels = np.repeat(np.arange(1, 5), cfg.trials_per_class)
    rng.shuffle(labels)

    sources = rng.standard_normal((cfg.n_sources, total))
    band = design_bandpass(SOURCE_BAND_HZ[0], SOURCE_BAND_HZ[1], _SOURCE_FILTER_ORDER, fs)
    for j in range(cfg.n_sources):
        sources[j] = filter_channels(band, sources[j])
    # Normalize so each source has unit in-band standard deviation.
    sources /= sources.std(axis=1, keepdims=True)

    pattern = pattern_matrix(cfg.n_sources)
    markers = []
    for i, label in enumerate(labels):
        onset = i * (gap + t_len) + gap
        scale = 1.0 + cfg.separability * pattern[label - 1]
        sources[:, onset:onset + t_len] *= scale[:, None]
        markers.append(EventMarker(onset, int(label)))

    sources = sources.astype(np.float32)
    data = mix.astype(np.float32) @ sources
    del sources
    noise = np.empty(total, dtype=np.float32)
    for ch in range(cfg.n_channels):
        rng.standard_normal(dtype=np.float32, out=noise)
        noise *= cfg.noise_floor
        data[ch] += noise

    layout = (ChannelLayout.default_64() if cfg.n_channels == 64
              else ChannelLayout.generic(cfg.n_channels))
    return Recording(subject_id, fs, layout, data, markers, None)
