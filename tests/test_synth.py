import os
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sp_signal

from swarmbci import synth
from swarmbci.dsp import design_bandpass, filter_channels
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    ParadigmTiming,
    Recording,
    extract_trials,
)
from swarmbci.synth import (
    SOURCE_BAND_HZ,
    SynthConfig,
    generate_subject,
    pattern_matrix,
)

SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


def sequential_generate_subject(cfg, subject_id=None):
    """``generate_subject`` drawing and mixing on one thread, as it was before the helper thread.

    Kept as the reference that the threaded generator must equal bit for bit.
    """
    if subject_id is None:
        subject_id = f"synth-{cfg.seed}"
    rng = np.random.default_rng(cfg.seed)
    fs = cfg.fs_hz
    gap = int(round((cfg.timing.rest_s + cfg.timing.cue_s + cfg.timing.fixation_s) * fs))
    t_len = int(round(cfg.timing.imagery_s * fs))
    n_trials = 4 * cfg.trials_per_class
    total = n_trials * (gap + t_len)

    g = rng.standard_normal((cfg.n_channels, cfg.n_sources))
    mix, r = np.linalg.qr(g)
    mix = mix * np.sign(np.diag(r))

    labels = np.repeat(np.arange(1, 5), cfg.trials_per_class)
    rng.shuffle(labels)

    sources = rng.standard_normal((cfg.n_sources, total))
    band = design_bandpass(SOURCE_BAND_HZ[0], SOURCE_BAND_HZ[1], 4, fs)
    for j in range(cfg.n_sources):
        sources[j] = filter_channels(band, sources[j])
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


def slowed_filter(delay_s):
    """``filter_channels`` that sleeps first, so the noise draws run ahead of the sources."""
    def slow(*args, **kwargs):
        time.sleep(delay_s)
        return filter_channels(*args, **kwargs)
    return slow


class CountingGenerator:
    """A seeded ``Generator`` that counts the rows drawn into ``out=`` and can fail at one."""

    def __init__(self, seed, fail_at_row=None):
        self._rng = np.random.Generator(np.random.PCG64(seed))  # as default_rng(seed) makes
        self.rows, self._fail_at_row = 0, fail_at_row

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, out=None, **kwargs):
        if out is not None:
            if self.rows == self._fail_at_row:
                raise RuntimeError("draw failed")
            self.rows += 1
        return self._rng.standard_normal(*args, out=out, **kwargs)


def counting_generators(monkeypatch, fail_at_row=None):
    """Make ``np.random.default_rng`` return ``CountingGenerator``s; the list of those made."""
    made = []

    def default_rng(seed):
        made.append(CountingGenerator(seed, fail_at_row))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return made


def raised_in_a_caller(call):
    """Run ``call`` in a thread joined within 60 s: the exceptions it raised."""
    raised = []

    def run():
        try:
            call()
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "the call hung"
    return raised


class TestPatternMatrix:
    def test_rows_orthogonal(self):
        p = pattern_matrix(8)
        gram = p @ p.T
        off_diag = gram - np.diag(np.diag(gram))
        np.testing.assert_allclose(off_diag, 0.0, atol=1e-15)

    def test_rows_unit_norm(self):
        p = pattern_matrix(10)
        np.testing.assert_allclose(np.linalg.norm(p, axis=1), 1.0, atol=1e-15)

    def test_two_dominant_entries_per_row(self):
        p = pattern_matrix(8)
        assert p.shape == (4, 8)
        for row in p:
            assert np.sum(row > 0) == 2

    def test_constant_across_calls(self):
        np.testing.assert_array_equal(pattern_matrix(8), pattern_matrix(8))

    def test_too_few_sources(self):
        with pytest.raises(ValueError):
            pattern_matrix(4)


class TestGenerateSubject:
    def test_full_session_structure(self):
        # Defaults give the full session shape; markers checked at small scale
        # elsewhere, here only the structural contract on a reduced config.
        cfg = SynthConfig(n_channels=16, fs_hz=250, trials_per_class=50,
                          timing=SMALL_TIMING, separability=0.3, seed=0)
        rec = generate_subject(cfg)
        assert len(rec.markers) == 200
        assert rec.n_channels == 16
        labels = [t.label for t in extract_trials(rec, SMALL_TIMING).trials]
        assert np.bincount(labels, minlength=5)[1:].tolist() == [50, 50, 50, 50]

    def test_same_seed_bitwise_identical(self):
        cfg = SynthConfig(n_channels=8, fs_hz=250, trials_per_class=3,
                          timing=SMALL_TIMING, separability=0.7, seed=5)
        a, b = generate_subject(cfg), generate_subject(cfg)
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(n_channels=8, fs_hz=250, trials_per_class=3,
                    timing=SMALL_TIMING, separability=0.7)
        a = generate_subject(SynthConfig(seed=1, **base))
        b = generate_subject(SynthConfig(seed=2, **base))
        assert a != b

    def test_zero_separability_leaves_sources_unscaled(self, monkeypatch):
        # The reference scales no trial: separability 0.9 with an all-zero pattern.
        # Unpatched, 0.9 does scale them, so the reference can tell the two apart.
        base = dict(n_channels=8, fs_hz=250, trials_per_class=4,
                    timing=SMALL_TIMING, seed=9)
        zero = generate_subject(SynthConfig(separability=0.0, **base))
        scaled = generate_subject(SynthConfig(separability=0.9, **base))
        monkeypatch.setattr(synth, "pattern_matrix", lambda n_sources: np.zeros((4, n_sources)))
        unscaled = generate_subject(SynthConfig(separability=0.9, **base))
        np.testing.assert_array_equal(zero.data.view(np.uint32), unscaled.data.view(np.uint32))
        assert not np.array_equal(scaled.data, unscaled.data)

    def test_markers_at_imagery_onsets(self):
        cfg = SynthConfig(n_channels=8, fs_hz=250, trials_per_class=2,
                          timing=SMALL_TIMING, separability=0.5, seed=3)
        rec = generate_subject(cfg)
        gap = int(round(1.5 * 250))
        step = gap + int(round(2.0 * 250))
        assert [m.sample_index for m in rec.markers] == [i * step + gap for i in range(8)]

    def test_spectral_content_confined_to_band(self):
        cfg = SynthConfig(n_channels=8, fs_hz=250, trials_per_class=4,
                          timing=SMALL_TIMING, separability=0.9, seed=4)
        rec = generate_subject(cfg)
        freqs, psd = sp_signal.periodogram(rec.data.astype(np.float64), fs=250.0, axis=1)
        mean_psd = psd.mean(axis=0)
        in_band = (freqs >= 6.0) & (freqs <= 32.0)
        peak = mean_psd[in_band].max()
        out_avg = mean_psd[~in_band & (freqs > 0)].mean()
        assert peak / out_avg > 100.0  # > 20 dB

    def test_separability_monotonicity_small_scale(self):
        from swarmbci.config import RunConfig
        from swarmbci.evaluate import evaluate_recording
        accs = []
        for sep in (0.0, 0.45, 0.9):
            cfg = SynthConfig(n_channels=12, fs_hz=250, trials_per_class=12,
                              timing=SMALL_TIMING, separability=sep, seed=8)
            rec = generate_subject(cfg)
            accs.append(evaluate_recording(rec, RunConfig(seed=1, n_pairs=2),
                                           SMALL_TIMING).mean_accuracy)
        assert accs[2] - accs[0] >= 0.4
        assert accs[2] >= accs[0]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SynthConfig(separability=1.5)
        with pytest.raises(ValueError):
            SynthConfig(n_sources=80, n_channels=64)
        with pytest.raises(ValueError):
            SynthConfig(noise_floor=0.0)
        for floor in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_floor"):
                SynthConfig(noise_floor=floor)
        for fs in (60.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="fs_hz"):
                SynthConfig(fs_hz=fs)


#: Run in a fresh interpreter: the rise of the peak RSS over one generator call.
#: Both generators' modules, SciPy included, are imported before it is read. The
#: peak is VmHWM, the new process's own: ``ru_maxrss`` keeps the forking parent's.
_PEAK_RSS_CHILD = textwrap.dedent("""
    import re, sys
    sys.path.insert(0, sys.argv[1])
    import test_synth
    from swarmbci import synth
    from swarmbci.recording import ParadigmTiming

    def peak_kib():
        with open("/proc/self/status") as fh:
            return int(re.search(r"VmHWM:\\s*(\\d+) kB", fh.read()).group(1))

    cfg = synth.SynthConfig(n_channels=64, fs_hz=250.0, trials_per_class=25,
                            timing=ParadigmTiming(), seed=2)
    if sys.argv[2] == "sequential":
        generate = test_synth.sequential_generate_subject
    else:
        synth.filter_channels = test_synth.slowed_filter(0.1)
        generate = synth.generate_subject
    before = peak_kib()
    generate(cfg)
    print(peak_kib() - before)
""")


class TestDrawThread:
    @pytest.mark.parametrize("n_channels", [8, 16, 64])
    @pytest.mark.parametrize("fs", [250.0, 1000.0])
    @pytest.mark.parametrize("separability", [0.0, 0.9])
    def test_equals_the_sequential_generator(self, n_channels, fs, separability):
        cfg = SynthConfig(n_channels=n_channels, fs_hz=fs, trials_per_class=3,
                          timing=SMALL_TIMING, separability=separability, seed=n_channels)
        assert generate_subject(cfg) == sequential_generate_subject(cfg)

    def test_equals_the_sequential_generator_with_the_noise_ahead(self, monkeypatch):
        # 64 channels: the noise draws 40 rows before it waits for the sources.
        cfg = SynthConfig(n_channels=64, fs_hz=1000.0, trials_per_class=3,
                          timing=SMALL_TIMING, separability=0.9, seed=11)
        monkeypatch.setattr(synth, "filter_channels", slowed_filter(0.05))
        assert generate_subject(cfg) == sequential_generate_subject(cfg)

    def test_concurrent_calls_each_equal_the_sequential_generator(self):
        # More callers than cores, switching threads often: no call may take
        # another's draws or rows.
        cfgs = [SynthConfig(n_channels=64, fs_hz=250.0, trials_per_class=3, timing=SMALL_TIMING,
                            separability=0.9, seed=seed) for seed in range(4)]
        results = {}

        def run(cfg):
            results[cfg.seed] = generate_subject(cfg)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(c,)) for c in cfgs]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for c in cfgs:
            assert results[c.seed] == sequential_generate_subject(c)

    @pytest.mark.parametrize("extra", [4, 8, 100, synth._MIX_BLOCK - 4])
    def test_mixing_in_column_blocks_equals_the_full_product(self, extra):
        rng = np.random.default_rng(extra)
        mix = rng.standard_normal((64, 8)).astype(np.float32)
        sources = rng.standard_normal((8, 2 * synth._MIX_BLOCK + extra), dtype=np.float32)
        noise = rng.standard_normal((64, sources.shape[1]), dtype=np.float32)
        blocked = noise.copy()
        for a in range(0, sources.shape[1], synth._MIX_BLOCK):
            blocked[:, a:a + synth._MIX_BLOCK] += mix @ sources[:, a:a + synth._MIX_BLOCK]
        np.testing.assert_array_equal(blocked, mix @ sources + noise)

    @pytest.mark.parametrize("group", [1, 7, 16, 64])
    def test_mixing_in_row_groups_equals_the_64_row_blocks(self, group):
        # generate_subject finishes one row at a time: a 1-row product of each column block.
        rng = np.random.default_rng(group)
        mix = rng.standard_normal((64, 8)).astype(np.float32)
        sources = rng.standard_normal((8, 2 * synth._MIX_BLOCK + 100), dtype=np.float32)
        noise = rng.standard_normal((64, sources.shape[1]), dtype=np.float32)
        blocked, grouped = noise.copy(), noise.copy()
        for a in range(0, sources.shape[1], synth._MIX_BLOCK):
            blocked[:, a:a + synth._MIX_BLOCK] += mix @ sources[:, a:a + synth._MIX_BLOCK]
        for r in range(0, 64, group):
            for a in range(0, sources.shape[1], synth._MIX_BLOCK):
                grouped[r:r + group, a:a + synth._MIX_BLOCK] += (
                    mix[r:r + group] @ sources[:, a:a + synth._MIX_BLOCK])
        np.testing.assert_array_equal(grouped.view(np.uint32), blocked.view(np.uint32))

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_peak_memory_does_not_depend_on_the_thread_timing(self):
        # With the sources slowed, noise drawn past the gate row would be held beside
        # the float64 sources and their std temporary: 24 more rows (31 MB) here.
        # The sequential peak is the data and the float32 sources, 72 rows.
        # tracemalloc cannot show this: it counts ``data`` whole when it is allocated.
        tests, src = str(Path(__file__).parent), str(Path(synth.__file__).resolve().parents[1])
        rise = {}
        for which in ("sequential", "threaded"):
            proc = subprocess.run([sys.executable, "-c", _PEAK_RSS_CHILD, tests, which],
                                  capture_output=True, text=True, timeout=300, check=True,
                                  env={**os.environ, "PYTHONPATH": src})
            rise[which] = int(proc.stdout) * 1024
        # One mixing block, and 1 MiB for the helper thread's stack and the executor.
        bound = rise["sequential"] + 64 * synth._MIX_BLOCK * 4 + 2**20
        assert rise["threaded"] <= bound, rise

    def test_source_error_is_raised_and_the_thread_ends(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("filter failed")

        monkeypatch.setattr(synth, "filter_channels", fail)
        made = counting_generators(monkeypatch)
        cfg = SynthConfig(n_channels=64, fs_hz=250.0, trials_per_class=3,
                          timing=SMALL_TIMING, seed=1)
        before = threading.active_count()
        raised = raised_in_a_caller(lambda: generate_subject(cfg))
        assert [str(e) for e in raised] == ["filter failed"]
        assert threading.active_count() == before
        # The helper stops before the gate row rather than drawing every row.
        assert made[0].rows < cfg.n_channels

    def test_draw_error_is_raised_while_the_rows_are_finished(self, monkeypatch):
        # The helper fails two rows past the gate (40 of 64), once the sources are freed.
        made = counting_generators(monkeypatch, fail_at_row=42)
        cfg = SynthConfig(n_channels=64, fs_hz=250.0, trials_per_class=3,
                          timing=SMALL_TIMING, seed=1)
        before = threading.active_count()
        raised = raised_in_a_caller(lambda: generate_subject(cfg))
        assert [str(e) for e in raised] == ["draw failed"]
        assert threading.active_count() == before
        assert made[0].rows == 42

    def test_draw_error_before_the_gate_is_raised_and_the_thread_ends(self, monkeypatch):
        # The helper fails at row 5 of 64, before the gate row (40): raised once row 5 is reached.
        made = counting_generators(monkeypatch, fail_at_row=5)
        cfg = SynthConfig(n_channels=64, fs_hz=250.0, trials_per_class=3,
                          timing=SMALL_TIMING, seed=1)
        before = threading.active_count()
        raised = raised_in_a_caller(lambda: generate_subject(cfg))
        assert [str(e) for e in raised] == ["draw failed"]
        assert threading.active_count() == before
        assert made[0].rows == 5

    def test_no_thread_outlives_a_call(self):
        cfg = SynthConfig(n_channels=16, fs_hz=250.0, trials_per_class=3,
                          timing=SMALL_TIMING, seed=2)
        before = threading.active_count()
        generate_subject(cfg)
        assert threading.active_count() == before
