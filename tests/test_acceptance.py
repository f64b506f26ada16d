"""End-to-end acceptance suite.

Each test exercises one release criterion at its pinned tolerance and
prints a single PASS/FAIL line (run with -s or read captured output).
The full-scale statistical checks share generated subjects through
session-scoped fixtures to stay within the runtime budget.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from swarmbci.cli import main as cli_main
from swarmbci.config import RunConfig
from swarmbci.csp import fit_csp_matrices, trial_scatter
from swarmbci.decode import fit_decoder, fit_lda, predict
from swarmbci.dsp import design_bandpass, filtfilt, frequency_response
from swarmbci.evaluate import cross_validate, evaluate_recording
from swarmbci.recording import (
    ChannelLayout,
    EventMarker,
    ParadigmTiming,
    Recording,
    Trial,
    TrialSet,
    extract_trials,
    load_recording,
    save_recording,
)
from swarmbci.swarm import (
    SwarmConfig,
    _clusters_single_linkage,
    init_swarm,
    metrics,
    run_until_converged,
    set_behavior,
)
from swarmbci.synth import SynthConfig, generate_subject

FULL_TIMING = ParadigmTiming()  # 3 / 3 / 3 / 4 s


def _report(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    # Visible with -s, or via -rP / -rA in the post-run summary.
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _full_scale_accuracy(separability: float, seed: int) -> float:
    """Full-scale subject (64 ch, 1 kHz, 200 trials) under 5-fold CV."""
    cfg = SynthConfig(separability=separability, seed=seed)
    rec = generate_subject(cfg, subject_id=f"acc_sep{separability}_s{seed}")
    return evaluate_recording(rec, RunConfig(seed=seed), FULL_TIMING).mean_accuracy


@pytest.fixture(scope="session")
def chance_anchor():
    start = time.monotonic()
    means = [_full_scale_accuracy(0.0, seed) for seed in range(7)]
    return means, time.monotonic() - start


@pytest.fixture(scope="session")
def separable_means():
    return [_full_scale_accuracy(0.9, seed + 100) for seed in range(7)]


def test_chance_level_anchor(chance_anchor):
    means, elapsed = chance_anchor
    grand = float(np.mean(means))
    _report(
        "chance-level anchor: 7 subjects at separability 0, grand mean in [0.18, 0.32], < 5 min",
        0.18 <= grand <= 0.32 and elapsed < 300.0,
        f"grand_mean={grand:.4f}, elapsed={elapsed:.1f}s",
    )


def test_separable_oracle(chance_anchor, separable_means):
    grand_09 = float(np.mean(separable_means))
    grand_00 = float(np.mean(chance_anchor[0]))
    acc_03 = _full_scale_accuracy(0.3, 200)
    acc_06 = _full_scale_accuracy(0.6, 201)
    curve = [grand_00, acc_03, acc_06, grand_09]
    monotone = all(a <= b + 1e-12 for a, b in zip(curve, curve[1:]))
    _report(
        "separable oracle: grand mean >= 0.90 at 0.9; monotone over {0,0.3,0.6,0.9}; gap >= 0.4",
        grand_09 >= 0.90 and monotone and (grand_09 - grand_00) >= 0.4,
        "curve=" + ",".join(f"{a:.3f}" for a in curve),
    )


def _random_spd(n, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    m = q @ np.diag(rng.uniform(0.2, 1.0, size=n)) @ q.T
    m = 0.5 * (m + m.T)
    return m / np.trace(m)


def test_csp_algebra():
    rng = np.random.default_rng(1234)
    worst_identity = 0.0
    worst_complement = 0.0
    sizes = [4, 8, 64]
    for i in range(100):
        n = sizes[i % 3]
        c_pos, c_neg = _random_spd(n, rng), _random_spd(n, rng)
        model = fit_csp_matrices(c_pos, c_neg, n_pairs=1)
        composite = c_pos + c_neg + 1e-9 * np.eye(n)
        worst_identity = max(worst_identity, float(np.max(np.abs(
            model.w.T @ composite @ model.w - np.eye(n)))))
        fwd = fit_csp_matrices(c_pos, c_neg, n_pairs=1, ridge=0.0)
        rev = fit_csp_matrices(c_neg, c_pos, n_pairs=1, ridge=0.0)
        worst_complement = max(worst_complement, float(np.max(np.abs(
            rev.eigenvalues - (1.0 - fwd.eigenvalues)[::-1]))))

    worst_brute = 0.0
    for n in (2, 3):
        for _ in range(5):
            c_pos, c_neg = _random_spd(n, rng), _random_spd(n, rng)
            model = fit_csp_matrices(c_pos, c_neg, n_pairs=1, ridge=0.0)
            w = rng.standard_normal((200_000, n))
            num = np.einsum("ij,jk,ik->i", w, c_pos, w)
            den = np.einsum("ij,jk,ik->i", w, c_pos + c_neg, w)
            worst_brute = max(worst_brute,
                              abs(model.eigenvalues[0] - float(np.max(num / den))))

    _report(
        "CSP algebra: 100 SPD pairs — whitening identity < 1e-8, complementarity "
        "within 1e-8, brute-force eigenvalue within 1e-3 for <= 3 channels",
        worst_identity < 1e-8 and worst_complement < 1e-8 and worst_brute < 1e-3,
        f"identity={worst_identity:.2e}, complement={worst_complement:.2e}, "
        f"brute={worst_brute:.2e}",
    )


def test_filter_correctness():
    fs = 1000.0
    spec = design_bandpass(8.0, 30.0, order=2, fs=fs)
    edge_err = max(abs(frequency_response(spec, f, fs)[0] - 1 / np.sqrt(2))
                   for f in (8.0, 30.0))

    t = np.arange(int(4 * fs)) / fs
    max_lag = 0
    for f in (10.0, 15.0, 20.0, 25.0):
        x = np.sin(2 * np.pi * f * t)
        y = filtfilt(spec, x)
        core = slice(int(fs), int(3 * fs))  # ignore edge transients
        lags = np.arange(-5, 6)
        corr = [np.dot(y[core], np.roll(x, lag)[core]) for lag in lags]
        max_lag = max(max_lag, abs(int(lags[int(np.argmax(corr))])))

    h0 = frequency_response(spec, 0.0, fs)[0] ** 2  # forward-backward magnitude
    dc_db = -20.0 * np.log10(max(h0, 1e-300))

    _report(
        "filter correctness: -3 dB edges within 1e-4, zero-phase within 1 sample, "
        "DC rejection > 120 dB",
        edge_err < 1e-4 and max_lag <= 1 and dc_db > 120.0,
        f"edge_err={edge_err:.2e}, max_lag={max_lag}, dc_rejection={dc_db:.0f}dB",
    )


def _lda_closed_form(pos, neg, shrinkage=Fraction(0)):
    pos = [[Fraction(v) for v in row] for row in pos]
    neg = [[Fraction(v) for v in row] for row in neg]
    d = len(pos[0])
    mu_p = [sum(r[j] for r in pos) / len(pos) for j in range(d)]
    mu_n = [sum(r[j] for r in neg) / len(neg) for j in range(d)]
    sigma = [[Fraction(0)] * d for _ in range(d)]
    for rows, mu in ((pos, mu_p), (neg, mu_n)):
        for r in rows:
            for i in range(d):
                for j in range(d):
                    sigma[i][j] += (r[i] - mu[i]) * (r[j] - mu[j])
    n_tot = len(pos) + len(neg)
    sigma = [[v / n_tot for v in row] for row in sigma]
    tr = sum(sigma[i][i] for i in range(d))
    for i in range(d):
        for j in range(d):
            sigma[i][j] *= (1 - shrinkage)
            if i == j:
                sigma[i][j] += shrinkage * tr / d
    diff = [mu_p[j] - mu_n[j] for j in range(d)]
    if d == 1:
        w = [diff[0] / sigma[0][0]]
    else:
        det = sigma[0][0] * sigma[1][1] - sigma[0][1] * sigma[1][0]
        w = [(diff[0] * sigma[1][1] - diff[1] * sigma[0][1]) / det,
             (sigma[0][0] * diff[1] - sigma[1][0] * diff[0]) / det]
    bias = -sum(w[j] * (mu_p[j] + mu_n[j]) for j in range(d)) / 2
    return w, bias


SMALL_TIMING = ParadigmTiming(0.5, 0.5, 0.5, 2.0)


def _small_trialset(separability, seed, trials_per_class=8):
    cfg = SynthConfig(n_channels=12, fs_hz=250.0, trials_per_class=trials_per_class,
                      timing=SMALL_TIMING, separability=separability, seed=seed)
    return extract_trials(generate_subject(cfg), SMALL_TIMING)


def _fit(ts, config):
    scatters = np.stack([trial_scatter(t.samples) for t in ts.trials])
    return fit_decoder(scatters, ts.labels, ts.trials[0].n_samples, config)


def _predict(model, trial):
    return predict(model, trial_scatter(trial.samples), trial.n_samples)


def test_lda_oracle():
    pos1, neg1 = [[1.9], [2.1], [2.3]], [[-0.1], [0.1], [0.3]]
    w1, b1 = _lda_closed_form(pos1, neg1)
    m1 = fit_lda(np.array(pos1, dtype=float), np.array(neg1, dtype=float), shrinkage=0.0)
    err_1d = max(abs(m1.weights[0] - float(w1[0])), abs(m1.bias - float(b1)))

    pos2 = [[2, 1], [3, -1], [4, 0], [3, 2]]
    neg2 = [[0, 0], [-1, 1], [1, -1], [0, 2]]
    w2, b2 = _lda_closed_form(pos2, neg2, Fraction(1, 20))
    m2 = fit_lda(np.array(pos2, dtype=float), np.array(neg2, dtype=float), shrinkage=0.05)
    err_2d = max(float(np.max(np.abs(m2.weights - [float(v) for v in w2]))),
                 abs(m2.bias - float(b2)))

    ts = _small_trialset(0.9, seed=5, trials_per_class=4)
    doubled = TrialSet(ts.trials + ts.trials, ts.layout, ts.sampling_rate_hz)
    single = _fit(ts, RunConfig(n_pairs=2))
    dup = _fit(doubled, RunConfig(n_pairs=2))
    probe = _small_trialset(0.9, seed=6, trials_per_class=2).trials[0]
    _, s1 = _predict(single, probe)
    _, s2 = _predict(dup, probe)
    dup_err = max(abs(s1[c] - s2[c]) for c in (1, 2, 3, 4))

    _report(
        "LDA oracle: 1-D and 2-D closed form within 1e-10, duplication invariance within 1e-9",
        err_1d < 1e-10 and err_2d < 1e-10 and dup_err < 1e-9,
        f"err_1d={err_1d:.2e}, err_2d={err_2d:.2e}, dup_err={dup_err:.2e}",
    )


def test_no_leakage_canary():
    ts = _small_trialset(0.0, seed=21, trials_per_class=8)
    x = ts.trials[0].samples.astype(np.float64).copy()
    x[0] = 200.0 * np.sin(2 * np.pi * 15.0 * np.arange(x.shape[1]) / 250.0)
    trials = list(ts.trials)
    trials[0] = Trial(4, x)
    spiked = TrialSet(trials, ts.layout, ts.sampling_rate_hz)

    cfg = RunConfig(seed=4, n_pairs=2, k_folds=4)
    res = cross_validate(spiked, 4, cfg.seed, cfg)
    canary_fold = res.fold_of_trial[0]
    train_idx = [i for i in range(len(spiked)) if res.fold_of_trial[i] != canary_fold]
    leak_free = _fit(spiked.subset(train_idx), cfg)
    leaked = _fit(spiked.subset(sorted(train_idx + [0])), cfg)
    p_free = _predict(leak_free, spiked.trials[0])[0]
    p_leaked = _predict(leaked, spiked.trials[0])[0]

    _report(
        "no-leakage canary: training on the canary provably flips its prediction; "
        "the CV harness matches the leak-free fit",
        p_leaked == 4 and p_free != p_leaked and res.predicted_labels[0] == p_free,
        f"leak_free={p_free}, leaked={p_leaked}, harness={res.predicted_labels[0]}",
    )


def test_swarm_invariants():
    cfg = SwarmConfig()
    state = init_swarm(cfg)
    checks = {}

    hover, hover_traj, hover_steps = run_until_converged(
        set_behavior(state, "Hovering", cfg), cfg)
    checks["hover identity"] = (hover_steps == 0
                                and np.array_equal(hover.positions, state.positions))

    agg, agg_traj, agg_steps = run_until_converged(
        set_behavior(hover, "Aggregating", cfg), cfg)
    series = [float(np.mean(np.linalg.norm(p - p.mean(axis=0), axis=1)))
              for p in agg_traj]
    monotone = all(cur <= prev + 1e-9 for prev, cur in zip(series, series[1:])
                   if prev > series[-1] + 2 * cfg.max_speed)
    m_agg = metrics(agg, cfg)
    checks["aggregate"] = (agg_steps <= 500 and m_agg.mean_centroid_dist <= 5.0
                           and monotone)

    split, split_traj, split_steps = run_until_converged(
        set_behavior(agg, "Splitting", cfg), cfg)
    clusters = _clusters_single_linkage(split.positions, 4 * cfg.min_separation)
    m_split = metrics(split, cfg)
    checks["split"] = (split_steps <= 500
                       and sorted(len(c) for c in clusters) == [25, 25]
                       and m_split.cluster_gap >= 20.0)

    nn_before = metrics(split, cfg).mean_nn_dist
    disp, disp_traj, disp_steps = run_until_converged(
        set_behavior(split, "Dispersing", cfg, seed=0), cfg)
    checks["disperse"] = (disp_steps <= 500
                          and metrics(disp, cfg).mean_nn_dist >= nn_before)

    xmin, xmax, ymin, ymax = cfg.arena
    checks["containment"] = all(
        np.all(p[:, 0] >= xmin) and np.all(p[:, 0] <= xmax)
        and np.all(p[:, 1] >= ymin) and np.all(p[:, 1] <= ymax)
        for traj in (hover_traj, agg_traj, split_traj, disp_traj) for p in traj)

    failed = [k for k, ok in checks.items() if not ok]
    _report(
        "swarm invariants: hover identity, aggregate <= 5 m monotone, split 2x25 "
        "gap >= 20 m, disperse spreads, in-arena, <= 500 steps each",
        not failed,
        f"failed={failed}" if failed else
        f"agg={agg_steps}, split={split_steps}, disp={disp_steps} steps",
    )


def test_determinism_audit(tmp_path):
    config = {
        "run": {"seed": 5, "n_pairs": 2},
        "timing": {"fixation_s": 0.5, "cue_s": 0.5, "rest_s": 0.5, "imagery_s": 2.0},
        "synth": {"n_channels": 12, "fs_hz": 250.0, "trials_per_class": 8,
                  "separability": 0.9, "seed": 100},
        "swarm": {"n_drones": 12, "r_aggregate": 3.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    data = tmp_path / "data"
    assert cli_main(["synth", "--config", str(cfg_path), "--out", str(data),
                     "--subjects", "1"]) == 0
    nsr = str(data / "subject01.nsr")

    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["pipeline", nsr, "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outs.append(out)

    m1 = json.loads((outs[0] / "manifest.json").read_text())
    m2 = json.loads((outs[1] / "manifest.json").read_text())
    m1.pop("created_at"), m2.pop("created_at")
    identical = m1 == m2 and all(
        (outs[0] / rel).read_bytes() == (outs[1] / rel).read_bytes()
        for rel in m1["files"])
    _report(
        "determinism audit: two pipeline runs byte-identical modulo the timestamp field",
        identical,
        f"{1 + len(m1['files'])} files compared",
    )


def test_format_round_trip(tmp_path):
    rng = np.random.default_rng(99)
    failures = 0
    for i in range(1000):
        n_ch = int(rng.integers(1, 9))
        n_samp = int(rng.integers(10, 200))
        data = (rng.standard_normal((n_ch, n_samp)) * 10.0).astype(np.float32)
        n_markers = int(rng.integers(0, 4))
        onsets = np.sort(rng.choice(max(n_samp - 1, 1), size=n_markers, replace=False))
        markers = [EventMarker(int(s), int(rng.integers(1, 5))) for s in onsets]
        rec = Recording(f"rt{i}", float(rng.integers(100, 2000)),
                        ChannelLayout.generic(n_ch), data, markers,
                        notch_applied_hz=60.0 if i % 2 else None)
        path = tmp_path / "rt.nsr"
        save_recording(rec, path)
        if load_recording(path) != rec:
            failures += 1
    _report(
        "format round-trip: 1000 randomized recordings save/load bit-exactly",
        failures == 0,
        f"failures={failures}",
    )
