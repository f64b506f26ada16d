from dataclasses import replace

import numpy as np
import pytest

from swarmbci.swarm import (
    SwarmConfig,
    SwarmState,
    _clusters_single_linkage,
    _differences,
    _far_from_all,
    behavior_name,
    converged,
    hex_spiral,
    init_swarm,
    metrics,
    run_until_converged,
    save_trajectory_csv,
    set_behavior,
    step,
)


@pytest.fixture
def cfg():
    return SwarmConfig()


def pairwise_min(positions):
    d = np.linalg.norm(positions[None] - positions[:, None], axis=2)
    np.fill_diagonal(d, np.inf)
    return d.min()


def in_arena(positions, cfg):
    xmin, xmax, ymin, ymax = cfg.arena
    return (np.all(positions[:, 0] >= xmin) and np.all(positions[:, 0] <= xmax)
            and np.all(positions[:, 1] >= ymin) and np.all(positions[:, 1] <= ymax))


class TestInitSwarm:
    def test_default_placement(self, cfg):
        s = init_swarm(cfg)
        assert s.positions.shape == (50, 2)
        assert in_arena(s.positions, cfg)
        assert pairwise_min(s.positions) >= 2 * cfg.min_separation - 1e-9
        assert s.behavior == "Hovering"
        np.testing.assert_array_equal(s.positions, s.anchors)

    def test_two_drones_symmetric_about_center(self):
        cfg = SwarmConfig(n_drones=2)
        s = init_swarm(cfg)
        np.testing.assert_allclose(s.positions.mean(axis=0), cfg.center, atol=1e-12)
        np.testing.assert_allclose(s.positions[0] - cfg.center,
                                   -(s.positions[1] - cfg.center), atol=1e-12)

    def test_deterministic(self, cfg):
        np.testing.assert_array_equal(init_swarm(cfg).positions, init_swarm(cfg).positions)

    def test_arena_too_small(self):
        with pytest.raises(ValueError, match="arena"):
            init_swarm(SwarmConfig(n_drones=50, arena=(0.0, 5.0, 0.0, 5.0)))

    def test_initial_state_is_single_cluster(self, cfg):
        assert metrics(init_swarm(cfg), cfg).cluster_count == 1


class TestHexSpiral:
    def test_counts_and_spacing(self):
        pts = hex_spiral(37, 2.0)
        assert pts.shape == (37, 2)
        assert pairwise_min(pts) == pytest.approx(2.0, abs=1e-9)

    def test_origin_first(self):
        np.testing.assert_array_equal(hex_spiral(5, 1.0)[0], [0.0, 0.0])


class TestSetBehavior:
    def test_hovering_targets_are_anchors(self, cfg):
        s = init_swarm(cfg)
        s2 = set_behavior(s, "Hovering", cfg)
        np.testing.assert_array_equal(s2.targets, s2.anchors)
        assert s2.step_count == 0

    def test_splitting_even_groups(self, cfg):
        s = set_behavior(init_swarm(cfg), "Splitting", cfg)
        centroid = s.positions.mean(axis=0)
        left = np.sum(s.targets[:, 0] < centroid[0])
        right = np.sum(s.targets[:, 0] > centroid[0])
        assert left == 25 and right == 25

    def test_dispersing_deterministic_per_seed(self, cfg):
        s = init_swarm(cfg)
        a = set_behavior(s, "Dispersing", cfg, seed=7)
        b = set_behavior(s, "Dispersing", cfg, seed=7)
        np.testing.assert_array_equal(a.targets, b.targets)
        c = set_behavior(s, "Dispersing", cfg, seed=8)
        assert not np.array_equal(a.targets, c.targets)

    def test_dispersing_targets_separated(self, cfg):
        s = set_behavior(init_swarm(cfg), "Dispersing", cfg, seed=1)
        assert pairwise_min(s.targets) >= 2 * cfg.min_separation
        assert in_arena(s.targets, cfg)

    def test_dispersing_crowded_arena_fails(self):
        # 50 drones needing pairwise >= 2 m cannot fit a 10 x 10 arena.
        cfg = SwarmConfig(n_drones=50, arena=(0.0, 10.0, 0.0, 10.0),
                          min_separation=1.0, r_aggregate=2.5, d_split=6.0)
        xs, ys = np.meshgrid(np.linspace(1, 9, 10), np.linspace(1, 9, 5))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        s = SwarmState(pos, pos.copy(), pos.copy(), "Hovering")
        with pytest.raises(ValueError, match="arena too crowded"):
            set_behavior(s, "Dispersing", cfg, seed=0)

    def test_aggregating_targets_near_radius(self, cfg):
        # The target disc packs inside r_aggregate of the centroid; the
        # partial outer ring may offset the pack centroid by one spacing.
        s = set_behavior(init_swarm(cfg), "Aggregating", cfg)
        centroid = s.positions.mean(axis=0)
        dists = np.linalg.norm(s.targets - centroid, axis=1)
        assert dists.mean() <= cfg.r_aggregate
        assert dists.max() <= 1.1 * cfg.r_aggregate

    def test_unknown_behavior(self, cfg):
        with pytest.raises(ValueError, match="unknown behavior"):
            set_behavior(init_swarm(cfg), "Swarming", cfg)

    def test_behavior_code_names(self):
        assert behavior_name(1) == "Hovering"
        assert behavior_name(4) == "Aggregating"
        with pytest.raises(ValueError):
            behavior_name(5)


class TestStep:
    def test_drone_at_target_stays(self, cfg):
        s = init_swarm(cfg)  # targets == positions
        s2 = step(s, cfg)
        np.testing.assert_array_equal(s2.positions, s.positions)
        assert s2.step_count == 1

    def test_unit_move_along_bearing(self):
        cfg = SwarmConfig(n_drones=2, arena=(0.0, 100.0, 0.0, 100.0))
        pos = np.array([[10.0, 10.0], [90.0, 90.0]])
        tgt = np.array([[10.0, 20.0], [90.0, 90.0]])
        s = SwarmState(pos, pos.copy(), tgt, "Hovering")
        s2 = step(s, cfg)
        np.testing.assert_allclose(s2.positions[0], [10.0, 11.0], atol=1e-12)
        np.testing.assert_allclose(s2.positions[1], [90.0, 90.0], atol=1e-12)

    def test_coincident_pair_separates_along_x(self):
        cfg = SwarmConfig(n_drones=2)
        pos = np.array([[50.0, 50.0], [50.0, 50.0]])
        s = SwarmState(pos, pos.copy(), pos.copy(), "Hovering")
        s2 = step(s, cfg)
        gap = s2.positions[1] - s2.positions[0]
        np.testing.assert_allclose(gap, [cfg.min_separation, 0.0], atol=1e-9)
        # Lower index moved toward -x.
        assert s2.positions[0][0] < 50.0 < s2.positions[1][0]

    def test_symmetric_separation_correction(self):
        cfg = SwarmConfig(n_drones=2)
        pos = np.array([[50.0, 50.0], [50.4, 50.0]])
        s = SwarmState(pos, pos.copy(), pos.copy(), "Hovering")
        s2 = step(s, cfg)
        assert np.linalg.norm(s2.positions[1] - s2.positions[0]) == pytest.approx(
            cfg.min_separation, abs=1e-9)
        assert s2.positions.mean(axis=0) == pytest.approx([50.2, 50.0], abs=1e-9)

    def test_update_order_irrelevant(self, cfg):
        # Synchronous update: permuting drone indices commutes with step.
        s = set_behavior(init_swarm(cfg), "Aggregating", cfg)
        rng = np.random.default_rng(3)
        perm = rng.permutation(cfg.n_drones)
        permuted = SwarmState(s.positions[perm], s.anchors[perm], s.targets[perm],
                              s.behavior, s.step_count)
        np.testing.assert_allclose(step(permuted, cfg).positions,
                                   step(s, cfg).positions[perm], atol=1e-12)


def reference_step(state, cfg):
    """The pair-loop step that :func:`step` replaced, kept to compare against."""
    delta = state.targets - state.positions
    dist = np.linalg.norm(delta, axis=1)
    scale = np.where(dist > 0, np.minimum(cfg.max_speed, dist) / np.maximum(dist, 1e-300), 0.0)
    moved = state.positions + delta * scale[:, None]

    diff = moved[None, :, :] - moved[:, None, :]
    pair_dist = np.linalg.norm(diff, axis=2)
    correction = np.zeros_like(moved)
    ii, jj = np.where(np.triu(pair_dist < cfg.min_separation, k=1))
    for i, j in zip(ii, jj):
        d = pair_dist[i, j]
        if d > 0:
            direction = diff[i, j] / d
        else:
            direction = np.array([1.0, 0.0])
        push = 0.5 * (cfg.min_separation - d)
        correction[i] -= direction * push
        correction[j] += direction * push
    moved = moved + correction

    xmin, xmax, ymin, ymax = cfg.arena
    moved[:, 0] = np.clip(moved[:, 0], xmin, xmax)
    moved[:, 1] = np.clip(moved[:, 1], ymin, ymax)
    return moved


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def crowded_states():
    """Seeded (state, config) pairs with many close pairs, coincident ones and chains."""
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = (5, 50, 120)[seed % 3]
        cfg = SwarmConfig(n_drones=n, arena=(0.0, 40.0, 0.0, 40.0), min_separation=1.5,
                          max_speed=(0.5, 1.0, 3.0)[seed % 3])
        side = np.sqrt(n) * (0.5, 1.0, 2.0)[seed // 4]
        pos = 20.0 + rng.uniform(-side / 2, side / 2, (n, 2))
        pos[1::7] = pos[0::7][:len(pos[1::7])]  # coincident pairs
        if n >= 50:
            pos[10:20] = [[5.0 + 0.4 * k, 5.0 + 0.1 * k] for k in range(10)]  # an overlap chain
        pos[-1] = [0.0, 40.0]  # a corner, where the clip acts
        targets = 20.0 + rng.uniform(-side, side, (n, 2))
        yield SwarmState(pos, pos.copy(), targets, "Hovering"), cfg


class TestVectorisedGeometry:
    def test_differences_equal_the_norm_bit_for_bit(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            a = rng.uniform(-1, 1, (rng.integers(1, 40), 2)) * 10.0 ** rng.integers(-3, 4)
            b = rng.uniform(-1, 1, (rng.integers(1, 40), 2)) * 10.0 ** rng.integers(-3, 4)
            dx, dy, dist = _differences(a, b)
            expected = b[None, :, :] - a[:, None, :]
            assert np.array_equal(bits(dx), bits(expected[..., 0]))
            assert np.array_equal(bits(dy), bits(expected[..., 1]))
            assert np.array_equal(bits(dist), bits(np.linalg.norm(expected, axis=2)))

    def test_step_equals_the_pair_loop_bit_for_bit(self):
        close_pairs = 0
        for state, cfg in crowded_states():
            for _ in range(15):
                expected = reference_step(state, cfg)
                state = step(state, cfg)
                assert np.array_equal(bits(state.positions), bits(expected))
                close_pairs += int(np.sum(np.triu(
                    _differences(state.positions, state.positions)[2] < cfg.min_separation, 1)))
        assert close_pairs > 1000  # the states kept overlapping pairs to correct

    def test_coincident_pairs_equal_the_pair_loop(self):
        cfg = SwarmConfig(n_drones=4)
        pos = np.array([[50.0, 50.0]] * 3 + [[50.2, 50.0]])
        s = SwarmState(pos, pos.copy(), pos.copy(), "Hovering")
        assert np.array_equal(bits(step(s, cfg).positions), bits(reference_step(s, cfg)))

    def test_a_step_without_close_pairs_adds_the_zero_correction(self):
        # The move takes a drone at -0.0 to -0.0 (-5e-324 * 0.02 rounds to -0.0); the
        # pair loop's zero correction then makes it 0.0, which the clip keeps.
        cfg = SwarmConfig(n_drones=2)
        pos = np.array([[-0.0, 50.0], [60.0, 60.0]])
        tgt = np.array([[-5e-324, 100.0], [60.0, 60.0]])
        s = SwarmState(pos, pos.copy(), tgt, "Hovering")
        expected = reference_step(s, cfg)
        assert bits(expected)[0, 0] == 0  # 0.0, not -0.0
        assert np.array_equal(bits(step(s, cfg).positions), bits(expected))

    def test_clusters_equal_connected_components_in_order(self):
        from scipy.sparse.csgraph import connected_components

        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(1, 80))
            points = rng.uniform(0, 30, (n, 2))
            if seed % 3 == 0:  # a chain whose labels must travel its whole length
                k = np.arange(n // 2)[::-1]
                points[: n // 2] = np.column_stack([0.9 * k, 0.5 * (k % 2)])
            cut = float(rng.choice([0.5, 2.0, 4.0, 8.0]))
            dist = np.linalg.norm(points[None] - points[:, None], axis=2)
            count, labels = connected_components(dist <= cut, directed=False)
            expected = [np.flatnonzero(labels == k) for k in range(count)]
            got = _clusters_single_linkage(points, cut)
            assert len(got) == len(expected)
            for g, e in zip(got, expected):
                np.testing.assert_array_equal(g, e)

    def test_dispersing_check_decides_as_the_loop_at_the_spacing(self):
        def loop(p, points, spacing):
            return all(np.linalg.norm(p - q) >= spacing for q in points)

        rng = np.random.default_rng(5)
        cases = []
        points = np.array([[10.0, 10.0], [30.0, 30.0]])
        cases.append((np.array([12.0, 10.0]), points))  # exactly 2.0 from the first point
        # Pairs whose 1-D norm (a dot product) rounds away from the vectorised one.
        while len(cases) < 40:
            p, q = rng.uniform(0, 100, 2), rng.uniform(0, 100, 2)
            if np.linalg.norm(p - q) != _differences(p[None], q[None])[2][0, 0]:
                cases.append((p, np.array([q, q + 50.0])))
        for p, points in cases:
            for exact in (np.linalg.norm(p - points[0]), _differences(p[None], points)[2][0, 0]):
                for spacing in (np.nextafter(exact, 0), exact, np.nextafter(exact, np.inf)):
                    assert _far_from_all(p, points, spacing) == loop(p, points, spacing)
        assert _far_from_all(np.array([1.0, 1.0]), np.empty((0, 2)), 2.0)

    def test_dispersing_targets_equal_the_loop(self):
        def reference_dispersing(state, cfg, seed):
            rng = np.random.default_rng(seed)
            xmin, xmax, ymin, ymax = cfg.arena
            chosen = []
            while len(chosen) < state.n_drones:
                p = np.array([rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)])
                if all(np.linalg.norm(p - q) >= 2.0 * cfg.min_separation for q in chosen):
                    chosen.append(p)
            return chosen

        for cfg in (SwarmConfig(), SwarmConfig(n_drones=120, arena=(0.0, 60.0, 0.0, 60.0),
                                               r_aggregate=8.0, d_split=20.0)):
            s = init_swarm(cfg)
            for seed in range(4):
                targets = set_behavior(s, "Dispersing", cfg, seed=seed).targets
                chosen = reference_dispersing(s, cfg, seed)
                assert sorted(map(tuple, targets)) == sorted(map(tuple, chosen))


def stepped_until_converged(state, cfg):
    """The loop that :func:`run_until_converged` replaced: :func:`step` until :func:`converged`."""
    trajectory = [state.positions]
    while not converged(state) and state.step_count < cfg.max_steps:
        state = step(state, cfg)
        trajectory.append(state.positions)
    return state, np.stack(trajectory), state.step_count


def default_sequence_states():
    """The state and config at the start of each behavior of ``4,3,2,1,3,2``, 50 drones."""
    cfg = SwarmConfig()
    state = init_swarm(cfg)
    for idx, code in enumerate((4, 3, 2, 1, 3, 2)):
        state = set_behavior(state, behavior_name(code), cfg, seed=cfg.seed + idx)
        yield state, cfg
        state = run_until_converged(state, cfg)[0]


class TestRunUntilConverged:
    def test_hovering_converges_immediately(self, cfg):
        s = set_behavior(init_swarm(cfg), "Hovering", cfg)
        final, trajectory, steps = run_until_converged(s, cfg)
        assert steps == 0
        assert len(trajectory) == 1

    def test_aggregating(self, cfg):
        s = set_behavior(init_swarm(cfg), "Aggregating", cfg)
        final, trajectory, steps = run_until_converged(s, cfg)
        assert converged(final) and steps < cfg.max_steps
        m = metrics(final, cfg)
        assert m.mean_centroid_dist <= cfg.r_aggregate
        assert pairwise_min(final.positions) >= cfg.min_separation - 1e-6

    def test_aggregating_monotone_centroid_distance(self, cfg):
        s = set_behavior(init_swarm(cfg), "Aggregating", cfg)
        final, trajectory, _ = run_until_converged(s, cfg)
        series = [np.mean(np.linalg.norm(p - p.mean(axis=0), axis=1)) for p in trajectory]
        terminal = series[-1]
        for prev, cur in zip(series, series[1:]):
            if prev > terminal + 2 * cfg.max_speed:
                assert cur <= prev + 1e-9

    def test_splitting_two_clusters_of_25(self, cfg):
        s = set_behavior(init_swarm(cfg), "Splitting", cfg)
        final, trajectory, steps = run_until_converged(s, cfg)
        assert converged(final)
        clusters = _clusters_single_linkage(final.positions, 4 * cfg.min_separation)
        assert sorted(len(c) for c in clusters) == [25, 25]
        m = metrics(final, cfg)
        assert m.cluster_count == 2
        assert m.cluster_gap >= cfg.d_split - 2 * cfg.r_aggregate

    def test_dispersing_spreads_out(self, cfg):
        init = init_swarm(cfg)
        before = metrics(init, cfg).mean_nn_dist
        s = set_behavior(init, "Dispersing", cfg, seed=11)
        final, trajectory, steps = run_until_converged(s, cfg)
        assert converged(final)
        assert metrics(final, cfg).mean_nn_dist >= before

    def test_containment_throughout(self, cfg):
        state = init_swarm(cfg)
        for behavior, seed in (("Aggregating", 0), ("Dispersing", 1), ("Splitting", 2)):
            state = set_behavior(state, behavior, cfg, seed=seed)
            state, trajectory, _ = run_until_converged(state, cfg)
            for snap in trajectory:
                assert in_arena(snap, cfg)

    def test_deterministic_trajectories(self, cfg):
        def run():
            s = set_behavior(init_swarm(cfg), "Dispersing", cfg, seed=5)
            _, trajectory, _ = run_until_converged(s, cfg)
            return trajectory
        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    def test_equals_stepping_until_converged_bit_for_bit(self):
        cases = [*crowded_states(), *default_sequence_states()]
        cases += [(state, replace(cfg, max_steps=7)) for state, cfg in crowded_states()]
        outcomes = set()
        for state, cfg in cases:
            final, trajectory, steps = run_until_converged(state, cfg)
            ref_final, ref_trajectory, ref_steps = stepped_until_converged(state, cfg)
            assert steps == ref_steps == final.step_count
            assert np.array_equal(bits(trajectory), bits(ref_trajectory))
            for field in ("positions", "anchors", "targets"):
                assert np.array_equal(bits(getattr(final, field)), bits(getattr(ref_final, field)))
            assert final.behavior == ref_final.behavior
            outcomes.add("converged" if converged(final) else "max_steps")
        assert outcomes == {"converged", "max_steps"}


class TestMetrics:
    def _state(self, positions):
        pos = np.asarray(positions, dtype=float)
        return SwarmState(pos, pos.copy(), pos.copy(), "Hovering")

    def test_single_point_cloud(self, cfg):
        m = metrics(self._state([[5.0, 5.0]] * 4), cfg)
        assert m.mean_centroid_dist == 0.0
        assert m.cluster_count == 1
        assert m.cluster_gap == 0.0

    def test_two_groups_30m_apart(self, cfg):
        left = [[10.0 + dx, 50.0] for dx in (0.0, 1.0, 2.0)]
        right = [[40.0 + dx, 50.0] for dx in (0.0, 1.0, 2.0)]
        m = metrics(self._state(left + right), cfg)
        assert m.cluster_count == 2
        assert m.cluster_gap == pytest.approx(30.0, abs=1e-9)

    def test_nonnegative(self, cfg):
        rng = np.random.default_rng(0)
        m = metrics(self._state(rng.uniform(0, 100, (20, 2))), cfg)
        assert m.mean_centroid_dist >= 0 and m.mean_nn_dist >= 0
        assert m.cluster_count >= 1 and m.cluster_gap >= 0


class TestExports:
    def test_trajectory_csv(self, tmp_path, cfg):
        s = set_behavior(init_swarm(cfg), "Aggregating", cfg)
        _, trajectory, steps = run_until_converged(s, cfg)
        path = tmp_path / "traj.csv"
        save_trajectory_csv(trajectory, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,drone_id,x,y"
        assert len(lines) == 1 + len(trajectory) * cfg.n_drones
        rows = [line.split(",") for line in lines[1:]]
        assert not any("np." in cell for row in rows for cell in row)
        assert [(int(t), int(i)) for t, i, _, _ in rows] == [
            divmod(k, cfg.n_drones) for k in range(len(rows))]
        xy = np.array([[float(x), float(y)] for _, _, x, y in rows])
        assert np.array_equal(xy.view(np.uint64), trajectory.reshape(-1, 2).view(np.uint64))

    @staticmethod
    def reference_csv(trajectory):
        return "step,drone_id,x,y\n" + "".join(
            f"{t},{i},{x!r},{y!r}\n" for t, snap in enumerate(trajectory.tolist())
            for i, (x, y) in enumerate(snap))

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0, -0.0, 1.5, -1.5],
        [5e-324, -5e-324, 1e-05, 1e16, 1e16, 5e-324, 0.1 + 0.2, 0.3, 2.0 ** 60, 1e-05],
    ], ids=["signed-zeros", "extremes"])
    def test_each_value_keeps_its_own_repr(self, tmp_path, values):
        rng = np.random.default_rng(4)
        # Every value in step 0, then repeated across steps and drones, in both columns.
        trajectory = rng.choice(np.array(values), (9, 5, 2))
        trajectory[0] = np.reshape(values * 2, (-1, 2))[:5]
        path = tmp_path / "traj.csv"
        save_trajectory_csv(trajectory, path)
        assert path.read_bytes() == self.reference_csv(trajectory).encode()

    def test_a_crowded_trajectory_is_written_as_the_row_loop_writes_it(self, tmp_path):
        cfg = SwarmConfig(n_drones=120, arena=(0.0, 60.0, 0.0, 60.0), r_aggregate=8.0,
                          d_split=20.0)
        s = set_behavior(init_swarm(cfg), "Dispersing", cfg, seed=3)
        _, trajectory, steps = run_until_converged(s, cfg)
        assert steps > 10
        path = tmp_path / "traj.csv"
        save_trajectory_csv(trajectory, path)
        assert path.read_bytes() == self.reference_csv(trajectory).encode()


class TestConfigInvariants:
    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SwarmConfig(n_drones=1)
        with pytest.raises(ValueError):
            SwarmConfig(d_split=8.0, r_aggregate=5.0)
        with pytest.raises(ValueError):
            SwarmConfig(min_separation=6.0, r_aggregate=5.0)

    @pytest.mark.parametrize("speed", [float("nan"), float("inf")])
    def test_non_finite_max_speed_rejected(self, speed):
        with pytest.raises(ValueError, match=f"max_speed must be finite and > 0, got {speed}"):
            SwarmConfig(max_speed=speed, max_steps=20)

    def test_list_arena_stored_as_a_tuple(self):
        listed, tupled = SwarmConfig(arena=[0, 50, 0, 50]), SwarmConfig(arena=(0, 50, 0, 50))
        assert listed == tupled and hash(listed) == hash(tupled)
        assert listed.arena == (0.0, 50.0, 0.0, 50.0)

    def test_negative_max_steps_rejected(self):
        with pytest.raises(ValueError, match="max_steps"):
            SwarmConfig(max_steps=-3)
        assert SwarmConfig(max_steps=0).max_steps == 0
