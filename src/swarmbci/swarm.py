"""Deterministic 2D swarm simulator for the four command behaviors.

Fifty unit drones move on a bounded arena with synchronous straight-line
kinematics toward behavior-specific targets: Hovering holds the initial
hex-grid anchors, Splitting divides the swarm into two hex-packed groups
d_split apart along x, Dispersing sends every drone to a distinct seeded
random arena point, and Aggregating packs the swarm onto a hex disc of
radius r_aggregate about the current centroid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from swarmbci.config import POSITIVE, check_fields
from swarmbci.recording import EVENT_NAMES

BEHAVIORS = tuple(EVENT_NAMES.values())

#: Convergence threshold: every drone within this distance of its target.
CONVERGENCE_TOL_M = 1e-3


@dataclass(frozen=True)
class SwarmConfig:
    n_drones: int = 50
    arena: tuple[float, float, float, float] = (0.0, 100.0, 0.0, 100.0)  # xmin,xmax,ymin,ymax
    max_speed: float = 1.0  # meters per step
    min_separation: float = 1.0
    r_aggregate: float = 5.0
    d_split: float = 30.0
    max_steps: int = 500
    seed: int = 0

    def __post_init__(self):
        check_fields(self, n_drones="int >= 2", arena="4 values, each finite", max_speed=POSITIVE,
                     min_separation=POSITIVE, r_aggregate=POSITIVE, d_split=POSITIVE,
                     max_steps="int >= 0", seed="int >= 0")
        xmin, xmax, ymin, ymax = self.arena
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"arena must be nonempty, got {self.arena!r}")
        object.__setattr__(self, "arena", tuple(map(float, self.arena)))
        if not self.d_split > 2 * self.r_aggregate:
            raise ValueError("d_split must exceed 2 * r_aggregate")
        if not self.min_separation < self.r_aggregate:
            raise ValueError("min_separation must be < r_aggregate")

    @property
    def center(self) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.arena
        return np.array([(xmin + xmax) / 2.0, (ymin + ymax) / 2.0])


@dataclass(frozen=True)
class SwarmState:
    positions: np.ndarray  # n x 2
    anchors: np.ndarray    # hover reference (initial grid)
    targets: np.ndarray    # behavior-specific goals
    behavior: str
    step_count: int = 0

    @property
    def n_drones(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class SwarmMetrics:
    mean_centroid_dist: float
    mean_nn_dist: float
    cluster_count: int
    cluster_gap: float


def behavior_name(code: int) -> str:
    if code not in EVENT_NAMES:
        raise ValueError(f"invalid behavior code {code}, expected one of {sorted(EVENT_NAMES)}")
    return EVENT_NAMES[code]


def hex_spiral(n: int, spacing: float) -> np.ndarray:
    """First ``n`` points of a hexagonal-lattice spiral around the origin.

    Ring 0 is the origin; ring k holds 6k points walked in a fixed
    direction order, so the sequence is deterministic.
    """
    # Axial-coordinate unit steps of the six hex directions.
    directions = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    axial = [(0, 0)]
    k = 1
    while len(axial) < n:
        q, r = k * directions[4][0], k * directions[4][1]  # ring start
        for dq, dr in directions:
            for _ in range(k):
                axial.append((q, r))
                q, r = q + dq, r + dr
        k += 1
    axial = np.asarray(axial[:n], dtype=np.float64)
    x = spacing * (axial[:, 0] + 0.5 * axial[:, 1])
    y = spacing * (np.sqrt(3.0) / 2.0) * axial[:, 1]
    return np.column_stack([x, y])


def _hex_rings_needed(n: int) -> int:
    """Smallest ring count K with 1 + 3K(K+1) >= n."""
    k = 0
    while 1 + 3 * k * (k + 1) < n:
        k += 1
    return k


def _packed_disc(n: int, radius: float, min_separation: float) -> np.ndarray:
    """Hex-packed slots for ``n`` drones within ``radius`` of the origin."""
    k = max(_hex_rings_needed(n), 1)
    spacing = radius / k
    if spacing < min_separation:
        raise ValueError(
            f"cannot pack {n} drones in radius {radius} without violating "
            f"min_separation {min_separation}"
        )
    return hex_spiral(n, spacing)


def _differences(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``b[j] - a[i]`` per axis, and its length, each as a (len(a), len(b)) array.

    The length ``sqrt(dx*dx + dy*dy)`` equals ``np.linalg.norm(b[None] - a[:, None], axis=2)``
    bit for bit, without the (len(a), len(b), 2) array.
    """
    dx = b[:, 0] - a[:, :1]
    dy = b[:, 1] - a[:, 1:]
    return dx, dy, np.sqrt(dx * dx + dy * dy)


def _assign_slots(positions: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Greedy deterministic matching: each slot takes the nearest free drone.

    Returns per-drone targets. O(n^2), fine for swarm sizes here.
    """
    n = positions.shape[0]
    targets = np.empty_like(positions)
    dist = _differences(slots, positions)[2]
    free = list(range(n))
    for slot, d in zip(slots, dist):
        pick = free.pop(int(np.argmin(d[free])))  # argmin ties break to lowest index
        targets[pick] = slot
    return targets


def _far_from_all(p: np.ndarray, points: np.ndarray, spacing: float) -> bool:
    """Whether ``np.linalg.norm(p - q) >= spacing`` for every row ``q`` of ``points``.

    One vectorised distance decides, except near ``spacing``: the 1-D norm is a
    dot product and may round differently, so within 1e-9 (relative) of
    ``spacing`` the 1-D norms decide.
    """
    if len(points) == 0:
        return True
    nearest = float(np.min(_differences(p[None], points)[2]))
    if abs(nearest - spacing) > 1e-9 * spacing:
        return nearest >= spacing
    return all(np.linalg.norm(p - q) >= spacing for q in points)


def _check_in_arena(points: np.ndarray, cfg: SwarmConfig, what: str) -> None:
    xmin, xmax, ymin, ymax = cfg.arena
    if (np.any(points[:, 0] < xmin) or np.any(points[:, 0] > xmax)
            or np.any(points[:, 1] < ymin) or np.any(points[:, 1] > ymax)):
        raise ValueError(f"{what} fall outside the arena; enlarge arena or reduce spacing")


def init_swarm(cfg: SwarmConfig) -> SwarmState:
    """Place drones on a centered hexagonal grid, hovering at their anchors."""
    spacing = max(2.0 * cfg.min_separation, cfg.r_aggregate / 2.0)
    pts = hex_spiral(cfg.n_drones, spacing)
    pts = pts - pts.mean(axis=0) + cfg.center
    _check_in_arena(pts, cfg, "initial positions")
    return SwarmState(pts, pts.copy(), pts.copy(), "Hovering", 0)


def set_behavior(state: SwarmState, behavior: str, cfg: SwarmConfig,
                 seed: int = 0) -> SwarmState:
    """Assign per-drone targets for ``behavior`` and reset the step counter."""
    if behavior not in BEHAVIORS:
        raise ValueError(f"unknown behavior {behavior!r}, expected one of {BEHAVIORS}")
    pos = state.positions
    n = state.n_drones

    if behavior == "Hovering":
        targets = state.anchors.copy()
    elif behavior == "Splitting":
        centroid = pos.mean(axis=0)
        # Sort by x (ties by y, then index); lower half goes left.
        order = np.lexsort((np.arange(n), pos[:, 1], pos[:, 0]))
        n_low = (n + 1) // 2
        targets = np.empty_like(pos)
        offset = np.array([cfg.d_split / 2.0, 0.0])
        for group, center in ((order[:n_low], centroid - offset),
                              (order[n_low:], centroid + offset)):
            slots = _packed_disc(len(group), cfg.r_aggregate, cfg.min_separation)
            slots = slots - slots.mean(axis=0) + center
            targets[group] = _assign_slots(pos[group], slots)
        _check_in_arena(targets, cfg, "splitting targets")
    elif behavior == "Dispersing":
        rng = np.random.default_rng(seed)
        xmin, xmax, ymin, ymax = cfg.arena
        chosen = np.empty((n, 2))
        count = attempts = 0
        limit = 10 * n * n
        while count < n:
            attempts += 1
            if attempts > limit:
                raise ValueError("arena too crowded: dispersing target sampling failed")
            p = np.array([rng.uniform(xmin, xmax), rng.uniform(ymin, ymax)])
            if _far_from_all(p, chosen[:count], 2.0 * cfg.min_separation):
                chosen[count] = p
                count += 1
        targets = _assign_slots(pos, chosen)
    else:  # Aggregating
        centroid = pos.mean(axis=0)
        slots = _packed_disc(n, cfg.r_aggregate, cfg.min_separation)
        slots = slots - slots.mean(axis=0) + centroid
        _check_in_arena(slots, cfg, "aggregation targets")
        targets = _assign_slots(pos, slots)

    return SwarmState(pos.copy(), state.anchors.copy(), targets, behavior, 0)


@functools.lru_cache(maxsize=4)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices (i, j) of every pair i < j of ``n`` drones, in row-major order; read-only."""
    pairs = np.triu_indices(n, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _offsets(positions: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``targets - positions`` per drone, and its length ``sqrt(dx*dx + dy*dy)``."""
    delta = targets - positions
    dx, dy = delta[:, 0], delta[:, 1]
    return delta, np.sqrt(dx * dx + dy * dy)


def _advance(positions: np.ndarray, delta: np.ndarray, dist: np.ndarray,
             cfg: SwarmConfig) -> np.ndarray:
    """The positions one step after ``positions``, given ``_offsets`` of them; see :func:`step`.

    Returns a new array: ``positions`` is not written to.
    """
    scale = np.where(dist > 0, np.minimum(cfg.max_speed, dist) / np.maximum(dist, 1e-300), 0.0)
    moved = positions + delta * scale[:, None]

    ii, jj = _upper_pairs(len(moved))
    x, y = moved[:, 0], moved[:, 1]
    dx, dy = x[jj] - x[ii], y[jj] - y[ii]
    d = np.sqrt(dx * dx + dy * dy)
    close = np.flatnonzero(d < cfg.min_separation)
    if close.size:
        ii, jj, dx, dy, d = ii[close], jj[close], dx[close], dy[close], d[close]
        apart = d > 0
        d_safe = np.where(apart, d, 1.0)
        push = 0.5 * (cfg.min_separation - d)
        correction = np.zeros_like(moved)
        # A coincident pair splits along +x. Each drone's pushes add up in pair order:
        # first those of the pairs whose higher index it is (rows above its own), then
        # those of its own row, so every sum is rounded as in a loop over i < j.
        for axis, unit in enumerate((np.where(apart, dx / d_safe, 1.0),
                                     np.where(apart, dy / d_safe, 0.0))):
            np.add.at(correction[:, axis], jj, unit * push)
            np.subtract.at(correction[:, axis], ii, unit * push)
        moved += correction
    else:
        moved += 0.0  # as a zero correction would: a -0.0 becomes 0.0

    # One clip per axis: one call with per-column bounds turns a drone at 0.0
    # into -0.0 against an arena bound of -0.0, where the per-axis clip keeps 0.0.
    xmin, xmax, ymin, ymax = cfg.arena
    np.clip(x, xmin, xmax, out=x)
    np.clip(y, ymin, ymax, out=y)
    return moved


def step(state: SwarmState, cfg: SwarmConfig) -> SwarmState:
    """One synchronous kinematic step.

    Each drone moves toward its target by min(max_speed, distance), then
    any pair closer than min_separation is pushed apart symmetrically by
    half the overlap (coincident pairs separate along +x, lower index
    moving -x). All corrections are computed from the same post-move
    snapshot, so drone update order is irrelevant. Positions clamp to
    the arena.
    """
    moved = _advance(state.positions, *_offsets(state.positions, state.targets), cfg)
    return replace(state, positions=moved, step_count=state.step_count + 1)


def converged(state: SwarmState) -> bool:
    return bool(np.max(_offsets(state.positions, state.targets)[1]) <= CONVERGENCE_TOL_M)


def run_until_converged(state: SwarmState, cfg: SwarmConfig
                        ) -> tuple[SwarmState, np.ndarray, int]:
    """Step until every drone reaches its target or ``state.step_count`` reaches max_steps.

    ``max_steps`` counts the steps since the behavior was set (``set_behavior``
    resets ``step_count`` to 0). Returns (final state, an (S, n, 2) array of the
    positions from the start to the end, the final ``step_count``). Non-convergence
    is reported by ``step_count == max_steps``, not raised. Each step is
    :func:`step`'s, on the positions alone: the distances to the targets that
    decide convergence are those the step moves by.
    """
    positions, steps = state.positions, state.step_count
    trajectory = [positions]
    while True:
        delta, dist = _offsets(positions, state.targets)
        if np.max(dist) <= CONVERGENCE_TOL_M or steps >= cfg.max_steps:
            break
        positions = _advance(positions, delta, dist, cfg)
        trajectory.append(positions)
        steps += 1
    return replace(state, positions=positions, step_count=steps), np.stack(trajectory), steps


def _clusters_single_linkage(points: np.ndarray, cut: float) -> list[np.ndarray]:
    """Connected components of the pairwise graph with edges <= cut, ordered by first member."""
    linked = _differences(points, points)[2] <= cut
    np.fill_diagonal(linked, True)
    # Each point takes the smallest label among its neighbours, then its label's
    # label, until nothing changes: every component is then labelled by its first member.
    labels = np.arange(len(points))
    while True:
        merged = np.min(np.where(linked, labels, len(points)), axis=1)
        merged = merged[merged]
        if np.array_equal(merged, labels):
            break
        labels = merged
    return [np.flatnonzero(labels == first)
            for first in np.flatnonzero(labels == np.arange(len(points)))]


def metrics(state: SwarmState, cfg: SwarmConfig) -> SwarmMetrics:
    """Geometry summary: centroid spread, nearest-neighbor spacing, clusters.

    Clusters are single-linkage components at cut distance
    4 * min_separation; cluster_gap is the distance between the two
    largest clusters' centroids (0 if fewer than 2 clusters).
    """
    pos = state.positions
    centroid = pos.mean(axis=0)
    mean_centroid_dist = float(np.mean(np.linalg.norm(pos - centroid, axis=1)))

    dist = _differences(pos, pos)[2]
    np.fill_diagonal(dist, np.inf)
    mean_nn_dist = float(np.mean(np.min(dist, axis=1)))

    clusters = _clusters_single_linkage(pos, 4.0 * cfg.min_separation)
    if len(clusters) >= 2:
        big = sorted(clusters, key=lambda c: (-len(c), c[0]))[:2]
        gap = float(np.linalg.norm(pos[big[0]].mean(axis=0) - pos[big[1]].mean(axis=0)))
    else:
        gap = 0.0
    return SwarmMetrics(mean_centroid_dist, mean_nn_dist, len(clusters), gap)


def save_trajectory_csv(trajectory: np.ndarray, path) -> None:
    """Write an (S, n, 2) array of snapshots as CSV rows: step,drone_id,x,y.

    Coordinates are Python float reprs (shortest round trip), e.g. ``3,7,48.8,50.69``.
    Each distinct value is formatted once; values are told apart by their bits, so
    -0.0 and 0.0 keep their own reprs.
    """
    steps, n, _ = trajectory.shape
    bits = np.ascontiguousarray(trajectory, dtype=np.float64).reshape(-1).view(np.int64)
    keys, index = np.unique(bits, return_inverse=True)
    texts = list(map(repr, keys.view(np.float64).tolist()))
    coords = list(map(texts.__getitem__, index.tolist()))  # x, y of each row in turn
    ids = [f",{i}," for i in range(n)]
    parts = [","] * (4 * steps * n)  # per row: "\n<step>,<drone_id>,", x, ",", y
    parts[0::4] = [f"\n{t}{i}" for t in range(steps) for i in ids]
    parts[1::4] = coords[0::2]
    parts[3::4] = coords[1::2]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("step,drone_id,x,y" + "".join(parts) + "\n")
