"""Synthetic highway trajectories with scripted lane changes.

Each vehicle follows a smooth absolute lateral path: a sum of logistic lane
transitions plus a low-amplitude sinusoidal wobble.  Lateral velocity and
acceleration are the discrete derivatives of that path, the lane id is the
nearest lane to the smooth (wobble-free) path, and the lateral offset is the
path minus the occupied lane's center.  Deriving everything from one
continuous path keeps the features kinematically consistent: re-attaching
the lane centers to the offsets reproduces the path the velocities came
from.
"""

from __future__ import annotations

import numpy as np

from .dataset import Trajectory, _events_from_lanes, _integer_value, _real_value
from .errors import UsageError

LANE_WIDTH_M = 3.5
TRANSITION_TAU_S = 1.0  # logistic time scale; 10-90% of the lane shift takes ~4.4 tau
DURATION_S = (40.0, 42.0)  # each vehicle's record length is drawn from this range
# Bound on vehicles x longest record, checked before anything is allocated:
# about 9,500 vehicles at 25 Hz.
MAX_FRAMES = 10_000_000


def synthesize_dataset(
    seed: int,
    n_trajectories: int,
    sample_rate_hz: float = 25.0,
    maneuvers: tuple[int, int] = (5, 6),
) -> list[Trajectory]:
    """Generate seeded random trajectories.

    Every vehicle performs between maneuvers[0] and maneuvers[1] lane
    changes (as many as fit its duration), alternating direction, with
    onsets spaced far enough apart that intention windows never overlap.
    Each vehicle draws from an independent child stream of the seed, so the
    output is reproducible and order-independent.
    """
    _integer_value("seed", seed, UsageError, minimum=0)
    _integer_value("n_trajectories", n_trajectories, UsageError, minimum=1)
    if maneuvers[0] < 0 or maneuvers[1] < maneuvers[0]:
        raise UsageError(f"bad maneuver range {maneuvers}")
    _real_value("sample_rate_hz", sample_rate_hz, 0.0, error=UsageError)
    # np.gradient needs two frames in the shortest record; the longest must count finitely
    shortest, longest = (np.rint(d * sample_rate_hz) for d in DURATION_S)
    if not (shortest >= 2 and longest < np.inf):
        raise UsageError(
            f"sample rate must give a finite count of >= 2 frames over "
            f"{DURATION_S[0]:g}-{DURATION_S[1]:g} s, got {sample_rate_hz}"
        )
    if n_trajectories * longest > MAX_FRAMES:
        raise UsageError(
            f"{n_trajectories} vehicles x {longest:.0f} frames in the longest record "
            f"exceeds the {MAX_FRAMES:,}-frame limit"
        )
    streams = np.random.SeedSequence(seed).spawn(n_trajectories)
    return [
        _one_vehicle(f"veh{i:04d}", np.random.default_rng(streams[i]),
                     sample_rate_hz, maneuvers, first_left=(i % 2 == 0))
        for i in range(n_trajectories)
    ]


def _logistic(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _one_vehicle(
    vehicle_id: str,
    rng: np.random.Generator,
    rate_hz: float,
    maneuvers: tuple[int, int],
    first_left: bool,
) -> Trajectory:
    dt = 1.0 / rate_hz
    duration = rng.uniform(*DURATION_S)
    n = int(round(duration * rate_hz))
    t = np.arange(n) * dt

    # schedule alternating maneuvers; the first onset sits late enough that
    # its whole 3 s intention span has full window history, and >= 4.5 s of
    # tail after the last onset lets the transition complete in the record
    m_target = int(rng.integers(maneuvers[0], maneuvers[1] + 1))
    onsets_s: list[float] = []
    next_onset = rng.uniform(5.7, 6.2)
    while len(onsets_s) < m_target and next_onset <= duration - 4.5:
        onsets_s.append(next_onset)
        next_onset += rng.uniform(6.8, 7.2)
    directions = [
        1 if (first_left == (k % 2 == 0)) else -1 for k in range(len(onsets_s))
    ]

    y_smooth = np.zeros(n)
    for onset, sign in zip(onsets_s, directions):
        y_smooth += sign * LANE_WIDTH_M * _logistic((t - onset) / TRANSITION_TAU_S)

    wobble = np.zeros(n)
    for _ in range(3):
        amp = rng.uniform(0.003, 0.009)
        period = rng.uniform(2.5, 9.0)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        wobble += amp * np.sin(2.0 * np.pi * t / period + phase)

    lane_offset = np.rint(y_smooth / LANE_WIDTH_M).astype(np.int64)
    y = y_smooth + wobble
    delta_y = y - LANE_WIDTH_M * lane_offset
    v_y = np.gradient(y, dt)
    a_y = np.gradient(v_y, dt)

    v0 = rng.uniform(24.0, 33.0)
    v_amp = rng.uniform(0.3, 0.8)
    v_period = rng.uniform(8.0, 16.0)
    v_phase = rng.uniform(0.0, 2.0 * np.pi)
    v_x = v0 + v_amp * np.sin(2.0 * np.pi * t / v_period + v_phase)
    a_x = np.gradient(v_x, dt)

    t_index = np.arange(n, dtype=np.int64)
    return Trajectory(
        vehicle_id=vehicle_id,
        sample_rate_hz=rate_hz,
        t_index=t_index,
        features=np.column_stack([delta_y, v_x, a_x, v_y, a_y]),
        events=_events_from_lanes(t_index, delta_y, lane_offset),
    )
