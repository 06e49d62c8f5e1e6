import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import collision_maps, padded, real_generator
from thermoclass import channel, collisions, lindblad, qmat


def test_trace_distances_match_eigenvalue_form():
    rng = np.random.default_rng(2)
    pairs = [(qmat.random_density_matrix(rng), qmat.random_density_matrix(rng)) for _ in range(50)]
    pairs.append((qmat.ground_state(), qmat.ground_state()))
    dy = np.array([channel.to_coords(a) - channel.to_coords(b) for a, b in pairs])
    expected = [qmat.trace_distance(a, b) for a, b in pairs]
    np.testing.assert_allclose(channel.trace_distances(dy), expected, rtol=0.0, atol=1e-15)
    # unnormalized differences too, over leading axes
    np.testing.assert_allclose(
        channel.trace_distances(0.3 * dy[:5, None]), 0.3 * np.array(expected[:5])[:, None], atol=1e-15
    )


@settings(max_examples=200, deadline=None)
@given(dy=st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4))
# the exact distance 2.5e-324 lies halfway between 0 and the least subnormal,
# and rounds to 0: no float meets the bound there without the ulp(0) slack
@example(dy=[0.0, 5e-324, 0.0, 0.0])
def test_trace_distance_is_at_least_half_the_largest_coordinate(dy):
    assert (channel.trace_distances(np.array(dy)) + math.ulp(0.0)) * 2.0 * (1.0 + 1e-12) >= max(map(abs, dy))


def step_by_step(y, steps, record_every):
    """Reference for channel.propagate on one (4, 1) state: one matrix per
    step, recording the start, every record_every-th and the last state."""
    marks, records = [0], [y]
    i = 0
    for i, step in enumerate(steps, 1):
        y = step @ y
        if i % record_every == 0:
            marks.append(i)
            records.append(y)
    if marks[-1] != i:
        marks.append(i)
        records.append(y)
    return np.asarray(marks), np.stack(records)


def assert_same_run(got, expected):
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_allclose(got[1], expected[1], rtol=0.0, atol=1e-13)


_strides = st.integers(1, 40)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3), n=st.integers(1, 300),
       record_every=st.one_of(st.integers(1, 3), _strides), split=_strides)
# a record at every step
@example(seed=1, batch=2, n=300, record_every=1, split=1)
# a last, shorter block that ends on no record
@example(seed=1, batch=2, n=301, record_every=2, split=2)
# blocks that end on no record
@example(seed=1, batch=2, n=300, record_every=3, split=2)
def test_propagate_blocks_match_step_by_step(seed, batch, n, record_every, split):
    rng = np.random.default_rng(seed)
    step = np.stack([0.9 * np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(batch)])
    y0 = rng.normal(size=(batch, 4, 1)) * rng.uniform(0.01, 100.0, size=(batch, 1, 1))
    # blocks of gcd(record_every, split) steps, so that some blocks end on no
    # record, unless record_every divides split
    marks, records = channel.propagate(y0, channel.repeated(step, n, math.gcd(record_every, split)), n, record_every)
    for j in range(batch):
        assert_same_run((marks, records[:, j]), step_by_step(y0[j], [step[j]] * n, record_every))


def blockwise(y, blocks, steps, record_every):
    """Reference for channel.propagate: one batched np.matmul per block,
    recording where a block ends on a multiple of record_every or on the
    last step."""
    marks, records, i = [0], [y], 0
    for count, block in blocks:
        i += count
        y = np.matmul(block, y)
        if i % record_every == 0 or i == steps:
            marks.append(i)
            records.append(y)
    return marks, np.stack(records)


@pytest.mark.parametrize("times, coords, message", [
    ([0.0, 1.0], np.zeros((3, 4)), r"need \(2, 4\) coordinates, got \(3, 4\)"),
    ([0.0, 1.0, 1.0], np.zeros((3, 4)), "times must be strictly increasing"),
    ([0.0, 2.0, 1.0], np.zeros((3, 4)), "times must be strictly increasing"),
    ([0.0, math.nan, 2.0], np.zeros((3, 4)), "times must be strictly increasing"),
])
def test_trajectory_rejects_bad_records(times, coords, message):
    with pytest.raises(ValueError, match=message):
        channel.Trajectory(np.array(times), coords, 1.0)


def test_trajectory_accepts_one_record():
    traj = channel.Trajectory(np.array([0.0]), np.array([[0.0, 1.0, 0.0, 0.0]]), 1.0)
    assert traj.final_temperature == 0.0


def row_blocks(blocks, j):
    """Row j of each (b, 4, 4) block, one view per block object, so that a
    matrix repeated by channel.repeated stays one object."""
    views = {}
    return [(count, views.setdefault(id(block), block[j : j + 1])) for count, block in blocks]


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), n=st.integers(1, 300),
       stride=st.sampled_from(["1", "7", "n", "1e20"]), kind=st.sampled_from(["repeated", "sampled"]))
# a last remainder block after full ones, of each kind
@example(seed=3, rows=3, n=299, stride="7", kind="repeated")
@example(seed=3, rows=3, n=299, stride="7", kind="sampled")
def test_propagate_rows_alone_equal_their_batch_bit_for_bit(seed, rows, n, stride, kind):
    # a one-row run steps through np.dot and a batch through np.matmul: both
    # must give the bits of one batched matmul per block
    record_every = {"1": 1, "7": 7, "n": n, "1e20": 10**20}[stride]
    rng = np.random.default_rng(seed)
    if kind == "repeated":
        step = np.stack([0.99 * np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(rows)])
        blocks = list(channel.repeated(step, n, record_every))
    else:
        # distinct matrices per block, as the sampled schedule yields them
        maps = np.stack([0.99 * np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(3)])
        blocks = list(collisions._sampled_blocks(maps, rng.integers(0, 3, size=(rows, n)), record_every))
    y0 = rng.normal(size=(rows, 4, 1))
    # Python ints: record_every * k overflows int64 at 1e20
    expected_marks = [*range(0, n + 1, record_every), *([n] if n % record_every else [])]
    ref_marks, ref = blockwise(y0, blocks, n, record_every)
    assert ref_marks == expected_marks
    marks, records = channel.propagate(y0, blocks, n, record_every)
    assert marks.tolist() == expected_marks
    assert records.tobytes() == ref.tobytes()
    for j in range(rows):
        alone_marks, alone = channel.propagate(y0[j : j + 1], row_blocks(blocks, j), n, record_every)
        assert alone_marks.tolist() == expected_marks
        assert alone.tobytes() == records[:, j : j + 1].tobytes()


def test_runs_record_every_stride_and_the_last_step():
    # runs of one and of several rows
    config = collisions.CollisionConfig(1.0, 0.05, 1.0, ((3.0, 0.5), (1.0, 0.5)))
    assert len(collisions.run_collisions(qmat.ground_state(), config, 1000, 3).times) == 335
    trajs = lindblad.evolve_many([(3.0, 1.0)] * 2, [(0.1, 0.05)] * 2, qmat.ground_state(), 100.0, 0.05)
    assert [len(traj.times) for traj in trajs] == [101, 101]
    config = lindblad.make_config((3.0, 1.0), (0.1, 0.05))
    assert len(lindblad.evolve(config, qmat.ground_state(), 100.0, 0.05).times) == 101


_config = st.lists(st.tuples(st.floats(0.5, 5.0), st.floats(0.01, 0.1)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), configs=st.lists(_config, min_size=1, max_size=3),
       shared=st.booleans(), steps=st.integers(1, 3000), record_steps=st.integers(1, 700))
def test_evolve_many_matches_step_by_step(seed, configs, shared, steps, record_steps):
    dt = 0.05
    configs = [lindblad.make_config([t for t, _ in c], [g for _, g in c]) for c in configs]
    rng = np.random.default_rng(seed)
    rho0s = [qmat.random_density_matrix(rng) for _ in configs]
    if shared:
        rho0s = [rho0s[0]] * len(configs)
    trajs = lindblad.evolve_many(*padded(configs), rho0s[0] if shared else rho0s, steps * dt, dt, record_steps * dt)
    for config, rho0, traj in zip(configs, rho0s, trajs):
        # each configuration stepped alone, one RK4 matrix per step
        step = lindblad._rk4_step(real_generator(config), dt)
        marks, records = step_by_step(channel.to_coords(rho0)[:, None], [step] * steps, record_steps)
        records = records[..., 0]
        np.testing.assert_array_equal(traj.times, marks * dt)
        expected = records / (records[:, 0] + records[:, 1])[:, None]
        np.testing.assert_allclose(traj.coords, expected, rtol=0.0, atol=1e-13)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       reservoirs=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(0.05, 1.0)), min_size=1, max_size=4),
       schedule=st.sampled_from(collisions.SCHEDULES), n=st.integers(1, 400), record_every=st.integers(1, 500))
def test_run_collisions_matches_step_by_step(seed, reservoirs, schedule, n, record_every):
    temps = [t for t, _ in reservoirs]
    weights = np.array([w for _, w in reservoirs])
    probs = tuple(weights / weights.sum())
    config = collisions.CollisionConfig(1.0, 0.05, 1.0, tuple(zip(temps, probs)), schedule=schedule, seed=seed)
    rho0 = qmat.random_density_matrix(np.random.default_rng(seed))
    traj = collisions.run_collisions(rho0, config, n, record_every)

    maps = collision_maps(config)
    if schedule == "mixture":
        steps = [sum(p * m for p, m in zip(probs, maps))] * n
    else:
        picks = np.random.default_rng(seed).choice(len(maps), size=n, p=probs)
        steps = [maps[k] for k in picks]
    assert_same_run((traj.times, traj.coords), step_by_step(channel.to_coords(rho0), steps, record_every))
