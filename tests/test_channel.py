import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import collision_maps, real_generator
from thermoclass import channel, collisions, lindblad, qmat


def test_trace_distances_match_eigenvalue_form():
    rng = np.random.default_rng(2)
    pairs = [(qmat.random_density_matrix(rng), qmat.random_density_matrix(rng)) for _ in range(50)]
    pairs.append((qmat.ground_state(), qmat.ground_state()))
    dy = np.array([channel.to_coords(a) - channel.to_coords(b) for a, b in pairs])
    expected = [qmat.trace_distance(a, b) for a, b in pairs]
    np.testing.assert_allclose(channel.trace_distances(dy), expected, rtol=0.0, atol=1e-15)
    # unnormalized differences too, as the early-stop test sees them
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


def step_by_step(y, steps, record_every, check_every=1, bound=None):
    """Reference for channel.propagate on one (4, 1) state: one matrix per
    step, recording the start, every record_every-th and the last state, and
    with a bound stopping at the first check_every-th step that moved the
    state by a trace distance below it."""
    marks, records = [0], [y]
    y_check = y
    i = 0
    for i, step in enumerate(steps, 1):
        y = step @ y
        if i % record_every == 0:
            marks.append(i)
            records.append(y)
        if bound is not None and i % check_every == 0:
            if channel.trace_distances((y - y_check)[:, 0]) < bound:
                break
            y_check = y
    if marks[-1] != i:
        marks.append(i)
        records.append(y)
    return np.asarray(marks), np.stack(records)


def assert_same_run(got, expected):
    np.testing.assert_array_equal(got[0], expected[0])
    np.testing.assert_allclose(got[1], expected[1], rtol=0.0, atol=1e-13)


def assert_row_matches_alone(marks, records, end, alone):
    """One row of a batched propagate run with per-row stopping against that
    row stepped alone: the same records up to its stop, and its stopped state
    repeated by every later record."""
    kept = marks < end
    assert_same_run((np.append(marks[kept], end), np.append(records[kept], records[-1:], axis=0)), alone)
    for later in records[~kept]:
        np.testing.assert_array_equal(later, records[-1])


_strides = st.integers(1, 40)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3), n=st.integers(1, 300),
       record_every=st.one_of(st.integers(1, 3), _strides), check_every=_strides,
       tol=st.one_of(st.none(), st.floats(1e-6, 1e-2)))
# records past several doublings of the record buffer, without and with
# early stop; the first chunk of blocks alone writes more records than one
# doubling of the buffer holds
@example(seed=1, batch=2, n=300, record_every=1, check_every=1, tol=None)
@example(seed=1, batch=2, n=300, record_every=1, check_every=3, tol=1e-6)
# a last, shorter block that ends on no record
@example(seed=1, batch=2, n=301, record_every=2, check_every=2, tol=None)
# blocks that end on no record, without early stop
@example(seed=1, batch=2, n=300, record_every=3, check_every=2, tol=None)
# with chunks of 64 blocks: every row stops inside the second chunk (steps
# 111, 100 and 88), which is cut at the last of them
@example(seed=0, batch=3, n=300, record_every=1, check_every=1, tol=1e-3)
# a row stops on the last block of a chunk (step 128), the others later
@example(seed=0, batch=3, n=300, record_every=1, check_every=2, tol=1e-5)
# one row stops at step 144, the other runs on through a last block of one step
@example(seed=11, batch=2, n=145, record_every=4, check_every=2, tol=1e-6)
def test_propagate_blocks_match_step_by_step(seed, batch, n, record_every, check_every, tol):
    # contractions 0.9 Q, Q orthogonal, so that the moves shrink and a drawn
    # tolerance stops each row at some check of its own
    rng = np.random.default_rng(seed)
    step = np.stack([0.9 * np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(batch)])
    y0 = rng.normal(size=(batch, 4, 1)) * rng.uniform(0.01, 100.0, size=(batch, 1, 1))
    bounds = None if tol is None else tol * rng.uniform(0.5, 2.0, batch)
    # blocks of gcd(record_every, check_every) steps, so that without early
    # stop some blocks end on no record, unless record_every divides check_every
    block = math.gcd(record_every, check_every)
    marks, records, ends = channel.propagate(
        y0, channel.repeated(step, n, block), n, record_every, check_every, bounds
    )
    for j in range(batch):
        alone = step_by_step(y0[j], [step[j]] * n, record_every, check_every, None if tol is None else bounds[j])
        assert_row_matches_alone(marks, records[:, j], ends if tol is None else ends[j], alone)
    # the run ends where its last row stops
    assert marks[-1] == np.max(ends)


def blockwise(y, blocks, steps, record_every):
    """Reference for channel.propagate without early stop: one batched
    np.matmul per block, recording where a block ends on a multiple of
    record_every or on the last step."""
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
    marks, records, end = channel.propagate(y0, blocks, n, record_every)
    assert marks.tolist() == expected_marks and end == n
    assert records.tobytes() == ref.tobytes()
    for j in range(rows):
        alone_marks, alone, _ = channel.propagate(y0[j : j + 1], row_blocks(blocks, j), n, record_every)
        assert alone_marks.tolist() == expected_marks
        assert alone.tobytes() == records[:, j : j + 1].tobytes()


def test_propagate_without_early_stop_allocates_once(monkeypatch):
    # runs of one and of several rows, with more records than a fresh
    # doubling buffer holds, never grow their record buffer
    def refuse(records, size):
        raise AssertionError("the record buffer grew")

    monkeypatch.setattr(channel, "_reserve", refuse)
    config = collisions.CollisionConfig(1.0, 0.05, 1.0, ((3.0, 0.5), (1.0, 0.5)))
    assert len(collisions.run_collisions(qmat.ground_state(), config, 1000, 3).times) == 335
    configs = [lindblad.make_config((3.0, 1.0), (0.1, 0.05))] * 2
    trajs = lindblad.evolve_many(configs, qmat.ground_state(), 100.0, 0.05, stop_tol=None)
    assert [len(traj.times) for traj in trajs] == [101, 101]
    # an early-stop run grows its buffer, so the patch is in force
    with pytest.raises(AssertionError, match="grew"):
        lindblad.evolve(configs[0], qmat.ground_state(), 100.0, 0.05)


def test_early_stop_far_below_the_step_cap_allocates_for_its_records():
    # the cap is 2e13 steps; a buffer sized from it would take terabytes
    config = lindblad.make_config((3.0, 1.0), (0.1, 0.05))
    tracemalloc.start()
    try:
        traj = lindblad.evolve(config, qmat.ground_state(), t_end=1e12, dt=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.times.tolist() == [float(t) for t in range(31)]
    assert peak < 1e6


_config = st.lists(st.tuples(st.floats(0.5, 5.0), st.floats(0.01, 0.1)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), configs=st.lists(_config, min_size=1, max_size=3),
       shared=st.booleans(), steps=st.integers(1, 3000), record_steps=st.integers(1, 700),
       stop_tol=st.one_of(st.none(), st.floats(1e-9, 1e-2)))
def test_evolve_many_matches_step_by_step(seed, configs, shared, steps, record_steps, stop_tol):
    dt = 0.05
    configs = [lindblad.make_config([t for t, _ in c], [g for _, g in c]) for c in configs]
    rng = np.random.default_rng(seed)
    rho0s = [qmat.random_density_matrix(rng) for _ in configs]
    if shared:
        rho0s = [rho0s[0]] * len(configs)
    trajs = lindblad.evolve_many(
        configs, rho0s[0] if shared else rho0s, steps * dt, dt, record_steps * dt, stop_tol
    )

    check_every = 20  # one time unit
    for config, rho0, traj in zip(configs, rho0s, trajs):
        # each configuration stepped alone, one RK4 matrix per step
        generator = real_generator(config)
        step = lindblad._rk4_step(generator, dt)
        bound = None
        if stop_tol is not None:
            bound = -stop_tol * math.expm1(-lindblad._slowest_decay_rate(generator) * check_every * dt)
        marks, records = step_by_step(channel.to_coords(rho0)[:, None], [step] * steps, record_steps,
                                      check_every, bound)
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
