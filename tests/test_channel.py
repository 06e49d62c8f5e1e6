import functools
import math
import tracemalloc

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
def test_trace_distance_is_at_least_half_the_largest_coordinate(dy):
    assert channel.trace_distances(np.array(dy)) * 2.0 * (1.0 + 1e-12) >= max(map(abs, dy))


def step_by_step(y, steps, record_every, check_every=1, settled=None):
    """Reference for channel.propagate on one state: one matrix per step,
    recording the start, every record_every-th and the last state, and
    checking every check_every-th step."""
    marks, records = [0], [y]
    y_check = y
    i = 0
    for i, step in enumerate(steps, 1):
        y = step @ y
        if i % record_every == 0:
            marks.append(i)
            records.append(y)
        if settled is not None and i % check_every == 0:
            if settled(y - y_check):
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
# early stop (the rows stop at steps 183 and 180)
@example(seed=1, batch=2, n=300, record_every=1, check_every=1, tol=None)
@example(seed=1, batch=2, n=300, record_every=1, check_every=3, tol=1e-6)
def test_propagate_blocks_match_step_by_step(seed, batch, n, record_every, check_every, tol):
    # contractions 0.9 Q, Q orthogonal, so that the moves shrink and a drawn
    # tolerance stops each row at some check of its own
    rng = np.random.default_rng(seed)
    step = np.stack([0.9 * np.linalg.qr(rng.normal(size=(4, 4)))[0] for _ in range(batch)])
    y0 = rng.normal(size=(batch, 4, 1)) * rng.uniform(0.01, 100.0, size=(batch, 1, 1))
    settled = None if tol is None else (lambda dy: np.abs(dy).max(axis=(1, 2)) < tol)
    row_settled = None if tol is None else (lambda dy: bool(np.abs(dy).max() < tol))
    block = record_every if tol is None else math.gcd(record_every, check_every)
    marks, records, ends = channel.propagate(
        y0, channel.repeated(step, n, block), record_every, check_every, settled
    )
    for j in range(batch):
        alone = step_by_step(y0[j], [step[j]] * n, record_every, check_every, row_settled)
        assert_row_matches_alone(marks, records[:, j], ends if tol is None else ends[j], alone)


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
        generator = lindblad.real_generator(config)
        step = lindblad._rk4_step(generator, dt)
        settled = None
        if stop_tol is not None:
            bound = -stop_tol * math.expm1(-lindblad._slowest_decay_rate(generator) * check_every * dt)

            def settled(dy):
                return bool(channel.trace_distances(dy[:, 0]) < bound)

        marks, records = step_by_step(channel.to_coords(rho0)[:, None], [step] * steps, record_steps,
                                      check_every, settled)
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

    u = qmat.unitary_propagator(collisions.flip_flop_hamiltonian(1.0, 0.05), 1.0)
    maps = [
        channel.matrix_of(
            functools.partial(collisions._collide, rho_ancilla=qmat.qubit_thermal_state(1.0, t), propagator=u)
        )
        for t in temps
    ]
    if schedule == "mixture":
        steps = [sum(p * m for p, m in zip(probs, maps))] * n
    else:
        picks = np.random.default_rng(seed).choice(len(maps), size=n, p=probs)
        steps = [maps[k] for k in picks]
    assert_same_run((traj.times, traj.coords), step_by_step(channel.to_coords(rho0), steps, record_every))
