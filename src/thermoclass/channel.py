"""Qubit channels as real 4x4 matrices. A Hermitian 2x2 matrix is the vector
(p_e, p_g, Re c, Im c), with c the |e><g| coherence, and a linear map that
keeps matrices Hermitian acts on it as a real 4x4 matrix. The master
equation (one RK4 step) and the collision model (one collision) are both such
maps, so both step these coordinates through propagate and record into one
Trajectory type. Nothing reads the state between two records, so propagate
applies one precomposed matrix per such interval in one plain loop; a lone
row steps with np.dot.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# d(rho)/d(coordinate) for each coordinate, in order, stacked
BASIS = np.array([
    [[1.0, 0.0], [0.0, 0.0]],
    [[0.0, 0.0], [0.0, 1.0]],
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, 1.0j], [-1.0j, 0.0]],
], dtype=complex)


def to_coords(rho: np.ndarray) -> np.ndarray:
    """(p_e, p_g, Re c, Im c) of a Hermitian 2x2 matrix, or of each matrix of
    a (..., 2, 2) stack on a new last axis."""
    return np.stack(
        [rho[..., 0, 0].real, rho[..., 1, 1].real, rho[..., 0, 1].real, rho[..., 0, 1].imag], axis=-1
    )


def from_coords(y: np.ndarray) -> np.ndarray:
    """The Hermitian 2x2 matrix with coordinates y."""
    c = y[2] + 1j * y[3]
    return np.array([[y[0], c], [np.conj(c), y[1]]], dtype=complex)


def trace_distances(dy: np.ndarray) -> np.ndarray:
    """Trace distances between pairs of states, elementwise over the leading
    axes of dy, the (..., 4) differences of their coordinates."""
    dy = np.asarray(dy, dtype=float)
    half_split = 0.5 * (dy[..., 0] - dy[..., 1])
    half_trace = 0.5 * (dy[..., 0] + dy[..., 1])
    radius = np.hypot(half_split, np.hypot(dy[..., 2], dy[..., 3]))
    return 0.5 * (np.abs(half_trace + radius) + np.abs(half_trace - radius))


def propagate(y, blocks, steps: int, record_every: int) -> tuple:
    """Apply the blocks of the iterable `blocks`, (count, matrix) pairs, to y
    one after the other; each matrix advances y by `count` steps at once, and
    the counts add up to `steps`.

    y and each matrix may carry leading batch axes (y of shape (b, 4, 1) with
    matrices of shape (b, 4, 4) steps b states at once). Records the start,
    every record_every-th state and the last one. Records are made only where
    a block ends, so every multiple of record_every must be a block end (see
    repeated).

    The record buffer is allocated once for every record the run can make
    (too many fail here, with numpy's MemoryError), and each block that ends
    on a record is multiplied straight into its slot. One row, y of shape
    (1, 4, 1), steps as a (4,) vector through (4, 4) views with np.dot, one
    gemv like the batched matmul, so a row alone keeps its bits in a batch
    (the batch tests of propagate and run_collisions_many check this).

    Returns the step counts of the records and the records stacked on a new
    first axis.
    """
    y = np.array(y, dtype=float)
    marks = [0]
    i = 0
    records = np.empty((steps // record_every + 2, *y.shape))
    records[0] = y
    slots, product = records, np.matmul
    one_row = y.shape == (1, 4, 1)
    if one_row:
        slots, product = records.reshape(len(records), 4), np.dot
    state, source = slots[0], None
    for count, block in blocks:
        i += count
        if block is not source:
            source, matrix = block, block.reshape(4, 4) if one_row else block
        if i % record_every and i != steps:
            state = product(matrix, state)
        else:
            state = product(matrix, state, slots[len(marks)])
            marks.append(i)
    return np.asarray(marks), records[: len(marks)]


def repeated(step: np.ndarray, n: int, block: int):
    """n applications of one (possibly stacked) step matrix as blocks for
    propagate: step**block, n // block times, then step**(n % block) if
    that remainder is not 0. step**block is built only if n holds a full
    block, as a block far longer than n may overflow it."""
    full, rest = divmod(n, block)
    blocks = itertools.repeat((block, np.linalg.matrix_power(step, block)), full) if full else ()
    if rest:
        blocks = itertools.chain(blocks, [(rest, np.linalg.matrix_power(step, rest))])
    return blocks


def boltzmann_temperature(p_g, p_e, omega: float) -> np.ndarray:
    """Temperature omega / ln(p_g/p_e) of two-level populations, elementwise.

    p_g and p_e may be any pair proportional to the populations. An empty
    (or roundoff-negative) excited level gives 0, equal populations give inf
    and inverted populations give NaN. An excited level so small that
    p_g/p_e overflows gives 0, the limit of the formula.
    """
    p_g = np.asarray(p_g, dtype=float)
    p_e = np.asarray(p_e, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        temps = omega / np.log(p_g / p_e)
    return np.where(p_e <= 0.0, 0.0, np.where(p_e > p_g, math.nan, temps))


@dataclass
class Trajectory:
    """Recorded evolution of a qubit of frequency omega: the coordinates
    (m, 4) of its state at m strictly increasing times (time units for the
    master equation, collision counts for the collision model). The final
    state and the temperatures are built from the coordinates when asked
    for."""

    times: np.ndarray
    coords: np.ndarray
    omega: float
    max_trace_drift: float = 0.0

    def __post_init__(self):
        if self.coords.shape != (len(self.times), 4):
            raise ValueError(f"need ({len(self.times)}, 4) coordinates, got {self.coords.shape}")
        # all() of >, so that a NaN time fails too
        if not (self.times[1:] > self.times[:-1]).all():
            raise ValueError("times must be strictly increasing")

    @property
    def final_state(self) -> np.ndarray:
        return from_coords(self.coords[-1])

    @property
    def temperatures(self) -> np.ndarray:
        """Effective temperature of each state (NaN where populations are inverted)."""
        return boltzmann_temperature(self.coords[:, 1], self.coords[:, 0], self.omega)

    @property
    def final_temperature(self) -> float:
        return float(self.temperatures[-1])
