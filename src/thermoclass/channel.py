"""Qubit channels as real 4x4 matrices. A Hermitian 2x2 matrix is the vector
(p_e, p_g, Re c, Im c), with c the |e><g| coherence, and a linear map that
keeps matrices Hermitian acts on it as a real 4x4 matrix. The master
equation (one RK4 step) and the collision model (one collision) are both such
maps, so both step these coordinates through one propagate-and-record loop
and record into one Trajectory type. Nothing reads the state between two
records or early-stop checks, so the loop applies one precomposed matrix per
such interval instead of one per step.
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


def matrix_of(linear_map) -> np.ndarray:
    """Real 4x4 matrix of a Hermiticity-preserving linear map on 2x2
    matrices, built column by column by applying the map to the basis."""
    m = np.empty((4, 4), dtype=float)
    for j, basis in enumerate(BASIS):
        m[:, j] = to_coords(linear_map(basis))
    return m


def trace_distances(dy: np.ndarray) -> np.ndarray:
    """Trace distances between pairs of states, elementwise over the leading
    axes of dy, the (..., 4) differences of their coordinates."""
    dy = np.asarray(dy, dtype=float)
    half_split = 0.5 * (dy[..., 0] - dy[..., 1])
    half_trace = 0.5 * (dy[..., 0] + dy[..., 1])
    radius = np.hypot(half_split, np.hypot(dy[..., 2], dy[..., 3]))
    return 0.5 * (np.abs(half_trace + radius) + np.abs(half_trace - radius))


def propagate(y, blocks, record_every: int, check_every: int = 1, settled=None) -> tuple:
    """Apply the blocks of the iterable `blocks`, (count, matrix) pairs, to y
    one after the other; each matrix advances y by `count` steps at once.

    y and each matrix may carry leading batch axes (y of shape (b, 4, 1) with
    matrices of shape (b, 4, 4) steps b states at once). Records the start,
    every record_every-th state and the last one. With `settled`, y has one
    batch axis, and every check_every-th step calls settled(y - y_then),
    y_then being the states check_every steps earlier; it returns a mask
    over the batch axis. Each row it marks stops there: later blocks leave
    it out, so later records repeat its last state, and the loop ends once
    every row has stopped. Records and checks are made only where a block
    ends, so every multiple of record_every and check_every must be a block
    end (see repeated).
    Returns the step counts of the records, the records stacked on a new
    first axis, and the step count at which each row stopped (with
    `settled`) or the last step count (without).
    """
    marks, records = [0], [y]
    y_check = y
    live = None  # the rows still stepping once some have stopped
    stopped = None if settled is None else np.full(len(y), -1)
    i = 0
    for count, block in blocks:
        if live is None:
            y = block @ y
        else:
            y = y.copy()
            y[live] = block[live] @ y[live]
        i += count
        if i % record_every == 0:
            marks.append(i)
            records.append(y)
        if settled is not None and i % check_every == 0:
            now = settled(y - y_check) & (stopped < 0)
            if now.any():
                stopped[now] = i
                live = np.flatnonzero(stopped < 0)
                if not len(live):
                    break
            y_check = y
    if marks[-1] != i:
        marks.append(i)
        records.append(y)
    ends = i if settled is None else np.where(stopped < 0, i, stopped)
    return np.asarray(marks), np.stack(records), ends


def repeated(step: np.ndarray, n: int, block: int):
    """n applications of one (possibly stacked) step matrix as blocks for
    propagate: step**block, n // block times, then step**(n % block) if
    that remainder is not 0."""
    full, rest = divmod(n, block)
    blocks = itertools.repeat((block, np.linalg.matrix_power(step, block)), full)
    if rest:
        blocks = itertools.chain(blocks, [(rest, np.linalg.matrix_power(step, rest))])
    return blocks


def boltzmann_temperature(p_g, p_e, omega: float) -> np.ndarray:
    """Temperature omega / ln(p_g/p_e) of two-level populations, elementwise.

    p_g and p_e may be any pair proportional to the populations. An empty
    (or roundoff-negative) excited level gives 0, equal populations give inf
    and inverted populations give NaN.
    """
    p_g = np.asarray(p_g, dtype=float)
    p_e = np.asarray(p_e, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        temps = omega / np.log(p_g / p_e)
    return np.where(p_e <= 0.0, 0.0, np.where(p_e > p_g, math.nan, temps))


@dataclass
class Trajectory:
    """Recorded evolution of a qubit of frequency omega: the coordinates
    (m, 4) of its state at m strictly increasing times (time units for the
    master equation, collision counts for the collision model). States and
    temperatures are built from the coordinates when asked for."""

    times: np.ndarray
    coords: np.ndarray
    omega: float
    max_trace_drift: float = 0.0

    def __post_init__(self):
        if self.coords.shape != (len(self.times), 4):
            raise ValueError(f"need ({len(self.times)}, 4) coordinates, got {self.coords.shape}")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @property
    def states(self) -> list:
        return [from_coords(y) for y in self.coords]

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
