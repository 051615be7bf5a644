"""Data generation for learning and testing.

Duffing-oscillator trajectory simulation (fixed-step RK4 under a coarser
sampling interval), finite-state Markov-chain and IID sampling, and
total-variation / mixing-time diagnostics.  All randomness flows through
seeded generators, so identical sources produce bitwise-identical streams.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .batch import FiniteSpaceModel, stationary_distribution
from .errors import InputError, ModelError


@dataclass(frozen=True)
class DuffingParams:
    """Unforced Duffing oscillator zdd = -delta zd - z (beta + alpha z^2)."""

    delta: float = 0.5
    beta: float = -1.0
    alpha: float = 1.0
    dt_integrator: float = 0.01
    sample_interval: float = 0.25

    def __post_init__(self):
        if not (0 < self.dt_integrator < np.inf and 0 < self.sample_interval < np.inf):
            raise InputError("integrator step and sample interval must be finite and positive")
        ratio = self.sample_interval / self.dt_integrator
        # a ratio that rounds to 0 would take no substeps: a frozen stream
        if not (ratio < np.inf and round(ratio) >= 1
                and abs(ratio - round(ratio)) <= 1e-9 * ratio):
            raise InputError("sample_interval must be a positive integer multiple "
                             "of dt_integrator")

    @property
    def substeps(self) -> int:
        return int(round(self.sample_interval / self.dt_integrator))


def duffing_rhs(state: np.ndarray, p: DuffingParams) -> np.ndarray:
    """Vector field; state has shape (..., 2) = (z, zdot)."""
    z = state[..., 0]
    zd = state[..., 1]
    out = np.empty_like(state)
    out[..., 0] = zd
    out[..., 1] = -p.delta * zd - z * (p.beta + p.alpha * z * z)
    return out


def _rk4(state: np.ndarray, p: DuffingParams, dt: float) -> np.ndarray:
    k1 = duffing_rhs(state, p)
    k2 = duffing_rhs(state + 0.5 * dt * k1, p)
    k3 = duffing_rhs(state + 0.5 * dt * k2, p)
    k4 = duffing_rhs(state + dt * k3, p)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def duffing_step(state, p: DuffingParams) -> np.ndarray:
    """Advance one sampling interval with classical RK4 substeps.

    Accepts a single state (2,) or a batch (n, 2); the shape is preserved.
    """
    s = np.asarray(state, dtype=float)
    if s.shape[-1] != 2:
        raise InputError("Duffing state is (z, zdot)")
    if not np.all(np.isfinite(s)):
        raise InputError("non-finite Duffing state")
    for _ in range(p.substeps):
        s = _rk4(s, p, p.dt_integrator)
    return s


def duffing_trajectory(init, n_steps: int, p: DuffingParams) -> np.ndarray:
    """States at the sampling instants: shape (n_steps+1, ..., 2)."""
    s = np.asarray(init, dtype=float)
    out = np.empty((n_steps + 1,) + s.shape)
    out[0] = s
    for i in range(n_steps):
        s = duffing_step(s, p)
        out[i + 1] = s
    return out


# ---------------------------------------------------------------------------
# Stream sources
# ---------------------------------------------------------------------------

def _check_seed(seed):
    if isinstance(seed, bool) or not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise InputError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class DuffingTrajectories:
    """``n_traj`` trajectories of ``steps_per_traj`` pairs each, from initial
    states drawn uniformly in ``init_box``; ``interleave`` orders the pairs
    trajectory by trajectory ("sequential") or step by step ("round_robin")."""

    n_traj: int
    steps_per_traj: int
    seed: int
    init_box: tuple = ((-2.0, 2.0), (-2.0, 2.0))
    params: DuffingParams = field(default_factory=DuffingParams)
    interleave: str = "sequential"

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n_traj < 1 or self.steps_per_traj < 1:
            raise InputError("need at least one trajectory and one step")
        box = np.asarray(self.init_box, dtype=float)
        if box.shape != (2, 2):
            raise InputError("init_box must give (lo, hi) per state dimension")
        with np.errstate(over="ignore"):
            finite = np.isfinite(box).all() and np.isfinite(box[:, 1] - box[:, 0]).all()
        if not finite:
            raise InputError("init_box bounds and widths must be finite")
        if self.interleave not in ("sequential", "round_robin"):
            raise InputError(f"unknown interleave mode {self.interleave!r}")


@dataclass(frozen=True)
class FiniteChainStream:
    model: FiniteSpaceModel
    n_samples: int
    seed: int
    burn_in: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n_samples < 1 or self.burn_in < 0:
            raise InputError("need n_samples >= 1 and burn_in >= 0")
        model = self.model
        if model.transition is None:
            raise InputError("finite chain stream needs a transition matrix")
        if model.x_states.shape != model.y_states.shape or \
                not np.array_equal(model.x_states, model.y_states):
            raise InputError("chain sampling needs shared x/y state lists")


@dataclass(frozen=True)
class FiniteIIDStream:
    model: FiniteSpaceModel
    n_samples: int
    seed: int

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n_samples < 1:
            raise InputError("need n_samples >= 1")


Source = Union[DuffingTrajectories, FiniteChainStream, FiniteIIDStream]


def _duffing_pairs(src: DuffingTrajectories):
    rng = np.random.default_rng(src.seed)
    box = np.asarray(src.init_box, dtype=float)
    inits = rng.uniform(box[:, 0], box[:, 1], size=(src.n_traj, 2))
    traj = duffing_trajectory(inits, src.steps_per_traj, src.params)
    # traj: (steps+1, n_traj, 2)
    if src.interleave == "sequential":
        xs = traj[:-1].transpose(1, 0, 2).reshape(-1, 2)
        ys = traj[1:].transpose(1, 0, 2).reshape(-1, 2)
    else:
        xs = traj[:-1].reshape(-1, 2)
        ys = traj[1:].reshape(-1, 2)
    return xs, ys


def _chain_indices(P: np.ndarray, n: int, burn_in: int, rng) -> np.ndarray:
    cum = np.cumsum(P, axis=1)
    cum[:, -1] = 1.0
    u = rng.random(burn_in + n)
    idx = np.empty(burn_in + n + 1, dtype=np.int64)
    idx[0] = rng.integers(P.shape[0])
    for t in range(burn_in + n):
        idx[t + 1] = np.searchsorted(cum[idx[t]], u[t], side="right")
    return idx[burn_in:]


def _finite_chain_pairs(src: FiniteChainStream):
    model = src.model
    rng = np.random.default_rng(src.seed)
    idx = _chain_indices(model.transition, src.n_samples, src.burn_in, rng)
    states = model.x_states
    return states[idx[:-1]], states[idx[1:]]


def _finite_iid_pairs(src: FiniteIIDStream):
    model = src.model
    rng = np.random.default_rng(src.seed)
    flat = model.joint.reshape(-1)
    draws = rng.choice(flat.size, size=src.n_samples, p=flat / flat.sum())
    ix, iy = np.unravel_index(draws, model.joint.shape)
    return model.x_states[ix], model.y_states[iy]


def generate_stream(src: Source):
    """Materialize a stream as ``(xs, ys)`` arrays of shape (n, dim)."""
    if isinstance(src, DuffingTrajectories):
        return _duffing_pairs(src)
    if isinstance(src, FiniteChainStream):
        return _finite_chain_pairs(src)
    if isinstance(src, FiniteIIDStream):
        return _finite_iid_pairs(src)
    raise InputError(f"unknown stream source {src!r}")


# ---------------------------------------------------------------------------
# Mixing diagnostics
# ---------------------------------------------------------------------------

def tv_distance(p, q) -> float:
    """Total variation distance between two finite distributions."""
    p = np.asarray(p, dtype=float).reshape(-1)
    q = np.asarray(q, dtype=float).reshape(-1)
    if p.shape != q.shape:
        raise InputError("distributions differ in length")
    for v, name in ((p, "p"), (q, "q")):
        if np.any(v < -1e-12) or abs(v.sum() - 1.0) > 1e-9:
            raise InputError(f"{name} is not a probability vector")
    return 0.5 * float(np.sum(np.abs(p - q)))


def mixing_time(model: FiniteSpaceModel, delta: float, t_max: int) -> Optional[int]:
    """Smallest t with max_start TV(P^t(start,.), pi) <= delta, or None.

    Raises ``ModelError`` for chains without a unique stationary law.
    """
    if model.transition is None:
        raise InputError("mixing time needs a transition matrix")
    if not (0 < delta < 1):
        raise InputError("delta must lie in (0, 1)")
    P = model.transition
    pi = stationary_distribution(P)
    M = np.eye(P.shape[0])
    for t in range(1, t_max + 1):
        M = M @ P
        worst = max(tv_distance(M[i], pi) for i in range(P.shape[0]))
        if worst <= delta:
            return t
    return None
