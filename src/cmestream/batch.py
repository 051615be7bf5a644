"""Ground-truth references for the online learner.

Two oracles: the batch regularized empirical operator over a full sample
set (closed form in Gram coordinates), and the exact population operator
for finite state spaces with a known joint distribution.  Both produce
ordinary operator representations so distances to online iterates reduce
to the shared Gram algebra.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, ModelError
from .kernels import Kernel, gram_matrix
from .operator import (Dictionary, OperatorRep, hs_distance, hs_norm, json_field,
                       read_json)


@dataclass(frozen=True)
class BatchSolution:
    """Regularized empirical solution over the full sample dictionary."""

    rep: OperatorRep
    n: int
    lam: float


def _sample_arrays(samples):
    xs = np.asarray([np.asarray(s[0], dtype=float).reshape(-1) for s in samples])
    ys = np.asarray([np.asarray(s[1], dtype=float).reshape(-1) for s in samples])
    if xs.ndim != 2 or xs.shape[0] == 0:
        raise InputError("need at least one sample")
    return xs, ys


def _check_lambda(lam: float):
    if not (lam > 0 and np.isfinite(lam)):
        raise InputError("lambda must be positive and finite")


def batch_solution(samples, lam: float, kernel_x: Kernel, kernel_y: Kernel) -> BatchSolution:
    """W = (G_X + n*lam*I)^-1 over the dictionary of all n samples.

    Follows from the push-through identity
    Psi Phi^T (Phi Phi^T + n lam Id)^-1 = Psi (G_X + n lam I)^-1 Phi^T
    applied to the empirical covariance form of the regularized solution.
    """
    _check_lambda(lam)
    xs, ys = _sample_arrays(samples)
    n = xs.shape[0]
    G = gram_matrix(kernel_x, xs)
    W = np.linalg.solve(G + n * lam * np.eye(n), np.eye(n))
    W = 0.5 * (W + W.T)
    rep = OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=kernel_x, kernel_y=kernel_y)
    return BatchSolution(rep=rep, n=n, lam=lam)


def gradient_norm_gram(U: OperatorRep, samples, lam: float) -> float:
    """HS norm of the empirical regularized-risk gradient at U.

    The gradient is dictionary-representable with coefficient matrix
    ``W G_X / n - I/n + lam W`` over the same sample dictionary.
    """
    _check_lambda(lam)
    if samples is not None:
        xs, ys = _sample_arrays(samples)
        if xs.shape != U.dict.xs.shape or not (np.array_equal(xs, U.dict.xs)
                                               and np.array_equal(ys, U.dict.ys)):
            raise InputError("operator dictionary must equal the sample list")
    n = len(U)
    if n == 0:
        raise InputError("empty operator has no empirical gradient")
    G = U.gram_x()
    Wg = (U.W @ G) / n - np.eye(n) / n + lam * U.W
    grad = OperatorRep(dict=U.dict, W=Wg, kernel_x=U.kernel_x, kernel_y=U.kernel_y)
    return hs_norm(grad)


# ---------------------------------------------------------------------------
# Finite state spaces
# ---------------------------------------------------------------------------

def stationary_distribution(transition: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Unique stationary distribution of a row-stochastic matrix.

    Taken as the leading left eigenvector, validated by pi P = pi; raises
    ``ModelError`` when the chain has no unique stationary distribution.
    """
    P = np.asarray(transition, dtype=float)
    m = P.shape[0]
    if P.shape != (m, m):
        raise InputError("transition matrix must be square")
    if not np.allclose(P.sum(axis=1), 1.0, atol=1e-9):
        raise ModelError("transition rows must sum to 1")
    if np.any(P < -1e-12):
        raise ModelError("transition has negative entries")
    vals, vecs = np.linalg.eig(P.T)
    close = np.where(np.abs(vals - 1.0) < 1e-8)[0]
    if close.size != 1:
        raise ModelError("chain does not have a unique stationary distribution")
    pi = np.real(vecs[:, close[0]])
    pi = pi / pi.sum()
    if np.any(pi < -1e-10):
        raise ModelError("stationary vector has negative mass")
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum()
    if np.linalg.norm(pi @ P - pi, ord=np.inf) > tol:
        raise ModelError("stationary vector failed the pi P = pi check")
    return pi


@dataclass(frozen=True)
class FiniteSpaceModel:
    """Finite joint distribution over (x, y) pairs, optionally Markov."""

    x_states: np.ndarray   # (mx, dim_x)
    y_states: np.ndarray   # (my, dim_y)
    joint: np.ndarray      # (mx, my), entries >= 0 summing to 1
    transition: Optional[np.ndarray] = None   # (mx, mx), row-stochastic

    def __post_init__(self):
        xs = np.atleast_2d(np.asarray(self.x_states, dtype=float))
        ys = np.atleast_2d(np.asarray(self.y_states, dtype=float))
        J = np.asarray(self.joint, dtype=float)
        if J.shape != (xs.shape[0], ys.shape[0]):
            raise InputError("joint shape does not match the state lists")
        if np.any(J < -1e-15):
            raise ModelError("joint probabilities must be nonnegative")
        if abs(J.sum() - 1.0) > 1e-12:
            raise ModelError("joint probabilities must sum to 1")
        object.__setattr__(self, "x_states", xs)
        object.__setattr__(self, "y_states", ys)
        object.__setattr__(self, "joint", np.maximum(J, 0.0))
        if self.transition is not None:
            P = np.asarray(self.transition, dtype=float)
            if P.shape != (xs.shape[0], xs.shape[0]):
                raise InputError("transition shape does not match x_states")
            if not np.allclose(P.sum(axis=1), 1.0, atol=1e-12):
                raise ModelError("transition rows must sum to 1")
            if np.any(P < -1e-15):
                raise ModelError("transition has negative entries")
            object.__setattr__(self, "transition", P)

    @property
    def marginal_x(self) -> np.ndarray:
        return self.joint.sum(axis=1)

    @property
    def marginal_y(self) -> np.ndarray:
        return self.joint.sum(axis=0)

    @staticmethod
    def from_chain(states, transition) -> "FiniteSpaceModel":
        """Markov chain model: joint is the stationary one-step pair law."""
        states = np.atleast_2d(np.asarray(states, dtype=float))
        P = np.asarray(transition, dtype=float)
        pi = stationary_distribution(P)
        joint = pi[:, None] * P
        return FiniteSpaceModel(x_states=states, y_states=states.copy(),
                                joint=joint, transition=P)

    def to_dict(self) -> dict:
        out = {
            "x_states": [list(s) for s in self.x_states],
            "y_states": [list(s) for s in self.y_states],
            "joint": [list(row) for row in self.joint],
        }
        if self.transition is not None:
            out["transition"] = [list(row) for row in self.transition]
        return out

    @staticmethod
    def from_dict(data: dict) -> "FiniteSpaceModel":
        """Inverse of ``to_dict``; a missing or malformed key raises
        ``InputError`` naming it."""
        def array(key):
            return json_field(data, key, lambda v: np.asarray(v, dtype=float))

        return FiniteSpaceModel(
            x_states=array("x_states"), y_states=array("y_states"), joint=array("joint"),
            transition=array("transition") if data.get("transition") is not None else None,
        )

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @staticmethod
    def load(path) -> "FiniteSpaceModel":
        return read_json(path, FiniteSpaceModel.from_dict)


def exact_finite_cme(model: FiniteSpaceModel, lam: float,
                     kernel_x: Kernel, kernel_y: Kernel) -> OperatorRep:
    """Exact population operator C_YX (C_XX + lam Id)^-1 on a finite space.

    With feature matrices over the state grids and D the diagonal of the
    x-marginal, C_XX = Phi D Phi^T, so the state-grid coefficient matrix is
    ``J^T (G_X D + lam I)^-1`` (push-through identity).  The result is then
    laid out over the dictionary of all support pairs, with each state-grid
    coefficient assigned to one representative pair, to match the square
    pair-dictionary representation used everywhere else.
    """
    _check_lambda(lam)
    mx, my = model.joint.shape
    if mx > 100 or my > 100:
        raise InputError("finite-space oracle is limited to <=100 states per side")
    px = model.marginal_x
    keep_x = px > 0
    keep_y = model.marginal_y > 0
    xs = model.x_states[keep_x]
    ys = model.y_states[keep_y]
    J = model.joint[np.ix_(keep_x, keep_y)]
    J = J / J.sum()
    dx = J.sum(axis=1)

    G = gram_matrix(kernel_x, xs)
    A = G * dx[None, :] + lam * np.eye(xs.shape[0])     # G_X D + lam I
    Wgrid = np.linalg.solve(A.T, J).T                    # J^T A^-1, shape (my, mx)

    ix_all, iy_all = np.nonzero(J > 0)
    if ix_all.size == 0:
        raise ModelError("joint distribution has empty support")
    # every kept state has support, so each has a first representative pair
    _, rep_x = np.unique(ix_all, return_index=True)
    _, rep_y = np.unique(iy_all, return_index=True)
    W = np.zeros((ix_all.size, ix_all.size))
    W[np.ix_(rep_y, rep_x)] = Wgrid
    return OperatorRep(dict=Dictionary(xs[ix_all], ys[iy_all]), W=W,
                       kernel_x=kernel_x, kernel_y=kernel_y)


def distance_to_oracle(U: OperatorRep, ref: OperatorRep) -> float:
    """HS distance between an iterate and a reference operator."""
    return hs_distance(U, ref)
