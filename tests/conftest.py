"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: quadruple
sums over atoms for HS geometry, an explicitly assembled normal-equations
solve for projections, the Gram-form expansion, residual and projection on
explicit coefficient and Gram matrices (which the learner's ``step``
computes in factored form), and the plain full-dictionary coefficient
recursion for the online learner.  It also holds the reference
diagnostics that only tests call: the empirical gradient norm and a finite
chain's total-variation distance and mixing time.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import cmestream
from cmestream import (Dictionary, FiniteSpaceModel, InputError, Kernel, OperatorRep,
                       eval_kernel, hs_norm, stationary_distribution)
from cmestream.batch import _check_lambda, _sample_arrays
from cmestream.kernels import clamp_roundoff
from cmestream.learner import _DELTA_CLAMP_RTOL


@pytest.fixture
def gauss03():
    return Kernel.gaussian(0.3)


@pytest.fixture
def gauss05():
    return Kernel.gaussian(0.5)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_rep(rng, kernel, d, dim=2, scale=0.5):
    xs = rng.uniform(-1, 1, (d, dim))
    ys = rng.uniform(-1, 1, (d, dim))
    W = rng.normal(0, scale, (d, d))
    return OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=kernel, kernel_y=kernel)


def hs_inner_quadruple(A, B):
    """<A, B>_HS by explicit sums over all atom pairs."""
    total = 0.0
    for i in range(len(A)):
        for j in range(len(A)):
            if A.W[i, j] == 0.0:
                continue
            for k in range(len(B)):
                for l in range(len(B)):
                    total += (A.W[i, j] * B.W[k, l]
                              * eval_kernel(A.kernel_y, A.dict.ys[i], B.dict.ys[k])
                              * eval_kernel(A.kernel_x, A.dict.xs[j], B.dict.xs[l]))
    return total


def projection_oracle(kernel, xs_old, ys_old, xs_new, ys_new, W_tilde):
    """Dense least-squares projection of an expanded operator onto the old
    dictionary's product span, assembled by brute force.

    Returns ``(Z, residual)`` where Z minimizes
    ``| sum Z_ij k(y_i,.)(x)k(x_j,.) - sum W~_kl k(y_k,.)(x)k(x_l,.) |^2``.
    """
    d = xs_old.shape[0]
    n = W_tilde.shape[0]
    A = np.zeros((d * d, d * d))
    b = np.zeros(d * d)
    gy = np.array([[eval_kernel(kernel, a, c) for c in ys_old] for a in ys_old])
    gx = np.array([[eval_kernel(kernel, a, c) for c in xs_old] for a in xs_old])
    for i in range(d):
        for j in range(d):
            for k in range(d):
                for l in range(d):
                    A[i * d + j, k * d + l] = gy[i, k] * gx[j, l]
    for i in range(d):
        for j in range(d):
            acc = 0.0
            for k in range(n):
                for l in range(n):
                    acc += (W_tilde[k, l]
                            * eval_kernel(kernel, ys_old[i], ys_new[k])
                            * eval_kernel(kernel, xs_old[j], xs_new[l]))
            b[i * d + j] = acc
    const = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    const += (W_tilde[i, j] * W_tilde[k, l]
                              * eval_kernel(kernel, ys_new[i], ys_new[k])
                              * eval_kernel(kernel, xs_new[j], xs_new[l]))
    z, *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = const - 2.0 * z @ b + z @ A @ z
    return z.reshape(d, d), residual, (A, b, const)


# Gram-form primitives (reference operations on explicit coefficient and
# Gram matrices; the learner's step computes their factored equivalents)

def sgd_expand(W, k_x_new, eta: float, lam: float) -> np.ndarray:
    """One stochastic-gradient expansion of the coefficient matrix.

    Top-left block decays by ``(1 - lambda*eta)``, the new column carries
    ``-eta * W k_x`` and the new diagonal entry is ``eta``.
    """
    W = np.asarray(W, dtype=float)
    k = np.asarray(k_x_new, dtype=float).reshape(-1)
    d = W.shape[0]
    if W.shape != (d, d) or k.shape != (d,):
        raise InputError("inconsistent shapes in sgd_expand")
    if not (np.all(np.isfinite(W)) and np.all(np.isfinite(k))
            and np.isfinite(eta) and np.isfinite(lam)):
        raise InputError("non-finite inputs to sgd_expand")
    out = np.zeros((d + 1, d + 1))
    out[:d, :d] = (1.0 - lam * eta) * W
    if d:
        out[:d, d] = -eta * (W @ k)
    out[d, d] = eta
    return out


def _clamped_delta(raw: float, scale: float) -> float:
    return clamp_roundoff(raw, scale, _DELTA_CLAMP_RTOL,
                          "compression residual came out negative")


def compression_delta(W_tilde, G_x_big, G_y_big, Gbar_x, Gbar_y,
                      Gx_inv, Gy_inv) -> float:
    """Squared HS residual of projecting the expanded operator onto the span
    of the old dictionary's product atoms.

    Equals ``|U~|^2 - Tr(Z*^T B)`` with ``B = Gbar_y^T W~ Gbar_x`` and
    ``Z* = Gy_inv B Gx_inv`` the least-squares coefficients; this is the
    quantity the compression budget is compared against.
    """
    Wt = np.asarray(W_tilde, dtype=float)
    n = Wt.shape[0]
    d = n - 1
    Gxb = np.asarray(G_x_big, dtype=float)
    Gyb = np.asarray(G_y_big, dtype=float)
    Gbx = np.asarray(Gbar_x, dtype=float)
    Gby = np.asarray(Gbar_y, dtype=float)
    Gxi = np.asarray(Gx_inv, dtype=float)
    Gyi = np.asarray(Gy_inv, dtype=float)
    if (Gxb.shape != (n, n) or Gyb.shape != (n, n) or Gbx.shape != (n, d)
            or Gby.shape != (n, d) or Gxi.shape != (d, d) or Gyi.shape != (d, d)):
        raise InputError("inconsistent Gram shapes in compression_delta")
    t1 = float(np.sum(Wt * (Gyb @ Wt @ Gxb)))
    if d == 0:
        return _clamped_delta(t1, abs(t1))
    B = Gby.T @ Wt @ Gbx
    t2 = float(np.sum((Gyi @ B) * (B @ Gxi)))
    return _clamped_delta(t1 - t2, abs(t1) + abs(t2))


def project_coefficients(W_tilde, Gy_inv, Gbar_y, Gbar_x, Gx_inv) -> np.ndarray:
    """Least-squares coefficients of the expanded operator over the old
    dictionary: ``Z* = Gy_inv Gbar_y^T W~ Gbar_x Gx_inv``."""
    Wt = np.asarray(W_tilde, dtype=float)
    n = Wt.shape[0]
    d = n - 1
    Gby = np.asarray(Gbar_y, dtype=float)
    Gbx = np.asarray(Gbar_x, dtype=float)
    Gyi = np.asarray(Gy_inv, dtype=float)
    Gxi = np.asarray(Gx_inv, dtype=float)
    if (Gby.shape != (n, d) or Gbx.shape != (n, d)
            or Gyi.shape != (d, d) or Gxi.shape != (d, d)):
        raise InputError("inconsistent Gram shapes in project_coefficients")
    return Gyi @ (Gby.T @ Wt @ Gbx) @ Gxi


def naive_uncompressed(samples, cfg):
    """Literal full-dictionary coefficient recursion (decay block, new
    column from the previous coefficients, step size on the diagonal)."""
    xs, ys = [], []
    W = np.zeros((0, 0))
    t = 0
    for (x, y) in samples:
        t += 1
        eta = cfg.eta_at(t)
        k = np.array([eval_kernel(cfg.kernel_x, xj, x) for xj in xs])
        W = sgd_expand(W, k, eta, cfg.lam)
        xs.append(np.asarray(x, dtype=float))
        ys.append(np.asarray(y, dtype=float))
    return OperatorRep(dict=Dictionary(np.array(xs), np.array(ys)), W=W,
                       kernel_x=cfg.kernel_x, kernel_y=cfg.kernel_y)


# ---------------------------------------------------------------------------
# Reference diagnostics (no program path calls them): the empirical gradient
# norm of criterion 5, and the total-variation distance and mixing time of a
# finite chain

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


def mixing_time(model: FiniteSpaceModel, delta: float, t_max: int):
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


def run_child(cwd, *args):
    """``python *args`` against this package in a child process with a 60 s
    timeout, so that a hang fails the calling test instead of stalling the
    suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmestream.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
