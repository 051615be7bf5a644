"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: quadruple
sums over atoms for HS geometry, an explicitly assembled normal-equations
solve for projections, and the plain full-dictionary coefficient recursion
for the online learner.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import cmestream
from cmestream import Dictionary, Kernel, OperatorRep, eval_kernel, sgd_expand


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


def run_child(cwd, *args):
    """``python *args`` against this package in a child process with a 60 s
    timeout, so that a hang fails the calling test instead of stalling the
    suite."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmestream.__file__)))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)
