"""Kernel evaluation and Gram-matrix machinery.

Everything downstream (operator representations, the online learner, the
spectral analysis) works purely with finite Gram matrices built here.  The
module also owns the numerical policy for inverting Gram matrices: a
multiplicative jitter that escalates until a Cholesky factorization exists
and the inverse passes a residual check, plus a bordered (Woodbury) update
so the learner can grow an inverse one dictionary atom at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import InputError, NumericalError

DEFAULT_JITTER_SCALE = 1e-10
MAX_JITTER_SCALE = 1e-4
INVERSE_RTOL = 1e-8
SCHUR_FALLBACK_RTOL = 1e-12

# pairwise-evaluation chunk limit: n*m*dim elements per temporary
_CHUNK_ELEMS = 2 ** 24


@dataclass(frozen=True)
class Kernel:
    """A bounded positive-definite kernel with its uniform bound.

    ``bound`` is the constant ``K`` with sup_x k(x, x) <= K; the Gaussian
    family normalizes to k(x, x) = 1 so its bound is always 1.
    """

    family: str
    bandwidth: Optional[float] = None
    bound: float = 1.0
    fn: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if self.family not in ("gaussian", "linear", "custom"):
            raise InputError(f"unknown kernel family: {self.family!r}")
        if self.family == "gaussian":
            if self.bandwidth is None or self.bandwidth <= 0:
                raise InputError("gaussian kernel needs a positive bandwidth")
            if self.bound != 1.0:
                raise InputError("gaussian kernel has k(x,x)=1, bound must be 1")
        if self.bound <= 0:
            raise InputError("kernel bound must be positive")
        if self.family == "custom" and self.fn is None:
            raise InputError("custom kernel needs an evaluation function")

    @staticmethod
    def gaussian(bandwidth: float) -> "Kernel":
        return Kernel(family="gaussian", bandwidth=bandwidth, bound=1.0)

    @staticmethod
    def linear(bound: float) -> "Kernel":
        return Kernel(family="linear", bound=bound)

    @staticmethod
    def custom(fn, bound: float) -> "Kernel":
        return Kernel(family="custom", fn=fn, bound=bound)

    def __call__(self, a, b) -> float:
        return eval_kernel(self, a, b)

    def to_dict(self) -> dict:
        if self.family == "custom":
            raise InputError("custom kernels are not serializable")
        out = {"family": self.family, "bound": self.bound}
        if self.bandwidth is not None:
            out["bandwidth"] = self.bandwidth
        return out

    @staticmethod
    def from_dict(d: dict) -> "Kernel":
        family = d.get("family")
        if family == "gaussian":
            return Kernel.gaussian(d["bandwidth"])
        if family == "linear":
            return Kernel.linear(d.get("bound", 1.0))
        raise InputError(f"cannot deserialize kernel family {family!r}")


def _as_points(points, name: str) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError(f"{name} must be a nonempty list of points")
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{name} contains non-finite values")
    return arr


def _pairwise(kernel: Kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    if kernel.family == "gaussian":
        diff = rows[:, None, :] - cols[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        return np.exp(-sq / (2.0 * kernel.bandwidth ** 2))
    if kernel.family == "linear":
        return rows @ cols.T
    out = np.asarray(kernel.fn(rows, cols), dtype=float)
    if out.shape != (rows.shape[0], cols.shape[0]):
        raise InputError("custom kernel returned a wrongly shaped block")
    return out


def _pairwise_chunked(kernel: Kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    n, m = rows.shape[0], cols.shape[0]
    dim = rows.shape[1]
    if n * m * dim <= _CHUNK_ELEMS or kernel.family != "gaussian":
        return _pairwise(kernel, rows, cols)
    out = np.empty((n, m))
    step = max(1, _CHUNK_ELEMS // (m * dim))
    for start in range(0, n, step):
        stop = min(n, start + step)
        out[start:stop] = _pairwise(kernel, rows[start:stop], cols)
    return out


def eval_kernel(kernel: Kernel, a, b) -> float:
    """Evaluate k(a, b) for two points of equal dimension."""
    pa = _as_points(a, "a")
    pb = _as_points(b, "b")
    if pa.shape != (1, pb.shape[1]) or pb.shape[0] != 1:
        raise InputError("eval_kernel expects two single points of equal dimension")
    return float(_pairwise(kernel, pa, pb)[0, 0])


def self_kernel(kernel: Kernel, point) -> float:
    """k(p, p): exactly 1.0 for the Gaussian family (its ``exp(-0.0)``),
    ``eval_kernel(kernel, p, p)`` otherwise."""
    if kernel.family == "gaussian":
        return 1.0
    return eval_kernel(kernel, point, point)


def gram_matrix(kernel: Kernel, points) -> np.ndarray:
    """Symmetric PSD matrix of pairwise kernel values."""
    pts = _as_points(points, "points")
    G = _pairwise_chunked(kernel, pts, pts)
    if kernel.family != "gaussian":
        # enforce exact symmetry; the gaussian path is symmetric by construction
        G = 0.5 * (G + G.T)
    return G


def cross_gram(kernel: Kernel, rows, cols) -> np.ndarray:
    """|rows| x |cols| matrix of kernel values."""
    r = _as_points(rows, "rows")
    c = _as_points(cols, "cols")
    if r.shape[1] != c.shape[1]:
        raise InputError("rows and cols have mismatched point dimensions")
    return _pairwise_chunked(kernel, r, c)


def _try_inverse(G: np.ndarray, jitter: float):
    d = G.shape[0]
    A = G + jitter * np.eye(d)
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return None
    M = np.linalg.solve(A, np.eye(d))
    M = 0.5 * (M + M.T)
    residual = np.linalg.norm(A @ M - np.eye(d)) / np.sqrt(d)
    if residual > INVERSE_RTOL:
        return None
    return M


def inverse_with_jitter(G, jitter_scale: float = DEFAULT_JITTER_SCALE):
    """Invert ``G + jitter*I`` with an escalating multiplicative jitter.

    The jitter starts at ``jitter_scale * trace(G)/d`` and is escalated by
    factors of 10 (up to ``1e-4 * trace(G)/d``) whenever the factorization
    fails or the inverse misses the 1e-8 relative residual target.  Returns
    ``(inverse, jitter_used)``.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InputError("G must be square")
    d = G.shape[0]
    if d == 0:
        return np.zeros((0, 0)), 0.0
    if not np.allclose(G, G.T, rtol=1e-8, atol=1e-10):
        raise InputError("G must be symmetric")
    if jitter_scale < 0:
        raise InputError("jitter_scale must be nonnegative")

    unit = np.trace(G) / d
    if unit <= 0:
        unit = 1.0
    cap = MAX_JITTER_SCALE * unit
    jitter = jitter_scale * unit
    while True:
        M = _try_inverse(G, jitter)
        if M is not None:
            return M, jitter
        nxt = DEFAULT_JITTER_SCALE * unit if jitter == 0.0 else jitter * 10.0
        if nxt > cap * (1.0 + 1e-12) or nxt <= jitter:
            raise NumericalError(
                f"Gram matrix not invertible even at maximum jitter {cap:.3e}"
            )
        jitter = nxt


def woodbury_append(G_inv, new_column, new_diag: float, gram=None) -> np.ndarray:
    """Inverse of the bordered Gram from the inverse of the current one.

    ``G_inv`` inverts the (jittered) d x d Gram, ``new_column`` holds the
    kernel values against the new point and ``new_diag`` the new jittered
    diagonal entry.  Falls back to a direct factorization of the bordered
    matrix when the Schur complement degenerates; ``gram`` optionally
    supplies the jittered d x d matrix for that path, or a callable that
    builds it on demand (otherwise it is recovered by inverting ``G_inv``).
    """
    Gi = np.asarray(G_inv, dtype=float)
    b = np.asarray(new_column, dtype=float).reshape(-1)
    d = Gi.shape[0]
    if Gi.shape != (d, d) or b.shape != (d,):
        raise InputError("inconsistent shapes for bordered inverse update")
    if not np.isfinite(new_diag) or not np.all(np.isfinite(b)):
        raise InputError("non-finite inputs to woodbury_append")

    if d == 0:
        if new_diag <= 0:
            raise NumericalError("bordered matrix is not positive definite")
        return np.array([[1.0 / new_diag]])

    u = Gi @ b
    s = new_diag - b @ u
    if abs(s) >= SCHUR_FALLBACK_RTOL * abs(new_diag) and s > 0:
        out = np.empty((d + 1, d + 1))
        out[:d, :d] = Gi + np.outer(u, u) / s
        out[:d, d] = -u / s
        out[d, :d] = -u / s
        out[d, d] = 1.0 / s
        return out

    if gram is None:
        A = np.linalg.inv(Gi)
    else:
        A = np.asarray(gram() if callable(gram) else gram, dtype=float)
    bordered = np.empty((d + 1, d + 1))
    bordered[:d, :d] = A
    bordered[:d, d] = b
    bordered[d, :d] = b
    bordered[d, d] = new_diag
    M = _try_inverse(bordered, 0.0)
    if M is None:
        raise NumericalError("degenerate Schur complement; bordered Gram not invertible")
    return M


class GramCache:
    """Append-only Gram matrix over dictionary points with a lazy inverse.

    The kernel matrix grows one point at a time inside a capacity-doubling
    buffer.  The jittered inverse is only materialized when first requested
    and is then maintained through ``woodbury_append``; runs that never need
    it (pure admission, zero compression budget) never pay for it.

    Single-writer: appends must come from one thread; reads of published
    views are safe afterwards.
    """

    def __init__(self, kernel: Kernel, jitter_scale: float = DEFAULT_JITTER_SCALE):
        self.kernel = kernel
        self.jitter_scale = jitter_scale
        self.jitter = 0.0
        self.size = 0
        self._pts: Optional[np.ndarray] = None
        self._G: Optional[np.ndarray] = None
        self._Ginv: Optional[np.ndarray] = None

    @property
    def points(self) -> np.ndarray:
        if self._pts is None:
            return np.zeros((0, 0))
        return self._pts[: self.size]

    @property
    def G(self) -> np.ndarray:
        if self._G is None:
            return np.zeros((0, 0))
        return self._G[: self.size, : self.size]

    def kernel_vector(self, point) -> np.ndarray:
        """Kernel values of ``point`` against every cached point."""
        if self.size == 0:
            return np.zeros(0)
        p = _as_points(point, "point")
        return _pairwise(self.kernel, self._pts[: self.size], p)[:, 0]

    def _grow(self, need: int):
        cap = 0 if self._G is None else self._G.shape[0]
        if need <= cap:
            return
        new_cap = max(16, cap)
        while new_cap < need:
            new_cap *= 2
        dim = self._pts.shape[1] if self._pts is not None else 0
        new_pts = np.empty((new_cap, dim))
        new_G = np.empty((new_cap, new_cap))
        if self.size:
            new_pts[: self.size] = self._pts[: self.size]
            new_G[: self.size, : self.size] = self._G[: self.size, : self.size]
        self._pts, self._G = new_pts, new_G
        if self._Ginv is not None:
            new_inv = np.empty((new_cap, new_cap))
            new_inv[: self.size, : self.size] = self._Ginv[: self.size, : self.size]
            self._Ginv = new_inv

    def append(self, point, kvec: Optional[np.ndarray] = None, diag: Optional[float] = None):
        """Add a point; ``kvec``/``diag`` may carry precomputed kernel values."""
        p = _as_points(point, "point")
        if self._pts is None:
            self._pts = np.empty((0, p.shape[1]))
        elif p.shape[1] != self._pts.shape[1]:
            raise InputError("point dimension does not match cache")
        if kvec is None:
            kvec = self.kernel_vector(p)
        if diag is None:
            diag = self_kernel(self.kernel, p)
        d = self.size
        self._grow(d + 1)
        self._pts[d] = p[0]
        self._G[:d, d] = kvec
        self._G[d, :d] = kvec
        self._G[d, d] = diag
        if self._Ginv is not None:
            self._update_inverse(kvec, diag)
        self.size = d + 1

    def _update_inverse(self, kvec: np.ndarray, diag: float):
        d = self.size
        Gi = self._Ginv[:d, :d]
        try:
            upd = woodbury_append(Gi, kvec, diag + self.jitter,
                                  gram=lambda: self._G[:d, :d] + self.jitter * np.eye(d))
        except NumericalError:
            upd = None
        if upd is None:
            # duplicate-heavy dictionary: rebuild at (possibly escalated) jitter
            full = self._G[: d + 1, : d + 1].copy()
            full[d, d] = diag
            upd, self.jitter = inverse_with_jitter(full, self.jitter_scale)
        self._Ginv[: d + 1, : d + 1] = upd

    def inverse(self) -> np.ndarray:
        """Jittered inverse of the current Gram, materialized on first use."""
        if self.size == 0:
            return np.zeros((0, 0))
        if self._Ginv is None:
            M, self.jitter = inverse_with_jitter(self.G, self.jitter_scale)
            cap = self._G.shape[0]
            self._Ginv = np.empty((cap, cap))
            self._Ginv[: self.size, : self.size] = M
        return self._Ginv[: self.size, : self.size]

    @property
    def has_inverse(self) -> bool:
        return self._Ginv is not None

    def copy(self) -> "GramCache":
        out = GramCache(self.kernel, self.jitter_scale)
        out.jitter = self.jitter
        out.size = self.size
        if self._pts is not None:
            out._pts = self._pts[: self.size].copy()
            out._G = self._G[: self.size, : self.size].copy()
        if self._Ginv is not None:
            out._Ginv = self._Ginv[: self.size, : self.size].copy()
        return out
