"""Kernel evaluation and Gram-matrix machinery.

Everything downstream (operator representations, the online learner, the
spectral analysis) works purely with finite Gram matrices built here.  The
module also owns the numerical policy for inverting Gram matrices: a
multiplicative jitter that escalates until a Cholesky factorization exists
and the inverse passes a residual check, an inverse Cholesky factor
that the learner grows by one row per dictionary atom, and the clamp of
quantities that round-off can push below zero (``clamp_roundoff``).
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

def grown_capacity(cap: int, need: int) -> int:
    """The capacity that holds ``need``: ``max(16, cap)``, grown by a quarter
    until it does (16, 20, 25, 31, ...).  Below 2^26 none is a multiple of
    256, so no row stride is a multiple of 2 KiB, where every row of a d x d
    pass would start on the same cache sets."""
    new_cap = max(16, cap)
    while new_cap < need:
        new_cap += new_cap // 4
    return new_cap


def grown_buffer(block: np.ndarray, shape: tuple, fill=np.empty) -> np.ndarray:
    """A new ``shape`` array made by ``fill`` (``np.empty`` or ``np.zeros``)
    whose leading block is a copy of ``block``."""
    out = fill(shape)
    out[: block.shape[0], : block.shape[1]] = block
    return out


def clamp_roundoff(raw: float, scale: float, rtol: float, message: str) -> float:
    """The numerical policy's round-off clamp for a quantity that is >= 0 in
    exact arithmetic, computed as ``raw`` from terms of total magnitude
    ``scale``: ``raw`` when it is >= 0, 0.0 when it is negative within
    ``rtol * scale``, and a ``NumericalError`` reading
    ``f"{message}: {raw}"`` beyond that."""
    if raw >= 0.0:
        return raw
    if raw >= -rtol * max(scale, 1e-300):
        return 0.0
    raise NumericalError(f"{message}: {raw}")


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
            if self.bandwidth is None or not 0 < self.bandwidth < np.inf:
                raise InputError("gaussian kernel needs a positive finite bandwidth")
            if self.bound != 1.0:
                raise InputError("gaussian kernel has k(x,x)=1, bound must be 1")
        elif self.bandwidth is not None:
            raise InputError(f"{self.family} kernel takes no bandwidth")
        if not 0 < self.bound < np.inf:
            raise InputError("kernel bound must be positive and finite")
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

    def to_dict(self) -> dict:
        if self.family == "custom":
            raise InputError("custom kernels are not serializable")
        out = {"family": self.family, "bound": self.bound}
        if self.bandwidth is not None:
            out["bandwidth"] = self.bandwidth
        return out

    @staticmethod
    def from_dict(d: dict) -> "Kernel":
        """The kernel of the keys ``d`` gives (``to_dict``'s, or a config's
        kernel section); a key that its family does not take raises."""
        return Kernel(**d, fn=None)


def _as_points(points, name: str) -> np.ndarray:
    try:
        arr = np.asarray(points, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not numeric: {exc}") from None
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise InputError(f"{name} must be a nonempty list of points")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} contains non-finite values")
    return arr


def _pairwise(kernel: Kernel, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    if kernel.family == "gaussian":
        # squares added in coordinate order, as GramCache._kvec adds them; one
        # temporary the size of the block, and the rest in place
        sq = np.zeros((rows.shape[0], cols.shape[0]))
        diff = np.empty_like(sq)
        for k in range(rows.shape[1]):
            np.subtract(rows[:, k, None], cols[None, :, k], out=diff)
            diff *= diff
            sq += diff
        np.negative(sq, out=sq)
        sq /= 2.0 * kernel.bandwidth ** 2
        return np.exp(sq, out=sq)
    if kernel.family == "linear":
        return rows @ cols.T
    out = np.asarray(kernel.fn(rows, cols), dtype=float)
    if out.shape != (rows.shape[0], cols.shape[0]):
        raise InputError("custom kernel returned a wrongly shaped block")
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
    G = _pairwise(kernel, pts, pts)
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
    return _pairwise(kernel, r, c)


def _inverse_factor(G, jitter_scale: float):
    """Lower-triangular ``R`` with ``R (G + jitter*I) R^T = I``.

    The jitter starts at ``jitter_scale * trace(G)/d`` and is escalated by
    factors of 10 (up to ``1e-4 * trace(G)/d``) whenever the Cholesky
    factorization fails or the inverse ``R^T R`` misses the 1e-8 relative
    residual target.  Returns ``(R, jitter_used)``.
    """
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1]:
        raise InputError("G must be square")
    d = G.shape[0]
    if d == 0:
        return np.zeros((0, 0)), 0.0
    if not np.allclose(G, G.T, rtol=1e-8, atol=1e-10):
        raise InputError("G must be symmetric")
    if not 0 <= jitter_scale < np.inf:     # a NaN would never end the escalation
        raise InputError("jitter_scale must be nonnegative and finite")

    unit = np.trace(G) / d
    if unit <= 0:
        unit = 1.0
    cap = MAX_JITTER_SCALE * unit
    jitter = jitter_scale * unit
    eye = np.eye(d)
    while True:
        A = G + jitter * eye
        try:
            R = np.tril(np.linalg.inv(np.linalg.cholesky(A)))
        except np.linalg.LinAlgError:
            pass
        else:
            if np.linalg.norm(A @ (R.T @ R) - eye) / np.sqrt(d) <= INVERSE_RTOL:
                return R, jitter
        nxt = DEFAULT_JITTER_SCALE * unit if jitter == 0.0 else jitter * 10.0
        if nxt > cap * (1.0 + 1e-12) or nxt <= jitter:
            raise NumericalError(
                f"Gram matrix not invertible even at maximum jitter {cap:.3e}"
            )
        jitter = nxt


def inverse_with_jitter(G, jitter_scale: float = DEFAULT_JITTER_SCALE):
    """Invert ``G + jitter*I`` with an escalating multiplicative jitter.

    The inverse is ``R^T R`` for the factor of ``_inverse_factor``, so it
    carries the same escalation and residual check.  Returns
    ``(inverse, jitter_used)``.
    """
    R, jitter = _inverse_factor(G, jitter_scale)
    return R.T @ R, jitter


def woodbury_append(G_inv, new_column, new_diag: float) -> np.ndarray:
    """Inverse of the bordered Gram from the inverse of the current one.

    ``G_inv`` inverts the (jittered) d x d Gram, ``new_column`` holds the
    kernel values against the new point and ``new_diag`` the new jittered
    diagonal entry.  Raises ``NumericalError`` when the Schur complement
    degenerates.  A reference primitive: ``GramCache`` grows an inverse
    factor instead.
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
    if not (s > 0 and s >= SCHUR_FALLBACK_RTOL * abs(new_diag)):
        raise NumericalError("degenerate Schur complement; bordered Gram not invertible")
    out = np.empty((d + 1, d + 1))
    out[:d, :d] = Gi + np.outer(u, u) / s
    out[:d, d] = -u / s
    out[d, :d] = -u / s
    out[d, d] = 1.0 / s
    return out


class GramCache:
    """Append-only Gram matrix over dictionary points with a lazy inverse factor.

    The points grow one at a time inside a buffer whose capacity grows by
    ``grown_capacity``, as do the Gram buffer and the factor.  The
    Gram buffer is built on first read of ``G`` and then kept current by
    appends; a cache whose ``G`` is never read never holds one.  Its
    jittered inverse is held as a lower-triangular factor ``R``
    with ``R (G + jitter*I) R^T = I``, materialized when first needed and
    then grown by one row per append: with ``l = R k`` and the pivot^2
    ``s = diag + jitter - l.l`` (the approximate-linear-dependence
    statistic of KRLS) the new row is ``[-(l^T R)/sqrt(s), 1/sqrt(s)]`` and
    earlier rows are never rewritten.  Only a degenerate pivot refactors,
    through the jitter escalation and residual check of the first
    factorization.  Runs that never solve (pure admission, zero compression
    budget) never pay for the factor.

    The points are held coordinate-major (one row per coordinate), so a
    kernel vector streams each coordinate row once.

    The cache also owns each point's checks (``_point``) and identity:
    ``find`` looks a point up in an index from its bytes to its first row.

    Single-writer: appends, and the first read of ``G`` that builds its
    buffer, must come from one thread; reads of published views are safe
    afterwards.
    """

    def __init__(self, kernel: Kernel, jitter_scale: float = DEFAULT_JITTER_SCALE):
        self.kernel = kernel
        self.jitter_scale = jitter_scale
        self.jitter = 0.0
        self.size = 0
        self._pts: Optional[np.ndarray] = None     # dim x capacity
        self._index: dict[bytes, int] = {}     # point bytes -> first row
        self._G: Optional[np.ndarray] = None
        # zero above the diagonal: solves are full mat-vecs over [:size, :size]
        self._R: Optional[np.ndarray] = None
        self.factorizations = 0     # the first factor and each refactor

    @property
    def points(self) -> np.ndarray:
        """The cached points as a C-ordered ``(size, dim)`` array (a copy)."""
        if self._pts is None:
            return np.zeros((0, 0))
        return self._pts[:, : self.size].T.copy()

    @property
    def G(self) -> np.ndarray:
        """The Gram matrix; its buffer is built on first read."""
        if self.size == 0:
            return np.zeros((0, 0))
        if self._G is None:
            cap = self._pts.shape[1]
            self._G = self._gram(self.size, np.empty((cap, cap)))
        return self._G[: self.size, : self.size]

    def _gram(self, n: int, out: np.ndarray) -> np.ndarray:
        """Write the leading n x n Gram into ``out``, entry for entry what
        ``append`` writes: column j is ``kernel_vector`` of point j against
        points 0..j-1, the diagonal is ``self_kernel``."""
        for j in range(n):
            # a contiguous 1 x dim row, as the appended point was: a linear
            # kernel's product rounds differently over a strided one
            p = np.ascontiguousarray(self._pts[:, j])[None, :]
            if j:
                out[:j, j] = out[j, :j] = self._kvec(j, p)
            out[j, j] = self_kernel(self.kernel, p)
        return out

    def _points(self, points, name: str) -> np.ndarray:
        """``points`` as a finite n x dim array of the cached points' dim."""
        p = _as_points(points, name)
        if self._pts is not None and p.shape[1] != self._pts.shape[0]:
            raise InputError("point dimension does not match cache")
        return p

    def _point(self, point) -> np.ndarray:
        """``point`` as a finite 1 x dim array of the cached points' dim."""
        p = self._points(point, "point")
        if p.shape[0] != 1:
            raise InputError("expected a single point")
        return p

    def leading_valid(self, points) -> int:
        """How many of the leading ``points`` pass ``kernel_vector``'s checks,
        one after another; an empty cache takes the first point's dimension.
        Points that stack into one valid n x dim array all pass."""
        try:
            self._points(points, "points")
            return len(points)
        except InputError:
            pass
        n, dim = 0, None
        for point in points:
            try:
                p = self._point(point)
            except InputError:
                break
            if dim is None:
                dim = p.shape[1]
            elif p.shape[1] != dim:
                break
            n += 1
        return n

    def kernel_vector(self, point) -> np.ndarray:
        """Kernel values of ``point`` against every cached point."""
        p = self._point(point)
        if self.size == 0:
            return np.zeros(0)
        return self._kvec(self.size, p)

    def kernel_matrix(self, points) -> np.ndarray:
        """Kernel values of each of the b x dim ``points`` against every cached
        point: a size x b matrix whose column j is bitwise
        ``kernel_vector(points[j])``.  A Gaussian block is one ``cross_gram``,
        whose entries take ``_kvec``'s arithmetic one by one; any other
        kernel takes ``_kvec`` point by point."""
        pts = self._points(points, "points")
        if self.size == 0:
            return np.zeros((0, len(pts)))
        if self.kernel.family != "gaussian":
            return np.column_stack([self._kvec(self.size, p[None, :]) for p in pts])
        return cross_gram(self.kernel, self._pts[:, : self.size].T, pts)

    def _kvec(self, n: int, p: np.ndarray) -> np.ndarray:
        """Kernel values of the 1 x dim point ``p`` against points 0..n-1."""
        pts = self._pts[:, :n]
        if self.kernel.family != "gaussian":
            return _pairwise(self.kernel, np.ascontiguousarray(pts.T), p)[:, 0]
        # _pairwise's differences and rounded squares over coordinate rows,
        # added in coordinate order
        sq = pts - p.T
        sq *= sq
        out = sq[0]
        for row in sq[1:]:
            out += row
        np.negative(out, out=out)
        out /= 2.0 * self.kernel.bandwidth ** 2
        return np.exp(out, out=out)

    def find(self, point) -> Optional[int]:
        """First index whose point ``==`` ``point`` (so -0.0 matches 0.0), or None."""
        key = (np.asarray(point, dtype=float).reshape(-1) + 0.0).tobytes()
        return self._index.get(key)

    def _grow(self, need: int):
        cap = self._pts.shape[1]
        if need <= cap:
            return
        cap, n = grown_capacity(cap, need), self.size
        self._pts = grown_buffer(self._pts[:, :n], (self._pts.shape[0], cap))
        if self._G is not None:
            self._G = grown_buffer(self._G[:n, :n], (cap, cap))
        if self._R is not None:
            self._R = grown_buffer(self._R[:n, :n], (cap, cap), np.zeros)

    def append(self, point, kvec: Optional[np.ndarray] = None, diag: Optional[float] = None,
               parts: Optional[tuple] = None):
        """Add a point.  ``kvec = kernel_vector(point)``, ``diag = self_kernel``
        of it and ``parts = solve_parts(kvec)`` may be passed in when known."""
        p = self._point(point)
        if self._pts is None:
            self._pts = np.empty((p.shape[1], 0))
        if kvec is None:
            kvec = self.kernel_vector(p)
        if diag is None:
            diag = self_kernel(self.kernel, p)
        d = self.size
        self._grow(d + 1)
        self._pts[:, d] = p[0]
        self._index.setdefault((p[0] + 0.0).tobytes(), d)   # + 0.0: -0.0 -> 0.0
        if self._G is not None:
            self._G[:d, d] = kvec
            self._G[d, :d] = kvec
            self._G[d, d] = diag
        if self._R is not None:
            self._append_row(d, kvec, diag, parts)
        self.size = d + 1

    def _append_row(self, d: int, kvec: np.ndarray, diag: float, parts):
        l, u = self.solve_parts(kvec) if parts is None else parts
        s = diag + self.jitter - l @ l
        if s <= SCHUR_FALLBACK_RTOL * (diag + self.jitter):
            self._factor(d + 1)     # degenerate pivot: refactor, escalating jitter
            return
        root = np.sqrt(s)
        self._R[d, :d] = u / -root
        self._R[d, d] = 1.0 / root

    def _factor(self, n: int):
        """Factor the leading n x n Gram, built from the points, into the R buffer."""
        R, self.jitter = _inverse_factor(self._gram(n, np.empty((n, n))), self.jitter_scale)
        self.factorizations += 1
        if self._R is None:
            cap = self._pts.shape[1]
            self._R = np.zeros((cap, cap))
        self._R[:n, :n] = R

    def _factor_view(self) -> np.ndarray:
        """``R`` over the current Gram, factored on first use."""
        if self.size == 0:
            return np.zeros((0, 0))
        if self._R is None:
            self._factor(self.size)
        return self._R[: self.size, : self.size]

    def solve_parts(self, v, known: Optional[tuple] = None) -> tuple:
        """``(l, u)`` with ``l = R v`` and ``u = R^T l = (G + jitter*I)^{-1} v``,
        for a vector ``v`` or a matrix of columns.  ``known = (l0, u0)``, the
        parts of ``v``'s first n entries against the factor of the first n
        points, leaves only the rows of ``R`` appended since to read."""
        R = self._factor_view()
        if known is None:
            l = R @ v
            return l, R.T @ l
        l0, u0 = known
        n = l0.shape[0]
        l1 = R[n:] @ v
        u = R[n:].T @ l1
        u[:n] += u0
        return np.concatenate((l0, l1)), u

    def solve(self, v) -> np.ndarray:
        """``(G + jitter*I)^{-1} v`` as ``R^T (R v)``."""
        return self.solve_parts(v)[1]

    def inverse(self) -> np.ndarray:
        """Jittered inverse ``R^T R`` of the current Gram (a new matrix)."""
        R = self._factor_view()
        return R.T @ R

    @property
    def has_inverse(self) -> bool:
        return self._R is not None
