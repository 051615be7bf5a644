"""Transfer-operator analysis of a learned embedding operator.

For state-space dynamics (x and y in the same space, one shared kernel)
the learned operator induces a finite matrix whose right eigenvectors give
Koopman eigenfunction coefficients over the dictionary; eigenfunctions are
evaluated by summing kernel sections, typically on a 2-d grid for heat-map
style output.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InputError, NumericalError
from .kernels import Kernel, cross_gram
from .operator import Dictionary, OperatorRep

RESIDUAL_RTOL = 1e-6
_REAL_TOL = 1e-10
# kernel values per column block of koopman_matrix and per query block
# of eval_eigenfunction
_EVAL_BLOCK = 2 ** 16


def koopman_matrix(U: OperatorRep) -> np.ndarray:
    """Finite Koopman matrix W^T G_YX with G_YX[i,j] = k(y_i, x_j).

    ``G_YX`` is never held whole: M is filled in column blocks of about
    ``_EVAL_BLOCK`` kernel values, ``M[:, b] = W^T G_YX[:, b]``.
    """
    if len(U) == 0:
        return np.zeros((0, 0))
    if U.dict.dim_x != U.dict.dim_y:
        raise InputError("Koopman analysis needs matching x/y dimensions")
    if U.kernel_x != U.kernel_y:
        raise InputError("Koopman analysis needs one shared kernel")
    d = len(U)
    M = np.empty((d, d))
    cols = max(1, _EVAL_BLOCK // d)
    for start in range(0, d, cols):
        block = U.dict.xs[start:start + cols]
        M[:, start:start + cols] = U.W.T @ cross_gram(U.kernel_x, U.dict.ys, block)
    return M


@dataclass(frozen=True)
class KoopmanSpectrum:
    """Top eigenpairs of the finite Koopman matrix, sorted by |eigenvalue|."""

    eigenvalues: np.ndarray    # complex, (k,)
    eigenvectors: np.ndarray   # complex, (d, k), columns are coefficients
    residuals: np.ndarray      # (k,), |M v - lambda v| per pair
    source_dict: Optional[Dictionary] = None
    kernel: Optional[Kernel] = None

    def __len__(self) -> int:
        return self.eigenvalues.shape[0]


def _normalize_pair(lam: complex, v: np.ndarray):
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return lam, v
    v = v / nrm
    if abs(lam.imag) <= _REAL_TOL * max(1.0, abs(lam)) and np.max(np.abs(v.imag)) <= _REAL_TOL:
        v = v.real.astype(complex)
        nz = np.nonzero(np.abs(v.real) > 1e-12)[0]
        if nz.size and v.real[nz[0]] < 0:
            v = -v
        return complex(lam.real), v
    # complex pair: rotate so the largest entry is real positive; the
    # conjugate partner receives the conjugate rotation automatically
    j = int(np.argmax(np.abs(v)))
    phase = v[j] / abs(v[j])
    return lam, v * np.conj(phase)


def _residual(M: np.ndarray, lam: complex, v: np.ndarray):
    """``(|M v - lam v|, bound)`` with the bound ``RESIDUAL_RTOL |v| max(1, |lam|)``.
    The real and imaginary parts of v are applied to the real M separately
    (``M @ v`` would make a complex copy of M)."""
    res = float(np.linalg.norm(M @ v.real + 1j * (M @ v.imag) - lam * v))
    return res, RESIDUAL_RTOL * np.linalg.norm(v) * max(1.0, abs(lam))


def _eigenvector(M: np.ndarray, lam: complex, position: int) -> np.ndarray:
    """A vector for the eigenvalue ``lam`` of the real matrix M, by inverse
    iteration in real arithmetic (Ipsen, SIAM Review 39, 1997).

    A real ``lam`` solves with ``M - lam I``.  A complex one solves with
    ``Q = (M - Re(lam) I)^2 + Im(lam)^2 I = (M - lam I)(M - conj(lam) I)``,
    whose near-null space is the real plane of the pair, from two start
    columns; a 2x2 Rayleigh-Ritz step on that plane then picks the vector.
    Each pass first moves the diagonal by ``delta``, one rounding step of
    the shift, so an exactly singular system (``M = I``) solves; after an
    exact zero pivot the next pass moves it d times as far.  The second
    pass runs only if the first gives no vector within ``RESIDUAL_RTOL``.
    The start columns are DCT-IV basis vectors picked by ``position``:
    orthogonal to each other, so a repeated semisimple eigenvalue gets
    independent vectors, and free of zero entries.

    M is not copied: its own diagonal is shifted for the real solve and for
    the product forming Q, and written back from a saved copy before
    anything else reads M, also when a solve raises.
    """
    d = M.shape[0]
    real = lam.imag == 0
    diag = M.diagonal().copy()
    if real:
        A, c = M, -lam.real
    else:
        M.flat[::d + 1] = diag - lam.real
        try:
            A, c = M @ M, lam.imag ** 2
        finally:
            M.flat[::d + 1] = diag
    shifted = A.diagonal() + c
    delta = np.finfo(float).eps * max(1.0, abs(c))
    freqs = position + 0.5 + np.arange(1 if real else 2)
    X = np.cos(np.pi / d * np.outer(np.arange(d) + 0.5, freqs))
    v = None
    for _ in range(2):
        shifted -= delta
        A.flat[::d + 1] = shifted
        try:
            X = np.linalg.qr(np.linalg.solve(A, X))[0]
        except np.linalg.LinAlgError:      # an exact zero pivot
            delta *= d
            continue
        finally:
            M.flat[::d + 1] = diag
        if real:
            v = X[:, 0].astype(complex)
        else:
            H = X.T @ (M @ X)
            # null vector of H - lam I, from whichever row of it is larger
            v = X @ max(np.array([H[0, 1], lam - H[0, 0]]),
                        np.array([lam - H[1, 1], H[1, 0]]), key=np.linalg.norm)
        res, bound = _residual(M, lam, v)
        if res <= bound:
            break
    if v is None:
        raise NumericalError(f"inverse iteration for eigenvalue {lam:.6g} met "
                             "an exactly singular system twice")
    return v


def eigen_spectrum(M, k: int, dictionary: Optional[Dictionary] = None,
                   kernel: Optional[Kernel] = None) -> KoopmanSpectrum:
    """Top-k eigenpairs of a (generally nonsymmetric) square matrix.

    The eigenvalues come from ``np.linalg.eigvals``; a vector is computed
    only for each of the k selected pairs (``_eigenvector``), and the
    conjugate partner of a computed complex pair takes the conjugate vector.

    A writable C-contiguous float64 ``M`` is worked on in place: its
    diagonal is shifted during the call and restored bitwise before it
    returns or raises, so no other thread may read ``M`` meanwhile.  Any
    other ``M`` (read-only, another dtype or layout) is copied once.
    """
    M = np.asarray(M, dtype=float)
    if not (M.flags.writeable and M.flags.c_contiguous):
        M = M.copy()
    d = M.shape[0]
    if M.shape != (d, d):
        raise InputError("matrix must be square")
    if not (1 <= k <= d):
        raise InputError(f"requested {k} eigenpairs from a {d}x{d} matrix")
    try:
        vals = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))[:k]]
    out_vals = np.empty(k, dtype=complex)
    out_vecs = np.empty((d, k), dtype=complex)
    residuals = np.empty(k)
    for i, lam in enumerate(vals):
        # the sort puts a complex pair's partner (Im < 0) straight after it
        if i and lam.imag < 0 and vals[i - 1] == np.conj(lam):
            raw = np.conj(raw)
        else:
            raw = _eigenvector(M, lam, i)
        lam, v = _normalize_pair(lam, raw)
        res, bound = _residual(M, lam, v)
        if np.linalg.norm(v) > 0 and res > bound:
            raise NumericalError(
                f"eigenpair {i} residual {res:.3e} exceeds bound {bound:.3e}")
        out_vals[i], out_vecs[:, i], residuals[i] = lam, v, res
    return KoopmanSpectrum(eigenvalues=out_vals, eigenvectors=out_vecs,
                           residuals=residuals, source_dict=dictionary,
                           kernel=kernel)


def koopman_spectrum(U: OperatorRep, k: int = 5) -> KoopmanSpectrum:
    """Spectrum of the Koopman matrix of a learned operator."""
    M = koopman_matrix(U)
    return eigen_spectrum(M, min(k, max(1, M.shape[0])),
                          dictionary=U.dict, kernel=U.kernel_x)


def eval_eigenfunction(spec: KoopmanSpectrum, index: int, points) -> np.ndarray:
    """phi(p) = sum_i v_i k(x_i, p) for each query point.

    The query points are taken in row blocks of about ``_EVAL_BLOCK`` kernel
    values, so memory stays bounded whatever the number of points; the real
    and imaginary parts of v are applied separately to each real block.
    """
    if not (0 <= index < len(spec)):
        raise InputError(f"eigenfunction index {index} out of range")
    if spec.source_dict is None or spec.kernel is None:
        raise InputError("spectrum carries no dictionary to evaluate against")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != spec.source_dict.dim_x:
        raise InputError("point dimension does not match dictionary")
    if pts.shape[0] == 0:
        raise InputError("points must be a nonempty list of points")
    xs = spec.source_dict.xs
    v = spec.eigenvectors[:, index]
    vr, vi = v.real.copy(), v.imag.copy()
    out = np.empty(pts.shape[0], dtype=complex)
    rows = max(1, _EVAL_BLOCK // xs.shape[0])
    for start in range(0, pts.shape[0], rows):
        K = cross_gram(spec.kernel, pts[start:start + rows], xs)
        out.real[start:start + rows] = K @ vr
        out.imag[start:start + rows] = K @ vi
    return out


@dataclass(frozen=True)
class GridSpec:
    """Rectangular 2-d evaluation grid."""

    mins: tuple
    maxs: tuple
    counts: tuple

    def __post_init__(self):
        if not (len(self.mins) == len(self.maxs) == len(self.counts) == 2):
            raise InputError("grids must be two-dimensional")
        if not all(isinstance(c, numbers.Integral) for c in self.counts):
            raise InputError("grid counts must be integers")
        if any(c < 2 for c in self.counts):
            raise InputError("grids need at least 2 nodes per axis")
        if not np.isfinite([*self.mins, *self.maxs]).all():
            raise InputError("grid bounds must be finite")
        if any(hi <= lo for lo, hi in zip(self.mins, self.maxs)):
            raise InputError("grid maxs must exceed mins")

    def axes(self):
        return tuple(np.linspace(lo, hi, n)
                     for lo, hi, n in zip(self.mins, self.maxs, self.counts))

    def points(self) -> np.ndarray:
        """All nodes, lexicographic row-major (first axis slowest)."""
        a0, a1 = self.axes()
        g0, g1 = np.meshgrid(a0, a1, indexing="ij")
        return np.column_stack([g0.ravel(), g1.ravel()])


@dataclass(frozen=True)
class GridField:
    grid: GridSpec
    values: np.ndarray   # complex, (n0*n1,), row-major over the grid


def grid_eval(spec: KoopmanSpectrum, index: int, grid: GridSpec) -> GridField:
    """Evaluate one eigenfunction over a 2-d grid (row-major order)."""
    vals = eval_eigenfunction(spec, index, grid.points())
    return GridField(grid=grid, values=vals)
