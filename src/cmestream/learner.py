"""Compressed online learning of the conditional-mean-embedding operator.

One sample pair per step: take an operator-valued stochastic gradient step,
test whether the expanded operator is still representable over the current
dictionary within the step's compression budget, and either project back
onto the dictionary span (sample rejected) or admit the sample as a new
dictionary atom.

The gradient step has the structure ``U~ = a U + eta g (x) phi_X(x)`` with
``a = 1 - lambda*eta`` and ``g = k_Y(y,.) - U phi_X(x)``, so the projection
test only ever concerns the rank-one correction: its residual and optimal
coefficients come from two solves against the cached inverse Gram factors.
Every step takes this one path: the first sample is the general step on the
empty dictionary (residual = full norm, always admitted).  The update is
one of two.  An exact fold (the sample repeats product atom ``(q, p)``) has
the factors ``u_y = e_q - W k_x`` and ``u_x = e_p``, so it adds one column
to W; an admission is the same column update onto the new atom ``(d, d)``,
which joins with zero coefficients.  A projection has a dense ``u_x``.

The coefficient matrix is held factored as ``W = c * (Wf + U V^T)``: a
scalar factor ``c`` absorbs the per-step decay ``a``, and the rank-one
updates of projected steps collect as columns of a pending low-rank block
``U V^T`` (at most ``_BLOCK`` columns) that is added into ``Wf`` with one
matrix product when it fills or before ``Wf`` is restructured; an
admission adds it first, since its rows have no entry for the new atom.  A
snapshot reads ``c (U V^T + Wf)`` into a new array and changes nothing.
``Wf`` is zero outside its leading d x d block.  When ``c`` would fall
below ``_MIN_FACTOR`` it is folded into ``Wf``, which also makes total
decay (``a = 0``) exact.  Products with ``W`` apply the block as two thin
mat-vecs, so every step stays O(d^2) and none rewrites a d x d matrix
element by element.

``run_stream`` copies each sample as it reads it and hands the state
``_BLOCK`` samples at a time.  The first step of a block computes, as
matrix products, what its steps read from the dictionary alone: the kernel
matrices, ``W K_x``, ``G_Y W K_x``, the X solves' ``R_x K_x`` and
``R_x^T R_x K_x``, and ``W R_x^T R_x K_x`` for the projection's ``W h``,
each held sample-major (``_Block``).  Each later step reads its rows and
corrects them for what the block's earlier steps changed, logged as
low-rank terms: one product of ``[k_x; u_x]`` with the logged ``V`` and one
of the result with the logged ``[U | G_Y U]``, O(d b) in all.  So each
d x d buffer is read once per block for these products, not once per
sample.  A step called outside ``run_stream`` is a block of one, whose
products are the mat-vecs.

This is an implementation detail.  A hand loop of ``step`` matches the
plain coefficient recursion to machine precision (covered by the
equivalence tests).  A blocked fold agrees with it to rounding, not
bitwise: matrix products round as they do, and a block's later steps take
``G_Y u_y`` of an earlier projection as ``g = r - jitter u_y``, exact only
up to the Y factor's inverse residual, so their ``G_Y W k_x``, their
coefficients and their budget tests carry that residual.  On Duffing
streams of 3550 pairs (seeds 0-3; cubic, quadratic and constant 1e-3
budgets) no decision differed, and the largest differences were 1.1e-5 in
W (max abs difference over max abs entry) and 1.3e-8 in HS distance, both
under the constant budget at d ~ 500; under the cubic budget they were
1.4e-10 and 6.1e-12, and on 1200 pairs under the zero budget 3.6e-16 and
1.1e-15.  An admission solves the X factor's new row afresh, so the factor
is bitwise the one fresh appends grow over the same atoms.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ConfigError, InputError
from .kernels import (DEFAULT_JITTER_SCALE, GramCache, Kernel, clamp_roundoff, cross_gram,
                      grown_buffer, grown_capacity, self_kernel)
from .operator import Dictionary, OperatorRep, zero_rep

_MIN_FACTOR = 1e-100       # fold the scalar factor into Wf below this
_DELTA_CLAMP_RTOL = 1e-9
_BLOCK = 32                # columns of the pending low-rank block U V^T


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantStep:
    eta: float


@dataclass(frozen=True)
class PolynomialStep:
    """eta_t = eta0 / (1 + t/t0)^p with p in (0.5, 1]."""

    eta0: float
    t0: float = 1.0
    p: float = 1.0


StepSchedule = Union[ConstantStep, PolynomialStep]


@dataclass(frozen=True)
class ZeroBudget:
    pass


@dataclass(frozen=True)
class ConstantBudget:
    eps: float


@dataclass(frozen=True)
class QuadraticBudget:
    """eps_t = b_cmp * eta_t^2."""

    b_cmp: float


@dataclass(frozen=True)
class CubicBudget:
    """eps_t = b_cmp * eta_t^3."""

    b_cmp: float


BudgetSchedule = Union[ZeroBudget, ConstantBudget, QuadraticBudget, CubicBudget]


@dataclass(frozen=True)
class LearnerConfig:
    lam: float
    step_schedule: StepSchedule
    budget_schedule: BudgetSchedule
    kernel_x: Kernel
    kernel_y: Kernel
    jitter_scale: float = DEFAULT_JITTER_SCALE
    max_dictionary: Optional[int] = None
    budget_squared: bool = False

    def __post_init__(self):
        if not (self.lam > 0 and np.isfinite(self.lam)):
            raise ConfigError("regularization lambda must be positive and finite")
        s = self.step_schedule
        if isinstance(s, ConstantStep):
            limit = min(1.0, 1.0 / self.lam)
            if not (0 < s.eta <= limit * (1 + 1e-12)):
                raise ConfigError(
                    f"constant step size must satisfy 0 < eta <= min(1, 1/lambda) = {limit}"
                )
        elif isinstance(s, PolynomialStep):
            if not (s.eta0 > 0 and 0 < s.t0 < np.inf):
                raise ConfigError("polynomial schedule needs eta0 > 0 and a finite t0 > 0")
            if not (0.5 < s.p <= 1.0):
                raise ConfigError("polynomial decay exponent must lie in (0.5, 1]")
            if s.eta0 > 1.0 / self.lam * (1 + 1e-12):
                raise ConfigError("polynomial schedule needs eta0 <= 1/lambda")
        else:
            raise ConfigError(f"unknown step schedule {s!r}")
        b = self.budget_schedule
        if isinstance(b, ConstantBudget):
            if not 0 <= b.eps < np.inf:
                raise ConfigError("compression budget must be nonnegative and finite")
        elif isinstance(b, (QuadraticBudget, CubicBudget)):
            if not 0 < b.b_cmp < np.inf:
                raise ConfigError("budget coupling constant must be positive and finite")
        elif not isinstance(b, ZeroBudget):
            raise ConfigError(f"unknown budget schedule {b!r}")
        if not 0 <= self.jitter_scale < np.inf:
            raise ConfigError("jitter_scale must be nonnegative and finite")
        if self.max_dictionary is not None and self.max_dictionary < 1:
            raise ConfigError("max_dictionary must be positive")

    def eta_at(self, t: int) -> float:
        s = self.step_schedule
        if isinstance(s, ConstantStep):
            return s.eta
        return s.eta0 / (1.0 + t / s.t0) ** s.p

    def eps_at(self, t: int, eta: Optional[float] = None) -> float:
        if eta is None:
            eta = self.eta_at(t)
        b = self.budget_schedule
        if isinstance(b, ZeroBudget):
            return 0.0
        if isinstance(b, ConstantBudget):
            return b.eps
        if isinstance(b, QuadraticBudget):
            return b.b_cmp * eta * eta
        return b.b_cmp * eta ** 3


class StepRecord(NamedTuple):
    t: int
    accepted: bool
    delta: float
    eps: float
    eta: float
    dict_size: int
    hs_norm: float


# ---------------------------------------------------------------------------
# Learner state
# ---------------------------------------------------------------------------

class LearnerState:
    """Mutable state of one learner run.

    ``step`` advances the state in place and returns it; snapshots of the
    learned operator are taken with :meth:`snapshot_rep` (used by
    ``run_stream`` checkpoints), which deep-copies the representation.
    """

    def __init__(self, cfg: LearnerConfig):
        self.cfg = cfg
        self.t = 0
        self.gram_x = GramCache(cfg.kernel_x, cfg.jitter_scale)
        self.gram_y = GramCache(cfg.kernel_y, cfg.jitter_scale)
        self.stats: list[StepRecord] = []
        self._c = 1.0               # scalar factor: W = c * (Wf + U V^T)
        self._Wf = np.empty((0, 0))         # capacity buffer
        self._Ut = np.empty((_BLOCK, 0))    # U^T, _BLOCK x capacity
        self._Vt = np.empty((_BLOCK, 0))    # V^T, _BLOCK x capacity
        self._m = 0                 # pending columns of U and V
        self._norm_sq = 0.0         # |U_t|_HS^2, tracked incrementally
        self._queue = ()            # samples run_stream has handed ahead
        self._next = 0              # index in _queue of the next step's sample
        self._blk: Optional[_Block] = None

    # -- sizes and views -----------------------------------------------------

    @property
    def dict_size(self) -> int:
        return self.gram_x.size

    @property
    def coefficients(self) -> np.ndarray:
        """Current coefficient matrix W, as a new array ``c (U V^T + Wf)``;
        the state is left as it was, so taking it changes no later step."""
        d, m = self.dict_size, self._m
        if not m:
            return self._c * self._Wf[:d, :d]
        W = self._Ut[:m, :d].T @ self._Vt[:m, :d]
        W += self._Wf[:d, :d]
        W *= self._c
        return W

    def snapshot_rep(self) -> OperatorRep:
        d = self.dict_size
        if d == 0:
            return zero_rep(0, 0, self.cfg.kernel_x, self.cfg.kernel_y)
        # fresh arrays, read-only so that the rep adopts them uncopied
        xs, ys, W = self.gram_x.points, self.gram_y.points, self.coefficients
        for a in (xs, ys, W):
            a.setflags(write=False)
        return OperatorRep(dict=Dictionary(xs, ys), W=W,
                           kernel_x=self.cfg.kernel_x, kernel_y=self.cfg.kernel_y)

    @property
    def hs_norm(self) -> float:
        return math.sqrt(max(0.0, self._norm_sq))

    # -- internal helpers ----------------------------------------------------

    def _grow(self, need: int):
        cap = self._Wf.shape[0]
        if need <= cap:
            return
        new_cap = grown_capacity(cap, need)
        self._flush()
        d = self.dict_size
        self._Wf = grown_buffer(self._Wf[:d, :d], (new_cap, new_cap), np.zeros)
        self._Ut = np.empty((_BLOCK, new_cap))
        self._Vt = np.empty((_BLOCK, new_cap))

    def _flush(self):
        """Add the pending block into ``Wf``: ``Wf += U V^T``."""
        m = self._m
        if m:
            d = self.dict_size
            self._Wf[:d, :d] += self._Ut[:m, :d].T @ self._Vt[:m, :d]
            self._m = 0

    def _push(self, u: np.ndarray, v: np.ndarray):
        """Queue the factored rank-one update ``Wf += u v^T``."""
        m = self._m
        self._Ut[m, : u.shape[0]] = u
        self._Vt[m, : v.shape[0]] = v
        self._m = m + 1
        if self._m == _BLOCK:
            self._flush()

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """``(Wf + U V^T) v`` in factored units."""
        d = self.dict_size
        out = self._Wf[:d, :d] @ v
        m = self._m
        if m:
            out += self._Ut[:m, :d].T @ (self._Vt[:m, :d] @ v)
        return out

    def _decay(self, a: float) -> float:
        """``W <- a W`` by scaling ``c``.  Below ``_MIN_FACTOR`` (so also at
        ``a = 0``), and on an empty dictionary where there is nothing to
        scale, the factor is folded into ``Wf`` and ``c`` restarts at 1.
        A factor of exactly 0 drops the pending block unadded.  Returns the
        factor that ``Wf + U V^T`` took: 1.0 unless it was folded."""
        c = a * self._c
        fold = 1.0
        if c < _MIN_FACTOR or not self.dict_size:
            if c == 0.0:
                self._m = 0     # W becomes 0: adding U V^T first is wasted
            self._flush()
            d = self.dict_size
            self._Wf[:d, :d] *= c
            c, fold = 1.0, c
        self._c = c
        return fold

    def _block_for(self, sample):
        """The block that holds ``sample`` and its column in it, or
        ``(None, 0)`` for a block of one.  A queued sample reads the current
        block, or starts one over the queued samples from it on that pass
        the point checks; any other sample, or one that fails them (and so
        raises from its own step), is a block of one."""
        queue, i = self._queue, self._next
        if not (i < len(queue) and queue[i] is sample):
            self._queue, self._next, self._blk = (), 0, None
            return None, 0
        self._next = i + 1
        blk = self._blk
        if blk is not None and i < blk.stop:
            return blk, i - blk.start
        xs, ys = [], []
        for s in queue[i:]:
            try:
                nx = np.asarray(s[0], dtype=float).reshape(-1)
                ny = np.asarray(s[1], dtype=float).reshape(-1)
            except Exception:       # the sample raises from its own step
                break
            xs.append(nx)
            ys.append(ny)
        n = min(self.gram_x.leading_valid(xs), self.gram_y.leading_valid(ys))
        if n < 2:
            return None, 0
        self._blk = blk = _Block(self, np.array(xs[:n]), np.array(ys[:n]), i)
        return blk, 0


class _Block:
    """The products that the steps of one block of samples share.

    They are taken at the block's first step, against its d0 atoms and
    ``A0 = Wf + U V^T`` (factored units), for the block's b samples, and
    held sample-major: row j of each belongs to sample j and is contiguous.

    - ``Kx``, ``Ky``: the kernel values of sample j against the atoms
      (``GramCache.kernel_matrix``), then against the block's samples, so
      b x (d0 + b);
    - ``WK``: ``A0 k_x``, zero past d0; ``GWK``: ``G_Y A0 k_x``, then
      ``k_y(i) . A0 k_x`` for each block sample i, the entry it brings if it
      joins;
    - ``L``: ``R_x k_x``, ``LU``: ``R_x^T R_x k_x`` and ``WU = A0 LU``, when
      the X factor exists and a step of the block tests a budget.

    ``Kx`` and ``LU`` are the two planes of one b x 2 x (d0 + b) array
    ``KU``, so ``[k_x; u_x]`` of sample j is one 2 x d view.  ``WK`` and
    ``GWK`` are the two halves of plane 0 of the b x 2 x 2(d0 + b) array
    ``WG``, and ``WU`` the first half of plane 1: the layout of the logged
    ``[U | G_Y U]`` below, so one addition corrects all three.

    When block sample i joins as atom d, its columns of ``Kx``, ``Ky`` and
    ``GWK`` move to column d, over a column of a sample already stepped.  So
    a later sample's vectors against the d atoms lead its rows.

    Each update of ``A`` since is logged as a term ``u v^T``: a row of ``V``
    and a row ``[u | G_Y u]`` of ``UG``.  A column update (admit or exact
    fold) has ``v = e_p``; a projection logs ``u_y u_x^T`` with
    ``G_Y u_y = g``, the vector its step already holds.  So step j corrects
    ``W k_x``, ``G_Y W k_x`` and ``W u_x`` with two products, ``[k_x; u_x]``
    against ``V`` and the result against ``UG``, added to its rows of ``WG``
    at once.  A ``_MIN_FACTOR`` fold scales ``A0`` (``scale``) and the
    logged terms.

    Once an atom joins, ``W u_x`` is left to the step (its ``W h`` is a
    mat-vec again); after a refactor of the X factor the rest of the block
    solves for itself.  A block has at least two samples: ``step`` takes a
    block of one as the mat-vecs it is.
    """

    __slots__ = ("start", "stop", "d0", "w", "scale", "m", "KU", "Kx", "Ky", "WG", "GWK",
                 "L", "factorizations", "V", "UG")

    def __init__(self, state, px: np.ndarray, py: np.ndarray, start: int):
        b, d0 = len(px), state.dict_size
        w = d0 + b
        self.start, self.stop, self.d0, self.w = start, start + b, d0, w
        self.scale, self.m, self.L = 1.0, 0, None
        gx, gy, cfg = state.gram_x, state.gram_y, state.cfg
        Kx, Ky = gx.kernel_matrix(px), gy.kernel_matrix(py)
        WK = state._apply(Kx)
        self.KU, self.Ky, self.WG = np.zeros((b, 2, w)), np.empty((b, w)), np.zeros((b, 2, 2 * w))
        self.Kx, self.GWK = self.KU[:, 0], self.WG[:, 0, w:]
        self.Kx[:, :d0], self.Kx[:, d0:] = Kx.T, cross_gram(cfg.kernel_x, px, px).T
        self.Ky[:, :d0], self.Ky[:, d0:] = Ky.T, cross_gram(cfg.kernel_y, py, py).T
        self.WG[:, 0, :d0] = WK.T
        self.GWK[:, :d0], self.GWK[:, d0:] = (gy.G @ WK).T, WK.T @ Ky
        if gx.has_inverse and any(cfg.eps_at(t) != 0.0
                                  for t in range(state.t + 1, state.t + b + 1)):
            L, LU = gx.solve_parts(Kx)
            self.L = np.ascontiguousarray(L.T)
            self.KU[:, 1, :d0] = LU.T
            self.WG[:, 1, :d0] = state._apply(LU).T
            self.factorizations = gx.factorizations
        self.V, self.UG = np.zeros((b, w)), np.zeros((b, 2 * w))

    def column(self, state, j: int, tests: bool) -> tuple:
        """``(k_x, k_y, W k_x, G_Y W k_x, parts, W u_x)`` of sample j against
        the state now (``W`` in factored units), as arrays the caller must not
        write.  ``parts = state.gram_x.solve_parts(k_x)`` when the step
        ``tests`` a budget, else None; ``W u_x`` for its ``parts``, or None
        where the step must take ``W h`` itself."""
        d, m, w = state.dict_size, self.m, self.w
        k_x = self.Kx[j, :d]
        parts, rows = None, 1       # rows 2: u_x and W u_x are the block's own
        if tests:
            gx = state.gram_x
            if self.L is None or gx.factorizations != self.factorizations:
                parts = gx.solve_parts(k_x)
            elif d == self.d0:
                parts, rows = (self.L[j], self.KU[j, 1, :d]), 2
            else:
                parts = gx.solve_parts(k_x, (self.L[j], self.KU[j, 1, :self.d0]))
        wg = self.WG[j, :rows]
        if self.scale != 1.0:
            wg = self.scale * wg
        if m:
            wg = wg + (self.KU[j, :rows, :d] @ self.V[:m, :d].T) @ self.UG[:m]
        return k_x, self.Ky[j, :d], wg[0, :d], wg[0, w: w + d], parts, \
            wg[1, :d] if rows == 2 else None

    def rescale(self, f: float):
        """``A <- f A``: a ``_MIN_FACTOR`` fold."""
        if f != 1.0:
            self.scale *= f
            self.UG[: self.m] *= f

    def add_atom(self, j: int, d: int, k_y: np.ndarray):
        """Sample j joins as atom d, with ``G_Y`` row ``k_y``."""
        m, col = self.m, self.d0 + j
        if col != d:
            for a in (self.Kx, self.Ky, self.GWK):
                a[:, d] = a[:, col]
        self.UG[:m, self.w + d] = self.UG[:m, :d] @ k_y

    def add_update(self, u: np.ndarray, gu: np.ndarray, v: np.ndarray):
        """``A += u v^T``, where ``G_Y u = gu``."""
        m, w = self.m, self.w
        self.UG[m, : u.shape[0]], self.UG[m, w: w + gu.shape[0]] = u, gu
        self.V[m, : v.shape[0]] = v
        self.m = m + 1

    def add_column(self, alpha: float, beta: float, wk, pk, q: int, p: int, g_q):
        """``A[:, p] += alpha wk + beta e_q``, where ``G_Y wk = pk`` over the
        atoms before this step and ``g_q`` is row q of ``G_Y`` now."""
        m, n, w = self.m, wk.shape[0], self.w
        u, gu = self.UG[m, :w], self.UG[m, w:]
        u[:n] = alpha * wk
        u[q] += beta
        gu[:n] = alpha * pk
        if q == n:                  # an admit: G_Y's new row meets wk
            gu[n] = alpha * (g_q[:n] @ wk)
        gu[: g_q.shape[0]] += beta * g_q
        self.V[m, p] = 1.0
        self.m = m + 1


def new_state(cfg: LearnerConfig) -> LearnerState:
    return LearnerState(cfg)


def step(state: LearnerState, cfg: LearnerConfig, sample) -> LearnerState:
    """One full iteration: expand, test the compression budget, project or
    admit.  Mutates ``state`` in place and returns it.  ``cfg`` is the
    state's own config (``new_state``'s); another raises ``ConfigError``.
    A sample that ``run_stream`` handed ahead reads its block's products;
    any other is a block of one, whose products are the mat-vecs."""
    x = np.asarray(sample[0], dtype=float).reshape(-1)
    y = np.asarray(sample[1], dtype=float).reshape(-1)
    t = state.t + 1
    eta = cfg.eta_at(t)
    eps = cfg.eps_at(t, eta)
    a = 1.0 - cfg.lam * eta
    d = state.dict_size

    c = state._c
    # the caches check both points here, before anything mutates the state
    blk, j = state._block_for(sample) if state._queue else (None, 0)
    if blk is None:
        k_x = state.gram_x.kernel_vector(x)
        k_y = state.gram_y.kernel_vector(y)
    if cfg is not state.cfg and cfg != state.cfg:
        raise ConfigError("the config cannot change mid-run")
    p_idx = state.gram_x.find(x)
    q_idx = None if p_idx is None else state.gram_y.find(y)
    contained = q_idx is not None
    if blk is None:
        wk = state._apply(k_x)  # factored units
        pk = state.gram_y.G @ wk
        parts_x = wu = None
    else:
        tests = d != 0 and not contained and eps != 0.0
        k_x, k_y, wk, pk, parts_x, wu = blk.column(state, j, tests)
    s_x = self_kernel(cfg.kernel_x, x)
    s_y = self_kernel(cfg.kernel_y, y)

    r = k_y - c * pk        # absolute: g-coefficients on the old y-atoms
    rwk = float(c * (r @ wk))
    kwk = float(c * (k_y @ wk))
    gg = s_y - 2.0 * kwk + float(c * c * (wk @ pk))   # |g|^2
    # |U~|_HS^2 of the expanded operator, which a column update keeps
    norm_sq = a * a * state._norm_sq + 2.0 * a * eta * rwk + eta * eta * gg * s_x

    if d == 0:
        # empty span: the residual is the full norm and the sample is admitted
        delta = norm_sq
    elif contained:
        # the rank-one update lies exactly in the dictionary's product span
        delta = 0.0
    elif eps == 0.0:
        delta = math.nan                    # zero budget admits; skip the test
    else:
        u_y = state.gram_y.solve(r)
        if parts_x is None:
            parts_x = state.gram_x.solve_parts(k_x)
        u_x = parts_x[1]
        kux = k_x @ u_x
        fit = float((u_y @ r) * kux)
        delta = eta * eta * clamp_roundoff(s_x * gg - fit, s_x * gg + fit, _DELTA_CLAMP_RTOL,
                                           "compression residual came out negative")

    if d == 0 or delta != delta:
        reject = False
    elif cfg.budget_squared:
        reject = delta < eps
    else:
        reject = math.sqrt(delta) <= eps

    if not reject:
        if cfg.max_dictionary is not None and d + 1 > cfg.max_dictionary:
            raise CapacityError(f"dictionary limit {cfg.max_dictionary} exceeded at step {t}",
                                state=state)
        p_idx = q_idx = d       # the sample joins as atom (d, d) with zero coefficients
    elif not contained:
        # projected update: W <- a W + eta u_y u_x^T; (G + jitter I) u = rhs gives G u
        g = r - state.gram_y.jitter * u_y
        if wu is None:
            h = k_x - state.gram_x.jitter * u_x
            wh = state._apply(h)
            uh = u_x @ h
        else:
            # the block's W u_x: W h and u_x . h without forming h
            wh = wk - state.gram_x.jitter * wu
            uh = kux - state.gram_x.jitter * (u_x @ u_x)
        norm_sq = a * a * state._norm_sq + 2.0 * a * eta * float(c * (g @ wh)) \
            + eta * eta * float((u_y @ g) * uh)
    fold = state._decay(a)
    c_new = state._c
    if reject and not contained:
        u = (eta / c_new) * u_y
        state._push(u, u_x)
    else:
        # column update: the expansion folds exactly onto product atom
        # (q, p), as u_y = e_q - W k_x = e_q - c wk and u_x = e_p
        if not reject:
            state._flush()      # the block's rows have no entry for the new atom
            state._grow(d + 1)
        alpha, beta = -eta * c / c_new, eta / c_new
        Wf = state._Wf
        Wf[:d, p_idx] += alpha * wk
        Wf[q_idx, p_idx] += beta
    state._norm_sq = norm_sq
    if not reject:
        # the caches grow after the coefficient buffer: in the other order
        # `cme learn` on the README config peaks about 0.6 MiB higher
        # a block's parts round as its GEMM does, so the factor's new row
        # takes a fresh solve: bitwise the row a fresh append computes
        state.gram_x.append(x, k_x, s_x, parts_x if blk is None else None)
        state.gram_y.append(y, k_y, s_y)
    if blk is not None and j + 1 < blk.stop - blk.start:
        # the block's later steps read this step's changes
        blk.rescale(fold)
        if not reject:
            blk.add_atom(j, d, k_y)
        if reject and not contained:
            blk.add_update(u, (eta / c_new) * g, u_x)
        else:
            blk.add_column(alpha, beta, wk, pk, q_idx, p_idx, state.gram_y.G[q_idx])

    state.t = t
    state.stats.append(StepRecord(
        t, not reject, float(delta), eps, eta, state.dict_size, state.hs_norm))
    return state


def checkpoint_marks(checkpoints, n_samples: Optional[int] = None) -> set:
    """The step indices in ``checkpoints``, as a set of ints.

    Raises ``InputError`` for a mark that is not a whole number >= 1, and,
    when the stream length ``n_samples`` is given, for a mark past its end.
    """
    given = [] if checkpoints is None else list(checkpoints)
    for t in given:
        if not (isinstance(t, numbers.Real) and t >= 1 and float(t).is_integer()):
            raise InputError(f"checkpoint {t!r} is not a whole number >= 1")
    marks = set(map(int, given))
    if n_samples is not None and marks and max(marks) > n_samples:
        raise InputError(f"checkpoint {max(marks)} is past the end of the "
                         f"{n_samples}-sample stream")
    return marks


def _owned(sample):
    """``sample``'s x and y as new float arrays, so that a stream which
    reuses its buffers cannot change a sample while it waits in a block; a
    sample that does not convert is kept as it is, to raise from its own
    step."""
    try:
        return np.array(sample[0], dtype=float), np.array(sample[1], dtype=float)
    except Exception:
        return sample


def run_stream(cfg: LearnerConfig, samples, checkpoints: Optional[Sequence[int]] = None,
               on_step=None):
    """Fold ``step`` over a sample stream.

    Returns ``(state, checkpoint_reps)`` where ``checkpoint_reps`` holds a
    deep-copied operator representation after each step index listed in
    ``checkpoints``, in step order.  ``on_step(state)``, when given, is
    called after every step.  The marks follow ``checkpoint_marks``: a bad
    one raises ``InputError`` before the first step, and one past the end
    of the stream (which may have no length) once the stream has ended.

    The stream is read ``_BLOCK`` samples ahead of the steps, each sample
    copied as it is read, and handed to the state, so the first step of each
    block computes the products the block's steps share (see ``_Block``):
    each d x d buffer is read once per block, not once per sample.  ``step``
    is still called once per sample, and a sample that fails its checks, or
    an error the stream raises, still comes after the steps of the samples
    before it.  The
    result agrees with a hand loop of ``step`` to rounding, not bitwise;
    checkpoints and observers change nothing of it.
    """
    marks = checkpoint_marks(checkpoints)
    state = new_state(cfg)
    reps = []
    it = iter(samples)
    try:
        while True:
            chunk, failure = [], None
            try:
                for sample in it:
                    chunk.append(_owned(sample))
                    if len(chunk) == _BLOCK:
                        break
            except Exception as exc:
                failure = exc
            state._queue, state._next, state._blk = chunk, 0, None
            for sample in chunk:
                step(state, cfg, sample)    # the module global: a timing wrapper may replace it
                if on_step is not None:
                    on_step(state)
                if state.t in marks:
                    reps.append((state.t, state.snapshot_rep()))
            if failure is not None:
                raise failure
            if len(chunk) < _BLOCK:
                break
    finally:
        state._queue, state._next, state._blk = (), 0, None
    if not state.t:
        raise InputError("sample stream is empty")
    checkpoint_marks(marks, state.t)
    return state, reps
