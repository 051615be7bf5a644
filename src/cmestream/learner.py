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
empty dictionary (residual = full norm, always admitted), and an exact fold
(the sample repeats a product atom) is the projected update with known
factors.

The coefficient matrix is held factored as ``W = c * (Wf + U V^T)``: a
scalar factor ``c`` absorbs the per-step decay ``a``, and the rank-one
updates of projected and folded steps collect as columns of a pending
low-rank block ``U V^T`` (at most ``_BLOCK`` columns) that is added into
``Wf`` with one matrix product when it fills or before ``Wf`` is read whole
or restructured.  When ``c`` would fall below ``_MIN_FACTOR`` it is folded
into ``Wf``, which also makes total decay (``a = 0``) exact.  Products with
``W`` apply the block as two thin mat-vecs, and ``G_Y W k_x`` is one mat-vec
against the Y Gram, so every step stays O(d^2) and none rewrites a d x d
matrix element by element.  This is an implementation detail: the produced
operators match the plain coefficient recursion to machine precision
(covered by the equivalence tests).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ConfigError, InputError
from .kernels import (DEFAULT_JITTER_SCALE, GramCache, Kernel, clamp_roundoff, grown_buffer,
                      grown_capacity, self_kernel)
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

    # -- sizes and views -----------------------------------------------------

    @property
    def dict_size(self) -> int:
        return self.gram_x.size

    @property
    def coefficients(self) -> np.ndarray:
        """Current coefficient matrix W (materialized copy)."""
        d = self.dict_size
        self._flush()
        return self._c * self._Wf[:d, :d]

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
        return float(np.sqrt(max(0.0, self._norm_sq)))

    # -- internal helpers ----------------------------------------------------

    def _grow(self, need: int):
        cap = self._Wf.shape[0]
        if need <= cap:
            return
        new_cap = grown_capacity(cap, need)
        self._flush()
        d = self.dict_size
        self._Wf = grown_buffer(self._Wf[:d, :d], (new_cap, new_cap))
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

    def _decay(self, a: float):
        """``W <- a W`` by scaling ``c``.  Below ``_MIN_FACTOR`` (so also at
        ``a = 0``), and on an empty dictionary where there is nothing to
        scale, the factor is folded into ``Wf`` and ``c`` restarts at 1.
        A factor of exactly 0 drops the pending block unadded."""
        c = a * self._c
        if c < _MIN_FACTOR or not self.dict_size:
            if c == 0.0:
                self._m = 0     # W becomes 0: adding U V^T first is wasted
            self._flush()
            d = self.dict_size
            self._Wf[:d, :d] *= c
            c = 1.0
        self._c = c

    def _update(self, a: float, eta: float, u_y: np.ndarray, u_x: np.ndarray,
                norm_sq: float):
        """``W <- a W + eta u_y u_x^T`` over the current dictionary, with
        ``norm_sq`` the resulting ``|U|_HS^2``."""
        self._decay(a)
        self._push((eta / self._c) * u_y, u_x)
        self._norm_sq = norm_sq


def new_state(cfg: LearnerConfig) -> LearnerState:
    return LearnerState(cfg)


def _admit(state: LearnerState, x, y, k_x, k_y, s_x, s_y, eta, a,
           norm_tilde_sq, wk, parts_x):
    """Extend the dictionary; ``wk`` is W k_x in factored units and
    ``parts_x`` the test's ``gram_x.solve_parts(k_x)`` (None if untested)."""
    cfg = state.cfg
    d = state.dict_size
    if cfg.max_dictionary is not None and d + 1 > cfg.max_dictionary:
        raise CapacityError(
            f"dictionary limit {cfg.max_dictionary} exceeded at step {state.t + 1}",
            state=state,
        )
    c = state._c
    state._decay(a)
    c_new = state._c
    state._flush()
    state._grow(d + 1)
    W = state._Wf
    W[:d, d] = (-eta * c / c_new) * wk
    W[d, :d] = 0.0
    W[d, d] = eta / c_new
    state._norm_sq = norm_tilde_sq
    state.gram_x.append(x, k_x, s_x, parts_x)
    state.gram_y.append(y, k_y, s_y)


def step(state: LearnerState, cfg: LearnerConfig, sample) -> LearnerState:
    """One full iteration: expand, test the compression budget, project or
    admit.  Mutates ``state`` in place and returns it.  ``cfg`` is the
    state's own config (``new_state``'s); another raises ``ConfigError``."""
    x = np.asarray(sample[0], dtype=float).reshape(-1)
    y = np.asarray(sample[1], dtype=float).reshape(-1)
    t = state.t + 1
    eta = cfg.eta_at(t)
    eps = cfg.eps_at(t, eta)
    a = 1.0 - cfg.lam * eta
    d = state.dict_size

    c = state._c
    # the caches check both points here, before anything mutates the state
    k_x = state.gram_x.kernel_vector(x)
    k_y = state.gram_y.kernel_vector(y)
    if cfg is not state.cfg and cfg != state.cfg:
        raise ConfigError("the config cannot change mid-run")
    s_x = self_kernel(cfg.kernel_x, x)
    s_y = self_kernel(cfg.kernel_y, y)

    wk = state._apply(k_x)  # factored units
    pk = state.gram_y.G @ wk
    r = k_y - c * pk        # absolute: g-coefficients on the old y-atoms
    rwk = float(c * (r @ wk))
    kwk = float(c * (k_y @ wk))
    gg = s_y - 2.0 * kwk + float(c * c * (wk @ pk))   # |g|^2
    norm_tilde_sq = a * a * state._norm_sq + 2.0 * a * eta * rwk \
        + eta * eta * gg * s_x

    p_idx = state.gram_x.find(x)
    q_idx = None if p_idx is None else state.gram_y.find(y)
    contained = q_idx is not None
    parts_x = None

    if d == 0:
        # empty span: the residual is the full norm and the sample is admitted
        delta = norm_tilde_sq
    elif contained:
        # the rank-one update lies exactly in the dictionary's product span
        delta = 0.0
    elif eps == 0.0:
        delta = np.nan                      # zero budget admits; skip the test
    else:
        u_y = state.gram_y.solve(r)
        parts_x = state.gram_x.solve_parts(k_x)
        u_x = parts_x[1]
        fit = float((u_y @ r) * (k_x @ u_x))
        delta = eta * eta * clamp_roundoff(s_x * gg - fit, s_x * gg + fit, _DELTA_CLAMP_RTOL,
                                           "compression residual came out negative")

    if d == 0 or np.isnan(delta):
        reject = False
    elif cfg.budget_squared:
        reject = delta < eps
    else:
        reject = np.sqrt(delta) <= eps

    if not reject:
        _admit(state, x, y, k_x, k_y, s_x, s_y, eta, a, norm_tilde_sq, wk, parts_x)
    elif contained:
        # exact fold into product atom (q_idx, p_idx): u_y = e_q - W k_x, u_x = e_p
        u_y = -c * wk
        u_y[q_idx] += 1.0
        u_x = np.zeros(d)
        u_x[p_idx] = 1.0
        state._update(a, eta, u_y, u_x, norm_tilde_sq)
    else:
        # projected update: W <- a W + eta u_y u_x^T; (G + jitter I) u = rhs gives G u
        g = r - state.gram_y.jitter * u_y
        h = k_x - state.gram_x.jitter * u_x
        wh = state._apply(h)
        state._update(a, eta, u_y, u_x, a * a * state._norm_sq
                      + 2.0 * a * eta * float(c * (g @ wh))
                      + eta * eta * float((u_y @ g) * (u_x @ h)))

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


def run_stream(cfg: LearnerConfig, samples, checkpoints: Optional[Sequence[int]] = None,
               on_step=None):
    """Fold ``step`` over a sample stream.

    Returns ``(state, checkpoint_reps)`` where ``checkpoint_reps`` holds a
    deep-copied operator representation after each step index listed in
    ``checkpoints``, in step order.  ``on_step(state)``, when given, is
    called after every step.  The marks follow ``checkpoint_marks``: a bad
    one raises ``InputError`` before the first step, and one past the end
    of the stream (which may have no length) once the stream has ended.
    """
    marks = checkpoint_marks(checkpoints)
    state = new_state(cfg)
    reps = []
    for sample in samples:
        step(state, cfg, sample)    # the module global: a timing wrapper may replace it
        if on_step is not None:
            on_step(state)
        if state.t in marks:
            reps.append((state.t, state.snapshot_rep()))
    if not state.t:
        raise InputError("sample stream is empty")
    checkpoint_marks(marks, state.t)
    return state, reps
