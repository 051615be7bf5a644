"""Compressed online learning of the conditional-mean-embedding operator.

One sample pair per step: take an operator-valued stochastic gradient step,
test whether the expanded operator is still representable over the current
dictionary within the step's compression budget, and either project back
onto the dictionary span (sample rejected) or admit the sample as a new
dictionary atom.

The gradient step has the structure ``U~ = a U + eta g (x) phi_X(x)`` with
``a = 1 - lambda*eta`` and ``g = k_Y(y,.) - U phi_X(x)``, so the projection
test only ever concerns the rank-one correction: its residual and optimal
coefficients come from two linear solves against the cached Gram inverses.
The coefficient matrix is held factored as ``W = c * (Wf + U V^T)``: a
scalar factor ``c`` absorbs the per-step decay ``a``, and the rank-one
updates of projected steps collect as columns of a pending low-rank block
``U V^T`` (at most ``_BLOCK`` columns) that is added into ``Wf`` with one
matrix product when it fills or before ``Wf`` is read whole or restructured.
Products with ``W`` apply the block as two thin mat-vecs, and ``G_Y W k_x``
is one mat-vec against the Y Gram, so every step stays O(d^2) and none
rewrites a d x d matrix element by element.  This is an implementation
detail: the produced operators match the plain coefficient recursion to
machine precision (covered by the equivalence tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import CapacityError, ConfigError, InputError, NumericalError
from .kernels import DEFAULT_JITTER_SCALE, GramCache, Kernel, self_kernel
from .operator import Dictionary, OperatorRep, zero_rep

_MIN_FACTOR = 1e-100       # renormalize the scalar factor below this
_SLOW_DECAY = 1e-12        # a below this: take the direct (unfactored) path
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
    t0: float
    p: float


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
            if not (s.eta0 > 0 and s.t0 > 0):
                raise ConfigError("polynomial schedule needs eta0 > 0 and t0 > 0")
            if not (0.5 < s.p <= 1.0):
                raise ConfigError("polynomial decay exponent must lie in (0.5, 1]")
            if s.eta0 > 1.0 / self.lam * (1 + 1e-12):
                raise ConfigError("polynomial schedule needs eta0 <= 1/lambda")
        else:
            raise ConfigError(f"unknown step schedule {s!r}")
        b = self.budget_schedule
        if isinstance(b, ConstantBudget):
            if b.eps < 0:
                raise ConfigError("compression budget must be nonnegative")
        elif isinstance(b, (QuadraticBudget, CubicBudget)):
            if b.b_cmp <= 0:
                raise ConfigError("budget coupling constant must be positive")
        elif not isinstance(b, ZeroBudget):
            raise ConfigError(f"unknown budget schedule {b!r}")
        if self.jitter_scale < 0:
            raise ConfigError("jitter_scale must be nonnegative")
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
# Gram-form primitives (module-level operations used directly by tests and
# by the learner's direct path; the hot path uses the factored equivalents)
# ---------------------------------------------------------------------------

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
    if raw >= 0.0:
        return raw
    if raw >= -_DELTA_CLAMP_RTOL * max(scale, 1e-300):
        return 0.0
    raise NumericalError(f"compression residual came out negative: {raw}")


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
        self._Wf: Optional[np.ndarray] = None   # capacity buffer
        self._Ut: Optional[np.ndarray] = None   # U^T, _BLOCK x capacity
        self._Vt: Optional[np.ndarray] = None   # V^T, _BLOCK x capacity
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
        if d == 0:
            return np.zeros((0, 0))
        self._flush()
        return self._c * self._Wf[:d, :d]

    @property
    def rep(self) -> OperatorRep:
        return self.snapshot_rep()

    def snapshot_rep(self) -> OperatorRep:
        d = self.dict_size
        if d == 0:
            return zero_rep(0, 0, self.cfg.kernel_x, self.cfg.kernel_y)
        return OperatorRep(
            dict=Dictionary(self.gram_x.points.copy(), self.gram_y.points.copy()),
            W=self.coefficients,
            kernel_x=self.cfg.kernel_x,
            kernel_y=self.cfg.kernel_y,
        )

    @property
    def hs_norm(self) -> float:
        return float(np.sqrt(max(0.0, self._norm_sq)))

    # -- internal helpers ----------------------------------------------------

    def _grow(self, need: int):
        cap = 0 if self._Wf is None else self._Wf.shape[0]
        if need <= cap:
            return
        new_cap = max(16, cap)
        while new_cap < need:
            new_cap *= 2
        self._flush()
        d = self.dict_size
        buf = np.empty((new_cap, new_cap))
        if d:
            buf[:d, :d] = self._Wf[:d, :d]
        self._Wf = buf
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

    def _renormalize(self):
        if self._c >= _MIN_FACTOR:
            return
        self._flush()
        d = self.dict_size
        self._Wf[:d, :d] *= self._c
        self._c = 1.0

    def _refactor(self, W_new: np.ndarray):
        """Reset the factored caches from an explicit coefficient matrix."""
        d = W_new.shape[0]
        self._grow(d)
        self._c = 1.0
        self._Wf[:d, :d] = W_new
        P = self.gram_y.G[:d, :d] @ W_new
        Q = W_new @ self.gram_x.G[:d, :d]
        self._norm_sq = float(np.sum(P * Q))


def new_state(cfg: LearnerConfig) -> LearnerState:
    return LearnerState(cfg)


def _validate_sample(state: LearnerState, sample) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(sample[0], dtype=float).reshape(-1)
    y = np.asarray(sample[1], dtype=float).reshape(-1)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputError("sample contains non-finite values")
    if state.dict_size:
        if x.shape[0] != state.gram_x.points.shape[1]:
            raise InputError("sample x dimension does not match dictionary")
        if y.shape[0] != state.gram_y.points.shape[1]:
            raise InputError("sample y dimension does not match dictionary")
    return x, y


def _find_atom(points: np.ndarray, p: np.ndarray) -> Optional[int]:
    """Index of a bitwise-identical point, or None."""
    if points.shape[0] == 0:
        return None
    hits = np.nonzero((points == p).all(axis=1))[0]
    return int(hits[0]) if hits.size else None


def _admit(state: LearnerState, x, y, k_x, k_y, s_x, s_y, eta, a,
           norm_tilde_sq, wk):
    """Extend the dictionary; ``wk`` is W k_x in factored units."""
    cfg = state.cfg
    d = state.dict_size
    if cfg.max_dictionary is not None and d + 1 > cfg.max_dictionary:
        raise CapacityError(
            f"dictionary limit {cfg.max_dictionary} exceeded at step {state.t + 1}",
            state=state,
        )
    c_new = a * state._c
    state._flush()
    state._grow(d + 1)
    W = state._Wf
    W[:d, d] = (-eta / a) * wk
    W[d, :d] = 0.0
    W[d, d] = eta / c_new
    state._c = c_new
    state._norm_sq = norm_tilde_sq
    state.gram_x.append(x, k_x, s_x)
    state.gram_y.append(y, k_y, s_y)


def step(state: LearnerState, cfg: LearnerConfig, sample) -> LearnerState:
    """One full iteration: expand, test the compression budget, project or
    admit.  Mutates ``state`` in place and returns it."""
    if cfg is not state.cfg:
        if (cfg.kernel_x != state.cfg.kernel_x or cfg.kernel_y != state.cfg.kernel_y
                or cfg.jitter_scale != state.cfg.jitter_scale):
            raise ConfigError("kernels/jitter cannot change mid-run")
        state.cfg = cfg
    x, y = _validate_sample(state, sample)
    t = state.t + 1
    eta = cfg.eta_at(t)
    eps = cfg.eps_at(t, eta)
    lam = cfg.lam
    a = 1.0 - lam * eta
    d = state.dict_size

    if d == 0:
        # first sample always starts the dictionary
        s_x = self_kernel(cfg.kernel_x, x)
        s_y = self_kernel(cfg.kernel_y, y)
        delta = eta * eta * s_x * s_y      # empty span: residual is the full norm
        state._grow(1)
        state._c = 1.0
        state._Wf[0, 0] = eta
        state._norm_sq = eta * eta * s_x * s_y
        state.gram_x.append(x, np.zeros(0), s_x)
        state.gram_y.append(y, np.zeros(0), s_y)
        state.t = t
        state.stats.append(StepRecord(t, True, delta, eps, eta, 1, state.hs_norm))
        return state

    if a < _SLOW_DECAY:
        return _step_direct(state, cfg, x, y, t, eta, eps, lam)

    state._renormalize()
    c = state._c
    k_x = state.gram_x.kernel_vector(x)
    k_y = state.gram_y.kernel_vector(y)
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

    p_idx = _find_atom(state.gram_x.points, x)
    q_idx = _find_atom(state.gram_y.points, y) if p_idx is not None else None
    contained = p_idx is not None and q_idx is not None

    delta = np.nan
    u_y = u_x = None
    if contained:
        # the rank-one update lies exactly in the dictionary's product span
        delta = 0.0
    elif isinstance(cfg.budget_schedule, ZeroBudget) or eps == 0.0:
        delta = np.nan                      # zero budget admits; skip the test
    else:
        Gyi = state.gram_y.inverse()
        Gxi = state.gram_x.inverse()
        u_y = Gyi @ r
        u_x = Gxi @ k_x
        fit = float((u_y @ r) * (k_x @ u_x))
        # projection residual, nonnegative by construction; ill-conditioned
        # Gram inverses can push the roundoff below the strict clamp band
        delta = eta * eta * max(0.0, s_x * gg - fit)

    if np.isnan(delta):
        reject = False
    elif cfg.budget_squared:
        reject = delta < eps
    else:
        reject = np.sqrt(delta) <= eps

    if not reject:
        _admit(state, x, y, k_x, k_y, s_x, s_y, eta, a, norm_tilde_sq, wk)
    elif contained:
        # exact fold: the new atom coincides with product atom (q_idx, p_idx)
        c_new = a * c
        W = state._Wf
        W[:d, p_idx] += (-eta / a) * wk
        W[q_idx, p_idx] += eta / c_new
        state._c = c_new
        state._norm_sq = norm_tilde_sq
    else:
        # projected update: W <- a W + eta u_y u_x^T
        c_new = a * c
        g = state.gram_y.G @ u_y
        h = state.gram_x.G @ u_x
        wh = state._apply(h)
        state._norm_sq = a * a * state._norm_sq \
            + 2.0 * a * eta * float(c * (g @ wh)) \
            + eta * eta * float((u_y @ g) * (u_x @ h))
        state._push((eta / c_new) * u_y, u_x)
        state._c = c_new

    state.t = t
    state.stats.append(StepRecord(
        t, not reject, float(delta), eps, eta, state.dict_size, state.hs_norm))
    return state


def _step_direct(state: LearnerState, cfg: LearnerConfig, x, y, t, eta, eps, lam):
    """Unfactored fallback for a = 1 - lambda*eta ~ 0 (total decay)."""
    d = state.dict_size
    k_x = state.gram_x.kernel_vector(x)
    k_y = state.gram_y.kernel_vector(y)
    s_x = self_kernel(cfg.kernel_x, x)
    s_y = self_kernel(cfg.kernel_y, y)
    W = state.coefficients
    Wt = sgd_expand(W, k_x, eta, lam)
    GX, GY = state.gram_x.G, state.gram_y.G
    Gxb = np.empty((d + 1, d + 1))
    Gxb[:d, :d] = GX
    Gxb[:d, d] = k_x
    Gxb[d, :d] = k_x
    Gxb[d, d] = s_x
    Gyb = np.empty((d + 1, d + 1))
    Gyb[:d, :d] = GY
    Gyb[:d, d] = k_y
    Gyb[d, :d] = k_y
    Gyb[d, d] = s_y

    p_idx = _find_atom(state.gram_x.points, x)
    q_idx = _find_atom(state.gram_y.points, y) if p_idx is not None else None
    contained = p_idx is not None and q_idx is not None

    delta = np.nan
    Zstar = None
    if contained:
        delta = 0.0
        Zstar = (1.0 - lam * eta) * W
        Zstar[:, p_idx] += Wt[:d, d]
        Zstar[q_idx, p_idx] += eta
    elif eps > 0.0:
        Gyi = state.gram_y.inverse()
        Gxi = state.gram_x.inverse()
        delta = compression_delta(Wt, Gxb, Gyb, Gxb[:, :d], Gyb[:, :d], Gxi, Gyi)
        Zstar = project_coefficients(Wt, Gyi, Gyb[:, :d], Gxb[:, :d], Gxi)

    if np.isnan(delta):
        reject = False
    elif cfg.budget_squared:
        reject = delta < eps
    else:
        reject = np.sqrt(delta) <= eps

    if reject:
        state._refactor(Zstar)
    else:
        if cfg.max_dictionary is not None and d + 1 > cfg.max_dictionary:
            raise CapacityError(
                f"dictionary limit {cfg.max_dictionary} exceeded at step {t}",
                state=state,
            )
        state.gram_x.append(x, k_x, s_x)
        state.gram_y.append(y, k_y, s_y)
        state._refactor(Wt)
    state.t = t
    state.stats.append(StepRecord(
        t, not reject, float(delta), eps, eta, state.dict_size, state.hs_norm))
    return state


def run_stream(cfg: LearnerConfig, samples, checkpoints: Optional[Sequence[int]] = None):
    """Fold ``step`` over a sample stream.

    Returns ``(state, checkpoint_reps)`` where ``checkpoint_reps`` holds a
    deep-copied operator representation after each step index listed in
    ``checkpoints`` (sorted, deduplicated).
    """
    state = new_state(cfg)
    marks = sorted(set(int(t) for t in checkpoints)) if checkpoints else []
    reps = []
    mark_i = 0
    seen = False
    for sample in samples:
        seen = True
        step(state, cfg, sample)
        while mark_i < len(marks) and marks[mark_i] == state.t:
            reps.append((state.t, state.snapshot_rep()))
            mark_i += 1
    if not seen:
        raise InputError("sample stream is empty")
    return state, reps
