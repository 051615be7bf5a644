"""Dictionary-plus-coefficients representation of Hilbert-Schmidt operators.

An operator ``U = Psi_Y W Phi_X^T`` is stored as an ordered list of sample
pairs (the dictionary) and a square coefficient matrix ``W``; every inner
product, norm, prediction and embedding propagation reduces to Gram-matrix
algebra over the dictionary.  Values are immutable after construction and
all operations are pure, so representations can be shared freely across
threads.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ModelError
from .kernels import Kernel, clamp_roundoff, cross_gram, gram_matrix

NEG_CLAMP_RTOL = 1e-10


def _freeze(a: np.ndarray) -> np.ndarray:
    """``a`` as a read-only float64 array: adopted if it already is one that
    owns its data, else copied, so that no caller's writable array aliases it."""
    if a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dictionary:
    """Ordered list of admitted sample pairs, shared by both feature sides."""

    xs: np.ndarray  # (d, dim_x)
    ys: np.ndarray  # (d, dim_y)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        ys = np.asarray(self.ys, dtype=float)
        if xs.ndim != 2 or ys.ndim != 2:
            raise InputError("dictionary entries must be 2-d arrays of points")
        if xs.shape[0] != ys.shape[0]:
            raise InputError("dictionary x/y lists differ in length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise InputError("dictionary contains non-finite points")
        object.__setattr__(self, "xs", _freeze(xs))
        object.__setattr__(self, "ys", _freeze(ys))

    def __len__(self) -> int:
        return self.xs.shape[0]

    @property
    def dim_x(self) -> int:
        return self.xs.shape[1]

    @property
    def dim_y(self) -> int:
        return self.ys.shape[1]


@dataclass(frozen=True)
class KmeWeights:
    """Empirical kernel mean embedding: anchor points with weights."""

    anchors: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        anchors = np.asarray(self.anchors, dtype=float)
        weights = np.asarray(self.weights, dtype=float).reshape(-1)
        if anchors.ndim != 2 or anchors.shape[0] != weights.shape[0]:
            raise InputError("anchor list and weight vector lengths differ")
        if not (np.all(np.isfinite(anchors)) and np.all(np.isfinite(weights))):
            raise InputError("non-finite kernel mean embedding data")
        object.__setattr__(self, "anchors", _freeze(anchors))
        object.__setattr__(self, "weights", _freeze(weights))


@dataclass(frozen=True)
class OperatorRep:
    """Finite representation ``U = sum_ij W_ij k_Y(y_i,.) (x) k_X(x_j,.)``."""

    dict: Dictionary
    W: np.ndarray
    kernel_x: Kernel
    kernel_y: Kernel

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        d = len(self.dict)
        if W.shape != (d, d):
            raise InputError(f"coefficient matrix must be {d}x{d}, got {W.shape}")
        if not np.all(np.isfinite(W)):
            raise InputError("coefficient matrix contains non-finite values")
        object.__setattr__(self, "W", _freeze(W))

    def __len__(self) -> int:
        return len(self.dict)

    def gram_x(self) -> np.ndarray:
        return gram_matrix(self.kernel_x, self.dict.xs)

    def gram_y(self) -> np.ndarray:
        return gram_matrix(self.kernel_y, self.dict.ys)


def zero_rep(dim_x: int, dim_y: int, kernel_x: Kernel, kernel_y: Kernel) -> OperatorRep:
    """The zero operator (empty dictionary) with declared point dimensions."""
    return OperatorRep(
        dict=Dictionary(np.zeros((0, dim_x)), np.zeros((0, dim_y))),
        W=np.zeros((0, 0)),
        kernel_x=kernel_x,
        kernel_y=kernel_y,
    )


def _check_compatible(A: OperatorRep, B: OperatorRep):
    if A.kernel_x != B.kernel_x or A.kernel_y != B.kernel_y:
        raise InputError("operator representations use different kernels")
    if len(A) and len(B):
        if A.dict.dim_x != B.dict.dim_x or A.dict.dim_y != B.dict.dim_y:
            raise InputError("operator representations have mismatched point dimensions")


def hs_norm_sq(U: OperatorRep) -> float:
    """Squared Hilbert-Schmidt norm, Tr(W^T G_Y W G_X) in Gram form."""
    d = len(U)
    if d == 0:
        return 0.0
    prods = U.W * (U.gram_y() @ U.W @ U.gram_x())
    raw = float(np.sum(prods))
    if raw >= 0.0:      # the scale is one more pass over prods
        return raw
    return clamp_roundoff(raw, float(np.sum(np.abs(prods))), NEG_CLAMP_RTOL,
                          "squared norm came out negative beyond round-off")


def hs_inner(A: OperatorRep, B: OperatorRep) -> float:
    """HS inner product of two representations (shared kernels required)."""
    _check_compatible(A, B)
    if len(A) == 0 or len(B) == 0:
        return 0.0
    gy = cross_gram(A.kernel_y, A.dict.ys, B.dict.ys)
    gx = cross_gram(A.kernel_x, B.dict.xs, A.dict.xs)
    return float(np.sum(A.W * (gy @ B.W @ gx)))


def hs_norm(U: OperatorRep) -> float:
    return float(np.sqrt(hs_norm_sq(U)))


def hs_distance(A: OperatorRep, B: OperatorRep) -> float:
    """HS distance sqrt(|A|^2 - 2<A,B> + |B|^2), clamped at zero.

    When both representations share one dictionary the distance is taken as
    the norm of the coefficient difference; the general expansion cannot
    resolve distances below ~sqrt(eps)*scale due to cancellation.
    """
    _check_compatible(A, B)
    if (len(A) == len(B) and np.array_equal(A.dict.xs, B.dict.xs)
            and np.array_equal(A.dict.ys, B.dict.ys)):
        diff = OperatorRep(dict=A.dict, W=A.W - B.W,
                           kernel_x=A.kernel_x, kernel_y=A.kernel_y)
        return float(np.sqrt(hs_norm_sq(diff)))
    val = hs_norm_sq(A) - 2.0 * hs_inner(A, B) + hs_norm_sq(B)
    return float(np.sqrt(max(0.0, val)))


def predict_coefficients(U: OperatorRep, x) -> np.ndarray:
    """Coefficients c with mu(x) = sum_i c_i k_Y(y_i, .), i.e. c = W k_x."""
    if len(U) == 0:
        return np.zeros(0)
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape[0] != U.dict.dim_x:
        raise InputError("query point dimension does not match dictionary")
    k = cross_gram(U.kernel_x, U.dict.xs, x[None, :])[:, 0]
    return U.W @ k


def conditional_expectation(U: OperatorRep, f_at_dict_y, x) -> float:
    """<f, mu(x)> for f given by its values at the dictionary y-atoms.

    Exact for f in the span of the y-atom kernel sections; an approximation
    otherwise.
    """
    f = np.asarray(f_at_dict_y, dtype=float).reshape(-1)
    if f.shape[0] != len(U):
        raise InputError("f values must align with the dictionary")
    c = predict_coefficients(U, x)
    return float(c @ f)


def propagate_kme(U: OperatorRep, m: KmeWeights) -> np.ndarray:
    """Push an embedded distribution through the operator.

    Returns b with U KME = sum_i b_i k_Y(y_i, .) for KME = sum_k a_k k_X(z_k, .).
    """
    if len(U) == 0:
        return np.zeros(0)
    if m.anchors.shape[1] != U.dict.dim_x:
        raise InputError("anchor dimension does not match dictionary")
    K = cross_gram(U.kernel_x, U.dict.xs, m.anchors)
    return U.W @ (K @ m.weights)


# ---------------------------------------------------------------------------
# JSON serialization: round-trip is exact for finite doubles (repr floats).
# ---------------------------------------------------------------------------

def rep_to_dict(U: OperatorRep) -> dict:
    return {
        "kernel_x": U.kernel_x.to_dict(),
        "kernel_y": U.kernel_y.to_dict(),
        "dict": [[list(x), list(y)] for x, y in zip(U.dict.xs, U.dict.ys)],
        "W": [list(row) for row in U.W],
        "dim_x": U.dict.dim_x,
        "dim_y": U.dict.dim_y,
    }


def json_field(data, key: str, convert):
    """``convert(data[key])`` for a parsed JSON object ``data``; a missing or
    malformed value raises ``InputError`` naming ``key``."""
    if not isinstance(data, dict):
        raise InputError("document is not a JSON object")
    if key not in data:
        raise InputError(f"missing key {key!r}")
    try:
        return convert(data[key])
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed key {key!r}: {exc}") from exc


def read_json(path, parse):
    """``parse`` of the JSON document in the file ``path``.  A file that is
    not JSON, or a document that ``parse`` rejects, raises ``InputError`` (or
    ``parse``'s ``ModelError``) naming the file."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:       # JSONDecodeError, UnicodeDecodeError
            raise InputError(f"{path}: not a JSON document: {exc}") from exc
    try:
        return parse(data)
    except (InputError, ModelError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def json_integer(value) -> bool:
    """Whether a value is an integer by the JSON schema's rule: a bool is
    not, and an integral float such as ``2.0`` is.  numpy's scalars count as
    the numbers they hold."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def strict_integer(value, low: int) -> bool:
    """Whether a value is an integer >= ``low`` as numpy takes a count or a
    seed: an ``Integral`` that is not a bool (so ``2.0`` is not)."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= low


def _dimension(value, atoms: np.ndarray) -> int:
    """A declared point dimension: an integer >= 0, the atoms' own when there
    are any."""
    if not json_integer(value) or value < 0:
        raise ValueError(f"expected an integer >= 0, got {value!r}")
    if len(atoms) and atoms.shape[1:] != (value,):
        raise ValueError(f"declared {value!r}, but the atoms have shape {atoms.shape[1:]}")
    return int(value)


def _atoms(data: dict, side: int, key: str) -> np.ndarray:
    """One side's points of a serialized dictionary, checked against their
    declared dimension ``data[key]`` if there is one."""
    atoms = json_field(data, "dict",
                       lambda entries: np.array([e[side] for e in entries], dtype=float))
    dim = json_field(data, key, lambda v: _dimension(v, atoms)) if key in data else 0
    return atoms if len(atoms) else np.zeros((0, dim))


def rep_from_dict(data: dict) -> OperatorRep:
    """Inverse of ``rep_to_dict``; a missing or malformed key raises
    ``InputError`` naming it."""
    kx = json_field(data, "kernel_x", Kernel.from_dict)
    ky = json_field(data, "kernel_y", Kernel.from_dict)
    xs, ys = _atoms(data, 0, "dim_x"), _atoms(data, 1, "dim_y")
    d = len(xs)
    W = json_field(data, "W", lambda w: np.array(w, dtype=float).reshape(d, d))
    return OperatorRep(dict=Dictionary(xs, ys), W=W, kernel_x=kx, kernel_y=ky)


def _floats(row) -> str:
    """A float row's JSON items, as ``json.dumps`` formats them."""
    return ", ".join(map(float.__repr__, row.tolist()))


def save_rep(U: OperatorRep, path):
    """Write ``U`` to ``path`` as one compact JSON line, byte-for-byte
    ``json.dumps(rep_to_dict(U))``.  W goes out one row at a time, so the
    writer never holds the whole document, or all of W as Python floats."""
    kx, ky = json.dumps(U.kernel_x.to_dict()), json.dumps(U.kernel_y.to_dict())
    with open(path, "w") as fh:
        fh.write(f'{{"kernel_x": {kx}, "kernel_y": {ky}, "dict": [')
        for i, (x, y) in enumerate(zip(U.dict.xs, U.dict.ys)):
            fh.write(f"{', ' if i else ''}[[{_floats(x)}], [{_floats(y)}]]")
        fh.write('], "W": [')
        for i, row in enumerate(U.W):
            fh.write(f"{', ' if i else ''}[{_floats(row)}]")
        fh.write(f'], "dim_x": {U.dict.dim_x}, "dim_y": {U.dict.dim_y}}}')


def load_rep(path) -> OperatorRep:
    return read_json(path, rep_from_dict)
