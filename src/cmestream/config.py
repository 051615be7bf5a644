"""Experiment configuration: JSON schema, validation, and builders.

A single JSON document drives the CLI.  The schema below is normative and
the only validation: unknown keys, keys of another kind (a budget ``eps`` on
a ``zero`` budget, say) and keys missing for the chosen kind are rejected,
so typos fail loudly before any computation.  This module interprets the
schema itself (Draft 2020-12, only the keywords it uses), so the runtime
needs no ``jsonschema``; the tests hold the interpreter to ``jsonschema`` as
the oracle, error for error.  The builders expect a validated document and
pass each section's keys to its library type as keyword arguments, so the
types hold every default and check every value.
"""

from __future__ import annotations

import json
import numbers
import os
import warnings
from typing import Optional

import numpy as np

from .batch import FiniteSpaceModel
from .dynamics import (DuffingParams, DuffingTrajectories, FiniteChainStream,
                       FiniteIIDStream, generate_stream)
from .errors import ConfigError, InputError
from .kernels import Kernel
from .learner import (ConstantBudget, ConstantStep, CubicBudget, LearnerConfig,
                      PolynomialStep, QuadraticBudget, ZeroBudget)
from .operator import json_integer


def _kinds(key: str, rules: dict) -> dict:
    """Schema clauses under which each value ``k`` of ``key`` requires the
    keys ``rules[k][0]`` and accepts only those, ``rules[k][1]`` and ``key``."""
    return {"allOf": [{"if": {"required": [key], "properties": {key: {"const": k}}},
                       "then": {"required": required,
                                "propertyNames": {"enum": [key, *required, *optional]}}}
                      for k, (required, optional) in rules.items()]}


_KERNEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["family"],
    **_kinds("family", {"gaussian": (["bandwidth"], ["bound"]),
                        "linear": ([], ["bound"])}),
    "properties": {
        "family": {"enum": ["gaussian", "linear"]},
        "bandwidth": {"type": "number", "exclusiveMinimum": 0},
        "bound": {"type": "number", "exclusiveMinimum": 0},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "cmestream experiment configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["kernel", "learner", "stream"],
    "properties": {
        "kernel": _KERNEL_SCHEMA,
        "kernel_y": _KERNEL_SCHEMA,
        "learner": {
            "type": "object",
            "additionalProperties": False,
            "required": ["lambda", "step", "budget"],
            "properties": {
                "lambda": {"type": "number", "exclusiveMinimum": 0},
                "step": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    **_kinds("kind", {"constant": (["eta"], []),
                                      "polynomial": (["eta0"], ["t0", "p"])}),
                    "properties": {
                        "kind": {"enum": ["constant", "polynomial"]},
                        "eta": {"type": "number", "exclusiveMinimum": 0},
                        "eta0": {"type": "number", "exclusiveMinimum": 0},
                        "t0": {"type": "number", "exclusiveMinimum": 0},
                        "p": {"type": "number"},
                    },
                },
                "budget": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    **_kinds("kind", {"zero": ([], []),
                                      "constant": (["eps"], []),
                                      "quadratic": (["b_cmp"], []),
                                      "cubic": (["b_cmp"], [])}),
                    "properties": {
                        "kind": {"enum": ["zero", "constant", "quadratic", "cubic"]},
                        "eps": {"type": "number", "minimum": 0},
                        "b_cmp": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "jitter_scale": {"type": "number", "minimum": 0},
                "max_dictionary": {"type": ["integer", "null"], "minimum": 1},
                "budget_squared": {"type": "boolean"},
            },
        },
        "stream": {
            "type": "object",
            "additionalProperties": False,
            "required": ["source"],
            "properties": {
                "source": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["kind"],
                    **_kinds("kind", {
                        "duffing": (["n_traj", "steps_per_traj"],
                                    ["seed", "init_box", "params"]),
                        "finite_chain": (["model_path", "n_samples"], ["burn_in", "seed"]),
                        "finite_iid": (["model_path", "n_samples"], ["seed"]),
                        "csv": (["path", "dim_x", "dim_y"], []),
                    }),
                    "properties": {
                        "kind": {"enum": ["duffing", "finite_chain", "finite_iid", "csv"]},
                        "n_traj": {"type": "integer", "minimum": 1},
                        "steps_per_traj": {"type": "integer", "minimum": 1},
                        "seed": {"type": "integer", "minimum": 0},
                        "init_box": {
                            "type": "array", "minItems": 2, "maxItems": 2,
                            "items": {"type": "array", "minItems": 2, "maxItems": 2,
                                      "items": {"type": "number"}},
                        },
                        "params": {
                            "type": "object",
                            "additionalProperties": False,
                            "properties": {
                                "delta": {"type": "number"},
                                "beta": {"type": "number"},
                                "alpha": {"type": "number"},
                                "dt_integrator": {"type": "number", "exclusiveMinimum": 0},
                                "sample_interval": {"type": "number", "exclusiveMinimum": 0},
                            },
                        },
                        "model_path": {"type": "string"},
                        "n_samples": {"type": "integer", "minimum": 1},
                        "burn_in": {"type": "integer", "minimum": 0},
                        "path": {"type": "string"},
                        "dim_x": {"type": "integer", "minimum": 1},
                        "dim_y": {"type": "integer", "minimum": 1},
                    },
                },
                "interleave": {"enum": ["sequential", "round_robin"]},
            },
        },
        "outputs": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
        "analysis": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # accepted but unread: bench/workloads.py still writes it
                "koopman_k": {"type": "integer", "minimum": 1},
                "checkpoints": {"type": "array",
                                "items": {"type": "integer", "minimum": 1}},
            },
        },
    },
}


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    # a bool is not a number, and an integral float is an integer
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": json_integer,
}


def _is_type(value, types) -> bool:
    return any(_TYPES[t](value) for t in ([types] if isinstance(types, str) else types))


def _errors(schema: dict, value, path: tuple = ()):
    """Yield ``(path, message, off_type)`` for each way ``value`` breaks
    ``schema``, in ``Draft202012Validator.iter_errors`` order and wording.

    Interprets the keywords ``CONFIG_SCHEMA`` uses (``enum`` and ``const``
    with string values only, ``additionalProperties`` only as false) and
    ignores the rest.  ``off_type`` is true unless ``schema`` has a
    ``type`` that ``value`` matches; ``best_match`` prefers such errors.
    """
    off_type = not ("type" in schema and _is_type(value, schema["type"]))

    def error(message: str):
        return path, message, off_type

    for key, arg in schema.items():
        if key == "type":
            if not _is_type(value, arg):
                names = ", ".join(map(repr, [arg] if isinstance(arg, str) else arg))
                yield error(f"{value!r} is not of type {names}")
        elif key == "enum":
            if not (isinstance(value, str) and value in arg):
                yield error(f"{value!r} is not one of {arg!r}")
        elif key == "const":
            if not (isinstance(value, str) and value == arg):
                yield error(f"{arg!r} was expected")
        elif key == "allOf":
            for sub in arg:
                yield from _errors(sub, value, path)
        elif key == "if":
            if "then" in schema and next(_errors(arg, value, path), None) is None:
                yield from _errors(schema["then"], value, path)
        elif isinstance(value, dict):
            if key == "required":
                for name in arg:
                    if name not in value:
                        yield error(f"{name!r} is a required property")
            elif key == "properties":
                for name, sub in arg.items():
                    if name in value:
                        yield from _errors(sub, value[name], path + (name,))
            elif key == "additionalProperties":
                known = schema.get("properties", {})
                extras = sorted((k for k in value if k not in known), key=str)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    yield error(f"Additional properties are not allowed "
                                f"({', '.join(map(repr, extras))} {verb} unexpected)")
            elif key == "propertyNames":
                for name in value:
                    yield from _errors(arg, name, path)
        elif isinstance(value, list):
            if key == "items":
                for i, item in enumerate(value):
                    yield from _errors(arg, item, path + (i,))
            elif key == "minItems" and len(value) < arg:
                yield error(f"{value!r} " + ("should be non-empty" if arg == 1
                                             else "is too short"))
            elif key == "maxItems" and len(value) > arg:
                yield error(f"{value!r} " + ("is expected to be empty" if arg == 0
                                             else "is too long"))
        elif _TYPES["number"](value):
            if key == "minimum" and value < arg:
                yield error(f"{value!r} is less than the minimum of {arg!r}")
            elif key == "exclusiveMinimum" and value <= arg:
                yield error(f"{value!r} is less than or equal to the minimum of {arg!r}")


def _json_path(path: tuple) -> str:
    """jsonschema's ``json_path``; every key on a path is a schema property
    name, so none needs quoting."""
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def validate_config(data: dict):
    """Raise ``ConfigError`` naming the error ``jsonschema.best_match``
    would pick: the shallowest path, then the last sibling path, then an
    off-type error, first in iteration order on a tie."""
    errors = sorted(_errors(CONFIG_SCHEMA, data), key=lambda e: e[0])
    if errors:
        path, message, _ = max(errors, key=lambda e: (-len(e[0]), e[0], e[2]))
        where = _json_path(path) if path else "config root"
        raise ConfigError(f"invalid config at {where}: {message}")


def _reject_constant(name: str):
    raise ConfigError(f"config is not valid JSON: {name} is not a number")


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(data)
    return data


_STEPS = {"constant": ConstantStep, "polynomial": PolynomialStep}
_BUDGETS = {"zero": ZeroBudget, "constant": ConstantBudget,
            "quadratic": QuadraticBudget, "cubic": CubicBudget}
_SOURCES = {"duffing": DuffingTrajectories, "finite_chain": FiniteChainStream,
            "finite_iid": FiniteIIDStream}


def _whole(schema: dict, value):
    """``value`` with each float where ``schema`` types an integer (it admits
    ``2.0`` there) made an int, so ``2.0`` builds what ``2`` builds."""
    if isinstance(value, dict):
        return {k: _whole(schema.get("properties", {}).get(k, {}), v) for k, v in value.items()}
    types = schema.get("type", ())
    if isinstance(value, float) and "integer" in ([types] if isinstance(types, str) else types):
        return int(value)
    return value


def _keys(section: dict, *skip: str) -> dict:
    """A validated section's keys other than ``kind`` and ``skip``, which
    are the keyword arguments of the type the section maps onto."""
    return {k: v for k, v in section.items() if k not in ("kind", *skip)}


def build_learner_config(data: dict) -> LearnerConfig:
    data = _whole(CONFIG_SCHEMA, data)
    lrn = data["learner"]
    step, budget = lrn["step"], lrn["budget"]
    return LearnerConfig(
        lam=lrn["lambda"],
        step_schedule=_STEPS[step["kind"]](**_keys(step)),
        budget_schedule=_BUDGETS[budget["kind"]](**_keys(budget)),
        kernel_x=Kernel.from_dict(data["kernel"]),
        kernel_y=Kernel.from_dict(data.get("kernel_y", data["kernel"])),
        **_keys(lrn, "lambda", "step", "budget"))


def read_stream_csv(path, dim_x: int, dim_y: int):
    """The stream CSV's ``(xs, ys)``; a file with no rows, a malformed or
    non-finite value, or a wrong column count, raises ``InputError`` naming
    the file."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)    # "input contained no data"
            rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"stream CSV {path}: {exc}") from exc
    if not rows.size:
        raise InputError(f"stream CSV {path} holds no sample pairs")
    if rows.shape[1] != dim_x + dim_y:
        raise InputError(f"stream CSV {path} has {rows.shape[1]} columns, "
                         f"expected {dim_x + dim_y}")
    if not np.isfinite(rows).all():
        raise InputError(f"stream CSV {path} contains non-finite values")
    return rows[:, :dim_x], rows[:, dim_x:]


def write_stream_csv(path, xs: np.ndarray, ys: np.ndarray):
    rows = np.hstack([xs, ys], dtype=float).tolist()
    with open(path, "w") as fh:
        for row in rows:
            fh.write(",".join(map(float.__repr__, row)) + "\n")


def build_stream(data: dict, base_dir: str = ".", seed: Optional[int] = None):
    """Materialize the configured stream as ``(xs, ys)`` arrays."""
    data = _whole(CONFIG_SCHEMA, data)
    src = data["stream"]["source"]
    # only duffing trajectories have an order to interleave; a csv source is
    # read in file order and a finite source draws one sequence
    if src["kind"] != "duffing" and "interleave" in data["stream"]:
        raise ConfigError("invalid config at $.stream.interleave: "
                          f"a {src['kind']} source takes no interleave")
    if src["kind"] == "csv":
        if seed is not None:
            raise ConfigError("--seed does not apply to a csv stream source")
        return read_stream_csv(os.path.join(base_dir, src["path"]),
                               src["dim_x"], src["dim_y"])
    # the stream section's own keys (an interleave) go to the source too
    keys = {**_keys(src, "model_path"), **_keys(data["stream"], "source")}
    keys["seed"] = seed if seed is not None else src.get("seed")
    if keys["seed"] is None:
        raise ConfigError("invalid config at $.stream.source.seed: a seed is required")
    if "model_path" in src:
        keys["model"] = FiniteSpaceModel.load(os.path.join(base_dir, src["model_path"]))
    if "init_box" in src:
        keys["init_box"] = tuple(map(tuple, src["init_box"]))
    if "params" in src:
        keys["params"] = DuffingParams(**src["params"])
    return generate_stream(_SOURCES[src["kind"]](**keys))
