"""Experiment configuration: JSON schema, validation, and builders.

A single JSON document drives the CLI.  The schema below is normative and
the only validation: unknown keys, and keys missing for the chosen kind, are
rejected so typos fail loudly before any computation.  This module
interprets the schema itself (Draft 2020-12, only the keywords it uses), so
the runtime needs no ``jsonschema``; the tests hold the interpreter to
``jsonschema`` as the oracle, error for error.  The builders expect a
validated document.
"""

from __future__ import annotations

import json
import numbers
import os
from typing import Optional

import numpy as np

from .batch import FiniteSpaceModel
from .dynamics import (DuffingParams, DuffingTrajectories, FiniteChainStream,
                       FiniteIIDStream, StreamSpec, generate_stream)
from .errors import ConfigError, InputError
from .kernels import DEFAULT_JITTER_SCALE, Kernel
from .learner import (ConstantBudget, ConstantStep, CubicBudget, LearnerConfig,
                      PolynomialStep, QuadraticBudget, ZeroBudget)


def _per_kind(key: str, rules: dict) -> dict:
    """Schema clauses that apply ``rules[kind]`` when ``key`` equals ``kind``."""
    return {"allOf": [{"if": {"required": [key], "properties": {key: {"const": k}}},
                       "then": then} for k, then in rules.items()]}


def _source_keys(required: list, optional: list) -> dict:
    return {"required": required,
            "propertyNames": {"enum": ["kind"] + required + optional}}


_KERNEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["family"],
    **_per_kind("family", {"gaussian": {"required": ["bandwidth"]}}),
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
                    **_per_kind("kind", {"constant": {"required": ["eta"]},
                                         "polynomial": {"required": ["eta0"]}}),
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
                    **_per_kind("kind", {"constant": {"required": ["eps"]},
                                         "quadratic": {"required": ["b_cmp"]},
                                         "cubic": {"required": ["b_cmp"]}}),
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
                    **_per_kind("kind", {
                        "duffing": _source_keys(["n_traj", "steps_per_traj"],
                                                ["seed", "init_box", "params"]),
                        "finite_chain": _source_keys(["model_path", "n_samples"],
                                                     ["burn_in", "seed"]),
                        "finite_iid": _source_keys(["model_path", "n_samples"], ["seed"]),
                        "csv": _source_keys(["path", "dim_x", "dim_y"], []),
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
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool)
                          or isinstance(v, float) and v.is_integer()),
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


def build_learner_config(data: dict) -> LearnerConfig:
    kx = Kernel.from_dict(data["kernel"])
    ky = Kernel.from_dict(data.get("kernel_y", data["kernel"]))
    lrn = data["learner"]
    step = lrn["step"]
    if step["kind"] == "constant":
        sched = ConstantStep(eta=step["eta"])
    else:
        sched = PolynomialStep(eta0=step["eta0"], t0=step.get("t0", 1.0),
                               p=step.get("p", 1.0))
    bud = lrn["budget"]
    if bud["kind"] == "zero":
        budget = ZeroBudget()
    elif bud["kind"] == "constant":
        budget = ConstantBudget(eps=bud["eps"])
    elif bud["kind"] == "quadratic":
        budget = QuadraticBudget(b_cmp=bud["b_cmp"])
    else:
        budget = CubicBudget(b_cmp=bud["b_cmp"])
    return LearnerConfig(
        lam=lrn["lambda"],
        step_schedule=sched,
        budget_schedule=budget,
        kernel_x=kx,
        kernel_y=ky,
        jitter_scale=lrn.get("jitter_scale", DEFAULT_JITTER_SCALE),
        max_dictionary=lrn.get("max_dictionary"),
        budget_squared=lrn.get("budget_squared", False),
    )


def read_stream_csv(path, dim_x: int, dim_y: int):
    """The stream CSV's ``(xs, ys)``; a malformed or non-finite value, or a
    wrong column count, raises ``InputError`` naming the file."""
    try:
        rows = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise InputError(f"stream CSV {path}: {exc}") from exc
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
    section = data["stream"]
    src = section["source"]
    interleave = section.get("interleave", "sequential")
    kind = src["kind"]
    if kind == "csv":
        return read_stream_csv(os.path.join(base_dir, src["path"]),
                               src["dim_x"], src["dim_y"])
    use_seed = seed if seed is not None else src.get("seed")
    if use_seed is None:
        raise ConfigError("invalid config at $.stream.source.seed: a seed is required")
    if kind == "duffing":
        params = DuffingParams(**src.get("params", {}))
        source = DuffingTrajectories(
            n_traj=src["n_traj"], steps_per_traj=src["steps_per_traj"],
            seed=use_seed,
            init_box=tuple(tuple(b) for b in src.get("init_box", [[-2, 2], [-2, 2]])),
            params=params)
    else:
        model = FiniteSpaceModel.load(os.path.join(base_dir, src["model_path"]))
        if kind == "finite_chain":
            source = FiniteChainStream(model=model, n_samples=src["n_samples"],
                                       burn_in=src.get("burn_in", 0), seed=use_seed)
        else:
            source = FiniteIIDStream(model=model, n_samples=src["n_samples"],
                                     seed=use_seed)
    return generate_stream(StreamSpec(source=source, interleave=interleave))
