"""``config.validate_config`` against ``jsonschema`` as the oracle.

The config module interprets ``CONFIG_SCHEMA`` itself; these tests hold it
to ``Draft202012Validator.iter_errors`` error for error (path and message)
and to ``best_match`` for the one error ``cme`` reports, on every config
the README, the benchmark and the tests build and on mutations of them.
"""

import copy
import importlib.util
import json
import os
import re
import sys

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmestream import ConfigError, config
from cmestream.config import CONFIG_SCHEMA, validate_config
from conftest import run_child
from test_config_cli import duffing_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


def readme_config() -> dict:
    with open(os.path.join(ROOT, "README.md")) as fh:
        return json.loads(re.search(r"```json\n(.*?)```", fh.read(), re.S).group(1))


def bench_configs() -> list:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)      # dataclasses look their module up
    return [s.config(seed) for s in workloads.SPECS.values() for seed in (0, 7)]


def suite_configs() -> list:
    """The configs the other test modules build, valid and invalid."""
    polynomial = duffing_config(budget={"kind": "quadratic", "b_cmp": 1.0})
    polynomial["learner"]["step"] = {"kind": "polynomial", "eta0": 0.2, "t0": 50, "p": 1.0}
    squared = duffing_config(n_traj=2, steps=10, budget={"kind": "constant", "eps": 0.05})
    squared["learner"].update(budget_squared=True, jitter_scale=1e-9,
                              max_dictionary=None)
    capped = duffing_config(checkpoints=[2, 6])
    capped["learner"]["max_dictionary"] = 5
    capped["kernel_y"] = {"family": "linear", "bound": 2.0}
    sources = [
        {"kind": "csv", "path": "s.csv", "dim_x": 2, "dim_y": 2},
        {"kind": "finite_chain", "model_path": "chain.json", "n_samples": 60,
         "burn_in": 0, "seed": 3},
        {"kind": "finite_iid", "model_path": "m.json", "n_samples": 9, "seed": 1},
        {"kind": "duffing", "steps_per_traj": 3},
        {"kind": "csv", "path": "s.csv", "dim_x": 2},
    ]
    other_sources = []
    for source in sources:
        cfg = duffing_config()
        cfg["stream"]["source"] = source
        other_sources.append(cfg)
    return [duffing_config(), duffing_config(budget={"kind": "cubic", "b_cmp": 2.0},
                                             checkpoints=[2, 12]),
            polynomial, squared, capped, *other_sources]


BASES = [readme_config(), *bench_configs(), *suite_configs()]


def schema_names(schema) -> set:
    """Every property name that ``CONFIG_SCHEMA`` declares anywhere."""
    if isinstance(schema, list):
        return set().union(*map(schema_names, schema))
    if not isinstance(schema, dict):
        return set()
    names = set(schema.get("properties", {}))
    return names.union(*map(schema_names, schema.values()))


NAMES = sorted(schema_names(CONFIG_SCHEMA)) + ["extra", "Kind", "two words", ""]
VALUES = [None, True, False, 0, 1, -1, 3, 2.0, 0.5, -0.5, float("inf"), float("nan"),
          "gaussian", "zero", "duffing", "constant", "x", [], [0, 1], [[-2, 2], [-2]],
          [[-2, 2], [-2, 2], [0, 1]], [1, "a"], {}, {"kind": "zero"},
          {"family": "linear"}]


def nodes(doc) -> list:
    """Every dict and list in ``doc``, ``doc`` itself included."""
    found = [doc]
    for child in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(child, (dict, list)):
            found += nodes(child)
    return found


@st.composite
def mutated_configs(draw):
    """A base config with one to four keys dropped, added, retyped or
    re-signed."""
    cfg = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        node = draw(st.sampled_from(nodes(cfg)))
        slots = list(node) if isinstance(node, dict) else list(range(len(node)))
        op = draw(st.sampled_from(["drop", "add", "retype", "resign"]))
        if op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(NAMES))] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif not slots:
            continue
        elif op == "drop":
            del node[draw(st.sampled_from(slots))]
        elif op == "retype":
            node[draw(st.sampled_from(slots))] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        else:
            signed = [s for s in slots if isinstance(node[s], (int, float))
                      and not isinstance(node[s], bool)]
            if signed:
                slot = draw(st.sampled_from(signed))
                node[slot] = -node[slot]
    return cfg


def oracle_errors(cfg) -> list:
    return sorted((e.json_path, e.message) for e in VALIDATOR.iter_errors(cfg))


def interpreter_errors(cfg) -> list:
    return sorted((config._json_path(path), message)
                  for path, message, _ in config._errors(CONFIG_SCHEMA, cfg))


def oracle_message(cfg):
    """What ``validate_config`` reported when it ran ``jsonschema``."""
    errors = sorted(VALIDATOR.iter_errors(cfg), key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    err = jsonschema.exceptions.best_match(errors)
    where = err.json_path if err.json_path != "$" else "config root"
    return f"invalid config at {where}: {err.message}"


def reported_message(cfg):
    try:
        validate_config(cfg)
    except ConfigError as exc:
        return str(exc)
    return None


class TestAgreesWithJsonschema:
    @pytest.mark.parametrize("cfg", BASES)
    def test_base_configs(self, cfg):
        assert oracle_errors(cfg) == interpreter_errors(cfg)
        assert reported_message(cfg) == oracle_message(cfg)

    def test_bases_cover_valid_and_invalid(self):
        valid = [not oracle_errors(cfg) for cfg in BASES]
        assert any(valid) and not all(valid)

    @given(cfg=mutated_configs())
    @settings(max_examples=400, deadline=None)
    def test_error_set(self, cfg):
        assert oracle_errors(cfg) == interpreter_errors(cfg)

    @given(cfg=mutated_configs())
    @settings(max_examples=400, deadline=None)
    def test_reported_error(self, cfg):
        assert reported_message(cfg) == oracle_message(cfg)

    @pytest.mark.parametrize("cfg", [
        [], "config", None, 3,
        {"kernel": True, "learner": 1.0, "stream": []},
        {"kernel": {"family": "gaussian", "bandwidth": True}, "learner": {},
         "stream": {"source": {"kind": "duffing", "n_traj": 2.0,
                               "steps_per_traj": 2.5, "seed": -0.0}}},
    ])
    def test_odd_documents(self, cfg):
        assert oracle_errors(cfg) == interpreter_errors(cfg)
        assert reported_message(cfg) == oracle_message(cfg)


# What the interpreter implements, with the argument shapes it accepts.
KEYWORD_ARGS = {
    "$schema": str, "title": str, "type": (str, list), "enum": list, "const": str,
    "required": list, "properties": dict, "additionalProperties": bool,
    "propertyNames": dict, "allOf": list, "if": dict, "then": dict,
    "minimum": (int, float), "exclusiveMinimum": (int, float), "items": dict,
    "minItems": int, "maxItems": int,
}


def subschemas(schema):
    yield schema
    for key, arg in schema.items():
        if key == "properties":
            for sub in arg.values():
                yield from subschemas(sub)
        elif key == "allOf":
            for sub in arg:
                yield from subschemas(sub)
        elif key in ("if", "then", "items", "propertyNames"):
            yield from subschemas(arg)


def test_schema_uses_only_interpreted_keywords():
    """``config._errors`` ignores a keyword it does not know, so a schema
    edit that adds one must fail here first."""
    for schema in subschemas(CONFIG_SCHEMA):
        for key, arg in schema.items():
            assert key in KEYWORD_ARGS, key
            assert isinstance(arg, KEYWORD_ARGS[key]), (key, arg)
        assert schema.get("additionalProperties", False) is False
        assert all(isinstance(v, str) for v in schema.get("enum", []))
        for name in schema.get("properties", {}):   # json paths need no quoting
            assert re.fullmatch(r"[a-zA-Z][a-zA-Z0-9_]*", name), name
        if "then" in schema:
            assert "if" in schema


def test_cli_never_imports_jsonschema(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(duffing_config(checkpoints=[2])))
    code = f"""
import sys
from cmestream.cli import main
for command in ("simulate", "learn"):
    assert main([command, "--config", {str(cfg)!r}, "--out", {str(out)!r}]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("jsonschema", "referencing")))
"""
    proc = run_child(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (out / "stream.csv").exists() and (out / "model.json").exists()


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is Python 3.11+")
def test_jsonschema_is_a_test_dependency_only():
    import tomllib

    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    runtime = [re.split(r"[<>=!~ \[]", dep)[0] for dep in project["dependencies"]]
    assert runtime == ["numpy"]
    assert any(dep.startswith("jsonschema") for dep in project["optional-dependencies"]["test"])
