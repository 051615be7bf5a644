import json
import os
import warnings

import jsonschema
import numpy as np
import pytest

from cmestream import (ConfigError, ConstantStep, DuffingParams, DuffingTrajectories,
                       FiniteChainStream, FiniteSpaceModel, Kernel, PolynomialStep,
                       QuadraticBudget, ZeroBudget, generate_stream,
                       load_rep, run_stream, save_rep)
from cmestream.cli import main
from cmestream.config import (CONFIG_SCHEMA, build_learner_config, build_stream,
                              load_config, read_stream_csv, validate_config,
                              write_stream_csv)
from conftest import run_child


def duffing_config(n_traj=4, steps=3, seed=7, budget=None, checkpoints=None,
                   lam=0.01):
    cfg = {
        "kernel": {"family": "gaussian", "bandwidth": 0.3},
        "learner": {
            "lambda": lam,
            "step": {"kind": "constant", "eta": 0.2},
            "budget": budget or {"kind": "zero"},
        },
        "stream": {
            "source": {"kind": "duffing", "n_traj": n_traj,
                       "steps_per_traj": steps, "seed": seed},
        },
    }
    if checkpoints:
        cfg["analysis"] = {"checkpoints": checkpoints}
    return cfg


def save_chain(path) -> FiniteSpaceModel:
    """A 2-state chain model, saved to ``path``."""
    model = FiniteSpaceModel.from_chain(np.array([[0.], [1.]]),
                                        np.array([[0.3, 0.7], [0.6, 0.4]]))
    model.save(path)
    return model


class TestConfigValidation:
    def test_valid_config_passes(self):
        validate_config(duffing_config())

    @pytest.mark.parametrize("section, key, value", [
        ("learner", "stepsize", 0.1),
        ("analysis", "grid", {"mins": [-2, -2], "maxs": [2, 2], "counts": [40, 40]}),
        ("analysis", "fields", [0]),
        ("analysis", "oracle", "exact"),
        ("analysis", "oracle_lambda", 0.1),
        ("analysis", "oracle_model", "chain.json"),
    ])
    def test_unknown_key_rejected_with_name(self, section, key, value):
        cfg = duffing_config()
        cfg.setdefault(section, {})[key] = value
        with pytest.raises(ConfigError, match=f"'{key}'"):
            validate_config(cfg)

    def test_unknown_top_level_key(self):
        cfg = duffing_config()
        cfg["extra_section"] = {}
        with pytest.raises(ConfigError, match="extra_section"):
            validate_config(cfg)

    def test_bad_enum_value(self):
        cfg = duffing_config()
        cfg["kernel"]["family"] = "laplacian"
        with pytest.raises(ConfigError, match="kernel"):
            validate_config(cfg)

    def test_source_keys_must_match_kind(self):
        cfg = duffing_config()
        cfg["stream"]["source"]["model_path"] = "x.json"
        with pytest.raises(ConfigError, match="model_path"):
            validate_config(cfg)

    @pytest.mark.parametrize("section, value, key", [
        (("learner", "step"), {"kind": "constant"}, "eta"),
        (("learner", "step"), {"kind": "polynomial", "t0": 5.0}, "eta0"),
        (("learner", "budget"), {"kind": "constant"}, "eps"),
        (("learner", "budget"), {"kind": "quadratic"}, "b_cmp"),
        (("learner", "budget"), {"kind": "cubic", "eps": 0.1}, "b_cmp"),
        (("kernel",), {"family": "gaussian"}, "bandwidth"),
        (("stream", "source"), {"kind": "duffing", "steps_per_traj": 3}, "n_traj"),
        (("stream", "source"), {"kind": "duffing", "n_traj": 3}, "steps_per_traj"),
        (("stream", "source"), {"kind": "finite_chain", "n_samples": 9}, "model_path"),
        (("stream", "source"), {"kind": "finite_iid", "model_path": "m.json"},
         "n_samples"),
        (("stream", "source"), {"kind": "csv", "dim_x": 2, "dim_y": 2}, "path"),
        (("stream", "source"), {"kind": "csv", "path": "s.csv", "dim_y": 2}, "dim_x"),
        (("stream", "source"), {"kind": "csv", "path": "s.csv", "dim_x": 2}, "dim_y"),
    ])
    def test_missing_per_kind_key_named(self, section, value, key):
        cfg = duffing_config()
        parent = cfg
        for name in section[:-1]:
            parent = parent[name]
        parent[section[-1]] = value
        with pytest.raises(ConfigError, match=f"'{key}' is a required property"):
            validate_config(cfg)

    def test_missing_required_section(self):
        cfg = duffing_config()
        del cfg["learner"]
        with pytest.raises(ConfigError):
            validate_config(cfg)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_rejected(self, tmp_path, literal):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(duffing_config()).replace(
            '"lambda": 0.01', f'"lambda": {literal}'))
        with pytest.raises(ConfigError, match=literal):
            load_config(path)

    def test_schema_is_json_serializable(self):
        json.dumps(CONFIG_SCHEMA)
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


class TestBuilders:
    def test_learner_config_constant(self):
        cfg = build_learner_config(duffing_config(lam=0.5))
        assert cfg.lam == 0.5
        assert cfg.step_schedule == ConstantStep(0.2)
        assert cfg.budget_schedule == ZeroBudget()
        assert cfg.kernel_x == Kernel.gaussian(0.3)

    def test_learner_config_polynomial_quadratic(self):
        raw = duffing_config(budget={"kind": "quadratic", "b_cmp": 1.0})
        raw["learner"]["step"] = {"kind": "polynomial", "eta0": 0.2, "t0": 50, "p": 1.0}
        cfg = build_learner_config(raw)
        assert cfg.step_schedule == PolynomialStep(0.2, 50, 1.0)
        assert cfg.budget_schedule == QuadraticBudget(1.0)

    def test_polynomial_defaults_are_the_library_defaults(self):
        raw = duffing_config()
        raw["learner"]["step"] = {"kind": "polynomial", "eta0": 0.2}
        assert build_learner_config(raw).step_schedule == PolynomialStep(eta0=0.2)

    def test_finite_chain_burn_in_defaults_to_the_library_default(self, tmp_path):
        model = save_chain(tmp_path / "chain.json")
        raw = duffing_config()
        raw["stream"]["source"] = {"kind": "finite_chain", "model_path": "chain.json",
                                   "n_samples": 40, "seed": 5}
        xs, ys = build_stream(raw, base_dir=str(tmp_path))
        ref = generate_stream(FiniteChainStream(
            model=model, n_samples=40, seed=5))
        assert np.array_equal(xs, ref[0]) and np.array_equal(ys, ref[1])

    def test_budget_squared_override(self):
        raw = duffing_config()
        raw["learner"]["budget_squared"] = True
        cfg = build_learner_config(raw)
        assert cfg.budget_squared

    def test_stream_seed_override(self, tmp_path):
        raw = duffing_config(seed=1)
        a = build_stream(raw, seed=2)
        b = build_stream({**raw}, seed=2)
        c = build_stream(raw)           # seed from config
        assert np.array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_duffing_box_and_params_map_onto_the_library(self):
        raw = duffing_config(n_traj=5, steps=7, seed=11)
        raw["stream"]["source"].update(
            init_box=[[-1, 0.5], [0, 1.5]],
            params={"delta": 0.3, "beta": -0.5, "alpha": 1.5,
                    "dt_integrator": 0.02, "sample_interval": 0.3})
        raw["stream"]["interleave"] = "round_robin"
        xs, ys = build_stream(raw)
        ref = generate_stream(DuffingTrajectories(
            n_traj=5, steps_per_traj=7, seed=11, init_box=((-1.0, 0.5), (0.0, 1.5)),
            params=DuffingParams(delta=0.3, beta=-0.5, alpha=1.5, dt_integrator=0.02,
                                 sample_interval=0.3), interleave="round_robin"))
        assert np.array_equal(xs.view(np.int64), ref[0].view(np.int64))
        assert np.array_equal(ys.view(np.int64), ref[1].view(np.int64))
        default = build_stream(duffing_config(n_traj=5, steps=7, seed=11))
        assert not np.array_equal(xs, default[0])

    @pytest.mark.parametrize("command", ["simulate", "learn"])
    @pytest.mark.parametrize("kind", ["duffing", "finite_chain"])
    def test_generated_source_needs_a_seed(self, tmp_path, capsys, command, kind):
        save_chain(tmp_path / "m.json")
        cfg = duffing_config()
        if kind == "finite_chain":
            cfg["stream"]["source"] = {"kind": kind, "model_path": "m.json",
                                       "n_samples": 20, "seed": 0}
        del cfg["stream"]["source"]["seed"]
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(command, "--config", tmp_path / "cfg.json", "--out", out) == 2
        assert "$.stream.source.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_stream_csv_rejects_seed_and_interleave(self, tmp_path, rng):
        write_stream_csv(tmp_path / "s.csv", rng.uniform(size=(3, 2)), rng.uniform(size=(3, 2)))
        raw = duffing_config()
        raw["stream"] = {"source": {"kind": "csv", "path": "s.csv", "dim_x": 2, "dim_y": 2}}
        assert build_stream(raw, base_dir=tmp_path)[0].shape == (3, 2)
        with pytest.raises(ConfigError, match="--seed"):
            build_stream(raw, base_dir=tmp_path, seed=5)
        raw["stream"]["interleave"] = "round_robin"
        with pytest.raises(ConfigError, match=r"\$\.stream\.interleave"):
            build_stream(raw, base_dir=tmp_path)

    def test_stream_csv_round_trip(self, tmp_path, rng):
        xs = rng.uniform(-1, 1, (7, 2))
        ys = rng.uniform(-1, 1, (7, 2))
        path = tmp_path / "stream.csv"
        write_stream_csv(path, xs, ys)
        xs2, ys2 = read_stream_csv(path, 2, 2)
        assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)

    def test_stream_csv_bytes_pinned(self, tmp_path, rng):
        xs = rng.normal(size=(50, 2))
        ys = rng.uniform(-1e3, 1e3, (50, 3))
        xs[0] = [-0.0, 1e-308]
        ys[0] = [1e300, 5e-324, 0.1 + 0.2]
        write_stream_csv(tmp_path / "s.csv", xs, ys)
        assert (tmp_path / "s.csv").read_text() == stream_csv_reference(xs, ys)


def stream_csv_reference(xs, ys) -> str:
    """The per-value formatter the stream CSV writer must match byte for byte."""
    return "".join(",".join(repr(float(v)) for v in list(x) + list(y)) + "\n"
                   for x, y in zip(xs, ys))


def run_cli(*args):
    return main([str(a) for a in args])


def chain_run(tmp_path):
    """``cme learn`` on a 60-step 3-state chain with 1-d states; returns
    the run dir (checkpoints 10 and 60) beside ``chain.json``."""
    pi = np.array([0.5, 0.3, 0.2])
    P = 0.5 * np.outer(np.ones(3), pi) + 0.5 * np.eye(3)
    model = FiniteSpaceModel.from_chain(np.array([[0.], [1.], [2.]]), P)
    model.save(tmp_path / "chain.json")
    cfg = {
        "kernel": {"family": "gaussian", "bandwidth": 0.5},
        "learner": {"lambda": 0.1,
                    "step": {"kind": "constant", "eta": 0.1},
                    "budget": {"kind": "zero"}},
        "stream": {"source": {"kind": "finite_chain", "model_path": "chain.json",
                              "n_samples": 60, "burn_in": 0, "seed": 3}},
        "analysis": {"checkpoints": [10, 60]},
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 0
    return out



@pytest.fixture
def duffing_cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(duffing_config(n_traj=4, steps=3, seed=7,
                                              checkpoints=[2, 6])))
    return path


class TestCliSimulate:
    def test_writes_stream(self, duffing_cfg_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("simulate", "--config", duffing_cfg_file, "--out", out) == 0
        rows = (out / "stream.csv").read_text().strip().splitlines()
        assert len(rows) == 12
        assert len(rows[0].split(",")) == 4

    def test_byte_identical_across_runs(self, duffing_cfg_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", "--config", duffing_cfg_file, "--out", out1)
        run_cli("simulate", "--config", duffing_cfg_file, "--out", out2)
        assert (out1 / "stream.csv").read_bytes() == (out2 / "stream.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = duffing_config()
        cfg["learner"]["unknown_knob"] = 1
        bad.write_text(json.dumps(cfg))
        assert run_cli("simulate", "--config", bad) == 2
        assert "unknown_knob" in capsys.readouterr().err


class TestCliLearn:
    def test_learn_outputs(self, duffing_cfg_file, tmp_path):
        out = tmp_path / "run"
        assert run_cli("learn", "--config", duffing_cfg_file, "--out", out) == 0
        trace = (out / "trace.csv").read_text().strip().splitlines()
        assert trace[0] == "t,accepted,delta,eps_t,eta_t,dict_size,hs_norm"
        assert len(trace) == 13
        model = json.loads((out / "model.json").read_text())
        assert len(model["dict"]) == 12      # zero budget admits everything
        assert (out / "checkpoint_2.json").exists()
        assert (out / "checkpoint_6.json").exists()

    @pytest.mark.parametrize("checkpoints", [[2, 6], [2, 12]])
    def test_model_file_is_save_rep_of_library_run(self, tmp_path, checkpoints):
        cfg_data = duffing_config(budget={"kind": "cubic", "b_cmp": 2.0},
                                  checkpoints=checkpoints)
        (tmp_path / "cfg.json").write_text(json.dumps(cfg_data))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 0
        xs, ys = build_stream(cfg_data)
        state, _ = run_stream(build_learner_config(cfg_data), zip(xs, ys))
        save_rep(state.snapshot_rep(), tmp_path / "ref.json")
        model = (out / "model.json").read_bytes()
        assert model == (tmp_path / "ref.json").read_bytes()
        if state.t in checkpoints:
            assert model == (out / f"checkpoint_{state.t}.json").read_bytes()
        assert np.array_equal(load_rep(out / "model.json").W, state.coefficients)

    def test_trace_is_run_stream_stats(self, tmp_path):
        cfg_data = duffing_config(budget={"kind": "cubic", "b_cmp": 2.0},
                                  checkpoints=[2, 6])
        (tmp_path / "cfg.json").write_text(json.dumps(cfg_data))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 0
        xs, ys = build_stream(cfg_data)
        state, _ = run_stream(build_learner_config(cfg_data), zip(xs, ys))
        rows = [",".join([str(r.t), str(int(r.accepted)), repr(float(r.delta)),
                          repr(float(r.eps)), repr(float(r.eta)), str(r.dict_size),
                          repr(float(r.hs_norm))]) for r in state.stats]
        assert (out / "trace.csv").read_text().splitlines() == (
            ["t,accepted,delta,eps_t,eta_t,dict_size,hs_norm"] + rows)

    def test_module_level_step_wrapper_sees_every_step(self, duffing_cfg_file, tmp_path,
                                                      monkeypatch):
        # the benchmark's step timer and tracer replace the module attribute
        from cmestream import learner
        calls, inner = [], learner.step

        def counted(state, cfg, sample):
            calls.append(state.t)
            return inner(state, cfg, sample)

        monkeypatch.setattr(learner, "step", counted)
        assert run_cli("learn", "--config", duffing_cfg_file, "--out", tmp_path / "run") == 0
        assert calls == list(range(12))

    def test_past_end_error_matches_run_stream(self, tmp_path, capsys):
        from cmestream import InputError
        from cmestream.cli import build_parser
        cfg_data = duffing_config(checkpoints=[5, 999])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg_data))
        args = build_parser().parse_args(["learn", "--config", str(path),
                                          "--out", str(tmp_path / "run")])
        with pytest.raises(InputError) as cli_err:
            args.func(args)
        xs, ys = build_stream(cfg_data)
        with pytest.raises(InputError) as lib_err:
            run_stream(build_learner_config(cfg_data), zip(xs, ys), checkpoints=[5, 999])
        assert str(cli_err.value) == str(lib_err.value) == (
            "checkpoint 999 is past the end of the 12-sample stream")
        assert not (tmp_path / "run").exists()

    def test_checkpoint_past_stream_end_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(duffing_config(checkpoints=[5, 999])))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", path, "--out", out) == 2
        assert "checkpoint 999" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, value, key", [
        (("learner", "step"), {"kind": "constant", "eta": 0.2, "eta0": 0.3}, "eta0"),
        (("learner", "budget"), {"kind": "zero", "eps": 0.5}, "eps"),
        (("kernel_y",), {"family": "linear", "bandwidth": 0.3}, "bandwidth"),
        (("kernel",), {"family": "gaussian", "bandwidth": 0.3, "bound": 2.0}, "bound"),
    ])
    def test_key_of_another_kind_writes_nothing(self, tmp_path, capsys, section, value,
                                                key):
        # the builders used to drop these keys and run with the kind's defaults
        cfg = duffing_config(checkpoints=[2])
        parent = cfg
        for name in section[:-1]:
            parent = parent[name]
        parent[section[-1]] = value
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, key", [
        ("kernel", "bandwidth"), ("learner", "jitter_scale"),
        ("stream.source.params", "sample_interval"),
        ("stream.source.params", "dt_integrator"), ("stream.source.init_box.1", 0)])
    def test_overflowing_setting_rejected(self, tmp_path, capsys, section, key):
        # 1e999 parses as inf, so it passes the schema but not the builders;
        # an infinite sample interval or box bound used to end in an
        # OverflowError, and an infinite integrator step ran 0 substeps
        path = tmp_path / "cfg.json"
        cfg = duffing_config(budget={"kind": "cubic", "b_cmp": 2.0})
        cfg["stream"]["source"].update(init_box=[[-2.0, 2.0], [-2.0, 2.0]], params={})
        parent = cfg
        for name in section.split("."):
            parent = parent[int(name) if name.isdigit() else name]
        parent[key] = 0.123456789
        path.write_text(json.dumps(cfg).replace("0.123456789", "1e999"))
        out = tmp_path / "run"
        # only the learner reads the kernel and learner sections
        for command in ("simulate", "learn") if section.startswith("stream") else ("learn",):
            assert run_cli(command, "--config", path, "--out", out) == 2
            assert "finite" in capsys.readouterr().err
            assert not out.exists()

    def test_nan_jitter_scale_exits_fast(self, tmp_path):
        # a NaN jitter never ended the factor's escalation loop
        cfg = duffing_config(budget={"kind": "cubic", "b_cmp": 2.0})
        cfg["learner"]["jitter_scale"] = float("nan")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))    # json writes the NaN literal
        out = tmp_path / "run"
        proc = run_child(tmp_path, "-m", "cmestream.cli", "learn", "--config", path,
                         "--out", out)
        assert proc.returncode == 2, proc.stderr
        assert "NaN" in proc.stderr and "Traceback" not in proc.stderr
        assert not out.exists()

    def test_failed_run_leaves_no_earlier_model(self, tmp_path):
        first, capped = tmp_path / "first.json", tmp_path / "capped.json"
        first.write_text(json.dumps(duffing_config()))
        cfg = duffing_config(checkpoints=[3])
        cfg["learner"]["max_dictionary"] = 5
        capped.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", first, "--out", out) == 0
        assert (out / "model.json").exists()
        assert run_cli("learn", "--config", capped, "--out", out) == 2
        assert len((out / "trace.csv").read_text().splitlines()) == 1 + 5
        assert len(load_rep(out / "checkpoint_3.json")) == 3   # written before the failure
        assert not (out / "model.json").exists()
        assert run_cli("koopman", "--model", out / "model.json") == 2

    def test_learn_deterministic(self, duffing_cfg_file, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        run_cli("learn", "--config", duffing_cfg_file, "--out", out1)
        run_cli("learn", "--config", duffing_cfg_file, "--out", out2)
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
        assert (out1 / "model.json").read_bytes() == (out2 / "model.json").read_bytes()

    def test_learn_from_csv_stream(self, tmp_path, rng):
        xs = rng.uniform(-1, 1, (5, 2))
        write_stream_csv(tmp_path / "s.csv", xs, xs)
        cfg = duffing_config()
        cfg["stream"]["source"] = {"kind": "csv", "path": "s.csv",
                                   "dim_x": 2, "dim_y": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 0
        assert len((out / "trace.csv").read_text().strip().splitlines()) == 6

    @pytest.mark.parametrize("row", ["0.1,0.2,abc,0.4", "0.1,nan,0.3,0.4",
                                     "0.1,0.2,0.3,-inf"])
    def test_bad_csv_value_writes_nothing(self, tmp_path, capsys, row):
        (tmp_path / "s.csv").write_text("0.5,0.5,0.5,0.5\n" + row + "\n")
        cfg = duffing_config()
        cfg["stream"]["source"] = {"kind": "csv", "path": "s.csv",
                                   "dim_x": 2, "dim_y": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 2
        assert "s.csv" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_empty_csv_stream_writes_nothing(self, tmp_path, capsys, text):
        (tmp_path / "s.csv").write_text(text)
        cfg = duffing_config()
        cfg["stream"]["source"] = {"kind": "csv", "path": "s.csv",
                                   "dim_x": 2, "dim_y": 2}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # numpy's "input contained no data" too
            assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "s.csv holds no sample pairs" in err
        assert not out.exists()

    @pytest.mark.parametrize("command, seed", [("simulate", "-1"), ("learn", "-3")])
    def test_negative_seed_writes_nothing(self, duffing_cfg_file, tmp_path, capsys,
                                          command, seed):
        out = tmp_path / "out"
        assert run_cli(command, "--config", duffing_cfg_file, "--out", out,
                       "--seed", seed) == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must be an integer >= 0, got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, extra, key", [
        ("simulate", {}, ["--seed", 5]),
        ("learn", {}, ["--seed", 5]),
        ("simulate", {"interleave": "round_robin"}, []),
        ("learn", {"interleave": "sequential"}, []),
        ("simulate", {"source": {"kind": "finite_chain", "model_path": "m.json",
                                 "n_samples": 50, "seed": 0},
                      "interleave": "round_robin"}, []),
        ("learn", {"source": {"kind": "finite_iid", "model_path": "m.json",
                              "n_samples": 50, "seed": 0},
                   "interleave": "round_robin"}, []),
    ])
    def test_csv_source_rejects_unused_settings(self, tmp_path, capsys, command, extra, key):
        # a csv stream is read as written: a seed or an interleave cannot act;
        # a finite source draws one sequence, so an interleave cannot act there
        (tmp_path / "s.csv").write_text("0.5,0.5,0.5,0.5\n0.1,0.2,0.3,0.4\n")
        save_chain(tmp_path / "m.json")
        cfg = duffing_config()
        cfg["stream"] = {"source": {"kind": "csv", "path": "s.csv",
                                    "dim_x": 2, "dim_y": 2}, **extra}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run_cli(command, "--config", tmp_path / "cfg.json", "--out", out, *key) == 2
        err = capsys.readouterr().err
        assert ("--seed" if key else "$.stream.interleave") in err
        assert cfg["stream"]["source"]["kind"] in err
        assert not out.exists()

    def test_budget_squared_flag_changes_decisions(self, tmp_path):
        cfg = duffing_config(n_traj=2, steps=10,
                             budget={"kind": "constant", "eps": 0.05})
        path, path_sq = tmp_path / "cfg.json", tmp_path / "cfg_sq.json"
        path.write_text(json.dumps(cfg))
        cfg["learner"]["budget_squared"] = True
        path_sq.write_text(json.dumps(cfg))
        out_sqrt, out_sq = tmp_path / "sqrt", tmp_path / "sq"
        run_cli("learn", "--config", path, "--out", out_sqrt)
        run_cli("learn", "--config", path_sq, "--out", out_sq)
        n_sqrt = json.loads((out_sqrt / "model.json").read_text())["dict"]
        n_sq = json.loads((out_sq / "model.json").read_text())["dict"]
        assert len(n_sq) != len(n_sqrt)


class TestIntegralFloatCounts:
    """The schema takes an integral float such as ``2.0`` as an integer;
    each such key runs exactly as its integer spelling does."""

    def config(self, run_dir, kind) -> dict:
        """A config with a ``kind`` source, its input files written to ``run_dir``."""
        cfg = duffing_config(checkpoints=[2, 6])
        if kind == "finite_chain":
            save_chain(run_dir / "chain.json")
            cfg["stream"]["source"] = {"kind": kind, "model_path": "chain.json",
                                       "n_samples": 12, "burn_in": 2, "seed": 3}
        elif kind == "csv":
            xs, ys = generate_stream(DuffingTrajectories(n_traj=3, steps_per_traj=4, seed=1))
            write_stream_csv(run_dir / "in.csv", xs, ys)
            cfg["stream"]["source"] = {"kind": kind, "path": "in.csv", "dim_x": 2, "dim_y": 2}
        elif kind == "capped":          # the dictionary limit ends the run at step 6
            cfg["learner"]["max_dictionary"] = 5
        return cfg

    def outputs(self, run_dir, capsys, cfg, monkeypatch) -> tuple:
        """Exit codes, printed text and written files of ``cme simulate`` and
        ``cme learn`` on ``cfg``, run from ``run_dir``."""
        (run_dir / "cfg.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(run_dir)
        printed = [(run_cli(command, "--config", "cfg.json", "--out", "out"),
                    capsys.readouterr()) for command in ("simulate", "learn")]
        files = {p.name: p.read_bytes() for p in sorted((run_dir / "out").iterdir())}
        return printed, files

    @pytest.mark.parametrize("kind, section, key", [
        ("duffing", "source", "n_traj"),
        ("duffing", "source", "steps_per_traj"),
        ("duffing", "source", "seed"),
        ("finite_chain", "source", "n_samples"),
        ("finite_chain", "source", "burn_in"),
        ("finite_chain", "source", "seed"),
        ("csv", "source", "dim_x"),
        ("csv", "source", "dim_y"),
        ("capped", "learner", "max_dictionary"),
    ])
    def test_float_spelling_runs_as_the_integer(self, tmp_path, capsys, monkeypatch,
                                                kind, section, key):
        runs = []
        for name in ("int", "float"):
            run_dir = tmp_path / name
            run_dir.mkdir()
            cfg = self.config(run_dir, kind)
            keys = cfg["learner"] if section == "learner" else cfg["stream"]["source"]
            if name == "float":
                keys[key] = float(keys[key])
                assert f'"{key}": {keys[key]!r}' in json.dumps(cfg)     # spelled k.0
            runs.append(self.outputs(run_dir, capsys, cfg, monkeypatch))
        assert runs[0] == runs[1]
        assert [code for code, _ in runs[0][0]] == [0, 2 if kind == "capped" else 0]


class TestCliKoopman:
    def test_spectrum_and_fields(self, duffing_cfg_file, tmp_path):
        out = tmp_path / "run"
        run_cli("learn", "--config", duffing_cfg_file, "--out", out)
        assert run_cli("koopman", "--model", out / "model.json", "--k", 3,
                       "--grid-min=-2,-2", "--grid-max", "2,2",
                       "--grid-counts", "5,5", "--fields", "0") == 0
        spec = json.loads((out / "spectrum.json").read_text())
        assert len(spec["eigenvalues"]) == 3
        assert not spec["degenerate"]
        assert max(spec["residuals"]) <= 1e-6
        field = (out / "eigfield_0.csv").read_text().strip().splitlines()
        assert field[0] == "x1,x2,re,im"
        assert len(field) == 26

    @pytest.mark.parametrize("flags", [
        ("--k", 3, "--fields", 5),
        ("--fields", "0,7"),
        ("--fields", "0,0,7"),
        ("--grid-counts", "1,1"),
        ("--grid-min", "nan,-2"),
        ("--grid-max", "inf,2"),
    ])
    def test_flag_error_writes_nothing(self, duffing_cfg_file, tmp_path, flags):
        run_cli("learn", "--config", duffing_cfg_file, "--out", tmp_path / "run")
        out = tmp_path / "koopman"
        assert run_cli("koopman", "--model", tmp_path / "run" / "model.json",
                       "--out", out, *flags) == 2
        assert not (out / "spectrum.json").exists()
        assert not list(out.glob("eigfield_*.csv"))

    def test_grid_checked_before_the_model_is_read(self, tmp_path, capsys):
        # a bad grid flag exits before the model is loaded and analysed
        assert run_cli("koopman", "--model", tmp_path / "missing.json",
                       "--grid-max", "inf,2") == 2
        assert "grid bounds must be finite" in capsys.readouterr().err

    def test_duplicate_fields_evaluated_once(self, duffing_cfg_file, tmp_path, capsys):
        run_cli("learn", "--config", duffing_cfg_file, "--out", tmp_path / "run")
        out = tmp_path / "koopman"
        assert run_cli("koopman", "--model", tmp_path / "run" / "model.json", "--k", 3,
                       "--grid-counts", "5,5", "--fields", "2,0,2,0", "--out", out) == 0
        assert "and 2 field grids" in capsys.readouterr().out
        assert sorted(p.name for p in out.glob("eigfield_*.csv")) == [
            "eigfield_0.csv", "eigfield_2.csv"]

    def test_zero_model_degenerate_flag(self, tmp_path, gauss03, rng):
        from cmestream import Dictionary, OperatorRep, save_rep
        xs = rng.uniform(-1, 1, (3, 2))
        rep = OperatorRep(dict=Dictionary(xs, xs.copy()), W=np.zeros((3, 3)),
                          kernel_x=gauss03, kernel_y=gauss03)
        save_rep(rep, tmp_path / "model.json")
        assert run_cli("koopman", "--model", tmp_path / "model.json", "--k", 2,
                       "--out", tmp_path) == 0
        spec = json.loads((tmp_path / "spectrum.json").read_text())
        assert spec["degenerate"]
        assert not (tmp_path / "eigfield_0.csv").exists()

    def test_grid_dimension_mismatch_writes_nothing(self, tmp_path, capsys):
        # the spectrum used to be written before the 2-d grid met 1-d points
        run = chain_run(tmp_path)
        out = tmp_path / "koopman"
        assert run_cli("koopman", "--model", run / "model.json", "--k", 2,
                       "--out", out) == 2
        assert "1-d" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("koopman", "--model", run / "model.json", "--k", 2,
                       "--fields", "", "--out", out) == 0
        assert len(json.loads((out / "spectrum.json").read_text())["eigenvalues"]) == 2
        assert not list(out.glob("eigfield_*.csv"))

    def test_dim_mismatch_is_input_error(self, tmp_path, gauss03, rng):
        from cmestream import Dictionary, OperatorRep, save_rep
        rep = OperatorRep(dict=Dictionary(rng.uniform(size=(2, 2)),
                                          rng.uniform(size=(2, 3))),
                          W=np.zeros((2, 2)), kernel_x=gauss03, kernel_y=gauss03)
        save_rep(rep, tmp_path / "model.json")
        assert run_cli("koopman", "--model", tmp_path / "model.json") == 2


class TestCliCompare:
    def test_batch_oracle(self, duffing_cfg_file, tmp_path):
        out = tmp_path / "run"
        run_cli("learn", "--config", duffing_cfg_file, "--out", out)
        run_cli("simulate", "--config", duffing_cfg_file, "--out", out)
        assert run_cli("compare", "--run-dir", out, "--oracle", "batch",
                       "--stream", out / "stream.csv", "--lambda", "0.01") == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        assert rows[0] == "t,hs_distance"
        assert len(rows) == 3
        ts = [int(r.split(",")[0]) for r in rows[1:]]
        assert ts == [2, 6]

    def test_earlier_run_checkpoints_cleared(self, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        first.write_text(json.dumps(duffing_config(n_traj=30, steps=10,
                                                   checkpoints=[100, 300])))
        second.write_text(json.dumps(duffing_config(n_traj=20, steps=10,
                                                    checkpoints=[50, 200])))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", first, "--out", out) == 0
        assert run_cli("learn", "--config", second, "--out", out) == 0
        assert run_cli("simulate", "--config", second, "--out", out) == 0
        assert run_cli("compare", "--run-dir", out, "--oracle", "batch",
                       "--stream", out / "stream.csv", "--lambda", "0.01") == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()[1:]
        assert [int(r.split(",")[0]) for r in rows] == [50, 200]
        assert sorted(p.name for p in out.glob("checkpoint_*.json")) == [
            "checkpoint_200.json", "checkpoint_50.json"]

    def test_exact_oracle(self, tmp_path):
        out = chain_run(tmp_path)
        assert run_cli("compare", "--run-dir", out, "--oracle", "exact",
                       "--model-json", tmp_path / "chain.json",
                       "--lambda", "0.1") == 0
        rows = (out / "convergence.csv").read_text().strip().splitlines()
        d10, d60 = (float(r.split(",")[1]) for r in rows[1:])
        assert d60 < d10        # learning reduces oracle distance

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("lam", ["inf", "nan", "-inf"])
    @pytest.mark.parametrize("oracle", ["batch", "exact"])
    def test_non_finite_lambda_rejected(self, tmp_path, capsys, oracle, lam):
        # the solves used to warn and then fail on non-finite coefficients
        out = chain_run(tmp_path)
        assert run_cli("simulate", "--config", tmp_path / "cfg.json", "--out", out) == 0
        assert run_cli("compare", "--run-dir", out, "--oracle", oracle,
                       "--stream", out / "stream.csv",
                       "--model-json", tmp_path / "chain.json", f"--lambda={lam}") == 2
        assert "lambda must be positive and finite" in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    @pytest.mark.parametrize("oracle, flag", [("batch", "--stream"),
                                              ("exact", "--model-json")])
    def test_oracle_needs_its_input(self, tmp_path, capsys, oracle, flag):
        out = chain_run(tmp_path)
        assert run_cli("compare", "--run-dir", out, "--oracle", oracle,
                       "--lambda", "0.1") == 2
        assert flag in capsys.readouterr().err
        assert not (out / "convergence.csv").exists()

    def test_missing_checkpoints_error(self, tmp_path, gauss03, rng):
        from cmestream import Dictionary, OperatorRep, save_rep
        os.makedirs(tmp_path / "empty", exist_ok=True)
        xs = rng.uniform(size=(2, 2))
        rep = OperatorRep(dict=Dictionary(xs, xs.copy()), W=np.zeros((2, 2)),
                          kernel_x=gauss03, kernel_y=gauss03)
        save_rep(rep, tmp_path / "empty" / "model.json")
        assert run_cli("compare", "--run-dir", tmp_path / "empty",
                       "--oracle", "exact", "--model-json", "x.json",
                       "--lambda", "0.1") == 2


def named_in_error(shape: str) -> str:
    return "not a JSON document" if shape == "not-json" else shape.split("-", 1)[1]


def malformed(document: dict, shape: str) -> str:
    """The text of a model file broken in the way ``shape`` names."""
    if shape == "not-json":
        return json.dumps(document)[:-1]
    doc = dict(document)
    if shape.startswith("no-"):
        del doc[shape[3:]]
    else:                               # "bad-<key>": a value of the wrong size
        key = shape[4:]
        doc[key] = doc[key][:-1]
    return json.dumps(doc)


REP_SHAPES = ["not-json", "no-kernel_y", "bad-W"]


class TestMalformedModelFiles:
    """A broken model file is an input error (exit 2) naming the file and
    the key, not a traceback."""

    @pytest.fixture
    def run_dir(self, duffing_cfg_file, tmp_path):
        out = tmp_path / "run"
        assert run_cli("learn", "--config", duffing_cfg_file, "--out", out) == 0
        return out

    @pytest.mark.parametrize("shape", REP_SHAPES)
    def test_koopman_model(self, run_dir, capsys, shape):
        path = run_dir / "model.json"
        path.write_text(malformed(json.loads(path.read_text()), shape))
        assert run_cli("koopman", "--model", path, "--out", run_dir / "k") == 2
        err = capsys.readouterr().err
        assert str(path) in err and named_in_error(shape) in err
        assert not (run_dir / "k").exists()

    @pytest.mark.parametrize("shape", REP_SHAPES)
    def test_compare_checkpoint(self, run_dir, capsys, shape):
        path = run_dir / "checkpoint_6.json"
        path.write_text(malformed(json.loads(path.read_text()), shape))
        run_cli("simulate", "--config", run_dir.parent / "cfg.json", "--out", run_dir)
        assert run_cli("compare", "--run-dir", run_dir, "--oracle", "batch",
                       "--stream", run_dir / "stream.csv", "--lambda", "0.01") == 2
        err = capsys.readouterr().err
        assert str(path) in err and named_in_error(shape) in err
        assert not (run_dir / "convergence.csv").exists()

    @pytest.mark.parametrize("shape", ["not-json", "no-joint", "bad-joint"])
    def test_finite_chain_model_path(self, tmp_path, capsys, shape):
        model = FiniteSpaceModel.from_chain(np.array([[0.], [1.]]),
                                            np.array([[0.5, 0.5], [0.5, 0.5]]))
        (tmp_path / "chain.json").write_text(malformed(model.to_dict(), shape))
        cfg = duffing_config()
        cfg["stream"]["source"] = {"kind": "finite_chain", "model_path": "chain.json",
                                   "n_samples": 10, "seed": 0}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        out = tmp_path / "run"
        assert run_cli("learn", "--config", tmp_path / "cfg.json", "--out", out) == 2
        err = capsys.readouterr().err
        assert "chain.json" in err and named_in_error(shape) in err
        assert not out.exists()


class TestCliSchema:
    def test_schema_subcommand(self, capsys):
        assert run_cli("schema") == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert parsed["title"].startswith("cmestream")
