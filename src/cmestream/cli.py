"""Command-line experiment runner.

Subcommands: ``simulate`` (emit a stream CSV), ``learn`` (run the online
learner, writing a per-step trace, the final model, and checkpoints),
``koopman`` (spectrum and eigenfunction grids from a saved model),
``compare`` (distances from checkpoints to a batch or exact oracle) and
``schema`` (print the normative config schema).  All outputs are plain CSV
or JSON and deterministic given config and seed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import shutil
import sys


def _float_repr(v) -> str:
    return repr(float(v))


def _checkpoint_files(run_dir) -> list:
    """Sorted ``(t, path)`` of the ``checkpoint_<t>.json`` files in ``run_dir``."""
    found = []
    for path in glob.glob(os.path.join(run_dir, "checkpoint_*.json")):
        m = re.match(r"checkpoint_(\d+)\.json$", os.path.basename(path))
        if m:
            found.append((int(m.group(1)), path))
    return sorted(found)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def cmd_simulate(args) -> int:
    from .config import build_stream, load_config, write_stream_csv

    cfg = load_config(args.config)
    base = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out or cfg.get("outputs", {}).get("dir", ".")
    xs, ys = build_stream(cfg, base_dir=base, seed=args.seed)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "stream.csv")
    write_stream_csv(path, xs, ys)
    print(f"wrote {len(xs)} sample pairs to {path}")
    return 0


_TRACE_HEADER = "t,accepted,delta,eps_t,eta_t,dict_size,hs_norm"


def cmd_learn(args) -> int:
    from .config import build_learner_config, build_stream, load_config
    from .learner import checkpoint_marks, run_stream
    from .operator import save_rep

    cfg_data = load_config(args.config)
    base = os.path.dirname(os.path.abspath(args.config))
    out_dir = args.out or cfg_data.get("outputs", {}).get("dir", ".")
    cfg = build_learner_config(cfg_data)
    xs, ys = build_stream(cfg_data, base_dir=base, seed=args.seed)
    marks = checkpoint_marks(cfg_data.get("analysis", {}).get("checkpoints"), len(xs))
    os.makedirs(out_dir, exist_ok=True)
    # every earlier checkpoint and model goes, so a run that fails midway
    # leaves only its own outputs
    model_path = os.path.join(out_dir, "model.json")
    for _, path in _checkpoint_files(out_dir):
        os.remove(path)
    if os.path.exists(model_path):
        os.remove(model_path)

    with open(os.path.join(out_dir, "trace.csv"), "w") as trace:
        trace.write(_TRACE_HEADER + "\n")

        def record(state):
            rec = state.stats[-1]
            trace.write(",".join([
                str(rec.t), str(int(rec.accepted)), _float_repr(rec.delta),
                _float_repr(rec.eps), _float_repr(rec.eta),
                str(rec.dict_size), _float_repr(rec.hs_norm),
            ]) + "\n")
            if rec.t in marks:
                save_rep(state.snapshot_rep(),
                         os.path.join(out_dir, f"checkpoint_{rec.t}.json"))

        state, _ = run_stream(cfg, zip(xs, ys), on_step=record)
    if state.t in marks:            # the last step's snapshot is already on disk
        shutil.copyfile(os.path.join(out_dir, f"checkpoint_{state.t}.json"), model_path)
    else:
        save_rep(state.snapshot_rep(), model_path)
    print(f"processed {state.t} samples; final dictionary size {state.dict_size}")
    return 0


def cmd_koopman(args) -> int:
    from .errors import InputError
    from .koopman import GridSpec, grid_eval, koopman_spectrum
    from .operator import load_rep

    rep = load_rep(args.model)
    spec = koopman_spectrum(rep, args.k)
    grid = GridSpec(mins=tuple(args.grid_min), maxs=tuple(args.grid_max),
                    counts=tuple(args.grid_counts))
    fields = args.fields if args.fields is not None else range(len(spec))
    fields = list(dict.fromkeys(fields))        # each index once, in the order given
    for idx in fields:
        if not 0 <= idx < len(spec):
            raise InputError(f"eigenfunction index {idx} out of range")
    degenerate = bool((abs(spec.eigenvalues) < 1e-12).all())
    if fields and not degenerate and rep.dict.dim_x != len(grid.mins):
        raise InputError(f"the grid is {len(grid.mins)}-d but the model's x points "
                         f"are {rep.dict.dim_x}-d; pass --fields '' for the spectrum alone")
    out_dir = args.out or os.path.dirname(os.path.abspath(args.model)) or "."
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "eigenvalues": [[v.real, v.imag] for v in spec.eigenvalues],
        "eigenvectors": [[[c.real, c.imag] for c in spec.eigenvectors[:, i]]
                         for i in range(len(spec))],
        "residuals": list(map(float, spec.residuals)),
        "dict_size": len(rep),
        "degenerate": degenerate,
    }
    _write_json(os.path.join(out_dir, "spectrum.json"), payload)
    if degenerate:
        print("spectrum is identically zero; skipping eigenfunction fields")
        return 0
    pts = grid.points()
    for idx in fields:
        field = grid_eval(spec, idx, grid)
        path = os.path.join(out_dir, f"eigfield_{idx}.csv")
        with open(path, "w") as fh:
            fh.write("x1,x2,re,im\n")
            for p, v in zip(pts, field.values):
                fh.write(f"{_float_repr(p[0])},{_float_repr(p[1])},"
                         f"{_float_repr(v.real)},{_float_repr(v.imag)}\n")
    print(f"wrote spectrum ({len(spec)} eigenvalues) and {len(fields)} field grids "
          f"to {out_dir}")
    return 0


def cmd_compare(args) -> int:
    from .batch import (FiniteSpaceModel, batch_solution, distance_to_oracle,
                        exact_finite_cme)
    from .config import read_stream_csv
    from .errors import InputError
    from .operator import load_rep

    run_dir = args.run_dir
    model_path = os.path.join(run_dir, "model.json")
    final = load_rep(model_path)
    checkpoints = [(t, load_rep(path)) for t, path in _checkpoint_files(run_dir)]
    if not checkpoints:
        raise InputError(f"no checkpoint_<t>.json files found in {run_dir}")

    if args.oracle == "batch":
        if not args.stream:
            raise InputError("--oracle batch needs --stream CSV")
        xs, ys = read_stream_csv(args.stream, final.dict.dim_x, final.dict.dim_y)
        ref = batch_solution(list(zip(xs, ys)), args.lam,
                             final.kernel_x, final.kernel_y).rep
    else:
        if not args.model_json:
            raise InputError("--oracle exact needs --model-json")
        model = FiniteSpaceModel.load(args.model_json)
        ref = exact_finite_cme(model, args.lam, final.kernel_x, final.kernel_y)

    out_dir = args.out or run_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "convergence.csv")
    with open(path, "w") as fh:
        fh.write("t,hs_distance\n")
        for t, rep in checkpoints:
            fh.write(f"{t},{_float_repr(distance_to_oracle(rep, ref))}\n")
    print(f"wrote {len(checkpoints)} oracle distances to {path}")
    return 0


def cmd_schema(_args) -> int:
    from .config import CONFIG_SCHEMA

    json.dump(CONFIG_SCHEMA, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _csv_ints(text):
    return [int(v) for v in text.split(",") if v != ""]


def _csv_floats(text):
    return [float(v) for v in text.split(",") if v != ""]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cme",
        description="Streaming conditional-mean-embedding learning and analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="emit a sample stream CSV")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out", default=None)
    sim.add_argument("--seed", type=int, default=None)
    sim.set_defaults(func=cmd_simulate)

    lrn = sub.add_parser("learn", help="run the online learner")
    lrn.add_argument("--config", required=True)
    lrn.add_argument("--out", default=None)
    lrn.add_argument("--seed", type=int, default=None)
    lrn.set_defaults(func=cmd_learn)

    kp = sub.add_parser("koopman", help="spectrum and eigenfunction grids")
    kp.add_argument("--model", required=True)
    kp.add_argument("--k", type=int, default=5)
    kp.add_argument("--grid-min", type=_csv_floats, default=[-2.0, -2.0])
    kp.add_argument("--grid-max", type=_csv_floats, default=[2.0, 2.0])
    kp.add_argument("--grid-counts", type=_csv_ints, default=[40, 40])
    kp.add_argument("--fields", type=_csv_ints, default=None,
                    help="eigenfunction indices to evaluate (default: all k)")
    kp.add_argument("--out", default=None)
    kp.set_defaults(func=cmd_koopman)

    cmp_ = sub.add_parser("compare", help="checkpoint distances to an oracle")
    cmp_.add_argument("--run-dir", required=True)
    cmp_.add_argument("--oracle", choices=["batch", "exact"], required=True)
    cmp_.add_argument("--stream", default=None, help="stream CSV (batch oracle)")
    cmp_.add_argument("--model-json", default=None, help="finite model JSON (exact oracle)")
    cmp_.add_argument("--lambda", dest="lam", type=float, required=True)
    cmp_.add_argument("--out", default=None)
    cmp_.set_defaults(func=cmd_compare)

    sch = sub.add_parser("schema", help="print the config JSON schema")
    sch.set_defaults(func=cmd_schema)
    return parser


def main(argv=None) -> int:
    from .errors import CmeError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CmeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
