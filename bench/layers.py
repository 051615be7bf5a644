"""The traced run: spans around the program's public functions, and the
per-layer metrics derived from them.

A traced repetition is one whole unit of the workload's work: for an
in-process workload, load the config, generate the stream, fold it, take
a snapshot and run the analysis once; for ``cli-pipeline``, ``cme learn``
and then ``cme koopman`` through ``cli.main`` in this process.  Counts come
from the first repetition and must repeat exactly in every other one;
times are medians over repetitions.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np

import workloads as wl
from tracer import Tracer

# (span name, owner, attribute); owners are resolved against the program.
TARGETS = (
    ("learner.step", "learner", "step"),
    ("kernels.kernel_vector", "kernels.GramCache", "kernel_vector"),
    ("kernels.append", "kernels.GramCache", "append"),
    ("kernels.inverse", "kernels.GramCache", "inverse"),
    ("kernels.eval_kernel", "kernels", "eval_kernel"),
    ("kernels.woodbury_append", "kernels", "woodbury_append"),
    ("kernels.inverse_with_jitter", "kernels", "inverse_with_jitter"),
    ("kernels.cross_gram", "kernels", "cross_gram"),
    ("operator.snapshot_rep", "learner.LearnerState", "snapshot_rep"),
    ("operator.rep_to_dict", "operator", "rep_to_dict"),
    ("koopman.koopman_spectrum", "koopman", "koopman_spectrum"),
    ("koopman.koopman_matrix", "koopman", "koopman_matrix"),
    ("koopman.eigen_spectrum", "koopman", "eigen_spectrum"),
    ("koopman.grid_eval", "koopman", "grid_eval"),
    ("koopman.eval_eigenfunction", "koopman", "eval_eigenfunction"),
    ("dynamics.generate_stream", "dynamics", "generate_stream"),
    ("config.load_config", "config", "load_config"),
    ("cli.learn", "cli", "cmd_learn"),
    ("cli.koopman", "cli", "cmd_koopman"),
)

# Woodbury updates and jittered rebuilds count as part of the Gram upkeep
# that called them (GramCache.append or GramCache.inverse).
TRANSPARENT = frozenset({"kernels.woodbury_append", "kernels.inverse_with_jitter"})

# Calls reported by the JSON result on every workload.
COUNTED = ("learner.step", "kernels.kernel_vector", "kernels.eval_kernel",
           "kernels.append", "kernels.inverse", "kernels.inverse_with_jitter",
           "kernels.woodbury_append", "kernels.cross_gram", "operator.snapshot_rep",
           "operator.rep_to_dict", "koopman.koopman_matrix", "koopman.eigen_spectrum",
           "koopman.eval_eigenfunction")
# Self times reported by the JSON result: layers every workload runs.
TIMED = ("learner.step", "kernels.kernel_vector", "kernels.eval_kernel",
         "kernels.append", "kernels.cross_gram", "koopman.koopman_matrix",
         "koopman.eigen_spectrum", "koopman.eval_eigenfunction",
         "operator.snapshot_rep")
# Self times printed in the report only: some workloads never run them.
REPORTED = ("kernels.inverse", "operator.rep_to_dict", "koopman.grid_eval",
            "cli.learn", "cli.koopman")
# Children of learner.step, for the step-time breakdown.
STEP_LAYERS = ("learner.step", "kernels.kernel_vector", "kernels.eval_kernel",
               "kernels.append", "kernels.inverse")


@dataclass
class Traced:
    """What a traced run measured, for ``assemble``."""
    tracer: Tracer
    aggs: list                  # per traced repetition: Tracer.aggregate()
    rates: list                 # traced steps per second, per repetition
    untraced: float             # untraced steps per second (median)
    lat_us: np.ndarray          # untraced step latencies
    d_before: np.ndarray        # dictionary size before each of those steps
    meta: dict                  # workloads.state_meta() of a finished run
    analysis_s: float           # untraced Koopman analysis time (median)
    out_bytes: tuple = (0, 0)   # CLI trace CSV and JSON output bytes


def install(tracer: Tracer, mods: dict):
    for span, owner, attr in TARGETS:
        mod, _, cls = owner.partition(".")
        obj = getattr(mods[mod], cls) if cls else mods[mod]
        tracer.install(span, obj, attr)


def traced_fold_reps(mods, prep: wl.Prepared, seconds: float, res: wl.Result, tracer):
    """Traced repetitions of an in-process workload; returns the per-rep
    aggregates and fold rates."""
    koopman, learner = mods["koopman"], mods["learner"]
    aggs, rates = [], []
    start = time.perf_counter()
    install(tracer, mods)
    try:
        while True:
            t_rep = time.perf_counter()
            lo = tracer.mark()
            lcfg, pairs = wl.build(mods, prep.cfg_path)
            state = learner.new_state(lcfg)
            res.attempted += len(pairs) + 1
            t0 = time.perf_counter()
            for sample in pairs:
                learner.step(state, lcfg, sample)
            rates.append(len(pairs) / (time.perf_counter() - t0))
            wl.analyse(koopman, state.snapshot_rep(), prep.target, prep.spec.k)
            del state
            aggs.append(tracer.close_rep(lo, TRANSPARENT))
            if wl.done(start, t_rep, seconds):
                break
    finally:
        tracer.uninstall()
    return aggs, rates


def cli_reps(mods, spec: wl.Spec, cfg_path: str, run_dir: str, seconds: float,
             res: wl.Result, tracer=None, timer_cls=None):
    """In-process ``cme learn`` + ``cme koopman`` repetitions.  With a tracer
    they are traced; otherwise ``timer_cls`` times every step.  Returns the
    per-rep aggregates, learn rates, step latencies and dictionary sizes, and
    ``cme koopman`` times."""
    learn, koop = wl.cli_commands(cfg_path, run_dir)
    aggs, rates, lats, dvals, koop_s = [], [], [], [], []
    start = time.perf_counter()
    if tracer is not None:
        install(tracer, mods)
    try:
        while True:
            t_rep = time.perf_counter()
            lo = tracer.mark() if tracer is not None else 0
            timer = timer_cls(mods["learner"]) if tracer is None else None
            res.attempted += 2
            t0 = time.perf_counter()
            rc = wl.cli_main(mods, learn)
            wall = time.perf_counter() - t0
            if timer is not None:
                timer.remove()
                lats.append(np.asarray(timer.lat, dtype=np.int64))
                dvals.append(np.asarray(timer.d, dtype=np.int64))
            t0 = time.perf_counter()
            rc2 = wl.cli_main(mods, koop) if rc == 0 else rc
            koop_s.append(time.perf_counter() - t0)
            res.check("cme learn and koopman return 0", rc == 0 and rc2 == 0, f"{rc}, {rc2}")
            if rc != 0 or rc2 != 0:
                break
            rates.append(spec.n_steps / wall)
            if tracer is not None:
                aggs.append(tracer.close_rep(lo, TRANSPARENT))
            if wl.done(start, t_rep, seconds):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    return aggs, rates, lats, dvals, koop_s


def layer_metrics(aggs: list, res: wl.Result) -> dict:
    """Counts from the first repetition (checked to repeat in the others)
    and median self times over repetitions."""
    out = {}
    if not aggs:
        return out
    first = aggs[0]

    def calls(agg, name):
        return agg.get(name, (0, 0, 0))[0]

    for agg in aggs[1:]:
        same = all(calls(agg, n) == calls(first, n) for n, _, _ in TARGETS)
        res.check("traced call counts repeat", same, "")
    for name in COUNTED:
        out[f"{name}.calls"] = (calls(first, name), "count")
    for name in TIMED + REPORTED:
        out[f"{name}.self_s"] = (wl.median([a.get(name, (0, 0, 0))[2] / 1e9
                                            for a in aggs]), "s")
    out["learner.step.traced_s"] = (wl.median([a.get("learner.step", (0, 0, 0))[1] / 1e9
                                               for a in aggs]), "s")
    out["dynamics.generate_stream.s"] = (wl.median(
        [a.get("dynamics.generate_stream", (0, 0, 0))[1] / 1e9 for a in aggs]), "s")
    out["config.load_config.s"] = (wl.median(
        [a.get("config.load_config", (0, 0, 0))[1] / 1e9 for a in aggs]), "s")
    return out


def assemble(t: Traced, probes: dict, declared, res: wl.Result, out: dict, extra: dict):
    """Per-layer metrics: the declared ones into ``out``, the report-only
    ones into ``extra``."""
    for name, value in layer_metrics(t.aggs, res).items():
        (extra if name.split(".self_s")[0] in REPORTED else out)[name] = value
    for name, value in wl.latency_layers(t.lat_us, t.d_before).items():
        (out if name in declared else extra)[name] = value
    m = t.meta
    for name, value in m["counts"].items():
        out[name] = (value, "count")
    out["learner.working_set_mb"] = (wl.working_set_mib(m["d"], m["dim_x"], m["dim_y"],
                                                        m["inverses"]), "MiB")
    out["kernels.jitter_x"] = (m["jitter_x"], "1")
    out["kernels.jitter_y"] = (m["jitter_y"], "1")
    out["cli.trace_bytes"] = (t.out_bytes[0], "B")
    out["cli.json_bytes"] = (t.out_bytes[1], "B")
    traced = wl.median(t.rates)
    out["trace.overhead_steps_per_s"] = (traced - t.untraced, "1/s")
    out["koopman.analysis_s"] = (t.analysis_s, "s")
    extra["untraced steps_per_s"] = (t.untraced, "1/s")
    extra["traced steps_per_s"] = (traced, "1/s")
    for name in ("setup.import_s", "koopman.eigen_spectrum.cold_s"):
        if name in probes:
            out[name] = (probes[name], "s")
    res.notes.append(step_breakdown(t.aggs[0]))
    res.notes.append(f"{len(t.aggs)} traced repetitions; working set computed from "
                     f"d={m['d']} (capacity {wl.capacity(m['d'])})")


def step_breakdown(agg: dict) -> str:
    """Shares of one repetition's traced step time by layer self time."""
    total = agg["learner.step"][1]
    parts = [(n, agg.get(n, (0, 0, 0))[2]) for n in STEP_LAYERS]
    shown = ", ".join(f"{n} {v / total:.1%}" for n, v in parts)
    covered = sum(v for _, v in parts) / total
    return f"traced step time {total / 1e9:.4f} s = {shown} (sum {covered:.4f})"


def write_spans(tracer: Tracer, root: str, name: str, seed: int) -> str:
    """Write the first traced repetition's spans under ``.bench_out``."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"spans-{name}-seed{seed}.csv")
    tracer.write_csv(path, *tracer.reps[0])
    return path
