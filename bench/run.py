"""cmestream benchmark.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The program is imported from the
checkout's ``src`` (nothing needs installing); without it the benchmark
exits with status 2 and prints no result.  Workloads are described in
``bench/README.md``; ``all`` (the default) runs each in a fresh process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` metrics of ``BENCHMARK.json``, measured
untraced; with ``--trace 1`` they are its ``per_layer`` metrics from a
traced run.  The exit status is 0 only when every output check passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("duffing-cubic", "duffing-zero", "chain-3state", "cli-pipeline")
CHILD_TIMEOUT = 175.0


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ([m["name"] for m in bench["end_to_end"]],
            [m["name"] for m in bench["per_layer"]], bench["run_seconds"])


def environment() -> dict:
    """Host, interpreter and BLAS record, so a host change can be told
    apart from a code change."""
    import ctypes
    import platform

    import numpy as np

    env = {"nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
           "loadavg_1_5_15": list(os.getloadavg()),
           "python": platform.python_version(), "numpy": np.__version__,
           "CME_NUM_THREADS": os.environ.get("CME_NUM_THREADS"),
           "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                     if ln.startswith("model name")), None)
    except OSError:
        env["cpu_model"] = None
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, idx, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, idx, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, idx, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    env["caches"] = caches
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    env["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def run_fold(mods, spec, seed, tmp, args, res):
    """In-process workload: timed repetitions, then (traced run) traced
    ones.  Returns the peak RSS and the traced measurements."""
    import numpy as np

    import layers
    import workloads as wl
    from tracer import Tracer

    prep = wl.prepare(spec, seed, os.path.join(tmp, "main"))
    keep = {}
    reps = wl.timed_reps(mods, prep, args.seconds / (2 if args.trace else 1), res, keep)
    peak = keep.get("peak_rss_mib")
    traced = None
    if reps:
        wl.fold_metrics(reps, res)
        if args.trace:
            tracer = Tracer()
            aggs, rates = layers.traced_fold_reps(mods, prep, args.seconds / 2, res, tracer)
            traced = layers.Traced(
                tracer, aggs, rates, wl.median([len(r.lat_ns) / r.wall_s for r in reps]),
                np.concatenate([r.lat_ns for r in reps]) / 1e3,
                np.concatenate([r.d_before for r in reps]), keep["state_meta"],
                wl.median([t for r in reps for t in r.analysis_s]))
    wl.check_fold(mods, prep, reps, keep, res)
    return peak, traced


def run_cli(mods, spec, seed, tmp, args, res):
    """cli-pipeline: ``cme`` subprocesses, or (traced run) ``cli.main`` in
    this process, untraced then traced.  Returns the peak RSS of the
    children and the traced measurements."""
    import resource

    import numpy as np

    import layers
    import workloads as wl
    from tracer import Tracer

    cli_dir = os.path.join(tmp, "cli")
    cfg_path = wl.write_inputs(spec, seed, cli_dir)
    run_dir = os.path.join(cli_dir, "run")
    if not args.trace:
        learn_s, koop_s, lats, _ = wl.timed_cli(spec, cfg_path, run_dir, args.seconds, res)
        wl.cli_metrics(spec, learn_s, koop_s, lats, res)
        wl.check_cli(mods, spec, cfg_path, run_dir, res)
        return wl.peak_rss_mib(resource.RUSAGE_CHILDREN), None
    half = args.seconds / 2
    _, rates_u, lats, dlist, koop_s = layers.cli_reps(mods, spec, cfg_path, run_dir, half,
                                                      res, timer_cls=wl.StepTimer)
    tracer = Tracer()
    aggs, rates, _, _, _ = layers.cli_reps(mods, spec, cfg_path, run_dir, half, res,
                                           tracer=tracer)
    state = wl.check_cli(mods, spec, cfg_path, run_dir, res)
    if not aggs or not lats:
        return None, None
    return None, layers.Traced(tracer, aggs, rates, wl.median(rates_u),
                               np.concatenate(lats) / 1e3, np.concatenate(dlist),
                               wl.state_meta(state), wl.median(koop_s),
                               wl.output_bytes(run_dir))


def run_one(args, e2e_names, layer_names) -> int:
    import layers
    import workloads as wl

    env = environment()
    spec = wl.SPECS[args.workload]
    seed = args.seed % 2 ** 32
    res = wl.Result()
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{spec.name}-", dir=tmp_root)
    out = {}            # declared metrics: name -> (value, unit)
    extra = {}          # report-only metrics
    try:
        mods = wl.program()
        probes = wl.setup_probes(spec, seed, tmp, res)
        run = run_fold if spec.kind == "fold" else run_cli
        peak, traced = run(mods, spec, seed, tmp, args, res)
        if not args.trace:
            out.update(res.metrics)
            extra.update(res.extra)
            if "setup_s" in probes:
                out["setup_s"] = (probes["setup_s"], "s")
            if peak is not None:
                out["peak_rss_mb"] = (peak, "MiB")
        elif traced is not None:
            layers.assemble(traced, probes, layer_names, res, out, extra)
            res.notes.append(f"caches beside the computed working set: {env['caches']}")
            spans = layers.write_spans(traced.tracer, ROOT, spec.name, seed)
            res.notes.append("spans of the first traced repetition: "
                             + os.path.relpath(spans, ROOT))
    except Exception as exc:          # report, then fail the run
        res.error("benchmark run", exc)
        import traceback

        traceback.print_exc()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    names = layer_names if args.trace else e2e_names
    missing = [n for n in names if n not in out or not math.isfinite(out[n][0])]
    if missing:
        res.check("every declared metric measured", False, ", ".join(missing))
    report(spec.name, seed, args, env, res, out, extra)
    if missing:
        return 1
    result = {"correct": res.failed == 0, "attempted": max(res.attempted, 1),
              "failed": res.failed,
              "metrics": {n: {"value": out[n][0], "unit": out[n][1]} for n in names}}
    print(json.dumps(result))
    return 0 if res.failed == 0 else 1


def report(name, seed, args, env, res, out, extra):
    print(f"== cmestream benchmark: workload {name}, seed {seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    for note in res.notes:
        print("  " + note)
    seen = {}
    for check, ok, detail in res.checks:
        row = seen.setdefault((check, ok), [0, detail])
        row[0] += 1
        row[1] = detail
    for (check, ok), (n, detail) in seen.items():
        times = f" (x{n})" if n > 1 else ""
        print(f"  check {'ok  ' if ok else 'FAIL'} {check}{times}: {detail}")
    ratio = res.failed / max(res.attempted, 1)
    rows = dict(out)
    rows.update(extra)
    rows["failed_ops_ratio"] = (ratio, "1")
    for metric in sorted(rows):
        value, unit = rows[metric]
        print(f"  {metric:<40} {value:>16.6g} {unit}")


def run_all(args) -> int:
    """Each workload in a fresh process, then a summary of every metric."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            print(f"{name}: no result within {CHILD_TIMEOUT:g} s", flush=True)
            status, failed, attempted = 1, failed + 1, attempted + 1
            continue
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})", flush=True)
            status, failed, attempted = 1, failed + 1, attempted + 1
            continue
        status = status or proc.returncode
        attempted += last["attempted"]
        failed += last["failed"]
        for metric, val in last["metrics"].items():
            metrics[f"{name}/{metric}"] = val
    print(json.dumps({"correct": failed == 0 and status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "cmestream", "__init__.py")):
        print(f"bench: no program source at {SRC}/cmestream; run from a checkout",
              file=sys.stderr)
        return 2
    e2e_names, layer_names, run_seconds = declared_metrics()
    if args.seconds is None:
        args.seconds = float(run_seconds)
    sys.path.insert(0, SRC)
    # Before anything loads numpy, so that CME_NUM_THREADS applies here too.
    import cmestream  # noqa: F401
    if args.workload == "all":
        return run_all(args)
    return run_one(args, e2e_names, layer_names)


if __name__ == "__main__":
    sys.exit(main())
