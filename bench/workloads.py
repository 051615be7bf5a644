"""Workloads of the cmestream benchmark: generated inputs, set-up, the timed
and traced passes, and the output checks.

Every input is generated here from the workload seed.  The program only
ever sees a config file (and, for the chain, a finite-model JSON file)
written into the run's temporary directory, exactly as a user of ``cme``
would hand it one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

K_EIG = 5
GRID = {"mins": (-2.0, -2.0), "maxs": (2.0, 2.0), "counts": (40, 40)}
CHECKPOINTS_FIRST = 500
SETUP_PROBES = 5            # fresh-process set-ups per run; setup_s is their median
WARM_STEPS = 200            # throwaway steps folded during set-up
D_BUCKETS = ((0, 255), (256, 1023), (1024, 4095))

# Checks and their sources.
HS_TRACK_RTOL = 1e-9        # tracked |U|_HS vs operator.hs_norm (tests/test_learner.py)
EQUIV_HS_TOL = 1e-8         # CLI model vs in-process run (learner equivalence tests)
EIG_TOL = 1e-8              # CLI spectrum vs in-process spectrum
RESIDUAL_RTOL = 1e-6        # koopman.RESIDUAL_RTOL
CUBIC_BAND = (150, 600)     # acceptance criterion 8b
LEADING_EIG_TOL = 0.1       # acceptance criterion 8d
# HS distance of the eta=0.1 chain iterate to the exact oracle at t=5000.
# Over 150 seeds the noise floor had median 0.246, 90th percentile 0.373 and
# maximum 0.568; the oracle itself has norm 0.957, so a zero or diverged
# operator fails this bound while the stationary noise never reaches it.
CHAIN_DIST_BOUND = 0.8
CHAIN_STEPS = 5000
CHAIN_MAX_D = 5

TRACE_HEADER = "t,accepted,delta,eps_t,eta_t,dict_size,hs_norm"

DUFFING_PARAMS = {"delta": 0.5, "beta": -1.0, "alpha": 1.0,
                  "dt_integrator": 0.01, "sample_interval": 0.25}


def duffing_config(seed: int, n_traj: int, budget: dict) -> dict:
    """The README's Duffing experiment config with the given budget."""
    return {
        "kernel": {"family": "gaussian", "bandwidth": 0.3},
        "learner": {"lambda": 0.0012, "step": {"kind": "constant", "eta": 0.2},
                    "budget": budget},
        "stream": {
            "source": {"kind": "duffing", "n_traj": n_traj, "steps_per_traj": 10,
                       "seed": seed, "init_box": [[-2, 2], [-2, 2]],
                       "params": DUFFING_PARAMS},
            "interleave": "sequential",
        },
        "outputs": {"dir": "out"},
        "analysis": {"checkpoints": [CHECKPOINTS_FIRST, 10 * n_traj],
                     "koopman_k": K_EIG},
    }


def chain_config(seed: int) -> dict:
    """3-state chain of acceptance criterion 6 at eta = 0.1, zero budget."""
    return {
        "kernel": {"family": "gaussian", "bandwidth": 0.5},
        "learner": {"lambda": 0.1, "step": {"kind": "constant", "eta": 0.1},
                    "budget": {"kind": "zero"}},
        "stream": {"source": {"kind": "finite_chain", "model_path": "chain.json",
                              "n_samples": CHAIN_STEPS, "burn_in": 0, "seed": seed}},
    }


def chain_model():
    from cmestream.batch import FiniteSpaceModel

    pi = np.array([0.5, 0.3, 0.2])
    P = 0.5 * np.outer(np.ones(3), pi) + 0.5 * np.eye(3)   # second eigenvalue 0.5
    return FiniteSpaceModel.from_chain(np.array([[0.0], [1.0], [2.0]]), P)


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                   # "fold" (in-process) or "cli" (subprocesses)
    n_traj: int = 0             # Duffing trajectories of 10 steps
    budget: dict = field(default_factory=dict)
    analysis_repeats: int = 1   # analysis calls per timed repetition
    k: int = K_EIG              # eigenpairs requested from the Koopman analysis

    def config(self, seed: int) -> dict:
        if self.name == "chain-3state":
            return chain_config(seed)
        return duffing_config(seed, self.n_traj, self.budget)

    @property
    def n_steps(self) -> int:
        return CHAIN_STEPS if self.name == "chain-3state" else 10 * self.n_traj


SPECS = {
    "duffing-cubic": Spec("duffing-cubic", "fold", 355, {"kind": "cubic", "b_cmp": 2.0}, 3),
    "duffing-zero": Spec("duffing-zero", "fold", 120, {"kind": "zero"}, 1),
    # k = 3, the chain's state count: its Koopman matrix has rank 3 over 4-5
    # atoms, and asking for the defective zero eigenvalues (k >= 4) makes
    # koopman_spectrum raise NumericalError on most seeds.
    "chain-3state": Spec("chain-3state", "fold", analysis_repeats=50, k=3),
    "cli-pipeline": Spec("cli-pipeline", "cli", 355, {"kind": "cubic", "b_cmp": 2.0}, 4),
}


def write_inputs(spec: Spec, seed: int, directory: str) -> str:
    os.makedirs(directory, exist_ok=True)
    if spec.name == "chain-3state":
        chain_model().save(os.path.join(directory, "chain.json"))
    path = os.path.join(directory, "config.json")
    with open(path, "w") as fh:
        json.dump(spec.config(seed), fh, indent=2)
    return path


# ---------------------------------------------------------------------------
# Statistics helpers
# ---------------------------------------------------------------------------

def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (<= 99)."""
    if n <= 10:
        return 50.0
    return min(99.0, 100.0 * (1.0 - 10.0 / n))


def done(start: float, t_rep: float, seconds: float) -> bool:
    """Stop repeating once another repetition would end further from the
    time budget than stopping now (repetitions of equal length assumed)."""
    now = time.perf_counter()
    return now - start + 0.5 * (now - t_rep) >= seconds


def path_counts(stats) -> dict:
    """Step paths from ``state.stats``: an accepted step admits (a NaN delta
    means the zero-budget test was skipped); a rejected step with delta
    exactly 0 folded into existing atoms; any other rejection projected.  A
    projection whose residual clamps to 0 would count as a fold."""
    admits = projections = folds = skipped = 0
    for rec in stats:
        if rec.accepted:
            admits += 1
            skipped += rec.delta != rec.delta
        elif rec.delta == 0.0:
            folds += 1
        else:
            projections += 1
    return {"learner.admits": admits, "learner.projections": projections,
            "learner.exact_folds": folds, "learner.tests_skipped": skipped}


def d_before(stats) -> np.ndarray:
    return np.fromiter((r.dict_size - r.accepted for r in stats), dtype=np.int64,
                       count=len(stats))


def capacity(d: int) -> int:
    cap = 16
    while cap < d:
        cap *= 2
    return cap


def working_set_mib(d: int, dim_x: int, dim_y: int, inverses: int) -> float:
    """Computed bytes of the learner's buffers at dictionary size ``d``: the
    factored W and P, the two Gram matrices, any held Gram inverses (all
    capacity-doubled square buffers) and the two point arrays."""
    cap = capacity(d)
    floats = (4 + inverses) * cap * cap + cap * (dim_x + dim_y)
    return 8.0 * floats / 2 ** 20


def state_meta(state) -> dict:
    """What the per-layer report needs from a finished learner state."""
    return {"d": state.dict_size,
            "inverses": state.gram_x.has_inverse + state.gram_y.has_inverse,
            "jitter_x": state.gram_x.jitter, "jitter_y": state.gram_y.jitter,
            "dim_x": state.gram_x.points.shape[1], "dim_y": state.gram_y.points.shape[1],
            "counts": path_counts(state.stats)}


def peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

class Result:
    """Operations attempted and failed, checks, metrics and report lines."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.extra: dict[str, tuple[float, str]] = {}      # printed, not returned
        self.notes: list[str] = []

    def check(self, name: str, ok, detail: str = ""):
        ok = bool(ok)
        self.checks.append((name, ok, detail))
        if not ok:
            self.failed += 1

    def error(self, what: str, exc: BaseException):
        self.failed += 1
        self.checks.append((what, False, f"{type(exc).__name__}: {exc}"))

    def put(self, name: str, value: float, unit: str):
        self.metrics[name] = (float(value), unit)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def program():
    """Import the program's modules from this checkout's ``src``."""
    import cmestream
    from cmestream import cli, config, dynamics, kernels, koopman, learner, operator

    origin = os.path.dirname(os.path.abspath(cmestream.__file__))
    if origin != os.path.join(SRC, "cmestream"):
        raise RuntimeError(f"cmestream imported from {origin}, not from {SRC}")
    return {"cli": cli, "config": config, "dynamics": dynamics, "kernels": kernels,
            "koopman": koopman, "learner": learner, "operator": operator}


@dataclass
class Prepared:
    spec: Spec
    cfg_path: str
    lcfg: object
    pairs: list
    target: object              # GridSpec, or the chain's states
    cold_s: float


def build(mods, cfg_path: str):
    cfgmod = mods["config"]
    data = cfgmod.load_config(cfg_path)
    lcfg = cfgmod.build_learner_config(data)
    xs, ys = cfgmod.build_stream(data, base_dir=os.path.dirname(cfg_path))
    return lcfg, list(zip(xs, ys))


def cold_eig(koopman) -> float:
    """One throwaway LAPACK call through the program (the first
    eigendecomposition in a process can stall on BLAS start-up)."""
    M = np.random.default_rng(0).normal(size=(300, 300)) / np.sqrt(300)
    t = time.perf_counter()
    koopman.eigen_spectrum(M, 1)
    return time.perf_counter() - t


def prepare(spec: Spec, seed: int, directory: str) -> Prepared:
    """Write and load the config, generate the stream and warm up."""
    mods = program()
    cfg_path = write_inputs(spec, seed, directory)
    lcfg, pairs = build(mods, cfg_path)
    if spec.name == "chain-3state":
        target = chain_model().x_states
    else:
        target = mods["koopman"].GridSpec(**GRID)
    cold_s = cold_eig(mods["koopman"])
    learner = mods["learner"]
    warm = learner.new_state(lcfg)
    for sample in pairs[:WARM_STEPS]:
        learner.step(warm, lcfg, sample)
    return Prepared(spec, cfg_path, lcfg, pairs, target, cold_s)


def analyse(koopman, rep, target, k: int):
    spec = koopman.koopman_spectrum(rep, k)
    if isinstance(target, koopman.GridSpec):
        fields = [koopman.grid_eval(spec, i, target).values for i in range(len(spec))]
    else:
        fields = [koopman.eval_eigenfunction(spec, i, target) for i in range(len(spec))]
    return spec, fields


@dataclass
class Rep:
    """Summary of one timed repetition (fold, then analysis)."""
    wall_s: float
    lat_ns: np.ndarray
    d_before: np.ndarray
    analysis_s: list
    d: int
    hs_tracked: float
    counts: dict
    fingerprint: tuple


def fold_once(mods, prep: Prepared):
    learner = mods["learner"]
    lcfg, pairs = prep.lcfg, prep.pairs
    state = learner.new_state(lcfg)
    step = learner.step
    clock = time.perf_counter_ns
    lat = np.empty(len(pairs), dtype=np.int64)
    t0 = clock()
    for i, sample in enumerate(pairs):
        a = clock()
        step(state, lcfg, sample)
        lat[i] = clock() - a
    return state, lat, (clock() - t0) / 1e9


def timed_reps(mods, prep: Prepared, seconds: float, res: Result, keep: dict):
    """Repeat fold + analysis until ``seconds`` are used; ``keep`` receives
    the first repetition's operator, spectrum and fields for the checks."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        res.attempted += len(prep.pairs)
        try:
            state, lat, wall = fold_once(mods, prep)
        except Exception as exc:          # a failed step ends the repetition
            res.error("fold", exc)
            break
        rep = state.snapshot_rep()
        summary = Rep(wall, lat, d_before(state.stats), [], state.dict_size,
                      state.hs_norm, path_counts(state.stats),
                      (state.dict_size, hash(rep.W.tobytes())))
        keep.setdefault("state_meta", state_meta(state))
        del state
        for _ in range(prep.spec.analysis_repeats):
            res.attempted += 1
            t = time.perf_counter()
            try:
                spec, fields = analyse(mods["koopman"], rep, prep.target, prep.spec.k)
            except Exception as exc:
                res.error("analysis", exc)
                break
            summary.analysis_s.append(time.perf_counter() - t)
            keep.setdefault("spectrum", (spec, fields))
        keep.setdefault("rep", rep)
        # Later repetitions can raise the peak by allocator reuse patterns
        # alone, so the peak is read once: set-up plus one full repetition.
        keep.setdefault("peak_rss_mib", peak_rss_mib(resource.RUSAGE_SELF))
        reps.append(summary)
        if done(start, t_rep, seconds):
            break
    return reps


def fold_metrics(reps: list, res: Result):
    """End-to-end metrics of the in-process workloads."""
    steps = np.concatenate([r.lat_ns for r in reps]) / 1e3
    res.put("steps_per_s", median([len(r.lat_ns) / r.wall_s for r in reps]), "1/s")
    res.put("step_p50_us", float(np.percentile(steps, 50)), "us")
    res.extra["analysis_s"] = (median([t for r in reps for t in r.analysis_s]), "s")
    res.extra["step_p99_us"] = (float(np.percentile(steps, tail_percentile(steps.size))), "us")
    res.notes.append(f"{len(reps)} repetitions of {len(reps[0].lat_ns)} steps; "
                     f"{steps.size} step samples; "
                     f"{sum(len(r.analysis_s) for r in reps)} analysis samples")


def latency_layers(lat_us: np.ndarray, dvals: np.ndarray) -> dict:
    """Tail percentile and per-d-bucket medians of step latency."""
    q = tail_percentile(lat_us.size)
    out = {"learner.step_p99_us": (float(np.percentile(lat_us, q)), "us")}
    for lo, hi in D_BUCKETS:
        sel = lat_us[(dvals >= lo) & (dvals <= hi)]
        name = f"learner.step_p50_us.d{lo}-{hi}"
        out[name] = (float(np.median(sel)) if sel.size else float("nan"), "us")
    return out


def check_fold(mods, prep: Prepared, reps: list, keep: dict, res: Result):
    """Output checks of the in-process workloads (outside the timed region)."""
    if not reps:
        return
    name = prep.spec.name
    first = reps[0]
    for r in reps[1:]:
        res.check("repetitions agree", r.fingerprint == first.fingerprint
                  and r.counts == first.counts, "same operator and path counts")
    if name == "duffing-zero":
        res.check("8a: d equals steps", first.d == len(prep.pairs),
                  f"d={first.d}, steps={len(prep.pairs)}")
    elif name == "duffing-cubic":
        lo, hi = CUBIC_BAND
        res.check("8b: d in band", lo <= first.d <= hi, f"d={first.d} in [{lo}, {hi}]")
    else:
        res.check("d stays small", first.d <= CHAIN_MAX_D, f"d={first.d}")
        from cmestream.batch import distance_to_oracle, exact_finite_cme

        lcfg = prep.lcfg
        oracle = exact_finite_cme(chain_model(), lcfg.lam, lcfg.kernel_x, lcfg.kernel_y)
        dist = distance_to_oracle(keep["rep"], oracle)
        res.check("HS distance to exact oracle", dist < CHAIN_DIST_BOUND,
                  f"{dist:.4f} < {CHAIN_DIST_BOUND}")
    exact = mods["operator"].hs_norm(keep["rep"])
    rel = abs(first.hs_tracked - exact) / max(exact, 1e-300)
    res.check("tracked HS norm", rel <= HS_TRACK_RTOL, f"relative gap {rel:.2e}")
    if "spectrum" in keep:
        check_spectrum(mods, keep["rep"], *keep["spectrum"], res,
                       leading=name != "chain-3state")


def check_spectrum(mods, rep, spec, fields, res: Result, leading: bool):
    koopman = mods["koopman"]
    M = koopman.koopman_matrix(rep)
    worst = 0.0
    for i in range(len(spec)):
        lam, v = spec.eigenvalues[i], spec.eigenvectors[:, i]
        res_i = np.linalg.norm(M @ v - lam * v)
        worst = max(worst, res_i / (np.linalg.norm(v) * max(1.0, abs(lam))))
    res.check("eigenpair residuals", worst <= RESIDUAL_RTOL, f"max relative {worst:.2e}")
    if leading:
        lam0 = abs(spec.eigenvalues[0])
        res.check("8d: |lambda_0| near 1", abs(lam0 - 1.0) <= LEADING_EIG_TOL,
                  f"|lambda_0|={lam0:.4f}")
    res.check("fields finite", all(np.all(np.isfinite(f)) for f in fields),
              f"{len(fields)} fields")


# ---------------------------------------------------------------------------
# Set-up probes (fresh processes)
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args: list, timeout: float = 150.0):
    """Run ``bench/child.py``; return (wall_s, ready_s, returncode, report,
    stderr), where ``report`` is the child's last JSON line.

    ``ready_s`` is measured from just before the spawn to the moment the
    child reported itself ready (the same monotonic clock in both)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    wall = time.perf_counter() - t0
    report = {}
    lines = proc.stdout.strip().splitlines()
    if lines:
        try:
            report = json.loads(lines[-1])
        except ValueError:
            report = {}
    ready = report.get("ready", t0 + wall) - t0
    return wall, ready, proc.returncode, report, proc.stderr


def setup_probes(spec: Spec, seed: int, directory: str, res: Result) -> dict:
    """Set up ``SETUP_PROBES`` times in fresh processes; medians of the
    spawn-to-ready time, the import time and the cold eigendecomposition."""
    ready, imports, colds = [], [], []
    for i in range(SETUP_PROBES):
        sub = os.path.join(directory, f"setup{i}")
        if spec.kind == "cli":
            cfg_path = write_inputs(spec, seed, sub)
            args = ["cli", "--cold-eig", "--", "simulate", "--config", cfg_path,
                    "--out", sub]
        else:
            args = ["setup", "--workload", spec.name, "--seed", str(seed), "--dir", sub]
        res.attempted += 1
        _, r, rc, rep, err = run_child(args)
        if rc != 0 or "import_s" not in rep:
            res.check("set-up probe exits 0", False, err.strip()[-300:])
            continue
        ready.append(r)
        imports.append(rep["import_s"])
        colds.append(rep["cold_s"])
    if not ready:
        return {}
    return {"setup_s": median(ready), "setup.import_s": median(imports),
            "koopman.eigen_spectrum.cold_s": median(colds)}


# ---------------------------------------------------------------------------
# The cli-pipeline workload
# ---------------------------------------------------------------------------

def cli_commands(cfg_path: str, run_dir: str):
    learn = ["learn", "--config", cfg_path, "--out", run_dir]
    koop = ["koopman", "--model", os.path.join(run_dir, "model.json"),
            "--k", str(K_EIG), "--grid-min=-2,-2", "--grid-max", "2,2",
            "--grid-counts", "40,40", "--out", os.path.join(run_dir, "koopman")]
    return learn, koop


def timed_cli(spec: Spec, cfg_path: str, run_dir: str, seconds: float, res: Result):
    """Alternate one ``cme learn`` with ``analysis_repeats`` ``cme koopman``
    subprocesses until ``seconds`` are used."""
    learn, koop = cli_commands(cfg_path, run_dir)
    lat_path = os.path.join(os.path.dirname(run_dir), "latency.npz")
    learn_s, koop_s, lats, dvals = [], [], [], []
    start = time.perf_counter()
    while True:
        t_rep = time.perf_counter()
        res.attempted += 1
        wall, _, rc, _, err = run_child(["cli", "--lat-out", lat_path, "--"] + learn)
        res.check("cme learn exits 0", rc == 0, err.strip()[-300:])
        if rc != 0:
            break
        learn_s.append(wall)
        with np.load(lat_path) as npz:
            lats.append(npz["lat_ns"])
            dvals.append(npz["d"])
        for _ in range(spec.analysis_repeats):
            res.attempted += 1
            wall, _, rc, _, err = run_child(["cli", "--"] + koop)
            res.check("cme koopman exits 0", rc == 0, err.strip()[-300:])
            if rc != 0:
                break
            koop_s.append(wall)
        if done(start, t_rep, seconds):
            break
    return learn_s, koop_s, lats, dvals


def cli_metrics(spec: Spec, learn_s, koop_s, lats, res: Result):
    if not learn_s or not koop_s:
        return
    steps = np.concatenate(lats) / 1e3
    res.put("steps_per_s", spec.n_steps / median(learn_s), "1/s")
    res.put("step_p50_us", float(np.percentile(steps, 50)), "us")
    res.extra["step_p99_us"] = (float(np.percentile(steps, tail_percentile(steps.size))), "us")
    res.extra["cli_learn_s"] = (median(learn_s), "s")
    res.extra["cli_koopman_s"] = (median(koop_s), "s")
    res.notes.append(f"{len(learn_s)} `cme learn` and {len(koop_s)} `cme koopman` runs; "
                     f"{steps.size} step samples inside `cme learn`")
    res.notes.append("steps_per_s is stream steps over cli_learn_s on this workload")


class StepTimer:
    """Latency of each ``learner.step`` call, installed where ``cme learn``
    looks the name up (``cli.cmd_learn`` imports it at call time)."""

    def __init__(self, learner):
        self.lat, self.d = [], []
        self._learner, self._step = learner, learner.step
        lat, dvals, step, clock = self.lat, self.d, learner.step, time.perf_counter_ns

        def timed(state, cfg, sample):
            dvals.append(state.dict_size)
            a = clock()
            out = step(state, cfg, sample)
            lat.append(clock() - a)
            return out

        learner.step = timed

    def remove(self):
        self._learner.step = self._step

    def save(self, path):
        np.savez(path, lat_ns=np.asarray(self.lat, dtype=np.int64),
                 d=np.asarray(self.d, dtype=np.int64))


def cli_main(mods, argv) -> int:
    """Run the ``cme`` entry point in this process, its chatter discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return mods["cli"].main(argv)


def cli_reference(mods, cfg_path: str):
    """The same config run in-process through the library API."""
    lcfg, pairs = build(mods, cfg_path)
    state, _ = mods["learner"].run_stream(lcfg, pairs)
    rep = state.snapshot_rep()
    return state, rep, mods["koopman"].koopman_spectrum(rep, K_EIG)


def check_cli(mods, spec: Spec, cfg_path: str, run_dir: str, res: Result):
    """Check the CLI outputs against the documented formats and against an
    in-process run of the same config.  Returns the reference state."""
    state, ref, ref_spec = cli_reference(mods, cfg_path)
    with open(os.path.join(run_dir, "trace.csv")) as fh:
        header = fh.readline().strip()
        rows = sum(1 for _ in fh)
    res.check("trace.csv header", header == TRACE_HEADER, header)
    res.check("trace.csv rows", rows == spec.n_steps, f"{rows} rows")
    for t in (CHECKPOINTS_FIRST, spec.n_steps):
        res.check(f"checkpoint_{t}.json written",
                  os.path.isfile(os.path.join(run_dir, f"checkpoint_{t}.json")))
    model = mods["operator"].load_rep(os.path.join(run_dir, "model.json"))
    gap = mods["operator"].hs_distance(model, ref) if len(model) == len(ref) else math.inf
    res.check("model.json matches in-process run", gap <= EQUIV_HS_TOL,
              f"d={len(model)} vs {len(ref)}, HS gap {gap:.2e}")
    with open(os.path.join(run_dir, "koopman", "spectrum.json")) as fh:
        sj = json.load(fh)
    eig = np.array([complex(re, im) for re, im in sj["eigenvalues"]])
    eig_gap = (float(np.max(np.abs(eig - ref_spec.eigenvalues)))
               if eig.shape == ref_spec.eigenvalues.shape else math.inf)
    res.check("spectrum.json matches in-process run", eig_gap <= EIG_TOL
              and sj["dict_size"] == len(ref), f"eigenvalue gap {eig_gap:.2e}")
    res.check("spectrum residuals", max(sj["residuals"]) <= RESIDUAL_RTOL,
              f"max {max(sj['residuals']):.2e}")
    n_grid = GRID["counts"][0] * GRID["counts"][1]
    for i in range(K_EIG):
        path = os.path.join(run_dir, "koopman", f"eigfield_{i}.csv")
        ok = os.path.isfile(path)
        if ok:
            with open(path) as fh:
                ok = fh.readline().strip() == "x1,x2,re,im" and sum(1 for _ in fh) == n_grid
        res.check(f"eigfield_{i}.csv", ok)
    return state


def output_bytes(run_dir: str):
    """Bytes of the per-step trace and of the JSON outputs of a CLI run."""
    trace = os.path.getsize(os.path.join(run_dir, "trace.csv"))
    js = 0
    for base, _, files in os.walk(run_dir):
        js += sum(os.path.getsize(os.path.join(base, f)) for f in files
                  if f.endswith(".json") and f != "config.json")
    return trace, js
