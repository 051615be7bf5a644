"""Fresh-process entry points of the benchmark.

    python3 bench/child.py setup --workload NAME --seed N --dir DIR
        One in-process workload set-up (import, config, stream, warm-up).

    python3 bench/child.py cli [--lat-out FILE] [--cold-eig] -- CME-ARGS...
        Run the ``cme`` command line in this process, as the console script
        does.  ``--lat-out`` records the latency and dictionary size of every
        ``learner.step`` call to an ``.npz`` file; ``--cold-eig`` times one
        eigendecomposition after the command has finished.

Both print one JSON line last: ``ready`` (``time.perf_counter()`` when the
work was done), ``import_s`` and, when measured, ``cold_s``.  The exit code
is the command's.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))


def setup(args) -> int:
    import cmestream  # noqa: F401

    import_s = time.perf_counter() - STARTED
    import workloads

    prep = workloads.prepare(workloads.SPECS[args.workload], args.seed, args.dir)
    ready = time.perf_counter()
    print(json.dumps({"ready": ready, "import_s": import_s, "cold_s": prep.cold_s}))
    return 0


def cli(args) -> int:
    from cmestream import cli as cme, learner

    import_s = time.perf_counter() - STARTED
    import workloads

    timer = workloads.StepTimer(learner) if args.lat_out else None
    rc = cme.main(args.argv)
    ready = time.perf_counter()
    if timer is not None:
        timer.remove()
        timer.save(args.lat_out)
    report = {"ready": ready, "import_s": import_s}
    if args.cold_eig:
        from cmestream import koopman

        report["cold_s"] = workloads.cold_eig(koopman)
    print(json.dumps(report))
    return rc


def main() -> int:
    parser = argparse.ArgumentParser(prog="bench/child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("setup")
    s.add_argument("--workload", required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--dir", required=True)
    c = sub.add_parser("cli")
    c.add_argument("--lat-out", default=None)
    c.add_argument("--cold-eig", action="store_true")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    if args.mode == "setup":
        return setup(args)
    if args.argv and args.argv[0] == "--":
        args.argv = args.argv[1:]
    return cli(args)


if __name__ == "__main__":
    sys.exit(main())
