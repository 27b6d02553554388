"""Run one facestack benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid_c1 --seed 1 --seconds 24 --trace 0

Run from the root of a checkout: facestack is imported from its src/ and
must not come from anywhere else. Scratch files go under .perfbench_work/
and are removed at exit; a traced run writes its spans to .perfbench_out/.

The last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}; the line before it records the environment and the workload's
shape. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. The exit code is 0 whenever a result is printed, correct or not.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("grid_c1", "stack_s5", "featurize")


def cap_blas_threads():
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def import_facestack():
    sys.path.insert(0, SRC)
    import facestack

    where = os.path.realpath(facestack.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"facestack was imported from {where}")
    return facestack


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    try:
        facestack = import_facestack()
    except ImportError as exc:
        print(f"perfbench: cannot import facestack from {SRC}: {exc}", file=sys.stderr)
        return 2

    import numpy
    from facestack.cli import main as cli_main
    from harness import run_benchmark
    from workloads import WORKLOADS, load_reference

    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{wl.name}-{args.seed}-{os.getpid()}")
    try:
        result, record, spans = run_benchmark(wl, args.seed, args.seconds, bool(args.trace),
                                              cli_main, work, load_reference())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    if spans:
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, f"spans-{wl.name}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(spans, fh)
    record["environment"] = {
        "nproc": nproc,
        "blas_threads": {v: int(os.environ[v]) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "facestack": facestack.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
