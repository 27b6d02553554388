"""Regenerate perfbench/reference.json from the current code.

    python3 perfbench/calibrate.py [--workload grid_c1 ...]

Runs one untraced pass per (workload, input seed) and stores its accuracy,
AUC and, for featurize, the column-mean blocks. Every input seed
0 .. CALIBRATED_SEEDS - 1 needs an entry, since a run's `--seed` is mapped
onto them. Re-run only for a change that is meant to alter results, and say
so.
"""

import argparse
import json
import os
import shutil
import sys
import time

from run import WORK, WORKLOAD_NAMES, cap_blas_threads, import_facestack


def _round(doc):
    """Floats cut to 10 significant digits, far inside every tolerance."""
    if isinstance(doc, dict):
        return {k: _round(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_round(v) for v in doc]
    return float(f"{doc:.10g}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = ap.parse_args(argv)
    cap_blas_threads()
    import_facestack()
    from facestack.cli import main as cli_main
    from harness import run_pass
    from workloads import (CALIBRATED_SEEDS, REFERENCE_FILE, WORKLOADS, load_reference,
                           read_outcome)

    reference = load_reference()
    for name in args.workload or WORKLOAD_NAMES:
        wl = WORKLOADS[name]
        seeds = {}
        for seed in range(CALIBRATED_SEEDS):
            root = os.path.join(WORK, f"calibrate-{name}-{seed}-{os.getpid()}")
            t0 = time.perf_counter()
            p = run_pass(wl, seed, root, cli_main)
            if p.failed:
                shutil.rmtree(root, ignore_errors=True)
                sys.exit(f"{name} seed {seed}: {p.errors}")
            outcome, errors = read_outcome(wl, root)
            shutil.rmtree(root, ignore_errors=True)
            if errors:
                sys.exit(f"{name} seed {seed}: {errors}")
            outcome.pop("feature_widths")
            seeds[str(seed)] = _round(outcome)
            print(f"{name} seed {seed}: wall {p.wall_s:.2f}s setup {p.setup_s:.2f}s "
                  f"accuracy {outcome['accuracy']:.4f} auc {outcome['auc']:.4f} "
                  f"({time.perf_counter() - t0:.1f}s)", flush=True)
        reference[name] = {"seeds": seeds}
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
