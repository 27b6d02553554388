"""The measurement loop: repeated passes of one workload, checks, and metrics.

A pass generates the corpus (set-up, timed as setup_s), then runs the
workload's CLI commands in-process through facestack.cli.main, each in its
own output directory (timed together as wall_s). Passes repeat until the
measurement window is used up; timings are medians over passes.

On a shared virtual machine the CPU's speed swings by up to 2x within
seconds, and CPU time swings with wall time, so raw seconds from two runs do
not compare. So while an untraced run's passes run, a SpeedSampler times a
fixed probe kernel every SAMPLE_INTERVAL seconds. Each pass's times, less
the time the samples took, are rescaled to the speed at which the kernel
takes PROBE_S seconds. The raw times go into the record line.

An operation is one CLI command, one row of prepare, or one output check.
A failed operation is counted and kept, and makes the run incorrect.
"""

import contextlib
import functools
import io
import json
import os
import resource
import shutil
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import tracing
from workloads import (check_outcome, corpus_files, input_seed, output_files,
                       read_outcome, tree_digest)

# Pass 0 warms caches and lazy imports: it is checked but not timed. Then an
# untraced run needs 3 timed passes for a median; a traced run alternates
# traced and untraced passes, at least 2 of each.
MIN_PASSES = 4
MIN_TRACED_PASSES = 5
LOG_TAIL = 600         # characters of a failed command's output kept
PROBE_ROUNDS = 150
PROBE_S = 0.004        # about the kernel's time on the 2-core machine the benchmark was tuned on
SAMPLE_INTERVAL = 0.1  # seconds of wall time between samples; the samples take ~4% of it


@dataclass
class Pass:
    setup_s: float = 0.0   # raw times, less the probe samples taken meanwhile
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    probe_s: list = field(default_factory=list)   # the speed samples' times

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


def probe_kernel(a=np.random.default_rng(0).random((64, 64))):
    """A fixed kernel of small numpy array ops plus interpreter work, the mix
    the workloads run. It runs no facestack code, so no change to the
    program can move its time."""
    acc = 0.0
    for i in range(PROBE_ROUNDS):
        acc += float(np.exp(-0.5 * (a - a[i % 64]) ** 2).sum())
        acc += sum({j: j * i for j in range(40)}.values())
    return acc


class SpeedSampler:
    """Times probe_kernel every SAMPLE_INTERVAL seconds while a pass runs.

    The samples run from a SIGALRM handler in the main thread, between the
    program's bytecodes, so they read the machine's speed at the moments the
    program runs. One sample is taken on entry, so even a short pass has one.
    """

    def __init__(self):
        self.samples = []   # (start, seconds)

    def _sample(self, *_):
        t0 = time.perf_counter()
        probe_kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def taken(self, t0, t1):
        """Seconds of sampling inside [t0, t1]. A sample runs to its end
        before the main thread goes on, so none straddles t0 or t1."""
        return sum(dt for start, dt in self.samples if t0 <= start < t1)


def _elapsed(t0, sampler):
    t1 = time.perf_counter()
    return t1 - t0 - (sampler.taken(t0, t1) if sampler else 0.0)


def invoke(cli_main, argv):
    """Run one CLI command in-process; returns (exit code, its captured output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            rc = cli_main(list(argv))
        except SystemExit as exc:  # argparse rejects bad arguments this way
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback is exit 1 to a shell user
            traceback.print_exc()
            rc = 1
    return rc, buf.getvalue()


def _prepare_rows(out_dir, n_rows):
    """(rows attempted, rows failed) from prepare's run.json; all failed if absent."""
    try:
        with open(os.path.join(out_dir, "run.json"), encoding="utf-8") as fh:
            failures = json.load(fh).get("failures", [])
    except (OSError, ValueError):
        return n_rows, n_rows
    return n_rows, len(failures)


def run_pass(wl, seed, root, cli_main, tracer=None, instrument=None, sampler=None):
    """Set up and run one pass of the workload's commands inside root.

    instrument() patches facestack after set-up, so synth is never traced;
    it returns the undo list, applied once the commands end. A SpeedSampler
    given as sampler runs through the pass.
    """
    p = Pass()
    os.makedirs(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        with sampler or contextlib.nullcontext():
            _run_commands(wl, seed, cli_main, tracer, instrument, sampler, p)
    finally:
        os.chdir(cwd)
    if sampler:
        p.probe_s = [dt for _, dt in sampler.samples]
    return p


def _run_commands(wl, seed, cli_main, tracer, instrument, sampler, p):
    setup = wl.setup_command(seed)
    t0 = time.perf_counter()
    rc, log = invoke(cli_main, setup.argv)
    p.setup_s = _elapsed(t0, sampler)
    p.record(rc == 0, f"synth exited {rc}: {log[-LOG_TAIL:]}")
    if rc != 0:
        return
    undo = instrument() if instrument else []
    try:
        for cmd in wl.commands(seed):
            os.makedirs(cmd.out_dir, exist_ok=True)
            span = tracer.span(f"cli.{cmd.command}") if tracer else contextlib.nullcontext()
            t0 = time.perf_counter()
            with span:
                rc, log = invoke(cli_main, cmd.argv)
            p.wall_s += _elapsed(t0, sampler)
            p.record(rc == 0, f"{cmd.command} {cmd.out_dir} exited {rc}: {log[-LOG_TAIL:]}")
            if cmd.command == "prepare":
                rows, bad = _prepare_rows(cmd.out_dir, wl.n_images)
                p.attempted += rows
                p.failed += bad
    finally:
        tracing.unpatch(undo)


def check_pass(wl, seed, root, p, reference, first):
    """Check one finished pass; returns (outcome, digests).

    first holds the digests of the run's first pass: later passes with the
    same seed must reproduce its inputs and outputs byte for byte.
    """
    outcome, errors = read_outcome(wl, root)
    p.record(not errors, "; ".join(errors))
    if not errors:
        errors = check_outcome(wl, seed, outcome, reference)
        p.record(not errors, "; ".join(errors))
    digests = {"inputs": tree_digest(root, corpus_files(root)),
               "outputs": tree_digest(root, output_files(wl))}
    if first:
        for key, value in digests.items():
            p.record(value == first[key], f"{key} differ from the first same-seed pass")
    outcome["pattern_shapes"] = _pattern_shapes(wl, root)
    return outcome, digests


def _pattern_shapes(wl, root):
    from facestack.pgm import read_pgm

    return {pat: list(read_pgm(os.path.join(root, f"prepare_{pat}", "000000.pgm")).shape)
            for pat in wl.patterns}


def _median(values):
    return statistics.median(values) if values else 0.0


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_benchmark(wl, seed, seconds, trace, cli_main, work_root, reference):
    """Run passes for `seconds`; returns (result line, record, last traced pass's spans).

    The passes use the input seed that `seed` maps to. With trace, every
    second pass is traced and the metrics are the per-layer ones, from raw
    times; otherwise they are the end-to-end ones, from speed-sampled
    passes. peak_rss_mb is read as pass 0's commands end, before any check
    allocates.
    """
    arg_seed, seed = seed, input_seed(seed)
    peak_rss = 0.0
    passes, traced_walls, untraced_walls, setups, layer, spans = [], [], [], [], [], []
    fits = {"svm_fits": 0, "train_rows": 0}
    first, outcome = None, {}
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    start, pass_s = time.perf_counter(), 0.0
    # stop before a pass that would not end inside the window
    while len(passes) < min_passes or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        warmup = not passes
        traced = trace and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        counts = {"svm_fits": 0, "train_rows": 0}
        instrument = (functools.partial(tracing.install, tracer) if traced
                      else functools.partial(tracing.count_fits, counts))
        root = os.path.join(work_root, f"pass{len(passes):03d}")
        p = run_pass(wl, seed, root, cli_main, tracer, instrument,
                     None if trace else SpeedSampler())
        passes.append(p)
        if warmup:
            peak_rss = _peak_rss_mb()
        if p.failed == 0:
            outcome, digests = check_pass(wl, seed, root, p, reference, first)
            first = first or digests
        shutil.rmtree(root, ignore_errors=True)
        if p.failed:
            break
        if traced:
            traced_walls.append(p.wall_s)
            layer.append(tracing.layer_metrics(tracer.spans, p.wall_s))
            spans = tracing.spans_doc(tracer.spans)
        else:
            fits = counts
            if not warmup:
                # rescaled to the speed at which the kernel takes PROBE_S;
                # a traced run samples no speed and keeps raw times
                scale = PROBE_S / statistics.median(p.probe_s) if p.probe_s else 1.0
                untraced_walls.append(p.wall_s * scale)
                setups.append(p.setup_s * scale)
        pass_s = time.perf_counter() - pass_start

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    ok = failed == 0
    if trace:
        metrics = {name: {"value": _median([m[name][0] for m in layer]), "unit": unit}
                   for name, (_, unit) in tracing.layer_metrics([], 1.0).items()}
        ratio = _median(traced_walls) / _median(untraced_walls) - 1 if ok and layer else 0.0
        metrics["trace.overhead_frac"] = {"value": ratio, "unit": "frac"}
    else:
        wall = _median(untraced_walls)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "images_per_s": {"value": wl.n_images / wall if wall else 0.0, "unit": "1/s"},
            "accuracy": {"value": outcome.get("accuracy", 0.0), "unit": "frac"},
            "auc": {"value": outcome.get("auc", 0.0), "unit": "frac"},
            "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
            "setup_s": {"value": _median(setups), "unit": "s"},
            "ok_frac": {"value": (attempted - failed) / attempted if attempted else 0.0,
                        "unit": "frac"},
        }
    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": {
            "name": wl.name, "seed": arg_seed, "input_seed": seed, "n_images": wl.n_images,
            "gaussian_variance": wl.variance, "stages": list(wl.stages),
            "eval_args": list(wl.eval_args),
            "pattern_shapes": outcome.get("pattern_shapes"),
            "feature_widths": outcome.get("feature_widths"),
            "svm_fits": fits["svm_fits"],
            "train_rows_per_fit": fits["train_rows"] / fits["svm_fits"] if fits["svm_fits"] else 0,
        },
        "passes": {"count": len(passes), "traced": len(traced_walls),
                   "raw_wall_s": [p.wall_s for p in passes],
                   "raw_setup_s": [p.setup_s for p in passes],
                   "probe_median_s": [_median(p.probe_s) for p in passes],
                   "probe_samples": [len(p.probe_s) for p in passes]},
        # pass 0's sha256 of the corpus and of the .fsfm and report.json
        # outputs: two runs with the same seed must print the same digests
        "digests": first,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": [e for p in passes for e in p.errors],
    }
    return result, record, spans
