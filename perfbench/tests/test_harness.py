"""Tests of the benchmark harness itself: python3 -m pytest perfbench/tests"""

import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from facestack import cli, evaluation, stacking, svm  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = workloads.Workload("tiny", per_class=3, variance=0.1, stages=("C1", "C2"),
                          eval_args=(), why="test")


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_self_time_subtracts_nested_children():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0])
    tr = tracing.Tracer(clock=lambda: next(ticks))
    with tr.span("root"):            # 0..10
        with tr.span("a"):           # 1..4
            with tr.span("a.inner"):  # 2..3
                pass
        with tr.span("b"):           # 5..9
            pass
    assert [s.parent for s in tr.spans] == [-1, 0, 1, 0]
    assert tracing.self_times(tr.spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [tracing.Span("root", 0.0, end=10.0),
             tracing.Span("x", 1.0, parent=0, end=5.0),
             tracing.Span("y", 3.0, parent=0, end=12.0)]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_metric_names_are_valid_and_match_benchmark_json():
    doc = _benchmark_json()
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert all(NAME_RE.fullmatch(n) for n in names), [n for n in names if not NAME_RE.fullmatch(n)]
    assert len(names) == len(set(names))
    assert [m["name"] for m in doc["per_layer"]] == tracing.metric_names()
    units = {n: u for n, (_, u) in tracing.layer_metrics([], 1.0).items()}
    for m in doc["per_layer"][:-1]:
        assert m["unit"] == units[m["name"]]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS) \
        == list(run.WORKLOAD_NAMES)
    for w in doc["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why


def test_sampler_time_counts_only_samples_inside_the_interval():
    sampler = harness.SpeedSampler()
    sampler.samples = [(0.5, 0.1), (1.0, 0.2), (1.6, 0.3), (2.0, 0.1)]
    assert sampler.taken(1.0, 2.0) == pytest.approx(0.5)
    assert sampler.taken(2.1, 3.0) == 0


def test_same_seed_generates_the_same_inputs(tmp_path, monkeypatch):
    digests = []
    for run, seed in (("a", 5), ("b", 5), ("c", 6)):
        root = tmp_path / run
        root.mkdir()
        monkeypatch.chdir(root)
        rc, log = harness.invoke(cli.main, TINY.setup_command(seed).argv)
        assert rc == 0, log
        digests.append(workloads.tree_digest(str(root), workloads.corpus_files(str(root))))
    assert digests[0] == digests[1] != digests[2]


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    """TINY's reference entry for input seed 3, made as calibrate.py makes it."""
    root = str(tmp_path_factory.mktemp("calibrate") / "pass")
    assert harness.run_pass(TINY, 3, root, cli.main).failed == 0
    outcome, errors = workloads.read_outcome(TINY, root)
    assert not errors
    return {"tiny": {"seeds": {"3": outcome}}}


def _run(tmp_path, cli_main, reference, trace=False, seed=3):
    return harness.run_benchmark(TINY, seed, 0.0, trace, cli_main, str(tmp_path / "work"),
                                 reference)


def test_failing_command_is_counted_not_dropped(tmp_path, tiny_reference):
    def failing_extract(argv):
        return 3 if "extract" in argv and "C2" in argv[argv.index("--out") + 1] else cli.main(argv)

    result, record, _ = _run(tmp_path, failing_extract, tiny_reference)
    assert result["correct"] is False
    # synth, 2 prepares of 6 rows each, 2 extracts; no checks after a failure
    assert (result["attempted"], result["failed"]) == (17, 1)
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(16 / 17)
    assert record["failed_frac"] == pytest.approx(1 / 17)
    assert any("extract extract_C2 exited 3" in e for e in record["errors"])


def test_raising_command_counts_as_exit_1(tmp_path, tiny_reference):
    def raising(argv):
        if "prepare" in argv:
            raise RuntimeError("boom")
        return cli.main(argv)

    result, record, _ = _run(tmp_path, raising, tiny_reference)
    assert result["failed"] >= 1 and result["correct"] is False
    assert any("exited 1" in e and "boom" in e for e in record["errors"])


def test_missing_reference_fails_the_check(tmp_path, tiny_reference):
    other_seed = {"tiny": {"seeds": {"4": tiny_reference["tiny"]["seeds"]["3"]}}}
    for reference in ({}, other_seed):
        result, record, _ = _run(tmp_path / str(len(reference)), cli.main, reference)
        assert result["correct"] is False
        assert any("reference.json has no entry for seed 3" in e for e in record["errors"])
    assert set(result["metrics"]) == {m["name"] for m in _benchmark_json()["end_to_end"]}


def test_reference_check_catches_drift(tiny_reference):
    ref = tiny_reference["tiny"]["seeds"]["3"]
    assert workloads.check_outcome(TINY, 3, ref, tiny_reference) == []
    for key, delta in (("accuracy", workloads.ACCURACY_TOL), ("auc", workloads.AUC_TOL)):
        drifted = dict(ref, **{key: ref[key] - 1.5 * delta})
        assert key in workloads.check_outcome(TINY, 3, drifted, tiny_reference)[0]
    means = {sid: list(m) for sid, m in ref["block_means"].items()}
    means["C2"][7] *= 1 + 10 * workloads.MEAN_RTOL
    errors = workloads.check_outcome(TINY, 3, dict(ref, block_means=means), tiny_reference)
    assert errors == ["C2: column-mean blocks [7] off reference"]


def test_every_seed_maps_onto_a_calibrated_input_seed(tmp_path, tiny_reference):
    assert [workloads.input_seed(s) for s in (0, 31, 32, 35, -1)] == [0, 31, 0, 3, 31]
    result, record, _ = _run(tmp_path, cli.main, tiny_reference,
                             seed=3 + 5 * workloads.CALIBRATED_SEEDS)
    assert result["correct"] is True, record["errors"]
    assert (record["workload"]["seed"], record["workload"]["input_seed"]) == (163, 3)


# One pass of TINY in a fresh interpreter; prints pass 0's digests.
_DIGEST_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import harness, workloads
from facestack import cli
tiny = workloads.Workload("tiny", per_class=3, variance=0.1, stages=("C1", "C2"),
                          eval_args=(), why="test")
_, record, _ = harness.run_benchmark(tiny, 3, 0.0, False, cli.main, sys.argv[3], {})
print(json.dumps(record["digests"]))
"""


def test_outputs_are_identical_across_processes(tmp_path):
    """Two runs of one seed, in interpreters with different str hashing."""
    digests = []
    for hashseed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hashseed)
        out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, BENCH, os.path.join(ROOT, "src"),
                              str(tmp_path / hashseed)], env=env, capture_output=True,
                             text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.append(json.loads(out.stdout.splitlines()[-1]))
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"inputs", "outputs"}


def test_install_patches_every_namespace_and_unpatch_restores():
    originals = (svm.svm_fit, svm.SvmModel.decision_function, evaluation.run_kfold)
    undo = tracing.install(tracing.Tracer())
    try:
        for mod in (svm, cli, evaluation, stacking):
            assert mod.svm_fit is not originals[0]
            assert mod.svm_fit.__wrapped__ is originals[0]
        assert svm.SvmModel.decision_function is not originals[1]
        assert cli.run_kfold is evaluation.run_kfold is not originals[2]
    finally:
        tracing.unpatch(undo)
    assert (cli.svm_fit, svm.SvmModel.decision_function, cli.run_kfold) == originals


def test_passing_run_is_correct(tmp_path, tiny_reference):
    result, record, _ = _run(tmp_path, cli.main, tiny_reference)
    assert result["correct"] is True, record["errors"]
    assert result["failed"] == 0 and record["passes"]["count"] == harness.MIN_PASSES
    assert result["metrics"]["peak_rss_mb"]["value"] > 0
    assert all(n >= 1 for n in record["passes"]["probe_samples"])
    assert record["digests"]["outputs"] and record["digests"]["inputs"]
    assert record["workload"]["feature_widths"] == {"C1": 576, "C2": 576}
    assert record["workload"]["pattern_shapes"] == {"F": [65, 59], "HS64": [64, 64]}


def test_traced_run_reports_every_per_layer_metric(tmp_path, tiny_reference):
    result, record, spans = _run(tmp_path, cli.main, tiny_reference, trace=True)
    assert result["correct"] is True, record["errors"]
    assert list(result["metrics"]) == tracing.metric_names()
    names = {s["name"] for s in spans}
    assert {"cli.prepare", "geometry.prepare_pattern", "descriptors.extract_descriptor",
            "pgm.read_pgm", "features.save_features"} <= names
    m = result["metrics"]
    assert m["geometry.prepare_pattern.HS64.ms_per_img"]["value"] > 0
    assert m["svm.svm_fit.calls"]["value"] == 0
    # synth is set-up: its writes are not traced, so every span sits under a command
    assert all(s["parent"] >= 0 or s["name"].startswith("cli.") for s in spans)
    shares = sum(v["value"] for k, v in m.items() if k.endswith(".self_frac"))
    assert 0.5 < shares <= 1.0
