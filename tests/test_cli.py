import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import facestack
from facestack import evaluation, stacking
from facestack import cli, pool, synth
from facestack import svm as svm_module
from facestack.cli import main
from facestack.dataset import Manifest, load_folds, load_manifest, save_manifest
from facestack.descriptors import extract_descriptor
from facestack.features import load_features
from facestack.pgm import read_pgm
from facestack.stacking import CANONICAL_STAGES, load_stacked, save_stacked, stack_fit
from facestack.svm import derive_seed, load_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One small corpus taken through the whole pipeline, and a second one of
    other images (corpus2, hog2.fsfm, losib2.fsfm) to test eval crossdb on."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    pats = root / "fpat"
    assert main(["--out", str(corpus), "synth", "--per-class", "15"]) == 0
    assert main(["--seed", "9", "--out", str(root / "corpus2"), "synth",
                 "--per-class", "10"]) == 0
    assert main(["--out", str(root / "fpat2"), "prepare",
                 "--manifest", str(root / "corpus2" / "manifest.csv"), "--pattern", "F"]) == 0
    for descriptor in ("hog", "losib"):
        assert main(["--out", str(root / f"{descriptor}2.fsfm"), "extract",
                     "--manifest", str(root / "fpat2" / "manifest.csv"),
                     "--descriptor", descriptor]) == 0
    assert main(["--out", str(root / "folds.csv"), "folds",
                 "--manifest", str(corpus / "manifest.csv"), "--k", "3"]) == 0
    assert main(["--out", str(pats), "prepare",
                 "--manifest", str(corpus / "manifest.csv"), "--pattern", "F"]) == 0
    assert main(["--out", str(root / "hog.fsfm"), "extract",
                 "--manifest", str(pats / "manifest.csv"), "--descriptor", "hog",
                 "--csv", str(root / "hog.csv")]) == 0
    assert main(["--out", str(root / "losib.fsfm"), "extract",
                 "--manifest", str(pats / "manifest.csv"), "--descriptor", "losib"]) == 0
    return root


def test_pipeline_artifacts(workspace):
    fm = load_features(workspace / "hog.fsfm")
    assert fm.data.shape == (30, 576)
    assert fm.descriptor_id == "hog"
    csv_rows = (workspace / "hog.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 30
    run = json.loads((workspace / "corpus" / "run.json").read_text())
    assert run["command"] == "synth"
    assert run["results"]["n_samples"] == 30
    assert run["started"] <= run["finished"]
    folds_rows = (workspace / "folds.csv").read_text().strip().splitlines()
    assert folds_rows[0] == "row_index,fold"
    assert len(folds_rows) == 31


def test_train_command(workspace):
    out = workspace / "model.fsvm"
    assert main(["--out", str(out), "train",
                 "--features", str(workspace / "hog.fsfm"),
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--folds", str(workspace / "folds.csv"),
                 "--C", "4.0", "--gamma", "0.095"]) == 0
    model = load_model(out)
    assert model.params.C == 4.0
    run = json.loads((workspace / "run.json").read_text())
    assert run["results"]["train_accuracy"] >= 0.9


def test_stack_command(workspace):
    out = workspace / "stack.fstk"
    assert main(["--out", str(out), "stack",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--stage", f"C1={workspace / 'hog.fsfm'}",
                 "--stage", f"C4={workspace / 'losib.fsfm'}",
                 "--folds", str(workspace / "folds.csv"),
                 "--C", "4.0"]) == 0
    model = load_stacked(out)
    assert model.column_ids == ("C1", "C4")


def test_stack_grid_matches_direct_stack_fit(workspace, tmp_path):
    out = tmp_path / "grid.fstk"
    assert main(["--seed", "3", "--out", str(out), "stack",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--stage", f"C1={workspace / 'hog.fsfm'}",
                 "--stage", f"C4={workspace / 'losib.fsfm'}",
                 "--folds", str(workspace / "folds.csv"), "--grid"]) == 0
    mats = [load_features(workspace / f"{d}.fsfm").data.astype(np.float64)
            for d in ("hog", "losib")]
    labels = load_manifest(workspace / "corpus" / "manifest.csv",
                           check_files=False).labels()
    model = stack_fit(mats, labels, load_folds(workspace / "folds.csv"),
                      [CANONICAL_STAGES["C1"], CANONICAL_STAGES["C4"]],
                      params=None)
    direct = tmp_path / "direct.fstk"
    save_stacked(direct, model)
    assert out.read_bytes() == direct.read_bytes()


def test_eval_kfold_and_idempotence(workspace):
    args = lambda out: ["--seed", "3", "--out", str(out), "eval", "kfold",
                        "--manifest", str(workspace / "corpus" / "manifest.csv"),
                        "--stage", f"C1={workspace / 'hog.fsfm'}",
                        "--k", "3", "--C", "8.0", "--gamma", "0.04",
                        "--patterns", str(workspace / "fpat")]
    a, b = workspace / "eval_a", workspace / "eval_b"
    assert main(args(a)) == 0
    assert main(args(b)) == 0
    report = json.loads((a / "report.json").read_text())
    assert report["accuracy"] >= 0.9
    assert report["mode"] == "kfold"
    assert report["protocol"] == "none"
    assert "error_breakdown" in report
    assert (a / "roc.csv").exists()
    means = list(a.glob("mean_*.pgm"))
    assert means  # one image per populated gender/age cell

    # every artifact except run.json is byte-identical across reruns
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "roc.csv").read_bytes() == (b / "roc.csv").read_bytes()
    for m in means:
        assert m.read_bytes() == (b / m.name).read_bytes()
    ra = json.loads((a / "run.json").read_text())
    rb = json.loads((b / "run.json").read_text())
    for doc in (ra, rb):
        doc.pop("started"), doc.pop("finished")
        doc["config"].pop("out")
    assert ra == rb


def test_eval_protocol_filters_rows(workspace):
    out = workspace / "eval_adults"
    assert main(["--out", str(out), "eval", "kfold",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--stage", f"C1={workspace / 'hog.fsfm'}",
                 "--k", "3", "--C", "4.0", "--protocol", "adults"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert 0 < report["n_samples"] < 30
    assert report["protocol"] == "adults"
    # synthetic eyes are all >20px apart, so dago keeps every row
    out2 = workspace / "eval_dago"
    assert main(["--out", str(out2), "eval", "kfold",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--stage", f"C1={workspace / 'hog.fsfm'}",
                 "--k", "3", "--C", "4.0", "--protocol", "dago"]) == 0
    assert json.loads((out2 / "report.json").read_text())["n_samples"] == 30


def test_eval_crossdb_command(workspace, tmp_path):
    out = tmp_path / "xdb"
    assert main(["--out", str(out), "eval", "crossdb",
                 "--train-manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--test-manifest", str(workspace / "corpus2" / "manifest.csv"),
                 "--stage", f"C1={workspace / 'hog.fsfm'},{workspace / 'hog2.fsfm'}",
                 "--C", "8.0", "--gamma", "0.04"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "crossdb"
    # each side is named by its manifest's file stem, so two manifest.csv files
    # give the same name to two different datasets
    assert report["train_dataset"] == "manifest"
    assert report["test_dataset"] == "manifest"
    assert report["n_samples"] == 20
    assert report["accuracy"] >= 0.8


def _sharing(workspace, tmp_path, how):
    """A test manifest that shares images with workspace's corpus: the same
    file, a copy of it under another stem, or corpus2 with one row's image
    taken from corpus, directly or through a linked directory. The row is
    corpus2's first that the adults protocol drops."""
    corpus = workspace / "corpus" / "manifest.csv"
    if how == "same-file":
        return corpus
    if how == "copy":
        save_manifest(load_manifest(corpus), tmp_path / "copy.csv")
        return tmp_path / "copy.csv"
    image = load_manifest(corpus).samples[0].image_path
    if how == "symlink":
        (tmp_path / "linked").symlink_to(os.path.dirname(image))
        image = tmp_path / "linked" / os.path.basename(image)
    other = workspace / "corpus2" / "manifest.csv"
    row = next(i for i, s in enumerate(load_manifest(other).samples)
               if s.age_group not in facestack.ADULT_GROUPS)
    return _with_images(other, tmp_path / "shared.csv", {row: image})


def _crossdb_argv(workspace, test_manifest):
    """`_stage_argv`'s eval crossdb of C1 with test_manifest on the test side."""
    argv = _stage_argv(workspace, "eval crossdb", [("C1", "hog")])
    argv[argv.index("--test-manifest") + 1] = str(test_manifest)
    return argv


@pytest.mark.parametrize("how", ["same-file", "copy", "one-image", "symlink"])
def test_eval_crossdb_refuses_shared_images_before_any_work(workspace, tmp_path, capsys,
                                                            monkeypatch, how):
    # one manifest passed under two names once trained on its own test rows
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    monkeypatch.setattr(cli, "load_features", lambda path: pytest.fail("features loaded"))
    out = tmp_path / "xdb"
    argv = ["--out", str(out)] + _crossdb_argv(workspace, _sharing(workspace, tmp_path, how))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"share {30 if how in ('same-file', 'copy') else 1} image(s)" in err
    assert os.listdir(out) == []
    if how == "same-file":  # and the name flags are gone
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--train-name", "a", "--test-name", "b"])
        assert exc.value.code == 2


def test_eval_crossdb_compares_the_rows_the_protocol_keeps(workspace, tmp_path):
    # the shared image sits on a row that --protocol adults drops
    argv = _crossdb_argv(workspace, _sharing(workspace, tmp_path, "one-image"))
    assert main(["--out", str(tmp_path / "all")] + argv) == 2
    assert main(["--out", str(tmp_path / "adults")] + argv + ["--protocol", "adults"]) == 0


def test_noise_sweep_command(workspace):
    out = workspace / "sweep"
    assert main(["--out", str(out), "noise-sweep",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--pattern", "F", "--descriptor", "losib",
                 "--noise", "gaussian", "--variances", "0,0.05",
                 "--k", "2", "--C", "4.0"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "noise,accuracy"
    assert len(lines) == 3
    levels = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert levels == [0.0, 0.05]


def test_exit_code_configuration_error(workspace, tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "f.csv"), "folds",
               "--manifest", str(workspace / "corpus" / "manifest.csv"), "--k", "1"])
    assert rc == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--C", "nan"), ("--C", "inf"), ("--gamma", "nan")])
def test_bad_svm_value_exits_2_before_any_solve(workspace, tmp_path, capsys, monkeypatch,
                                               flag, value):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    rc = main(["--out", str(tmp_path / "eval"), "eval", "kfold",
               "--manifest", str(workspace / "corpus" / "manifest.csv"),
               "--stage", f"C1={workspace / 'hog.fsfm'}", "--k", "3", flag, value])
    assert rc == 2
    assert "must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--C", "1e300"), ("--C", "2e6")])
def test_C_above_the_bound_exits_2_before_any_solve(workspace, tmp_path, capsys, monkeypatch,
                                                   flag, value):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    rc = main(["--out", str(tmp_path / "eval"), "eval", "kfold",
               "--manifest", str(workspace / "corpus" / "manifest.csv"),
               "--stage", f"C1={workspace / 'hog.fsfm'}", "--k", "3", flag, value])
    assert rc == 2
    assert "must be at most 1e+06" in capsys.readouterr().err


def test_exit_code_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "manifest.csv"
    good = (workspace / "corpus" / "manifest.csv").read_text().splitlines()
    bad.write_text("\n".join(good[:11]) + "\n")  # 10 rows vs 30 feature rows
    rc = main(["--out", str(tmp_path / "m.fsvm"), "train",
               "--features", str(workspace / "hog.fsfm"),
               "--manifest", str(bad), "--C", "1.0"])
    assert rc == 3
    assert "data error" in capsys.readouterr().err


def test_exit_code_partial_failure(workspace, tmp_path, capsys):
    src = (workspace / "corpus" / "manifest.csv").read_text().splitlines()
    img_dir = str(workspace / "corpus" / "images")
    broken = [src[0]] + [ln.replace("images/", img_dir + "/") for ln in src[1:3]]
    broken[2] = broken[2].replace(img_dir, str(tmp_path / "missing"))
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(broken) + "\n")
    out = tmp_path / "pats"
    rc = main(["--out", str(out), "prepare", "--manifest", str(man), "--pattern", "F"])
    assert rc == 4
    assert "partial failure" in capsys.readouterr().err
    run = json.loads((out / "run.json").read_text())
    assert run["results"] == {"n_prepared": 1, "n_failed": 1}
    assert run["failures"][0]["row"] == 1
    prepared = (out / "manifest.csv").read_text().strip().splitlines()
    assert len(prepared) == 2  # header + the surviving row


@pytest.mark.parametrize("argv, message", [
    pytest.param(["prepare", "--noise", "gaussian", "--variance", "0.5"],
                 "gaussian variance 0.5 outside", id="prepare-variance"),
    pytest.param(["prepare", "--noise", "motion", "--length", "4"],
                 "motion length 4 must be odd", id="prepare-length"),
    pytest.param(["noise-sweep", "--descriptor", "lbpu2", "--variances", "0,abc"],
                 "--variances '0,abc': expected comma-separated floats", id="sweep-variances"),
    pytest.param(["noise-sweep", "--descriptor", "lbpu2", "--noise", "motion",
                  "--lengths", "1,x"],
                 "--lengths '1,x': expected comma-separated ints", id="sweep-lengths"),
    pytest.param(["noise-sweep", "--descriptor", "lbpu2", "--variances", "0,0.5"],
                 "gaussian variance 0.5 outside", id="sweep-last-variance"),
    pytest.param(["noise-sweep", "--descriptor", "lbpu2", "--noise", "motion",
                  "--lengths", "1,4"],
                 "motion length 4 must be odd", id="sweep-last-length"),
])
def test_bad_noise_level_exits_2_before_any_row(workspace, tmp_path, capsys, monkeypatch,
                                                argv, message):
    prepared = []
    monkeypatch.setattr(cli, "prepare_pattern", lambda *a, **kw: prepared.append(a))
    out = tmp_path / "out"
    rc = main(["--out", str(out), argv[0], "--manifest",
               str(workspace / "corpus" / "manifest.csv"), "--pattern", "F"] + argv[1:])
    assert rc == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert prepared == []  # a bad last level fails before the earlier levels' work
    assert sorted(os.listdir(out)) == []


@pytest.mark.parametrize("header", ["row_index,C1", "row_index,a,a"])
def test_stack_rejects_a_repeated_score_column_id(workspace, tmp_path, header):
    # a model whose column ids repeat ('C1', 'C1'; 'C1', 'a', 'a') could not be
    # given its columns apart by stack_scores, so stack exits 3 and writes none
    width = header.count(",")
    ext = tmp_path / "ext.csv"
    ext.write_text(header + "\n" + "".join(f"{i}" + ",0.5" * width + "\n" for i in range(30)))
    out = tmp_path / "s.fstk"
    assert main(["--out", str(out), "stack",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--stage", f"C1={workspace / 'hog.fsfm'}",
                 "--folds", str(workspace / "folds.csv"),
                 "--external", str(ext), "--C", "4.0"]) == 3
    assert not out.exists()


def test_stack_requires_stage_flag(workspace, tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "s.fstk"), "stack",
               "--manifest", str(workspace / "corpus" / "manifest.csv")])
    assert rc == 2


def _stage_argv(ws, command, stages):
    """argv for `command` over the workspace feature files of stages [(id, descriptor)]."""
    manifest = str(ws / "corpus" / "manifest.csv")
    if command == "eval crossdb":
        return (["eval", "crossdb", "--train-manifest", manifest,
                 "--test-manifest", str(ws / "corpus2" / "manifest.csv"), "--C", "4.0"]
                + [a for sid, d in stages
                   for a in ("--stage", f"{sid}={ws / f'{d}.fsfm'},{ws / f'{d}2.fsfm'}")])
    head = {"stack": ["stack", "--folds", str(ws / "folds.csv")],
            "eval kfold": ["eval", "kfold", "--k", "3"]}[command]
    return (head + ["--manifest", manifest, "--C", "4.0"]
            + [a for sid, d in stages for a in ("--stage", f"{sid}={ws / f'{d}.fsfm'}")])


@pytest.mark.parametrize("stages, message", [
    pytest.param([("C1", "losib")], "stage C1 is hog features, but its file holds 'losib'",
                 id="canonical-mislabelled"),
    pytest.param([("C4", "losib"), ("C3", "hog")], "stage C3 is lbpu2 features",
                 id="canonical-mislabelled-second"),
    pytest.param([("C1", "hog"), ("C1", "hog")], "stage id 'C1' is given more than once",
                 id="duplicate-canonical"),
    pytest.param([("X", "hog"), ("X", "losib")], "stage id 'X' is given more than once",
                 id="duplicate-custom"),
])
@pytest.mark.parametrize("command", ["stack", "eval kfold", "eval crossdb"])
def test_bad_stage_ids_exit_2_before_any_fit(workspace, tmp_path, capsys, monkeypatch,
                                             command, stages, message):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    out = tmp_path / ("out" if command.startswith("eval") else "out.fstk")
    assert main(["--out", str(out)] + _stage_argv(workspace, command, stages)) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and message in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command", ["stack", "eval kfold", "eval crossdb"])
def test_zero_pca_components_exit_2_before_any_fit(workspace, tmp_path, capsys, monkeypatch,
                                                   command):
    # N = 0 components would mean no PCA at all, while the reports echo `:pca0`
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    out = tmp_path / ("out" if command.startswith("eval") else "out.fstk")
    argv = _stage_argv(workspace, command, [("C1", "hog")])
    argv[-1] += ":pca0"
    assert main(["--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "PCA needs at least one component" in err
    assert not out.exists() or os.listdir(out) == []


@pytest.mark.parametrize("command, pca, most", [
    ("eval kfold", 9999, 19),
    ("eval kfold", 20, 19),  # 3 folds of 10 rows: each training part has 20
    ("eval crossdb", 30, 29),  # crossdb trains on all 30 rows
])
def test_pca_above_the_training_part_exits_2_before_any_fit(workspace, tmp_path, capsys,
                                                            monkeypatch, command, pca, most):
    # pca_fit would keep only `most` components, while the reports echo the N asked for
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    monkeypatch.setattr(evaluation, "pca_fit", lambda *a: pytest.fail("a PCA fit started"))
    out = tmp_path / "out"
    argv = _stage_argv(workspace, command, [("C1", "hog")])
    argv[-1] += f":pca{pca}"
    assert main(["--out", str(out)] + argv) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"pca{pca} asks for more components" in err
    assert f"(at most {most})" in err
    assert not out.exists() or os.listdir(out) == []
    argv[-1] = argv[-1].replace(f":pca{pca}", f":pca{most}")
    monkeypatch.undo()
    assert main(["--out", str(tmp_path / "ok")] + argv) == 0


def test_grid_paths_rerun_byte_identical(workspace, tmp_path):
    # c09 reruns fixed (C, gamma); this reruns the grid-searched stacking paths
    manifest = str(workspace / "corpus" / "manifest.csv")
    stages = ["--stage", f"C1={workspace / 'hog.fsfm'}",
              "--stage", f"C4={workspace / 'losib.fsfm'}"]
    trees = []
    for name in ("a", "b"):
        root = tmp_path / name
        assert main(["--seed", "3", "--out", str(root / "stack.fstk"), "stack",
                     "--manifest", manifest, *stages,
                     "--folds", str(workspace / "folds.csv"), "--grid"]) == 0
        assert main(["--seed", "3", "--out", str(root / "eval"), "eval", "kfold",
                     "--manifest", manifest, *stages, "--k", "3", "--grid"]) == 0
        trees.append({str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
                      if p.is_file() and p.name != "run.json"})
    assert sorted(trees[0]) == ["eval/report.json", "eval/roc.csv", "stack.fstk"]
    assert trees[0] == trees[1]


def test_unknown_descriptor_rejected_by_parser(workspace, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["--out", str(tmp_path / "x.fsfm"), "extract",
              "--manifest", str(workspace / "fpat" / "manifest.csv"),
              "--descriptor", "sift"])
    assert exc.value.code == 2


def test_folds_protocol_conflict(workspace, tmp_path, capsys):
    rc = main(["--out", str(tmp_path / "e"), "eval", "kfold",
               "--manifest", str(workspace / "corpus" / "manifest.csv"),
               "--stage", f"C1={workspace / 'hog.fsfm'}",
               "--folds", str(workspace / "folds.csv"),
               "--protocol", "adults", "--C", "4.0"])
    assert rc == 2


def _per_pattern(manifest_path, descriptor):
    samples = load_manifest(manifest_path).samples
    return np.asarray([extract_descriptor(read_pgm(s.image_path), descriptor) for s in samples],
                      dtype=np.float32)


def test_extract_chunks_match_per_pattern_extraction(workspace):
    # 30 F patterns make chunks of 8, 8, 8 and 6
    per_chunk = cli._CHUNK_PIXELS // (65 * 59)
    assert per_chunk > 1 and 30 % per_chunk != 0
    for descriptor in ("hog", "losib"):
        fm = load_features(workspace / f"{descriptor}.fsfm")
        want = _per_pattern(workspace / "fpat" / "manifest.csv", descriptor)
        assert fm.data.dtype == np.float32
        assert fm.data.tobytes() == want.tobytes()


def test_chunks_split_on_shape_and_pixel_budget():
    f, hs64 = np.zeros((65, 59), np.uint8), np.zeros((64, 64), np.uint8)
    big = np.zeros((200, 200), np.uint8)  # over the budget on its own
    patterns = [f] * 10 + [hs64] * 3 + [f] + [big] * 2 + [hs64] * 9
    assert [c.shape for c in cli._chunks(iter(patterns))] == [
        (8, 65, 59), (2, 65, 59), (3, 64, 64), (1, 65, 59), (1, 200, 200),
        (1, 200, 200), (8, 64, 64), (1, 64, 64)]


def test_extract_mixed_pattern_sizes(workspace, tmp_path, capsys):
    hs = tmp_path / "hs64"
    assert main(["--out", str(hs), "prepare", "--manifest",
                 str(workspace / "corpus" / "manifest.csv"), "--pattern", "HS64"]) == 0
    f_rows = load_manifest(workspace / "fpat" / "manifest.csv").samples
    hs_rows = load_manifest(hs / "manifest.csv").samples
    # F, F, HS64, F, HS64, HS64, ...: runs of one and two rows of each size
    mixed = [(f_rows if "FFHFHH"[i % 6] == "F" else hs_rows)[i] for i in range(30)]
    assert {read_pgm(s.image_path).shape for s in mixed} == {(65, 59), (64, 64)}
    manifest = tmp_path / "mixed.csv"
    save_manifest(Manifest(tuple(mixed)), manifest)

    # hog is 576 wide on both sizes, so the matrix is whole
    out = tmp_path / "mixed_hog.fsfm"
    assert main(["--out", str(out), "extract", "--manifest", str(manifest),
                 "--descriptor", "hog"]) == 0
    assert load_features(out).data.tobytes() == _per_pattern(manifest, "hog").tobytes()

    # raw is as wide as the pattern
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "mixed_raw.fsfm"), "extract",
                 "--manifest", str(manifest), "--descriptor", "raw"]) == 3
    assert "inconsistent feature widths [3835, 4096]" in capsys.readouterr().err


def test_extract_checks_widths_across_worker_groups(workspace, tmp_path, capsys, monkeypatch,
                                                   forks, assert_reaped):
    hs = tmp_path / "hs64"
    assert main(["--out", str(hs), "prepare", "--manifest",
                 str(workspace / "corpus" / "manifest.csv"), "--pattern", "HS64"]) == 0
    f_rows = load_manifest(workspace / "fpat" / "manifest.csv").samples
    hs_rows = load_manifest(hs / "manifest.csv").samples
    manifest = tmp_path / "f_then_hs64.csv"
    save_manifest(Manifest(f_rows[:15] + hs_rows[15:]), manifest)
    # on 2 cores each worker group holds one pattern size
    for cores in (1, 2):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        capsys.readouterr()
        assert main(["--out", str(tmp_path / "raw.fsfm"), "extract",
                     "--manifest", str(manifest), "--descriptor", "raw"]) == 3
        assert "inconsistent feature widths [3835, 4096]" in capsys.readouterr().err
    assert forks
    assert_reaped()


def test_eval_kfold_rejects_negative_fold_ids(workspace, tmp_path, capsys):
    lines = (workspace / "folds.csv").read_text().splitlines()
    for i in range(1, 11):  # 10 of 30 rows get fold -1
        lines[i] = lines[i].split(",")[0] + ",-1"
    plan = tmp_path / "folds.csv"
    plan.write_text("\n".join(lines) + "\n")
    rc = main(["--out", str(tmp_path / "e"), "eval", "kfold",
               "--manifest", str(workspace / "corpus" / "manifest.csv"),
               "--stage", f"C1={workspace / 'hog.fsfm'}",
               "--folds", str(plan), "--C", "4.0"])
    assert rc == 3
    assert "fold id" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["folds", "extract", "train", "stack"])
def test_file_output_creates_missing_directory(workspace, tmp_path, command):
    manifest = str(workspace / "corpus" / "manifest.csv")
    hog = str(workspace / "hog.fsfm")
    args = {
        "folds": ["folds", "--manifest", manifest, "--k", "3"],
        "extract": ["extract", "--manifest", str(workspace / "fpat" / "manifest.csv"),
                    "--descriptor", "lbpu2", "--csv", str(tmp_path / "new" / "dir" / "x.csv")],
        "train": ["train", "--features", hog, "--manifest", manifest, "--C", "4.0"],
        "stack": ["stack", "--manifest", manifest, "--stage", f"C1={hog}",
                  "--stage", f"C4={workspace / 'losib.fsfm'}", "--C", "4.0"],
    }[command]
    out = tmp_path / "new" / "dir" / "output"
    assert main(["--out", str(out)] + args) == 0
    assert out.is_file()
    assert (out.parent / "run.json").is_file()


@pytest.mark.parametrize("command", ["train", "stack", "eval kfold"])
def test_missing_binary_input_exits_3(workspace, tmp_path, capsys, command):
    manifest = str(workspace / "corpus" / "manifest.csv")
    missing = str(tmp_path / "nope.fsfm")
    args = {
        "train": ["train", "--features", missing, "--manifest", manifest, "--C", "4.0"],
        "stack": ["stack", "--manifest", manifest, "--stage", f"C1={missing}", "--C", "4.0"],
        "eval kfold": ["eval", "kfold", "--manifest", manifest, "--stage", f"C1={missing}",
                       "--C", "4.0"],
    }[command]
    out = tmp_path / ("out" if command.startswith("eval") else "out.bin")
    assert main(["--out", str(out)] + args) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "nope.fsfm" in err


NAN_F32 = b"\x00\x00\xc0\x7f"  # a float32 NaN, little-endian


def _bad_input(ws, tmp_path, case):
    """argv for one malformed-input case, writing the bad file it names under
    tmp_path."""
    manifest = str(ws / "corpus" / "manifest.csv")
    hog = ws / "hog.fsfm"
    stack = ["stack", "--manifest", manifest, "--stage", f"C1={hog}", "--C", "4.0"]
    if case == "header-only-manifest":
        header = (ws / "fpat" / "manifest.csv").read_text().splitlines()[0]
        (tmp_path / "bad.csv").write_text(header + "\n")
        return ["extract", "--manifest", str(tmp_path / "bad.csv"), "--descriptor", "hog"]
    if case == "pgm-header":
        (tmp_path / "bad.pgm").write_bytes(b"P5\n59 6x\n255\n" + bytes(59 * 65))
        one = _with_images(ws / "fpat" / "manifest.csv", tmp_path / "m.csv",
                           {0: tmp_path / "bad.pgm"})
        (tmp_path / "one.csv").write_text("\n".join(one.read_text().splitlines()[:2]) + "\n")
        return ["extract", "--manifest", str(tmp_path / "one.csv"), "--descriptor", "hog"]
    if case in ("fsfm-trailing-byte", "fsfm-nan"):
        blob = hog.read_bytes()
        (tmp_path / "bad.fsfm").write_bytes(
            blob + b"\0" if case == "fsfm-trailing-byte" else blob[:-4] + NAN_F32)
        # the bad file is the second of two stages
        return stack + ["--stage", f"C4={tmp_path / 'bad.fsfm'}"]
    if case == "stack-pca":
        return stack[:-3] + [f"C1={hog}:pca5", "--C", "4.0"]
    if case == "protocol-empty":  # every pair of eyes 10 px apart: dago keeps none
        samples = load_manifest(manifest).samples
        save_manifest(Manifest(tuple(dataclasses.replace(s, eye_right=(s.eye_left[0] + 10.0,
                                                                       s.eye_left[1]))
                                     for s in samples)), tmp_path / "bad.csv")
        return ["eval", "kfold", "--manifest", str(tmp_path / "bad.csv"),
                "--stage", f"C1={hog}", "--protocol", "dago", "--C", "4.0"]
    rows = {"scores-non-numeric": ["0,abc"], "scores-nan": ["0,nan"],
            "scores-repeated-row": ["0,0.5", "0,0.5"]}[case]
    (tmp_path / "bad.csv").write_text("row_index,EXT\n" + "\n".join(rows) + "\n")
    return stack + ["--external", str(tmp_path / "bad.csv")]


BAD_INPUTS = [
    ("header-only-manifest", 3, "bad.csv: no samples"),
    ("pgm-header", 3, "bad.pgm: non-numeric PGM header field"),
    ("fsfm-trailing-byte", 3, "bad.fsfm: trailing bytes after the last record"),
    ("fsfm-nan", 3, "bad.fsfm: feature matrix contains non-finite values"),
    ("stack-pca", 2, "PCA stage suffixes are only supported by eval"),
    ("protocol-empty", 3, "protocol 'dago' filtered out every sample"),
    ("scores-non-numeric", 3, "bad.csv: row 2: could not convert string to float"),
    ("scores-nan", 3, "bad.csv: non-finite score"),
    ("scores-repeated-row", 3, "bad.csv: row_indices must be unique, one per row"),
]


@pytest.mark.parametrize("case, code, message", BAD_INPUTS, ids=[c[0] for c in BAD_INPUTS])
def test_a_bad_input_exits_with_its_code_naming_its_file(workspace, tmp_path, capsys,
                                                        monkeypatch, case, code, message):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    argv = _bad_input(workspace, tmp_path, case)
    out = tmp_path / ("out" if argv[0] == "eval" else "out.bin")
    assert main(["--out", str(out)] + argv) == code
    err = capsys.readouterr().err
    assert ("configuration error" if code == 2 else "data error") in err
    assert message in err
    assert not out.exists() or os.listdir(out) == []


def test_module_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(facestack.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "corpus"
    proc = subprocess.run([sys.executable, "-m", "facestack.cli", "--out", str(out),
                           "synth", "--per-class", "2"], env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "manifest.csv").is_file()


def test_manifests_are_utf8_whatever_the_locale(workspace, tmp_path):
    manifest = load_manifest(workspace / "corpus" / "manifest.csv")
    first = dataclasses.replace(manifest.samples[0], identity_id="José")
    path = tmp_path / "manifest.csv"
    save_manifest(Manifest((first,) + manifest.samples[1:]), path)
    src = os.path.dirname(os.path.dirname(facestack.__file__))
    env = dict(os.environ, PYTHONPATH=src, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
    out = tmp_path / "pats"
    proc = subprocess.run([sys.executable, "-m", "facestack.cli", "--out", str(out),
                           "prepare", "--manifest", str(path), "--pattern", "F"],
                          env=env, capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert load_manifest(out / "manifest.csv").samples[0].identity_id == "José"


@pytest.mark.parametrize("where", ["missing/x.csv", "dir", "out/lbp.fsfm", "out/run.json"],
                         ids=["missing", "directory", "out", "run_json"])
def test_extract_csv_that_cannot_be_written_fails_before_any_work(workspace, tmp_path, capsys,
                                                                    where):
    (tmp_path / "dir").mkdir()
    csv_path = tmp_path / where
    rc = main(["--out", str(tmp_path / "out" / "lbp.fsfm"), "extract",
               "--manifest", str(workspace / "fpat" / "manifest.csv"),
               "--descriptor", "lbpu2", "--csv", str(csv_path)])
    assert rc == 2
    assert "--csv" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["dir"]


def test_noise_sweep_grid_flag_searches(workspace, monkeypatch):
    calls = []
    real = stacking.best_point

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(stacking, "best_point", spy)
    assert main(["--out", str(workspace / "sweep_grid"), "noise-sweep",
                 "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--pattern", "F", "--descriptor", "lbpu2", "--variances", "0,0.05",
                 "--k", "2", "--grid"]) == 0
    assert len(calls) == 4  # one search per outer fold per noise level


GARBAGE = bytes(range(256)) * 4  # not UTF-8 and no valid magic


def _damage(good, how):
    data = good.read_bytes()
    return {"cut10": data[:10], "half": data[: len(data) // 2], "garbage": GARBAGE}[how]


def _corruption_cases(ws, tmp_path):
    """Per command: argv with {name} placeholders and the good input per name."""
    manifest = ws / "corpus" / "manifest.csv"
    scores = tmp_path / "ext.csv"
    scores.write_text("row_index,EXT\n" + "".join(f"{i},{i % 3 - 1}.5\n" for i in range(30)))
    one_manifest = tmp_path / "one" / "manifest.csv"
    one_manifest.parent.mkdir()
    (tmp_path / "one" / "000000.pgm").write_bytes((ws / "fpat" / "000000.pgm").read_bytes())
    header, first_row = (ws / "fpat" / "manifest.csv").read_text().splitlines()[:2]
    one_manifest.write_text(f"{header}\n{first_row}\n")
    return {
        "train": (["train", "--features", "{fsfm}", "--manifest", "{manifest}",
                   "--folds", "{folds}", "--C", "4.0"],
                  {"fsfm": ws / "hog.fsfm", "manifest": manifest, "folds": ws / "folds.csv"}),
        "stack": (["stack", "--manifest", "{manifest}", "--stage", "C1={fsfm}",
                   "--folds", "{folds}", "--external", "{scores}", "--C", "4.0"],
                  {"fsfm": ws / "hog.fsfm", "manifest": manifest, "folds": ws / "folds.csv",
                   "scores": scores}),
        "eval kfold": (["eval", "kfold", "--manifest", "{manifest}", "--stage", "C1={fsfm}",
                        "--folds", "{folds}", "--C", "4.0"],
                       {"fsfm": ws / "hog.fsfm", "manifest": manifest,
                        "folds": ws / "folds.csv"}),
        "eval crossdb": (["eval", "crossdb", "--train-manifest", "{train}",
                          "--test-manifest", "{test}",
                          "--stage", "C1={trainf},{testf}", "--C", "4.0"],
                         {"train": manifest, "test": ws / "corpus2" / "manifest.csv",
                          "trainf": ws / "hog.fsfm", "testf": ws / "hog2.fsfm"}),
        "extract": (["extract", "--manifest", "{manifest}", "--descriptor", "hog"],
                    {"manifest": one_manifest, "pgm": one_manifest.parent / "000000.pgm"}),
    }


@pytest.mark.parametrize("how", ["cut10", "half", "garbage"])
@pytest.mark.parametrize("command", ["train", "stack", "eval kfold", "eval crossdb", "extract"])
def test_corrupt_inputs_exit_2_or_3(workspace, tmp_path, capsys, command, how):
    argv, inputs = _corruption_cases(workspace, tmp_path)[command]
    for name, good in inputs.items():
        # the image is a private copy named by the manifest, so damage it in place
        bad = good if name == "pgm" else tmp_path / f"bad_{name}"
        bad.write_bytes(_damage(good, how))
        paths = {k: str(bad if k == name else v) for k, v in inputs.items()}
        out = tmp_path / name / ("out" if command.startswith("eval") else "out.bin")
        rc = main(["--out", str(out)] + [a.format(**paths) for a in argv])
        assert rc in (2, 3), (name, rc, capsys.readouterr().err)


@pytest.mark.parametrize("command", ["eval kfold", "eval crossdb"])
def test_no_stage_exits_2_before_any_fit(workspace, tmp_path, capsys, monkeypatch, command):
    # eval crossdb without --stage once ended in an IndexError traceback
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    assert main(["--out", str(tmp_path / "out")] + _stage_argv(workspace, command, [])) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "at least one first-stage feature matrix" in err


@pytest.mark.parametrize("command, stage", [
    pytest.param("stack", "C1={f},{f}", id="stack-2"),
    pytest.param("eval kfold", "C1={f},{f}", id="kfold-2"),
    pytest.param("eval crossdb", "C1={f}", id="crossdb-1"),
    pytest.param("eval crossdb", "C1={f},{f},{f}", id="crossdb-3"),
    pytest.param("stack", "{f}", id="stack-no-id"),  # no '=' at all
    pytest.param("eval crossdb", "{f},{f}", id="crossdb-no-id"),
])
def test_wrong_number_of_stage_files_exits_2(workspace, tmp_path, capsys, monkeypatch,
                                             command, stage):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    argv = _stage_argv(workspace, command, [("C1", "hog")])
    argv[-1] = stage.format(f=workspace / "hog.fsfm")
    out = tmp_path / ("out" if command.startswith("eval") else "out.fstk")
    assert main(["--out", str(out)] + argv) == 2
    assert "must look like ID=" in capsys.readouterr().err


def test_eval_kfold_missing_patterns_dir_exits_3(workspace, tmp_path, capsys):
    # reading a mean pattern's images from a missing directory was a traceback
    argv = _stage_argv(workspace, "eval kfold", [("C1", "hog")])
    rc = main(["--out", str(tmp_path / "e")] + argv + ["--patterns", str(tmp_path / "nope")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "nope" in err


def test_eval_kfold_reads_the_patterns_before_any_output(workspace, tmp_path, monkeypatch):
    # a missing pattern image left a full-looking report.json and roc.csv behind
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    out = tmp_path / "e"
    argv = _stage_argv(workspace, "eval kfold", [("C1", "hog")])
    assert main(["--out", str(out)] + argv + ["--patterns", str(tmp_path / "nope")]) == 3
    assert sorted(p.name for p in out.iterdir()) == []


def test_fold_plan_must_cover_the_manifest(workspace, tmp_path, capsys):
    lines = (workspace / "folds.csv").read_text().splitlines()
    plan = tmp_path / "short.csv"
    plan.write_text("\n".join(lines[:-3]) + "\n")  # 27 of 30 rows
    manifest = str(workspace / "corpus" / "manifest.csv")
    hog = str(workspace / "hog.fsfm")
    for args in (["train", "--features", hog], ["stack", "--stage", f"C1={hog}"],
                 ["eval", "kfold", "--stage", f"C1={hog}"]):
        out = tmp_path / ("e" if args[0] == "eval" else "out.bin")
        rc = main(["--out", str(out)] + args + ["--manifest", manifest, "--folds", str(plan)])
        assert rc == 3
        assert "fold plan covers 27 rows, manifest has 30" in capsys.readouterr().err


def test_eval_crossdb_custom_stage_on_two_descriptors_exits_2(workspace, tmp_path, capsys,
                                                              monkeypatch):
    # each side's stage ids are checked against its own files
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    argv = _stage_argv(workspace, "eval crossdb", [("X", "hog")])
    argv[-1] = f"X={workspace / 'hog.fsfm'},{workspace / 'losib2.fsfm'}"
    assert main(["--out", str(tmp_path / "out")] + argv) == 2
    assert "train and test stages must list the same specs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["synth", "eval kfold"])
def test_negative_seed_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    args = {"synth": ["synth", "--per-class", "2"],
            "eval kfold": ["eval", "kfold", "--manifest", str(workspace / "corpus" / "manifest.csv"),
                           "--stage", f"C1={workspace / 'hog.fsfm'}", "--k", "3"]}[command]
    out = tmp_path / "out"
    assert main(["--seed", "-1", "--out", str(out)] + args) == 2
    assert "--seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_prepare_rejects_a_non_finite_eye_coordinate(workspace, tmp_path, capsys):
    header, first, *rest = (workspace / "corpus" / "manifest.csv").read_text().splitlines()
    fields = first.split(",")
    fields[0] = str(workspace / "corpus" / fields[0])
    fields[4] = "-inf"  # eye_lx
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join([header, ",".join(fields)]) + "\n")
    out = tmp_path / "pats"
    assert main(["--out", str(out), "prepare", "--manifest", str(man), "--pattern", "F"]) == 3
    assert "row 2: eye coordinates must be finite" in capsys.readouterr().err
    assert not (out / "manifest.csv").exists()


def test_eyes_with_a_degenerate_transform_are_failed_rows_not_a_traceback(workspace, tmp_path,
                                                                         capsys):
    header, *rows = (workspace / "corpus" / "manifest.csv").read_text().splitlines()
    img_dir = str(workspace / "corpus" / "images")
    rows = [row.replace("images/", img_dir + "/") for row in rows]
    for row, eyes in ((2, "0,0,1e200,0"), (5, "0,0,1e-320,0")):
        rows[row] = ",".join(rows[row].split(",")[:4]) + "," + eyes
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join([header] + rows) + "\n")
    out = tmp_path / "pats"
    assert main(["--out", str(out), "prepare", "--manifest", str(man), "--pattern", "HS64"]) == 4
    run = json.loads((out / "run.json").read_text())
    assert [f["row"] for f in run["failures"]] == [2, 5]
    assert all("degenerate or infinite transform" in f["error"] for f in run["failures"])
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "sweep"), "noise-sweep", "--manifest", str(man),
                 "--pattern", "F", "--descriptor", "hog", "--variances", "0", "--k", "3",
                 "--C", "4.0"]) == 2
    assert "degenerate or infinite transform" in capsys.readouterr().err


@pytest.mark.parametrize("command, out", [
    ("folds", "dir"), ("extract", "dir"), ("train", "dir"), ("stack", "dir"),
    ("train", "under_file"), ("synth", "under_file"), ("prepare", "file"),
    ("eval kfold", "file"), ("extract", "ends_in_sep"), ("extract", "empty")])
def test_unwritable_out_exits_2_before_any_work(workspace, tmp_path, capsys, monkeypatch,
                                                command, out):
    # a file output that is a directory or names no file ("" or a path ending
    # in a separator), or a directory that cannot be made
    monkeypatch.setattr(svm_module, "_solve", lambda problems: pytest.fail("a solve started"))
    monkeypatch.setattr(cli, "extract_descriptor", lambda *a: pytest.fail("extraction started"))
    manifest = str(workspace / "corpus" / "manifest.csv")
    hog = str(workspace / "hog.fsfm")
    args = {
        "folds": ["folds", "--manifest", manifest, "--k", "3"],
        "extract": ["extract", "--manifest", str(workspace / "fpat" / "manifest.csv"),
                    "--descriptor", "lbpu2", "--csv", str(tmp_path / "new" / "dir" / "x.csv")],
        "train": ["train", "--features", hog, "--manifest", manifest, "--C", "4.0"],
        "stack": ["stack", "--manifest", manifest, "--stage", f"C1={hog}",
                  "--stage", f"C4={workspace / 'losib.fsfm'}", "--C", "4.0"],
        "synth": ["synth", "--per-class", "2"],
        "prepare": ["prepare", "--manifest", manifest, "--pattern", "F"],
        "eval kfold": ["eval", "kfold", "--manifest", manifest, "--stage", f"C1={hog}",
                       "--k", "3", "--C", "4.0"],
    }[command]
    taken = tmp_path / "taken"
    if out == "dir":
        taken.mkdir()
    elif out in ("file", "under_file"):
        taken.write_text("kept\n")
    target = {"under_file": str(taken / "x"), "ends_in_sep": str(taken) + os.sep,
              "empty": ""}.get(out, str(taken))
    monkeypatch.chdir(tmp_path)
    assert main(["--out", target] + args) == 2
    assert "configuration error" in capsys.readouterr().err
    if out == "dir":
        assert list(taken.iterdir()) == []
    elif out in ("file", "under_file"):
        assert taken.read_text() == "kept\n"
    else:
        assert list(tmp_path.iterdir()) == []  # no run.json, no output


def test_folds_seed_is_the_plan_the_other_commands_build(workspace, tmp_path):
    manifest = str(workspace / "corpus" / "manifest.csv")
    stage = ["--stage", f"C1={workspace / 'hog.fsfm'}", "--C", "4.0"]
    plan = str(tmp_path / "folds.csv")
    assert main(["--seed", "7", "--out", plan, "folds", "--manifest", manifest, "--k", "3"]) == 0
    assert main(["--seed", "7", "--out", str(tmp_path / "given"), "eval", "kfold",
                 "--manifest", manifest, "--folds", plan] + stage) == 0
    assert main(["--seed", "7", "--out", str(tmp_path / "built"), "eval", "kfold",
                 "--manifest", manifest, "--k", "3"] + stage) == 0
    report = "report.json"
    assert (tmp_path / "given" / report).read_bytes() == (tmp_path / "built" / report).read_bytes()


def test_noise_sweep_level_equals_prepare_extract_eval(workspace, tmp_path):
    manifest = str(workspace / "corpus" / "manifest.csv")
    svm_flags = ["--k", "3", "--C", "4.0", "--gamma", "0.04"]
    levels = ["0.05", "0.1"]
    assert main(["--seed", "3", "--out", str(tmp_path / "sweep"), "noise-sweep",
                 "--manifest", manifest, "--pattern", "F", "--descriptor", "hog",
                 "--variances", ",".join(levels)] + svm_flags) == 0
    swept = json.loads((tmp_path / "sweep" / "run.json").read_text())["results"]["accuracies"]
    piped = []
    for level in levels:
        ws = tmp_path / level
        assert main(["--seed", "3", "--out", str(ws / "pat"), "prepare", "--manifest", manifest,
                     "--pattern", "F", "--noise", "gaussian", "--variance", level]) == 0
        assert main(["--seed", "3", "--out", str(ws / "hog.fsfm"), "extract",
                     "--manifest", str(ws / "pat" / "manifest.csv"), "--descriptor", "hog"]) == 0
        assert main(["--seed", "3", "--out", str(ws / "eval"), "eval", "kfold",
                     "--manifest", manifest, "--stage", f"C1={ws / 'hog.fsfm'}"] + svm_flags) == 0
        piped.append(json.loads((ws / "eval" / "report.json").read_text())["accuracy"])
    assert swept == piped


def _tree(root):
    """Every file under root but run.json, by relative path -> its bytes."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "run.json"}


def test_row_commands_do_not_depend_on_the_worker_count(workspace, tmp_path, monkeypatch,
                                                        forks, assert_reaped):
    manifest = str(workspace / "corpus" / "manifest.csv")
    commands = {
        "prepare": ["prepare", "--manifest", manifest, "--pattern", "HS64",
                    "--noise", "gaussian", "--variance", "0.05"],
        **{d: ["extract", "--manifest", "prepare/manifest.csv", "--descriptor", d]
           for d in ("hog", "lbpu2", "losib")},
        "sweep": ["noise-sweep", "--manifest", manifest, "--pattern", "F", "--descriptor",
                  "hog", "--variances", "0,0.1", "--k", "3", "--C", "4.0"],
    }
    trees, forked = [], []
    for cores in (1, 2, 3):
        monkeypatch.setattr(pool, "_cores", lambda: cores)
        (tmp_path / str(cores)).mkdir()
        monkeypatch.chdir(tmp_path / str(cores))
        counts = {}
        for name, argv in commands.items():
            before = len(forks)
            out = name if name in ("prepare", "sweep") else f"{name}.fsfm"
            assert main(["--seed", "5", "--out", out] + argv) == 0
            counts[name] = len(forks) - before
        trees.append(_tree(tmp_path / str(cores)))
        forked.append(counts)
    assert trees[0] == trees[1] == trees[2]
    assert len([n for n in trees[0] if n.endswith(".pgm")]) == 30
    assert {"prepare/manifest.csv", "hog.fsfm", "lbpu2.fsfm", "losib.fsfm",
            "sweep/sweep.csv"} <= set(trees[0])
    for name in ("prepare", "hog", "lbpu2", "losib"):  # one pooled call each
        assert [counts[name] for counts in forked] == [0, 1, 2]
    # the sweep's two levels and its solver phases each fork cores - 1 children
    sweep = [counts["sweep"] for counts in forked]
    assert sweep[0] == 0 and sweep[1] > 2 and sweep[2] == 2 * sweep[1]
    assert_reaped()


def test_a_one_row_manifest_forks_nothing(workspace, tmp_path, monkeypatch):
    corpus = load_manifest(workspace / "corpus" / "manifest.csv")
    one = tmp_path / "one.csv"
    save_manifest(Manifest(corpus.samples[:1]), one)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert main(["--out", str(tmp_path / "pat"), "prepare", "--manifest", str(one),
                 "--pattern", "F"]) == 0
    assert main(["--out", str(tmp_path / "hog.fsfm"), "extract",
                 "--manifest", str(tmp_path / "pat" / "manifest.csv"), "--descriptor", "hog"]) == 0
    assert load_features(tmp_path / "hog.fsfm").data.shape == (1, 576)


def _with_images(manifest, out, images):
    """The manifest at path manifest with rows replaced by {row: image path},
    saved at out."""
    samples = list(load_manifest(manifest, check_files=False).samples)
    for row, path in images.items():
        samples[row] = dataclasses.replace(samples[row], image_path=str(path))
    save_manifest(Manifest(tuple(samples)), out)
    return out


def test_prepare_failures_in_a_worker_are_listed_in_row_order(workspace, tmp_path, capsys,
                                                              monkeypatch, forks, assert_reaped):
    corrupt = tmp_path / "corrupt.pgm"
    corrupt.write_bytes(b"P5\n59 65\n255\n" + bytes(100))
    # row 3 in the caller's group; rows 20 and 25 in the worker's
    man = _with_images(workspace / "corpus" / "manifest.csv", tmp_path / "m.csv",
                       {3: tmp_path / "missing.pgm", 20: corrupt, 25: tmp_path / "gone.pgm"})
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    out = tmp_path / "pat"
    assert main(["--out", str(out), "prepare", "--manifest", str(man), "--pattern", "F"]) == 4
    assert "partial failure" in capsys.readouterr().err
    run = json.loads((out / "run.json").read_text())
    assert [f["row"] for f in run["failures"]] == [3, 20, 25]
    assert "raster short" in run["failures"][1]["error"]
    assert run["results"] == {"n_prepared": 27, "n_failed": 3}
    kept = load_manifest(out / "manifest.csv").samples
    assert [os.path.basename(s.image_path) for s in kept] == [
        f"{row:06d}.pgm" for row in range(30) if row not in (3, 20, 25)]
    assert len(forks) == 1
    assert_reaped()


def test_a_corrupt_pattern_in_a_worker_exits_3(workspace, tmp_path, capsys, monkeypatch, forks,
                                               assert_reaped):
    corrupt = tmp_path / "corrupt.pgm"
    corrupt.write_bytes(b"P5\n59 65\n255\n" + bytes(100))
    man = _with_images(workspace / "fpat" / "manifest.csv", tmp_path / "m.csv", {25: corrupt})
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    assert main(["--out", str(tmp_path / "hog.fsfm"), "extract", "--manifest", str(man),
                 "--descriptor", "hog"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "corrupt.pgm" in err
    assert forks and not (tmp_path / "hog.fsfm").exists()
    assert_reaped()


def test_an_unexpected_worker_error_is_raised_in_the_caller(workspace, tmp_path, monkeypatch,
                                                            forks, assert_reaped):
    caller, real = os.getpid(), cli.prepare_pattern

    def prepare(*args, **kwargs):
        if os.getpid() != caller:
            raise ZeroDivisionError("a worker's row failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "prepare_pattern", prepare)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    with pytest.raises(ZeroDivisionError, match="a worker's row failed"):
        main(["--out", str(tmp_path / "pat"), "prepare",
              "--manifest", str(workspace / "corpus" / "manifest.csv"), "--pattern", "F"])
    assert forks
    assert_reaped()


@pytest.mark.parametrize("cores", [1, 2])
@pytest.mark.parametrize("blocked", ["images", "images/m00004.pgm"])
def test_synth_into_an_unwritable_corpus_exits_2(tmp_path, capsys, monkeypatch, forks,
                                                 assert_reaped, cores, blocked):
    # images/ is a file, or the last PGM (a worker's, on 2 cores) is a directory
    out = tmp_path / "corpus"
    (out / "images").mkdir(parents=True)
    if blocked == "images":
        (out / "images").rmdir()
        (out / "images").write_text("kept\n")
    else:
        (out / blocked).mkdir()
    monkeypatch.setattr(pool, "_cores", lambda: cores)
    assert main(["--out", str(out), "synth", "--per-class", "5"]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and str(out / blocked) in err
    assert bool(forks) == (cores == 2 and blocked != "images")
    assert_reaped()


def test_a_synth_worker_that_dies_is_not_a_configuration_error(tmp_path, monkeypatch, forks,
                                                               assert_reaped):
    caller = os.getpid()

    def write_pgm(path, img):
        if os.getpid() != caller:
            os._exit(9)

    monkeypatch.setattr(synth, "write_pgm", write_pgm)
    monkeypatch.setattr(pool, "_cores", lambda: 2)
    with pytest.raises(ChildProcessError, match="wait status"):
        main(["--out", str(tmp_path / "corpus"), "synth", "--per-class", "5"])
    assert forks
    assert_reaped()
