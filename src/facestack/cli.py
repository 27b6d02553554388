"""Command line pipeline: synth -> prepare -> extract -> train/stack -> eval.

Stages communicate through files (manifests, feature matrices, models,
score CSVs) so features extracted once can feed many experiments. Every
command writes a run.json into its output directory echoing the resolved
configuration; timestamps live only there, keeping all other outputs
byte-identical across reruns with the same seed.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 partial failure.
"""

import argparse
import json
import os
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, pool
from .dataset import (Manifest, Sample, adults_mask, dago_mask, load_folds,
                      load_manifest, make_folds, save_folds, save_manifest)
from .descriptors import DESCRIPTOR_IDS, extract_descriptor
from .errors import ConfigurationError, DataError, PartialFailure
from .evaluation import (StageData, error_breakdown, mean_pattern,
                         run_crossdb, run_kfold, save_report, save_roc)
from .features import FeatureMatrix, export_csv, load_features, save_features
from .geometry import (NoiseSpec, PATTERN_VARIANTS, pattern_eyes,
                       prepare_pattern)
from .pgm import load_gray, read_pgm, write_pgm
from .stacking import (CANONICAL_STAGES, DEFAULT_STAGE_PARAMS, FirstStageSpec,
                       stack_fit, save_stacked)
from .svm import (SvmParams, derive_seed, grid_search, load_scores, save_model,
                  svm_fit)
from .synth import synth_corpus

PROTOCOLS = ("none", "dago", "dago-adults", "adults")


def _now():
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


# pixels per extract_descriptor call, which bounds the call's temporaries:
# 8 F (65x59) or HS64 patterns
_CHUNK_PIXELS = 32768


def _chunks(patterns):
    """Runs of consecutive equal-shape patterns as (N, H, W) stacks.

    A stack holds at most _CHUNK_PIXELS pixels, or one pattern if that is
    larger.
    """
    run = []
    for pat in patterns:
        if run and (pat.shape != run[0].shape or (len(run) + 1) * pat.size > _CHUNK_PIXELS):
            yield np.stack(run)
            run = []
        run.append(pat)
    if run:
        yield np.stack(run)


def _extract_rows(rows, pattern, descriptor_id):
    """The float32 feature rows of rows, pattern(row) being a row's pattern.
    The rows are cut into contiguous runs, one per core (`pool.map_groups`),
    and each run is described one chunk per extract call; the widths are
    checked across every run's chunks."""
    def describe(run):
        return [extract_descriptor(stack, descriptor_id).astype(np.float32)
                for stack in _chunks(map(pattern, run))]

    blocks = [block for run in pool.map_groups(describe, rows) for block in run]
    widths = sorted({b.shape[1] for b in blocks})
    if len(widths) > 1:
        raise DataError(f"inconsistent feature widths {widths}; "
                        "are all patterns the same size?")
    return np.concatenate(blocks)


def _write_run(out_dir, ns, started, results=None, failures=None):
    config = {k: v for k, v in sorted(vars(ns).items()) if k != "func"}
    doc = {
        "version": __version__,
        "command": ns.command,
        "config": config,
        "started": started,
        "finished": _now(),
        "results": results or {},
        "failures": failures or [],
    }
    with open(os.path.join(out_dir, "run.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _svm_params(ns):
    """The SvmParams of --C and --gamma, or None under --grid."""
    return None if ns.grid else SvmParams(C=ns.C, gamma=ns.gamma)


_STAGE_RE = re.compile(r":pca(\d+)$")


def _parse_stage(text, n_files):
    """Parse ID=FILE[:pcaN], FILE being n_files comma-separated files (TRAIN,TEST
    for 2) -> (id, [file, ...], pca)."""
    shape = "ID=" + ("FILE" if n_files == 1 else "TRAIN,TEST") + "[:pcaN]"
    if "=" not in text:
        raise ConfigurationError(f"stage {text!r} must look like {shape}")
    sid, rest = text.split("=", 1)
    pca = 0
    m = _STAGE_RE.search(rest)
    if m:
        pca = int(m.group(1))
        if not pca:
            raise ConfigurationError(f"stage {text!r}: PCA needs at least one component")
        rest = rest[: m.start()]
    files = rest.split(",")
    if len(files) != n_files:
        raise ConfigurationError(f"stage {text!r} must look like {shape}")
    return sid, files, pca


def _stage_specs(sids, descriptor_ids):
    """One FirstStageSpec per stage id, given its feature file's descriptor; a
    canonical id (C1..C5) on another descriptor, or a repeated id, is a
    ConfigurationError."""
    specs = []
    for sid, descriptor_id in zip(sids, descriptor_ids):
        if sid in (s.id for s in specs):
            raise ConfigurationError(f"stage id {sid!r} is given more than once")
        canon = CANONICAL_STAGES.get(sid)
        if canon is not None and canon.descriptor != descriptor_id:
            raise ConfigurationError(f"stage {sid} is {canon.descriptor} features, "
                                     f"but its file holds {descriptor_id!r}")
        specs.append(canon or FirstStageSpec(sid, "custom", descriptor_id or "custom"))
    return specs


def _features(path, manifest):
    """The feature file at path, which must hold one row per manifest row."""
    fm = load_features(path)
    if len(fm.data) != len(manifest):
        raise DataError(f"{path}: {len(fm.data)} rows, manifest has {len(manifest)}")
    return fm


def _load_stages(texts, sides):
    """The --stage texts as one StageData list per side. sides holds one
    (manifest, rows) pair per file of a stage: file i has one row per row of
    manifest i, and its StageData keeps the rows `rows` of it."""
    parsed = [_parse_stage(text, len(sides)) for text in texts]
    out = []
    for i, (manifest, rows) in enumerate(sides):
        fms = [_features(files[i], manifest) for _, files, _ in parsed]
        specs = _stage_specs([sid for sid, _, _ in parsed], [fm.descriptor_id for fm in fms])
        out.append([StageData(spec, fm.data[rows].astype(np.float64), pca)
                    for spec, fm, (_, _, pca) in zip(specs, fms, parsed)])
    return out


def _fold_plan(path, manifest, k, seed, grouping="by_sample"):
    """The fold plan at path (--folds), which must cover the manifest's rows,
    or without one a k-fold plan of the manifest made from seed."""
    if not path:
        return make_folds(manifest, k, derive_seed(seed, 77), grouping)
    plan = load_folds(path)
    if plan.assignments.shape != (len(manifest),):
        raise DataError(f"{path}: fold plan covers {len(plan.assignments)} rows, "
                        f"manifest has {len(manifest)}")
    return plan


def _dataset_name(path):
    """A manifest's dataset name in reports: its file stem."""
    return os.path.splitext(os.path.basename(path))[0]


def _protocol_indices(manifest, protocol):
    mask = np.ones(len(manifest), dtype=bool)
    if protocol in ("dago", "dago-adults"):
        mask &= dago_mask(manifest)
    if protocol in ("adults", "dago-adults"):
        mask &= adults_mask(manifest)
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        raise DataError(f"protocol {protocol!r} filtered out every sample")
    return idx


# ---------------------------------------------------------------- commands

def cmd_synth(ns):
    try:
        manifest = synth_corpus(ns.out, ns.per_class, seed=ns.seed)
    except OSError as exc:  # also one raised in a pool worker
        if exc.filename is None:  # not a path of the corpus: a failed fork or worker
            raise
        raise ConfigurationError(f"--out {ns.out}: cannot write the corpus: {exc}") from None
    print(f"synth: wrote {len(manifest)} samples under {ns.out}")
    return {"n_samples": len(manifest), "manifest": os.path.join(ns.out, "manifest.csv")}, []


def cmd_folds(ns):
    manifest = load_manifest(ns.manifest, check_files=False)
    plan = _fold_plan(None, manifest, ns.k, ns.seed, ns.grouping)
    save_folds(plan, ns.out)
    sizes = [int(np.sum(plan.assignments == f)) for f in range(plan.k)]
    print(f"folds: wrote {plan.k}-fold plan ({ns.grouping}) to {ns.out}; sizes {sizes}")
    return {"k": plan.k, "fold_sizes": sizes}, []


def _pattern(ns, level, row, img, sample):
    """Row row's pattern: img, its sample's image, normalised to ns.pattern
    with ns.noise at level seeded by derive_seed(ns.seed, row)."""
    noise = None if ns.noise == "none" else NoiseSpec(ns.noise, level, derive_seed(ns.seed, row))
    return prepare_pattern(img, sample.eye_left, sample.eye_right, ns.pattern, noise=noise)


def cmd_prepare(ns):
    manifest = load_manifest(ns.manifest, check_files=False)
    level = ns.variance if ns.noise == "gaussian" else ns.length
    if ns.noise != "none":
        NoiseSpec(ns.noise, level, ns.seed)  # a bad level is a configuration error, not a row's

    eye_l, eye_r = pattern_eyes(ns.pattern)

    def prepare(rows):
        """A contiguous run of (row, sample) pairs -> (the prepared samples,
        failures). The files are written once the run's patterns are made:
        writing each as it was made measured about 6% slower on featurize."""
        patterns, failures = [], []
        for row, src in rows:
            try:
                img = load_gray(src.image_path)
                patterns.append((row, src, _pattern(ns, level, row, img, src)))
            except (DataError, ConfigurationError, OSError) as exc:
                failures.append({"row": row, "error": str(exc)})
        kept = []
        for row, src, pat in patterns:
            path = os.path.join(ns.out, f"{row:06d}.pgm")
            write_pgm(path, pat)
            kept.append(Sample(path, src.identity_id, src.gender, src.age_group, eye_l, eye_r))
        return kept, failures

    runs = pool.map_groups(prepare, enumerate(manifest.samples))
    kept = tuple(sample for samples, _ in runs for sample in samples)
    failures = [failure for _, failed in runs for failure in failed]
    save_manifest(Manifest(kept), os.path.join(ns.out, "manifest.csv"))
    print(f"prepare: {len(kept)} patterns ({ns.pattern}) in {ns.out}, {len(failures)} failed")
    return {"n_prepared": len(kept), "n_failed": len(failures)}, failures


def cmd_extract(ns):
    manifest = load_manifest(ns.manifest)
    if len(manifest) == 0:
        raise DataError(f"{ns.manifest}: no samples")

    rows = _extract_rows(manifest.samples, lambda sample: read_pgm(sample.image_path),
                         ns.descriptor)
    fm = FeatureMatrix(rows, ns.descriptor)
    save_features(fm, ns.out)
    if ns.csv:
        export_csv(fm, ns.csv)
    print(f"extract: {fm.data.shape[0]}x{fm.data.shape[1]} {ns.descriptor} matrix -> {ns.out}")
    return {"n_samples": int(fm.data.shape[0]), "n_dims": int(fm.data.shape[1])}, []


def cmd_train(ns):
    manifest = load_manifest(ns.manifest, check_files=False)
    fm = _features(ns.features, manifest)
    labels = manifest.labels()
    plan = _fold_plan(ns.folds, manifest, ns.kfolds, ns.seed)
    params = _svm_params(ns)
    if params is None:
        params = grid_search(fm.data, labels, plan)
    model = svm_fit(fm, labels, params)
    save_model(ns.out, model)
    train_acc = float(np.mean(np.where(model.decision_function(fm.data) >= 0, 1, -1) == labels))
    print(f"train: C={params.C} gamma={params.gamma} "
          f"support vectors={len(model.dual_coefs)} train accuracy={train_acc:.4f}")
    return {"C": params.C, "gamma": params.gamma,
            "n_support": int(len(model.dual_coefs)), "train_accuracy": train_acc}, []


def cmd_stack(ns):
    manifest = load_manifest(ns.manifest, check_files=False)
    (stages,) = _load_stages(ns.stage, [(manifest, slice(None))])
    if any(stage.pca_components for stage in stages):
        raise ConfigurationError("PCA stage suffixes are only supported by eval")
    plan = _fold_plan(ns.folds, manifest, ns.kfolds, ns.seed)
    external = load_scores(ns.external) if ns.external else None
    model = stack_fit([stage.features for stage in stages], manifest.labels(), plan,
                      [stage.spec for stage in stages], external_scores=external,
                      params=_svm_params(ns))
    save_stacked(ns.out, model)
    print(f"stack: {len(stages)} first-stage columns "
          f"{'+ external ' if external else ''}-> {ns.out}")
    return {"columns": list(model.column_ids)}, []


def _breakdown_doc(samples, scores):
    pred = np.where(np.asarray(scores) >= 0, 1, -1)
    cells = error_breakdown(samples, pred)
    return {f"{g}/{a}": cells[(g, a)] for g, a in sorted(cells)}


def _mean_patterns(manifest_rows, row_ids, patterns_dir):
    """The mean pattern of each gender/age cell -> {file name: image}."""
    by_cell = {}
    for sample, rid in zip(manifest_rows, row_ids):
        by_cell.setdefault((sample.gender, sample.age_group), []).append(rid)
    means = {}
    for (gender, age), rows in sorted(by_cell.items()):
        imgs = [read_pgm(os.path.join(patterns_dir, f"{r:06d}.pgm")) for r in rows]
        means[f"mean_{gender}_{age.replace('+', 'plus')}.pgm"] = mean_pattern(imgs)
    return means


def _write_eval(ns, report, samples, scores, **extra):
    """Write report.json and roc.csv; returns the run.json results."""
    extra.update(protocol=ns.protocol, stages=list(ns.stage),
                 error_breakdown=_breakdown_doc(samples, scores))
    save_report(os.path.join(ns.out, "report.json"), report, extra)
    save_roc(os.path.join(ns.out, "roc.csv"), report)
    doc = report.to_dict()
    doc.pop("roc_points")
    return doc


def cmd_eval_kfold(ns):
    manifest = load_manifest(ns.manifest, check_files=False)
    idx = _protocol_indices(manifest, ns.protocol)
    sub = manifest.subset(idx)

    (stages,) = _load_stages(ns.stage, [(manifest, idx)])
    if ns.folds and ns.protocol != "none":
        raise ConfigurationError(
            "--folds plans index the unfiltered manifest; with a protocol "
            "preset, let eval build folds on the filtered rows")
    plan = _fold_plan(ns.folds, sub, ns.k, ns.seed, ns.grouping)
    means = _mean_patterns(sub.samples, idx, ns.patterns) if ns.patterns else {}

    report, scores = run_kfold(stages, sub.labels(), folds=plan, seed=ns.seed,
                               params=_svm_params(ns))
    doc = _write_eval(ns, report, sub.samples, scores, mode="kfold",
                      dataset=_dataset_name(ns.manifest))
    for name, image in means.items():
        write_pgm(os.path.join(ns.out, name), image)
    doc["mean_patterns"] = list(means)
    print(f"eval kfold: accuracy={report.accuracy:.4f} "
          f"(female {report.accuracy_female:.4f} / male {report.accuracy_male:.4f}) "
          f"auc={report.auc:.4f} n={report.n_samples}")
    return doc, []


def cmd_eval_crossdb(ns):
    train_man = load_manifest(ns.train_manifest, check_files=False)
    test_man = load_manifest(ns.test_manifest, check_files=False)
    tr_idx = _protocol_indices(train_man, ns.protocol)
    te_idx = _protocol_indices(test_man, ns.protocol)
    tr_sub, te_sub = train_man.subset(tr_idx), test_man.subset(te_idx)
    shared = ({os.path.realpath(s.image_path) for s in tr_sub}
              & {os.path.realpath(s.image_path) for s in te_sub})
    if shared:
        raise ConfigurationError(
            f"train and test manifests share {len(shared)} image(s), such as {min(shared)}; "
            "a cross-database run needs two disjoint datasets")

    train_stages, test_stages = _load_stages(ns.stage, [(train_man, tr_idx), (test_man, te_idx)])

    report, scores = run_crossdb(train_stages, test_stages, tr_sub.labels(), te_sub.labels(),
                                 seed=ns.seed, params=_svm_params(ns))
    train_name, test_name = _dataset_name(ns.train_manifest), _dataset_name(ns.test_manifest)
    doc = _write_eval(ns, report, te_sub.samples, scores, mode="crossdb",
                      train_dataset=train_name, test_dataset=test_name)
    print(f"eval crossdb: {train_name} -> {test_name} "
          f"accuracy={report.accuracy:.4f} auc={report.auc:.4f} n={report.n_samples}")
    return doc, []


def _sweep_levels(ns):
    """The --variances or --lengths list, each level checked as a NoiseSpec."""
    flag, text, cast = (("variances", ns.variances, float) if ns.noise == "gaussian"
                        else ("lengths", ns.lengths, int))
    try:
        levels = [cast(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(
            f"--{flag} {text!r}: expected comma-separated {cast.__name__}s") from None
    for level in levels:
        NoiseSpec(ns.noise, level, ns.seed)
    return levels


def cmd_noise_sweep(ns):
    levels = _sweep_levels(ns)
    manifest = load_manifest(ns.manifest)
    labels = manifest.labels()
    images = [load_gray(s.image_path) for s in manifest.samples]
    plan = _fold_plan(None, manifest, ns.k, ns.seed)
    spec = FirstStageSpec("sweep", "custom", ns.descriptor)

    rows = []
    for level in levels:  # each level is prepare -> extract -> eval kfold at that level
        feats = _extract_rows(range(len(images)), lambda row: _pattern(
            ns, level, row, images[row], manifest.samples[row]), ns.descriptor)
        report, _ = run_kfold([StageData(spec, feats)], labels, folds=plan,
                              seed=ns.seed, params=_svm_params(ns))
        rows.append((level, report.accuracy))
        print(f"noise-sweep: {ns.noise}={level} accuracy={report.accuracy:.4f}")

    with open(os.path.join(ns.out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("noise,accuracy\n")
        for level, acc in rows:
            fh.write(f"{level},{acc!r}\n")
    return {"noise": ns.noise, "levels": [r[0] for r in rows],
            "accuracies": [r[1] for r in rows]}, []


# ---------------------------------------------------------------- parser

def _add_svm_flags(p):
    p.add_argument("--grid", action="store_true",
                   help="grid-search C/gamma instead of using --C/--gamma")
    p.add_argument("--C", type=float, default=DEFAULT_STAGE_PARAMS.C)
    p.add_argument("--gamma", type=float, default=DEFAULT_STAGE_PARAMS.gamma)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="facestack",
        description="Gender classification pipeline over eye-normalized face patterns.")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")
    parser.add_argument("--out", default="out",
                        help="output directory (synth/prepare/eval/noise-sweep) or file (folds/extract/train/stack)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--per-class", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("folds", help="build and save a fold plan")
    p.add_argument("--manifest", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--grouping", choices=("by_sample", "by_identity"), default="by_sample")
    p.set_defaults(func=cmd_folds)

    p = sub.add_parser("prepare", help="normalize images to a named pattern")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pattern", choices=tuple(PATTERN_VARIANTS), required=True)
    p.add_argument("--noise", choices=("none", "gaussian", "motion"), default="none")
    p.add_argument("--variance", type=float, default=0.0, help="gaussian variance on [0,1] scale")
    p.add_argument("--length", type=int, default=1, help="motion blur length (odd)")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("extract", help="run a descriptor over prepared patterns")
    p.add_argument("--manifest", required=True, help="prepared manifest")
    p.add_argument("--descriptor", choices=DESCRIPTOR_IDS, required=True)
    p.add_argument("--csv", default=None, help="also export the matrix as CSV")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train one SVM on a feature matrix")
    p.add_argument("--features", required=True)
    p.add_argument("--manifest", required=True, help="manifest aligned with the feature rows")
    p.add_argument("--folds", default=None, help="fold plan CSV for the grid search")
    p.add_argument("--kfolds", type=int, default=5, help="folds to build when --folds absent")
    _add_svm_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "stack", help="train the two-stage stacked model",
        description="Train the two-stage stacked model. --C/--gamma set every SVM: "
                    "each first stage and the meta SVM. With --grid, each first "
                    "stage is grid-searched on the fold plan (--folds or --kfolds), "
                    "and the search's held-out scores for the winning C/gamma are "
                    "its out-of-fold meta features, so each meta feature's held-out "
                    "fold took part in the choice; the meta SVM's C/gamma is then "
                    "picked on that plan too. `eval kfold --grid` searches inside "
                    "each outer training fold.")
    p.add_argument("--manifest", required=True)
    p.add_argument("--stage", action="append", default=[],
                   help="ID=FEATURES.fsfm, repeatable (C1..C5 or custom ids)")
    p.add_argument("--external", default=None, help="external score CSV joined by row_index")
    p.add_argument("--folds", default=None)
    p.add_argument("--kfolds", type=int, default=5)
    _add_svm_flags(p)
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("eval", help="run an evaluation protocol")
    esub = p.add_subparsers(dest="eval_mode", required=True)

    pk = esub.add_parser("kfold", help="in-database k-fold evaluation")
    pk.add_argument("--manifest", required=True, help="original (unprepared) manifest")
    pk.add_argument("--stage", action="append", default=[], required=False,
                    help="ID=FEATURES.fsfm[:pcaN], repeatable")
    pk.add_argument("--k", type=int, default=5)
    pk.add_argument("--folds", default=None, help="fold plan CSV (protocol none only)")
    pk.add_argument("--grouping", choices=("by_sample", "by_identity"), default="by_sample")
    pk.add_argument("--protocol", choices=PROTOCOLS, default="none")
    pk.add_argument("--patterns", default=None,
                    help="prepared pattern dir for mean-pattern images")
    _add_svm_flags(pk)
    pk.set_defaults(func=cmd_eval_kfold)

    pc = esub.add_parser("crossdb", help="train on one dataset, test on another")
    pc.add_argument("--train-manifest", required=True)
    pc.add_argument("--test-manifest", required=True)
    pc.add_argument("--stage", action="append", default=[],
                    help="ID=TRAIN.fsfm,TEST.fsfm[:pcaN], repeatable")
    pc.add_argument("--protocol", choices=PROTOCOLS, default="none")
    _add_svm_flags(pc)
    pc.set_defaults(func=cmd_eval_crossdb)

    p = sub.add_parser("noise-sweep", help="accuracy vs noise level for one pattern/descriptor")
    p.add_argument("--manifest", required=True, help="original manifest with source images")
    p.add_argument("--pattern", choices=tuple(PATTERN_VARIANTS), required=True)
    p.add_argument("--descriptor", choices=DESCRIPTOR_IDS, required=True)
    p.add_argument("--noise", choices=("gaussian", "motion"), default="gaussian")
    p.add_argument("--variances", default="0,0.025,0.05,0.1")
    p.add_argument("--lengths", default="1,7,13,21")
    p.add_argument("--k", type=int, default=5)
    _add_svm_flags(p)
    p.set_defaults(func=cmd_noise_sweep)

    return parser


def _check_file(flag, path):
    if not os.path.basename(path) or os.path.isdir(path):
        raise ConfigurationError(f"{flag} {path!r} names a directory, not a file")


def _run_dir(ns):
    """The directory run.json goes to: --out, or the one holding the output
    file --out. An --out that cannot be written, or an extract --csv that
    names a directory, --out or run.json, or sits in a directory that
    neither exists nor is made for --out, is a ConfigurationError, raised
    before any work is done."""
    out = ns.out
    if ns.command not in ("synth", "prepare", "noise-sweep", "eval"):
        _check_file("--out", out)
        out = os.path.dirname(os.path.abspath(out))
    if ns.command == "extract" and ns.csv:
        _check_file("--csv", ns.csv)
        csv, run_dir = os.path.realpath(ns.csv), os.path.realpath(out)
        if csv in (os.path.realpath(ns.out), os.path.join(run_dir, "run.json")):
            raise ConfigurationError(f"--csv {ns.csv!r} would overwrite --out or run.json")
        if not os.path.isdir(os.path.dirname(csv)) and os.path.dirname(csv) != run_dir:
            raise ConfigurationError(f"--csv {ns.csv!r}: its directory does not exist")
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"--out {ns.out}: cannot make directory {out}: {exc}") from None
    return out


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    started = _now()
    try:
        if ns.seed < 0:
            raise ConfigurationError(f"--seed must be non-negative, got {ns.seed}")
        run_dir = _run_dir(ns)
        results, failures = ns.func(ns)
        _write_run(run_dir, ns, started, results, failures)
        if failures:
            raise PartialFailure(f"{len(failures)} of the rows failed; see run.json")
    except ConfigurationError as exc:
        print(f"facestack: configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"facestack: data error: {exc}", file=sys.stderr)
        return 3
    except PartialFailure as exc:
        print(f"facestack: partial failure: {exc}", file=sys.stderr)
        return 4
    return 0


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
