"""A seeded sweep of malformed inputs through the CLI.

282 in-process `cli.main` runs on one 24-image synth corpus, each
with one input mutated:

- `.fsfm` header and data bytes;
- manifest cells (empty, nan, inf, 1e400, -1, an unknown token), a
  repeated row and a blank row;
- fold-plan cells and dropped rows;
- score-CSV row ids and values;
- the numeric flags --k, --C, --gamma, --variance, --length, --per-class,
  :pcaN and --seed;
- pattern PGM bytes, of a source image and of a prepared pattern.

Each mutated input goes through the commands that read it, among them
`stack --external`, `eval kfold` with `--protocol dago` and with
`--grouping by_identity`, and `eval crossdb`. No exception may escape
`main`, and every exit code must be 0, 2, 3 or 4; argparse's own refusal
of a flag value (SystemExit 2, before `main`'s work starts) counts as exit
2. Every `.fsfm` header mutation must exit non-zero. Header mutations go
through the commands whose canonical stage id (C1) names the descriptor
the header must hold; `train` names none and gets data mutations only.

All 16 `.fsfm` data-byte mutations exit 0: a changed float32 byte
that stays finite is another feature value, which the format cannot tell
from the one written. A record checksum (ROADMAP item 9) is what would
refuse them.

The runs use one core (`pool._cores`), so no run forks; a failure prints
the mutated input and the command it went through.
"""

import csv
import io
import traceback

import numpy as np
import pytest

from facestack import pool
from facestack.cli import main
from facestack.features import FeatureMatrix, load_features, save_features

# argv per command; {NAME} stands for an input path, {PCA} for a stage's
# :pcaN suffix (none by default)
COMMANDS = {
    "synth": ["synth", "--per-class", "2"],
    "prepare": ["prepare", "--manifest", "{M}", "--pattern", "F"],
    "extract": ["extract", "--manifest", "{FM}", "--descriptor", "hog"],
    "folds": ["folds", "--manifest", "{M}", "--k", "3"],
    "train": ["train", "--features", "{HOG}", "--manifest", "{M}", "--folds", "{FOLDS}",
              "--C", "4.0"],
    "stack": ["stack", "--manifest", "{M}", "--stage", "C1={HOG}", "--external", "{SCORES}",
              "--folds", "{FOLDS}", "--C", "4.0"],
    "kfold": ["eval", "kfold", "--manifest", "{M}", "--stage", "C1={HOG}{PCA}", "--k", "3",
              "--C", "4.0"],
    "kfold --folds": ["eval", "kfold", "--manifest", "{M}", "--stage", "C1={HOG}",
                      "--folds", "{FOLDS}", "--C", "4.0"],
    "kfold dago": ["eval", "kfold", "--manifest", "{M}", "--stage", "C1={HOG}",
                   "--protocol", "dago", "--k", "3", "--C", "4.0"],
    "kfold by_identity": ["eval", "kfold", "--manifest", "{M}", "--stage", "C1={HOG}",
                          "--grouping", "by_identity", "--k", "3", "--C", "4.0"],
    "crossdb": ["eval", "crossdb", "--train-manifest", "{A}", "--test-manifest", "{B}",
                "--stage", "C1={HA},{HB}{PCA}", "--C", "4.0"],
    "noise-sweep": ["noise-sweep", "--manifest", "{M}", "--pattern", "F", "--descriptor", "hog",
                    "--variances", "0.01", "--k", "3"],
}
FILE_OUTPUTS = ("folds", "extract", "train", "stack")  # --out names a file
STAGE_COMMANDS = ("stack", "kfold", "kfold dago", "kfold by_identity", "crossdb")
CELL_VALUES = ("", "nan", "inf", "1e400", "-1", "zz")


def _csv_text(table):
    """table (a list of rows, the header first) as CSV text; [] is a blank line."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(table)
    return buf.getvalue()


def _read_rows(path):
    """The CSV file at path as a list of rows, the header first."""
    return list(csv.reader(io.StringIO(path.read_text())))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """The inputs of COMMANDS, by name, from one 24-image synth corpus: the
    manifest M, its F patterns' manifest FM, their hog features HOG, a
    3-fold plan, a score file, and the first and last 12 rows (A, B) with
    their hog rows (HA, HB) for eval crossdb."""
    root = tmp_path_factory.mktemp("malformed")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pool, "_cores", lambda: 1)
        assert main(["--out", str(root / "corpus"), "synth", "--per-class", "12"]) == 0
        m = root / "corpus" / "manifest.csv"
        assert main(["--out", str(root / "fpat"), "prepare", "--manifest", str(m),
                     "--pattern", "F"]) == 0
        fm = root / "fpat" / "manifest.csv"
        assert main(["--out", str(root / "hog.fsfm"), "extract", "--manifest", str(fm),
                     "--descriptor", "hog"]) == 0
        assert main(["--out", str(root / "folds.csv"), "folds", "--manifest", str(m),
                     "--k", "3"]) == 0
    paths = {"M": m, "FM": fm, "HOG": root / "hog.fsfm", "FOLDS": root / "folds.csv",
             "SCORES": root / "scores.csv", "PCA": ""}
    scores = np.random.default_rng(0).normal(size=24)
    paths["SCORES"].write_text(_csv_text([["row_index", "EXT"]] +
                                         [[i, repr(float(v))] for i, v in enumerate(scores)]))
    header, *rows = _read_rows(m)
    hog = load_features(paths["HOG"]).data
    for side, rows_of in (("A", slice(0, 12)), ("B", slice(12, 24))):
        paths[side] = root / "corpus" / f"{side}.csv"
        paths[side].write_text(_csv_text([header] + rows[rows_of]))
        paths[f"H{side}"] = root / f"hog_{side}.fsfm"
        save_features(FeatureMatrix(hog[rows_of], "hog"), paths[f"H{side}"])
    return paths


def _argv(command, paths, **swap):
    """COMMANDS[command] on paths, with the inputs named in swap replaced."""
    given = {**paths, **swap}
    return [arg.format(**given) for arg in COMMANDS[command]]


def _run(argv, out):
    """main's exit code for argv writing to out; argparse's SystemExit code
    if argparse refuses a flag value."""
    try:
        return main(["--out", str(out)] + argv)
    except SystemExit as exc:
        return exc.code


def _sweep(cases, tmp_path, monkeypatch):
    """Run each (what was mutated, command, argv) -> ([(what, command, exit
    code)], [failure report]). A failure is an escaped exception or an exit
    code other than 0, 2, 3 or 4."""
    monkeypatch.setattr(pool, "_cores", lambda: 1)
    codes, failures = [], []
    for i, (what, command, argv) in enumerate(cases):
        out = tmp_path / f"out{i}" / ("out.bin" if command in FILE_OUTPUTS else "")
        try:
            code = _run(argv, out)
        except Exception:
            failures.append(f"{what} through {command}: raised\n{traceback.format_exc()}")
            continue
        codes.append((what, command, code))
        if code not in (0, 2, 3, 4):
            failures.append(f"{what} through {command}: exit {code}")
    return codes, failures


def test_every_command_takes_the_unmutated_inputs(corpus, tmp_path, monkeypatch):
    # so that a mutated run's exit code is the mutation's doing
    cases = [("nothing", command, _argv(command, corpus)) for command in COMMANDS]
    codes, failures = _sweep(cases, tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)
    assert [code for _, _, code in codes] == [0] * len(COMMANDS)


def _fsfm_cases(corpus, tmp_path):
    """Per mutated byte of a hog .fsfm -> (is it a header byte, case). Every
    header byte twice, then 16 data bytes, through the stage commands in
    turn (eval crossdb's train side HA, else HOG); the data bytes through
    train too."""
    rng = np.random.default_rng(91)
    header = 23  # magic, version, n_samples, n_dims, the id's length and "hog"
    data_bytes = 12 * 576 * 4  # HA's, the shorter file's
    at = [b for b in range(header) for _ in range(2)]
    at += sorted((header + rng.choice(data_bytes, 16, replace=False)).tolist())
    out = []
    for i, b in enumerate(at):
        commands = STAGE_COMMANDS if b < header else STAGE_COMMANDS + ("train",)
        command = commands[i % len(commands)]
        name = "HA" if command == "crossdb" else "HOG"
        good = corpus[name].read_bytes()
        assert good[header - 3 : header] == b"hog"
        byte = int((good[b] + rng.integers(1, 256)) % 256)
        path = tmp_path / f"m{i}.fsfm"
        path.write_bytes(good[:b] + bytes([byte]) + good[b + 1 :])
        what = f"{corpus[name].name} byte {b}: {good[b]:#04x} -> {byte:#04x} ({path})"
        out.append((b < header, (what, command, _argv(command, corpus, **{name: path}))))
    return out


def test_fsfm_byte_mutations(corpus, tmp_path, monkeypatch):
    cases = _fsfm_cases(corpus, tmp_path)
    codes, failures = _sweep([case for _, case in cases], tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)
    in_header = [is_header for is_header, _ in cases]
    accepted = [what for (what, _, code), h in zip(codes, in_header) if h and code == 0]
    assert not accepted, "header mutations that exit 0:\n" + "\n".join(accepted)
    # the module docstring's count of data-byte mutations that exit 0
    assert sum(code == 0 for (_, _, code), h in zip(codes, in_header) if not h) == 16


def _csv_cases(corpus, name, commands, seed, n_cells, values, keys=()):
    """Cases mutating the CSV input `name` of corpus (for eval crossdb, the
    manifest M's part A): n_cells seeded cells, the header's among them,
    each set to another of values, then each row operation in keys
    ("repeat", "blank", "drop"), through commands in turn."""
    rng = np.random.default_rng(seed)
    out = []
    for i, key in enumerate(["cell"] * n_cells + list(keys)):
        command = commands[i % len(commands)]
        source = "A" if command == "crossdb" and name == "M" else name
        table = _read_rows(corpus[source])
        r = int(rng.integers(len(table)))
        if key == "cell":
            c = int(rng.integers(len(table[0])))
            new = [row[:] for row in table]
            new[r][c] = str(rng.choice([v for v in values if v != table[r][c]]))
            what = f"line {r + 1} {table[0][c]} {table[r][c]!r} -> {new[r][c]!r}"
        else:
            r = max(r, 1)  # a data row
            new = {"repeat": table[: r + 1] + table[r:], "drop": table[:r] + table[r + 1 :],
                   "blank": table[:r] + [[]] + table[r:]}[key]
            what = f"line {r + 1} {key}"
        path = corpus[source].parent / f"{name.lower()}_m{seed}_{i}.csv"  # beside the images
        path.write_text(_csv_text(new))
        out.append((f"{corpus[source].name} {what} ({path})", command,
                    _argv(command, corpus, **{source: path})))
    return out


MANIFEST_READERS = ("prepare", "folds", "train", "stack", "kfold", "kfold dago",
                    "kfold by_identity", "crossdb", "noise-sweep")


def test_manifest_cell_mutations(corpus, tmp_path, monkeypatch):
    cases = _csv_cases(corpus, "M", MANIFEST_READERS, 31, 54, CELL_VALUES,
                       ("repeat", "blank", "repeat", "blank"))
    cases += _csv_cases(corpus, "FM", ("extract",), 32, 10, CELL_VALUES,
                        ("repeat", "blank"))
    _, failures = _sweep(cases, tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)


def test_fold_plan_mutations(corpus, tmp_path, monkeypatch):
    cases = _csv_cases(corpus, "FOLDS", ("train", "stack", "kfold --folds"), 41, 18,
                       CELL_VALUES + ("3", "24", "0"), ("drop", "drop", "repeat"))
    _, failures = _sweep(cases, tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)


def test_score_file_mutations(corpus, tmp_path, monkeypatch):
    cases = _csv_cases(corpus, "SCORES", ("stack",), 51, 20,
                       CELL_VALUES + ("24", "0", "1e308", "C1"), ("drop", "repeat", "blank"))
    _, failures = _sweep(cases, tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)


FLOATS = ("nan", "inf", "-inf", "1e400", "-1", "0", "1e-320", "x")
# no value asks for work beyond the corpus's size: --per-class stays small,
# and a large --k, --length or :pcaN is refused or clipped before any work
FLAGS = {
    "--k": (("folds", "kfold", "noise-sweep"), ("-1", "0", "1", "2", "25", "1000000000", "1e3")),
    "--C": (("train", "stack", "kfold", "crossdb"), FLOATS + ("1e300",)),
    "--gamma": (("train", "stack", "kfold", "crossdb"), FLOATS + ("1e300",)),
    "--variance": (("prepare",), FLOATS + ("0.5",)),
    "--length": (("prepare",), ("-1", "0", "2", "3", "99", "1000001", "1.5")),
    "--per-class": (("synth",), ("-1", "0", "1", "x")),
    ":pca": (("kfold", "crossdb"), ("0", "1", "23", "99999", "-1", "x")),
    "--seed": (("prepare", "folds", "stack", "kfold", "noise-sweep"),
               ("-1", "7", "4294967296", str(2 ** 128), "x")),
}


def _flag_argv(argv, flag, value):
    """argv with flag (not :pca) set to value."""
    if flag == "--seed":
        return ["--seed", value] + argv
    if flag in argv:
        argv = argv[:]
        argv[argv.index(flag) + 1] = value
        return argv
    noise = {"--variance": ["--noise", "gaussian"], "--length": ["--noise", "motion"]}
    return argv + noise.get(flag, []) + [flag, value]


def test_numeric_flag_mutations(corpus, tmp_path, monkeypatch):
    cases = []
    for flag, (commands, values) in FLAGS.items():
        for i, value in enumerate(values):
            command = commands[i % len(commands)]
            if flag == ":pca":
                argv = _argv(command, corpus, PCA=f":pca{value}")
            else:
                argv = _flag_argv(_argv(command, corpus), flag, value)
            cases.append((f"{flag} {value}", command, argv))
    _, failures = _sweep(cases, tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)


def _pgm_cases(corpus, tmp_path):
    """Byte mutations of one source image (read by prepare and noise-sweep)
    and one prepared pattern (read by extract): every header byte, then
    data bytes and a cut."""
    rng = np.random.default_rng(61)
    out = []
    for name, commands in (("M", ("prepare", "noise-sweep")), ("FM", ("extract",))):
        table = _read_rows(corpus[name])
        r = int(rng.integers(1, len(table)))
        image = corpus[name].parent / table[r][0]
        good = image.read_bytes()
        head = good.index(b"255\n") + 4
        at = list(range(head)) + sorted(rng.choice(np.arange(head, len(good)), 4,
                                                   replace=False).tolist())
        for i, b in enumerate(at + [None]):
            if b is None:
                data, what = good[: len(good) // 2], "cut in half"
            else:
                byte = int((good[b] + rng.integers(1, 256)) % 256)
                data = good[:b] + bytes([byte]) + good[b + 1 :]
                what = f"byte {b}: {good[b]:#04x} -> {byte:#04x}"
            path = tmp_path / f"{name}{i}.pgm"
            path.write_bytes(data)
            new = [row[:] for row in table]
            new[r][0] = str(path)
            manifest = corpus[name].parent / f"pgm_{name}{i}.csv"
            manifest.write_text(_csv_text(new))
            command = commands[i % len(commands)]
            out.append((f"{image.name} {what} ({path})", command,
                        _argv(command, corpus, **{name: manifest})))
    return out


def test_pgm_byte_mutations(corpus, tmp_path, monkeypatch):
    _, failures = _sweep(_pgm_cases(corpus, tmp_path), tmp_path, monkeypatch)
    assert not failures, "\n".join(failures)
