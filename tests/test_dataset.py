import hashlib
import math

import numpy as np
import pytest

from facestack import (
    ConfigurationError,
    DataError,
    Manifest,
    ParseError,
    Sample,
    load_folds,
    load_manifest,
    make_folds,
    save_folds,
    save_manifest,
)
from facestack.dataset import adults_mask, dago_mask


def _sample(i, gender="f", age="20-36", identity=None, d=26.0):
    return Sample(f"images/{i:03d}.pgm", identity or f"id{i}",
                  {"f": "female", "m": "male"}[gender], age,
                  (40.0, 50.0), (40.0 + d, 50.0))


def _manifest(n=10):
    return Manifest(tuple(
        _sample(i, "f" if i % 2 == 0 else "m") for i in range(n)))


def test_sample_labels():
    assert _sample(0, "m").label == 1
    assert _sample(1, "f").label == -1
    labels = _manifest(4).labels()
    assert labels.dtype == np.float64 and labels.tolist() == [-1.0, 1.0, -1.0, 1.0]


def test_sample_validation():
    with pytest.raises(DataError):
        Sample("p", "i", "other", "20-36", (1.0, 1.0), (5.0, 1.0))
    with pytest.raises(DataError):
        Sample("p", "i", "female", "teen", (1.0, 1.0), (5.0, 1.0))
    with pytest.raises(DataError):
        Sample("p", "i", "female", "20-36", (5.0, 1.0), (1.0, 1.0))


def test_inter_eye_distance(tmp_path):
    s = Sample("p", "i", "male", "unknown", (0.0, 0.0), (3.0, 4.0))
    assert s.inter_eye_distance == 5.0
    # eyes one ulp apart on one row: lx < rx alone makes the distance positive
    for lx in (0.0, 40.0):
        s = Sample("p", "i", "male", "unknown", (lx, 7.0), (math.nextafter(lx, math.inf), 7.0))
        path = tmp_path / "ulp.csv"
        save_manifest(Manifest((s,)), path)
        (back,) = load_manifest(path, check_files=False).samples
        assert back.eye_right == s.eye_right
        assert back.inter_eye_distance > 0


def test_manifest_roundtrip(tmp_path):
    m = _manifest(6)
    path = tmp_path / "toy.csv"
    save_manifest(m, path)
    back = load_manifest(path, check_files=False)
    assert len(back) == 6
    for a, b in zip(m, back):
        assert a.identity_id == b.identity_id
        assert a.gender == b.gender
        assert a.eye_left == b.eye_left
        assert a.eye_right == b.eye_right


def test_manifest_paths_resolve_relative(tmp_path):
    sub = tmp_path / "deep"
    sub.mkdir()
    path = sub / "m.csv"
    save_manifest(_manifest(1), path)
    back = load_manifest(path, check_files=False)
    assert back.samples[0].image_path.startswith(str(sub))


def test_manifest_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("path,identity,gender\nx,y,f\n")
    with pytest.raises(ParseError):
        load_manifest(p, check_files=False)


def test_manifest_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_manifest(p, check_files=False)


def test_manifest_row_errors_carry_line_numbers(tmp_path):
    header = "path,identity,gender,age_group,eye_lx,eye_ly,eye_rx,eye_ry\n"
    for row, frag in [
        ("a.pgm,i1,x,20-36,1,1,5,1", "gender"),
        ("a.pgm,i1,f,teen,1,1,5,1", "age group"),
        ("a.pgm,i1,f,20-36,one,1,5,1", "eye coordinate"),
        ("a.pgm,i1,f,20-36,1,1", "columns"),
    ]:
        p = tmp_path / "r.csv"
        p.write_text(header + "b.pgm,i0,f,20-36,1,1,5,1\n" + row + "\n")
        with pytest.raises(ParseError, match="row 3") as exc:
            load_manifest(p, check_files=False)
        assert frag in str(exc.value)


def test_manifest_checks_image_files(tmp_path):
    path = tmp_path / "m.csv"
    save_manifest(_manifest(1), path)
    with pytest.raises(DataError, match="not found"):
        load_manifest(path)
    load_manifest(path, check_files=False)  # metadata-only read is fine


def test_dago_mask_strict_threshold():
    m = Manifest((
        _sample(0, d=20.0), _sample(1, d=20.0001), _sample(2, d=45.0)))
    assert dago_mask(m).tolist() == [False, True, True]


def test_adults_mask():
    m = Manifest(tuple(
        _sample(i, age=a) for i, a in
        enumerate(["0-19", "20-36", "37-65", "66+", "unknown"])))
    assert adults_mask(m).tolist() == [False, True, True, True, False]


def test_make_folds_by_sample():
    m = _manifest(23)
    plan = make_folds(m, 5, seed=1)
    sizes = np.bincount(plan.assignments, minlength=5)
    assert sizes.max() - sizes.min() <= 1
    assert sizes.sum() == 23
    # deterministic in the seed
    again = make_folds(m, 5, seed=1)
    assert np.array_equal(plan.assignments, again.assignments)
    other = make_folds(m, 5, seed=2)
    assert not np.array_equal(plan.assignments, other.assignments)


def test_split_partitions_rows():
    plan = make_folds(_manifest(11), 3, seed=0)
    train, test = plan.split(1)
    assert sorted(np.r_[train, test].tolist()) == list(range(11))
    assert set(plan.assignments[test]) == {1}
    assert 1 not in set(plan.assignments[train])


def test_make_folds_on_bare_labels():
    y = np.r_[np.ones(17), -np.ones(14)]
    a = make_folds(y, 5, seed=3)
    b = make_folds(y, 5, seed=3)
    assert np.array_equal(a.assignments, b.assignments)
    sizes = np.bincount(a.assignments, minlength=5)
    assert sizes.max() - sizes.min() <= 1
    with pytest.raises(ConfigurationError):
        make_folds(np.ones(3), 5, seed=0)


def test_make_folds_by_identity():
    samples = []
    for i in range(30):
        samples.append(_sample(i, identity=f"person{i % 7}"))
    m = Manifest(tuple(samples))
    plan = make_folds(m, 3, seed=4, grouping="by_identity")
    for ident in {s.identity_id for s in samples}:
        rows = [i for i, s in enumerate(samples) if s.identity_id == ident]
        assert len(set(plan.assignments[rows])) == 1  # identity never straddles folds


def test_make_folds_guards():
    with pytest.raises(ConfigurationError):
        make_folds(_manifest(10), 1, seed=0)
    with pytest.raises(ConfigurationError):
        make_folds(_manifest(3), 5, seed=0)
    with pytest.raises(ConfigurationError):
        make_folds(_manifest(10), 3, seed=0, grouping="by_cluster")
    ident = Manifest(tuple(_sample(i, identity="one") for i in range(9)))
    with pytest.raises(ConfigurationError):
        make_folds(ident, 2, seed=0, grouping="by_identity")


def test_folds_roundtrip(tmp_path):
    plan = make_folds(_manifest(9), 4, seed=7)
    p = tmp_path / "folds.csv"
    save_folds(plan, p)
    back = load_folds(p)
    assert back.k == 4
    assert np.array_equal(back.assignments, plan.assignments)


def test_load_folds_rejects_gaps(tmp_path):
    p = tmp_path / "folds.csv"
    p.write_text("row_index,fold\n0,0\n2,1\n")
    with pytest.raises(ParseError):
        load_folds(p)
    p.write_text("row,fold\n0,0\n")
    with pytest.raises(ParseError):
        load_folds(p)
    p.write_text("row_index,fold\n")
    with pytest.raises(ParseError):
        load_folds(p)


def test_load_folds_rejects_bad_fold_ids(tmp_path):
    p = tmp_path / "folds.csv"
    p.write_text("row_index,fold\n0,0\n1,-1\n2,1\n")  # fold id outside [0, k)
    with pytest.raises(ParseError, match="fold ids"):
        load_folds(p)
    p.write_text("row_index,fold\n0,0\n1,2\n2,2\n")  # fold 1 is empty
    with pytest.raises(ParseError, match="fold ids"):
        load_folds(p)
    p.write_text("row_index,fold\n0,0\n1,0\n")  # a single fold trains on nothing
    with pytest.raises(ParseError, match="fold ids"):
        load_folds(p)


HEADER = "path,identity,gender,age_group,eye_lx,eye_ly,eye_rx,eye_ry\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", range(4))
def test_manifest_rejects_a_non_finite_eye_coordinate(tmp_path, column, value):
    coords = ["1", "1", "5", "1"]
    coords[column] = value
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "b.pgm,i0,f,20-36,1,1,5,1\na.pgm,i1,f,20-36," + ",".join(coords) + "\n")
    with pytest.raises(ParseError, match="row 3: eye coordinates must be finite"):
        load_manifest(p, check_files=False)


def test_missing_image_names_its_line_after_a_blank_line(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"")
    p = tmp_path / "m.csv"
    p.write_text(HEADER + "a.pgm,i0,f,20-36,1,1,5,1\n\nb.pgm,i1,m,20-36,1,1,5,1\n")
    with pytest.raises(DataError, match="row 4: image not found"):
        load_manifest(p)


def test_load_folds_rejects_an_extra_field(tmp_path):
    p = tmp_path / "folds.csv"
    p.write_text("row_index,fold\n0,0\n1,1,7\n")
    with pytest.raises(ParseError, match="row 3: expected 2 columns, got 3"):
        load_folds(p)


def test_fold_plans_are_pinned():
    # by_sample deals one-row groups exactly as by_identity deals identities
    for n in (5, 7, 60, 120, 200, 1001):
        m = _manifest(n)
        for k in (2, 3, 5, 10):
            for seed in range(20) if n >= k else ():
                assert np.array_equal(make_folds(m, k, seed).assignments,
                                      make_folds(m, k, seed, "by_identity").assignments)
    # the exact plans of both groupings, identities repeated 1-3 times in shuffled order
    digest = hashlib.sha256()
    for n_ids in (3, 10, 37, 100):
        rng = np.random.default_rng(n_ids)
        names = [f"p{i}" for i in range(n_ids) for _ in range(rng.integers(1, 4))]
        rng.shuffle(names)
        m = Manifest(tuple(_sample(i, identity=name) for i, name in enumerate(names)))
        for k in (2, 3, 5):
            for seed in range(5) if n_ids >= k else ():
                for grouping in ("by_sample", "by_identity"):
                    plan = make_folds(m, k, seed, grouping)
                    digest.update(plan.assignments.astype("<i8").tobytes())
                    for f in range(k):
                        for part in plan.split(f):
                            digest.update(part.astype("<i8").tobytes())
    assert digest.hexdigest() == "7a1b81d8dd14bb9b0062a605b1c055d9582a3dfd52536bf1bea8ed05f10b0a74"
