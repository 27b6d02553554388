import os

import pytest

from facestack import ParseError, load_folds, load_manifest, load_scores


def _manifest_values(m):
    return [(os.path.basename(s.image_path), s.identity_id, s.gender, s.eye_left, s.eye_right)
            for s in m]


# reader, header, two good rows (the second with a quoted field), its values,
# and a row one field short
READERS = {
    "manifest": (
        lambda p: load_manifest(p, check_files=False),
        "path,identity,gender,age_group,eye_lx,eye_ly,eye_rx,eye_ry",
        ["a.pgm,i0,f,20-36,1,2,5,2", '"b, c.pgm",i1,m,unknown,1.5,2,6,2.5'],
        _manifest_values,
        [("a.pgm", "i0", "female", (1.0, 2.0), (5.0, 2.0)),
         ("b, c.pgm", "i1", "male", (1.5, 2.0), (6.0, 2.5))],
        "c.pgm,i2,f,20-36,1,2,5",
    ),
    "fold plan": (
        load_folds, "row_index,fold", ["0,0", '"1",1'],
        lambda plan: (plan.k, plan.assignments.tolist()), (2, [0, 1]), "2",
    ),
    "score file": (
        load_scores, '"row_index",CNN', ["0,0.5", '1,"-1.5"'],
        lambda sm: (sm.column_ids, sm.scores.tolist()),
        (("CNN",), [[0.5], [-1.5]]), "2",
    ),
}


@pytest.mark.parametrize("kind", READERS)
def test_csv_readers_share_one_set_of_rules(tmp_path, kind):
    # CRLF line endings, a blank line, a quoted field; a short row names its line
    load, header, rows, values, want, short = READERS[kind]
    p = tmp_path / "in.csv"
    p.write_bytes(f"{header}\r\n{rows[0]}\r\n\r\n{rows[1]}\r\n".encode())
    assert values(load(p)) == want
    p.write_bytes(f"{header}\r\n{rows[0]}\r\n\r\n{short}\r\n".encode())
    with pytest.raises(ParseError, match="row 4: expected"):
        load(p)


@pytest.mark.parametrize("kind", READERS)
def test_csv_readers_reject_bad_utf8_and_oversized_fields(tmp_path, kind):
    load, header, rows, *_ = READERS[kind]
    p = tmp_path / "in.csv"
    p.write_bytes(f"{header}\n{rows[0]}\n".encode() + b"\xff\n")
    with pytest.raises(ParseError, match="not UTF-8"):
        load(p)
    p.write_bytes(f"{header}\n{rows[0]}\n".encode() + b"x" * 200_000 + b"\n")
    with pytest.raises(ParseError, match="row 3: field larger than field limit"):
        load(p)
