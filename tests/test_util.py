import hashlib
import os

import pytest

from udbridge.util import percentage, round_half_up, short_hash, write_atomically


def test_round_half_up_ties_away_from_zero():
    assert round_half_up(15.5) == 16.0
    assert round_half_up(16.5) == 17.0  # builtin round gives 16
    assert round_half_up(-15.5) == -16.0
    assert round_half_up(75.05, 1) == 75.1
    assert round_half_up(75.04999, 1) == 75.0
    assert round_half_up(2.675, 2) == 2.68  # repr, not the binary value


def test_round_half_up_plain_cases():
    assert round_half_up(17.044) == 17.0
    assert round_half_up(17.887) == 18.0
    assert round_half_up(33.507) == 34.0
    assert round_half_up(0.0) == 0.0


def test_percentage():
    assert percentage(3, 4) == 75.0
    assert percentage(1, 3) == 33.3
    assert percentage(2, 3) == 66.7
    assert percentage(0, 7) == 0.0
    with pytest.raises(ZeroDivisionError):
        percentage(1, 0)


def test_short_hash():
    data = b"model bytes"
    assert short_hash(data) == hashlib.sha256(data).hexdigest()[:12]
    assert len(short_hash(data, length=8)) == 8
    assert short_hash(data) == short_hash(data)
    assert short_hash(b"other") != short_hash(data)


def test_write_atomically_replaces_the_file_or_leaves_it_whole(tmp_path):
    path = tmp_path / "out.tsv"
    path.write_text("old\n", encoding="utf-8")
    write_atomically(str(path), "new hûs\n")
    assert path.read_text(encoding="utf-8") == "new hûs\n"
    with pytest.raises(UnicodeEncodeError):
        write_atomically(str(path), "half \udc80\n")
    assert path.read_text(encoding="utf-8") == "new hûs\n"
    assert os.listdir(tmp_path) == ["out.tsv"]  # no temporary file left
