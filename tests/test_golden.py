"""Golden outputs: byte-exact heuristic ``solution.txt`` files and an EEPIV
``sweep.csv``, as sha256 digests.  Any change to the order in which flows
or powers are summed shifts a last bit and fails here."""

import csv
import hashlib

import pytest

from ponplace.cli import main


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("flags, digest", [
    (["--scale", "paper", "--seed", "7", "--scenario", "1",
      "--reduction", "0.5"],
     "df08861b9316c21a31b8c007a2805d457c81f6d2da3ff0b4dc3735af3222ea32"),
    (["--scale", "reduced", "--seed", "7", "--scenario", "2",
      "--reduction", "0.3"],
     "42d6d505d09d7af095c9f39470766f1e5f3dc0302116dbeb11640e57b0a49697"),
], ids=["paper-seed7-s1-r0.5", "reduced-seed7-s2-r0.3"])
def test_heuristic_solution_file(flags, digest, tmp_path, capsys):
    assert main(["heuristic", *flags, "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "solution.txt").read_bytes()) == digest


def test_eepiv_sweep_csv(tmp_path, capsys):
    """``sweep.csv`` of the paper-scale EEPIV sweep of seed 7, every column
    but the measured ``wall_time_s``, one comma-joined line per row."""
    assert main(["sweep", "--scale", "paper", "--engine", "eepiv",
                 "--seeds", "7", "--out", str(tmp_path)]) == 0
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    text = "".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows)
    assert len(rows) == 1 + 15 * 6
    assert sha256(text.encode()) == (
        "89e682af7804e47f383c5c989d08124b9d949ac6071813bde13b9abbb2469de4")
