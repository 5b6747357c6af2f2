"""Golden outputs: byte-exact heuristic and exact ``solution.txt`` files and
sweep CSVs, as sha256 digests.  Any change to the order in which flows or
powers are summed shifts a last bit and fails here.

The exact digests were taken with scipy 1.17.1.  The exact engine keeps the
open set HiGHS returns, so on another scipy (another HiGHS) a mismatch may be
a different optimal open set among tied ones, not a bug: compare the totals
before hunting for one."""

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


def test_exact_solution_file(tmp_path, capsys):
    # digest taken with scipy 1.17.1 (see the module docstring)
    assert main(["solve", "--scale", "paper", "--seed", "7", "--scenario", "2",
                 "--reduction", "0.1", "--out", str(tmp_path)]) == 0
    assert sha256((tmp_path / "solution.txt").read_bytes()) == (
        "68e75d790214ad18ea16be375b2c34327a3ca743083038be83c6a83fd870ee78")


def sweep_csv_digest(path) -> tuple[int, str]:
    """Row count and digest of a ``sweep.csv``: every column but the
    measured ``wall_time_s``, one comma-joined line per row."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_time_s")
    text = "".join(",".join(row[:drop] + row[drop + 1:]) + "\n" for row in rows)
    return len(rows), sha256(text.encode())


def test_eepiv_sweep_csv(tmp_path, capsys):
    """``sweep.csv`` of the paper-scale EEPIV sweep of seed 7."""
    assert main(["sweep", "--scale", "paper", "--engine", "eepiv",
                 "--seeds", "7", "--out", str(tmp_path)]) == 0
    assert sweep_csv_digest(tmp_path / "sweep.csv") == (1 + 15 * 6, (
        "89e682af7804e47f383c5c989d08124b9d949ac6071813bde13b9abbb2469de4"))


def test_two_engine_sweep_csvs(tmp_path, capsys):
    """The reduced sweep of seeds 7 and 8 with both engines: ``sweep.csv``
    without ``wall_time_s``, ``placements.csv`` and ``savings.csv``."""
    # digests taken with scipy 1.17.1 (see the module docstring)
    assert main(["sweep", "--scale", "reduced", "--seeds", "7,8",
                 "--engine", "exact", "--engine", "eepiv",
                 "--out", str(tmp_path)]) == 0
    assert sweep_csv_digest(tmp_path / "sweep.csv") == (1 + 15 * 2 * 2 * 6, (
        "15788edbbb6021b41a497368f9eae7677d0adae39ed51fb5c53dd88c7dc61aa1"))
    assert sha256((tmp_path / "placements.csv").read_bytes()) == (
        "f6917501352bbf6d5d035f4fcf95ae2221fa6f5c40b9ed798bf0d1ea1828c8da")
    assert sha256((tmp_path / "savings.csv").read_bytes()) == (
        "22e006e237415c05ea20f72b4b2c5f64389a212e2b406e51e0d452271de1c365")
