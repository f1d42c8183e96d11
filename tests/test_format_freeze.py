"""Format freeze for the durable files: the budget WAL, the sweep checkpoint
and the released PSD JSON.

``tests/golden/`` holds bytes written by the ledger and checkpoint writers
before they moved onto :class:`repro.durable.journal.Journal`.  The same
calls must still write exactly those bytes, and the golden files must replay
to exactly the same accounts and rows.  Other readers depend on the bytes:
``perfbench/run.py`` reads the WAL fields ``kind``, ``request``, ``analyst``
and ``epsilon_hex``, and the CI chaos smoke greps the checkpoint for
``"kind": "case"``.

The two ``release_*.json`` files were written by ``save_psd`` while PSDs
still had a pointer-tree representation, from the seeded builds below: a
pruned quad-opt release (post counts on an incomplete tree) and a
leaf-only-budget kd release (``null`` noisy counts on its internal levels).
The array-native loader and writer must read them into today's engine bit
for bit and write them back byte for byte.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.core import build_private_quadtree, build_psd, load_psd, psd_to_dict, save_psd
from repro.core.splits import KDSplit
from repro.data import uniform_points
from repro.engine import compile_psd, load_engine
from repro.geometry import Domain
from repro.parallel.checkpoint import SweepCheckpoint
from repro.serve.ledger import BudgetLedger

GOLDEN = Path(__file__).resolve().parent / "golden"

SWEEP_FINGERPRINT = "f" * 40
CASE_FINGERPRINTS = ["a" * 40, "b" * 40, "c" * 40]
ROWS = {
    2: [{"variant": "kd-cell", "epsilon": 0.1, "nan": float("nan"), "inf": float("inf"),
         "ninf": float("-inf"), "neg": -0.0, "count": 7, "flag": True, "none": None}],
    0: [{"shape": "square", "median_rel_error_pct": 1.0 / 3.0},
        {"shape": "wide", "median_rel_error_pct": 12.5, "count": -3}],
}


def _write_wal(path: Path) -> BudgetLedger:
    ledger = BudgetLedger(path, default_cap=1.0)
    ledger.set_cap("alice", 0.5)
    ledger.charge("alice", 0.1, request_id=1)
    ledger.charge("bob", 0.2 / 3.0, request_id=2)
    ledger.charge("alice", 0.013, request_id=3)
    ledger.set_cap("bob", 2.0)
    ledger.charge("bob", 0.1 / 7.0)
    return ledger


def _same_rows(left, right) -> bool:
    """Row equality with floats compared bitwise (NaN equals NaN, -0.0 is not 0.0)."""
    def key(value):
        return ("f64", value.hex()) if isinstance(value, float) else (type(value).__name__, value)

    return [[(k, key(v)) for k, v in row.items()] for row in left] == \
        [[(k, key(v)) for k, v in row.items()] for row in right]


def test_wal_bytes_are_frozen(tmp_path: Path) -> None:
    wal = tmp_path / "wal.jsonl"
    _write_wal(wal).close()
    assert wal.read_bytes() == (GOLDEN / "budget_wal.jsonl").read_bytes()


def test_golden_wal_replays_to_the_writer_accounts(tmp_path: Path) -> None:
    live = _write_wal(tmp_path / "live.jsonl")
    wal = tmp_path / "golden.jsonl"
    shutil.copyfile(GOLDEN / "budget_wal.jsonl", wal)
    with BudgetLedger(wal, default_cap=1.0) as replayed:
        assert replayed.replayed_records == 6
        assert replayed.seq == live.seq == 6
        assert replayed.accounts() == live.accounts()
        assert replayed.spend_hex("alice") == (0.1 + 0.013).hex()
    live.close()


def test_checkpoint_bytes_are_frozen(tmp_path: Path) -> None:
    path = tmp_path / "ck.jsonl"
    with SweepCheckpoint(str(path), SWEEP_FINGERPRINT, CASE_FINGERPRINTS) as ck:
        for index, rows in ROWS.items():
            ck.record(index, rows)
    assert path.read_bytes() == (GOLDEN / "sweep_checkpoint.jsonl").read_bytes()


def test_golden_checkpoint_replays_to_the_recorded_rows(tmp_path: Path) -> None:
    path = tmp_path / "ck.jsonl"
    shutil.copyfile(GOLDEN / "sweep_checkpoint.jsonl", path)
    with SweepCheckpoint(str(path), SWEEP_FINGERPRINT, CASE_FINGERPRINTS) as ck:
        completed = ck.completed
    assert sorted(completed) == sorted(ROWS)
    for index, rows in ROWS.items():
        assert _same_rows(completed[index], rows), index
        assert [list(row) for row in completed[index]] == [list(row) for row in rows]
    assert math.copysign(1.0, completed[2][0]["neg"]) == -1.0
    assert path.read_bytes() == (GOLDEN / "sweep_checkpoint.jsonl").read_bytes()


# ----------------------------------------------------------------------
# The release JSON
# ----------------------------------------------------------------------
RELEASE_DOMAIN = Domain.unit(2)
RELEASE_POINTS = uniform_points(300, RELEASE_DOMAIN, rng=np.random.default_rng(2012))


def _pruned_quad_opt():
    return build_private_quadtree(RELEASE_POINTS, RELEASE_DOMAIN, 3, 1.0, variant="quad-opt",
                                  prune_threshold=20.0, rng=7)


def _leaf_only_kd():
    return build_psd(RELEASE_POINTS, RELEASE_DOMAIN, 2, KDSplit(median_method="em"),
                     epsilon=1.0, count_budget="leaf-only", rng=11, name="kd-standard")


RELEASES = {
    "release_pruned_quad_opt.json": _pruned_quad_opt,
    "release_leaf_only_kd.json": _leaf_only_kd,
}
ENGINE_ARRAYS = ("lo", "hi", "level", "released", "has_count", "is_leaf", "child_start",
                 "child_end", "area", "count_epsilons", "level_variance", "domain_lo",
                 "domain_hi")


def test_golden_releases_cover_the_edge_cases() -> None:
    pruned = load_psd(str(GOLDEN / "release_pruned_quad_opt.json"))
    assert not pruned.is_complete() and pruned.flat_tree.post_count is not None
    leaf_only = load_psd(str(GOLDEN / "release_leaf_only_kd.json"))
    noisy = leaf_only.flat_tree.noisy_count
    assert np.all(np.isnan(noisy[leaf_only.flat_tree.level > 0]))
    assert np.all(np.isfinite(noisy[leaf_only.flat_tree.level == 0]))


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_golden_release_compiles_to_todays_engine(name: str) -> None:
    golden = compile_psd(load_psd(str(GOLDEN / name)))
    today = compile_psd(RELEASES[name]())
    for field in ENGINE_ARRAYS:
        a, b = getattr(golden, field), getattr(today, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_golden_release_resaves_byte_identical(name: str, tmp_path: Path) -> None:
    path = tmp_path / name
    save_psd(load_psd(str(GOLDEN / name)), str(path))
    assert path.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_todays_release_dict_is_the_golden_one(name: str) -> None:
    golden = json.loads((GOLDEN / name).read_text())
    # The constant "layout" metadata key had no readers and is no longer written.
    del golden["metadata"]["layout"]
    assert psd_to_dict(RELEASES[name]()) == golden


@pytest.mark.parametrize("name", sorted(RELEASES))
def test_golden_release_compiles_with_its_metadata(name: str, tmp_path: Path) -> None:
    """``repro compile`` imports a nested JSON release into FLATPSD2 whose
    release block carries the file's metadata verbatim, ``layout`` included."""
    out = tmp_path / "golden.psdm"
    assert main(["compile", str(GOLDEN / name), "--output", str(out)]) == 0
    golden = json.loads((GOLDEN / name).read_text())
    release = load_engine(out).release
    assert release["metadata"] == golden["metadata"]
    assert "layout" in release["metadata"]
    assert release["ols"] is (golden["root"]["post_count"] is not None)
