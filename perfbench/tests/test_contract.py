"""BENCHMARK.json agrees with what run.py prints, and run.py refuses to run without sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

REPO = Path(__file__).resolve().parents[2]


def _spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_printed_metrics():
    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= {*run.SERVE, "sweep-kd"}


def test_serve_rects_cover_the_engine_domain():
    import numpy as np

    import loadgen
    from repro.geometry import TIGER_DOMAIN

    assert np.array_equal(loadgen.DOMAIN_LO, TIGER_DOMAIN.rect.lo)
    assert np.allclose(loadgen.DOMAIN_WIDTHS, TIGER_DOMAIN.widths, rtol=0, atol=1e-12)


def test_sweep_metrics_name_every_kd_variant():
    from repro.core.kdtree import KDTREE_VARIANTS

    assert tuple(KDTREE_VARIANTS) == run.KD_VARIANTS


def test_bounds_and_descriptions_fit_their_limits():
    spec = _spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "serve-point",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
