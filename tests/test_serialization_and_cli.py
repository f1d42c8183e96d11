"""Tests for PSD serialisation and the CLI."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.cli import build_parser, main
from repro.core import (
    build_psd,
    build_private_quadtree,
    load_psd,
    psd_from_dict,
    psd_to_dict,
    save_psd,
)
from repro.core.splits import QuadSplit
from repro.engine import load_engine
from repro.data import uniform_points
from repro.geometry import Domain, Rect


@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def released_psd(domain):
    points = uniform_points(2_000, domain, rng=np.random.default_rng(61))
    psd = build_private_quadtree(points, domain, height=3, epsilon=1.0, variant="quad-opt", rng=62)
    return psd


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------
class TestSerialization:
    def test_roundtrip_preserves_queries(self, released_psd):
        payload = psd_to_dict(released_psd)
        restored = psd_from_dict(payload)
        for query in (Rect((0.1, 0.1), (0.6, 0.7)), Rect((0.0, 0.0), (1.0, 1.0))):
            assert restored.range_query(query) == pytest.approx(released_psd.range_query(query))

    def test_roundtrip_preserves_structure(self, released_psd):
        restored = psd_from_dict(psd_to_dict(released_psd))
        assert restored.height == released_psd.height
        assert restored.fanout == released_psd.fanout
        assert restored.node_count() == released_psd.node_count()
        assert restored.count_epsilons == released_psd.count_epsilons

    def test_payload_is_json_compatible_and_excludes_private_fields(self, released_psd):
        payload = psd_to_dict(released_psd)
        text = json.dumps(payload)
        assert "_true_count" not in text
        assert "true_count" not in text

    def test_save_and_load_path(self, released_psd, tmp_path):
        path = tmp_path / "release.json"
        save_psd(released_psd, str(path))
        restored = load_psd(str(path))
        assert restored.node_count() == released_psd.node_count()

    def test_save_and_load_file_object(self, released_psd):
        buffer = io.StringIO()
        save_psd(released_psd, buffer)
        buffer.seek(0)
        restored = load_psd(buffer)
        assert restored.name == released_psd.name

    def test_rejects_wrong_version(self, released_psd):
        payload = psd_to_dict(released_psd)
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="version"):
            psd_from_dict(payload)

    def test_rejects_child_outside_parent(self, released_psd):
        payload = psd_to_dict(released_psd)
        payload["root"]["children"][0]["lo"] = [5.0, 5.0]
        payload["root"]["children"][0]["hi"] = [6.0, 6.0]
        with pytest.raises(ValueError, match="contained"):
            psd_from_dict(payload)

    def test_rejects_bad_level(self, released_psd):
        payload = psd_to_dict(released_psd)
        payload["root"]["children"][0]["level"] = 7
        with pytest.raises(ValueError, match="level"):
            psd_from_dict(payload)

    @pytest.mark.parametrize("corrupt,reason", [
        (lambda p: p["root"].update(noisy_count=float("inf")), "noisy_count"),
        (lambda p: p["root"].update(noisy_count=float("nan")), "noisy_count"),
        (lambda p: p["root"].update(post_count=float("inf")), "post_count"),
        (lambda p: p["root"].update(post_count=float("nan")), "post_count"),
        (lambda p: p["root"]["children"][0].update(post_count=None), "post_count"),
        (lambda p: p["count_epsilons"].__setitem__(0, -0.5), "count_epsilons"),
        (lambda p: p["count_epsilons"].__setitem__(0, float("inf")), "count_epsilons"),
    ], ids=["noisy-inf", "noisy-nan", "post-inf", "post-nan", "post-partial",
            "eps-negative", "eps-inf"])
    def test_rejects_unusable_released_values(self, released_psd, corrupt, reason):
        payload = psd_to_dict(released_psd)
        corrupt(payload)
        # Through JSON text: Python's json writes and reads the bare
        # NaN / Infinity literals, so a file can carry them.
        with pytest.raises(ValueError, match=reason):
            psd_from_dict(json.loads(json.dumps(payload)))

    def test_null_noisy_count_means_unreleased(self, domain):
        points = uniform_points(500, domain, rng=np.random.default_rng(65))
        psd = build_psd(points, domain, 2, QuadSplit(), epsilon=1.0, count_budget="leaf-only",
                        rng=66)
        payload = json.loads(json.dumps(psd_to_dict(psd)))
        assert payload["root"]["noisy_count"] is None
        restored = psd_from_dict(payload)
        assert np.isnan(restored.flat_tree.noisy_count[0])
        assert restored.range_query(domain.rect) == pytest.approx(psd.range_query(domain.rect))

    def test_rejects_root_domain_mismatch(self, released_psd):
        payload = psd_to_dict(released_psd)
        payload["domain"]["hi"] = [2.0, 2.0]
        with pytest.raises(ValueError, match="domain"):
            psd_from_dict(payload)

    def test_pruned_tree_roundtrips(self, domain):
        points = uniform_points(2_000, domain, rng=np.random.default_rng(63))
        psd = build_private_quadtree(points, domain, height=3, epsilon=1.0, variant="quad-opt",
                                     prune_threshold=300.0, rng=64)
        restored = psd_from_dict(psd_to_dict(psd))
        assert restored.node_count() == psd.node_count()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCLI:
    def test_build_and_query_roundtrip(self, tmp_path, capsys):
        release = tmp_path / "release.json"
        rc = main([
            "build", "--synthetic", "3000", "--variant", "quad-opt", "--epsilon", "1.0",
            "--height", "4", "--seed", "3", "--output", str(release),
        ])
        assert rc == 0
        assert release.exists()
        rc = main(["query", str(release), "--rect=-123,45,-120,48"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "-123,45,-120,48" in out

    def test_build_from_csv_with_auto_domain(self, tmp_path):
        csv_path = tmp_path / "points.csv"
        rng = np.random.default_rng(5)
        pts = rng.random((500, 2))
        csv_path.write_text("\n".join(f"{x},{y}" for x, y in pts))
        release = tmp_path / "out.json"
        rc = main(["build", "--input", str(csv_path), "--domain", "auto", "--variant", "kd-hybrid",
                   "--height", "3", "--epsilon", "1.0", "--output", str(release)])
        assert rc == 0
        assert load_engine(str(release)).height == 3

    def test_build_requires_input_or_synthetic(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--output", str(tmp_path / "x.json")])

    def test_unknown_variant_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["build", "--synthetic", "100", "--variant", "rtree*", "--output", str(tmp_path / "x.json")])

    def test_query_rejects_malformed_rect(self, tmp_path):
        release = tmp_path / "release.json"
        main(["build", "--synthetic", "500", "--height", "2", "--output", str(release)])
        with pytest.raises(SystemExit):
            main(["query", str(release), "--rect", "1,2,3"])

    def test_experiment_subcommand(self, capsys):
        rc = main(["experiment", "fig2"])
        assert rc == 0
        assert "err_uniform" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("command", ["build", "experiment"])
    def test_bad_epsilon_refused_at_parse_time(self, tmp_path, capsys, command, value):
        """A budget that is not a positive finite number writes nothing: an
        infinite one would release exact counts."""
        output = tmp_path / "out.json"
        if command == "build":
            argv = ["build", "--synthetic", "200", "--variant", "quad-baseline",
                    "--height", "2", f"--epsilon={value}", "--output", str(output)]
            option = "--epsilon"
        else:
            argv = ["experiment", "fig3", "--n-points", "200", "--quad-height", "2",
                    "--epsilons", "0.5", value, "--json", str(output)]
            option = "--epsilons"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not output.exists()
        err = capsys.readouterr().err
        assert f"error: argument {option}: " in err and "Traceback" not in err

    @pytest.mark.parametrize("command,option,value", [
        ("build", "--height", "-1"),
        ("build", "--height", "2.5"),
        ("build", "--prune", "nan"),
        ("build", "--prune", "-1"),
        ("build", "--prune", "inf"),
        ("build", "--synthetic", "-5"),
        ("build", "--seed", "-1"),
        ("experiment", "--seed", "-3"),
        ("experiment", "--repetitions", "0"),
        ("experiment", "--n-points", "0"),
        ("experiment", "--n-queries", "0"),
        ("experiment", "--quad-height", "-2"),
        ("experiment", "--kd-height", "-2"),
        ("experiment", "--case-timeout", "nan"),
        ("experiment", "--case-timeout", "0"),
        ("serve", "--port", "70000"),
    ])
    def test_bad_number_refused_at_parse_time(self, tmp_path, capsys, command, option, value):
        """A size, height, seed, threshold, timeout or port out of range exits 2 with
        one error line and writes nothing (for ``serve``, no ledger), where it
        used to raise a traceback, print nan rows, or (``--prune nan``)
        release an unpruned tree."""
        output = tmp_path / "out.json"
        if command == "build":
            argv = ["build", "--synthetic", "200", "--height", "2", "--output", str(output)]
        elif command == "serve":
            argv = ["serve", str(tmp_path / "release.psdm"), "--ledger", str(output)]
        else:
            argv = ["experiment", "fig3", "--n-points", "200", "--quad-height", "2",
                    "--json", str(output)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{option}={value}"])
        assert exc.value.code == 2
        assert not output.exists()
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"error: argument {option}: " in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("variant", ["quad-opt", "kd-standard"])
    @pytest.mark.parametrize("epsilon", ["5e-324", "1e-300", "1e-200"])
    def test_budget_too_small_for_floats_refused(self, tmp_path, variant, epsilon):
        """A budget that passes the parser but underflows or overflows a
        level's count parameters exits with one reason and writes nothing,
        where it used to raise a traceback from OLS."""
        output = tmp_path / "out.psdm"
        with pytest.raises(SystemExit) as exc:
            main(["build", "--synthetic", "500", "--variant", variant, "--height", "4",
                  f"--epsilon={epsilon}", "--output", str(output)])
        message = str(exc.value.code)
        assert message.startswith(f"cannot build {variant}: epsilon ")
        assert "too small for floating point" in message and "\n" not in message
        assert not output.exists()

    def test_budget_refusal_is_one_line_without_traceback(self, tmp_path):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        output = tmp_path / "out.psdm"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "build", "--synthetic", "200",
             "--height", "3", "--epsilon=1e-310", "--output", str(output)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stderr.count("\n") == 1 and "too small for floating point" in done.stderr
        assert "Traceback" not in done.stderr
        assert not output.exists()

    def test_zero_heights_prune_and_synthetic_accepted(self, tmp_path):
        release = tmp_path / "zero.json"
        assert main(["build", "--synthetic", "0", "--height", "0", "--prune", "0",
                     "--output", str(release)]) == 0
        assert load_engine(str(release)).height == 0
        rows = tmp_path / "rows.json"
        assert main(["experiment", "fig5", "--n-points", "200", "--n-queries", "3",
                     "--kd-height", "0", "--json", str(rows)]) == 0
        assert len(json.loads(rows.read_text())["figures"][0]["rows"]) == 18

    def test_experiment_fig3_small(self, capsys):
        rc = main(["experiment", "fig3", "--n-points", "2000", "--n-queries", "5",
                   "--quad-height", "4", "--epsilons", "1.0"])
        assert rc == 0
        assert "quad-opt" in capsys.readouterr().out

    @pytest.fixture()
    def bad_releases(self, released_psd, tmp_path):
        text = json.dumps(psd_to_dict(released_psd))
        truncated = tmp_path / "truncated.json"
        truncated.write_text(text[: len(text) // 2])
        payload = psd_to_dict(released_psd)
        payload["root"]["post_count"] = float("inf")
        infinite = tmp_path / "infinite.json"
        infinite.write_text(json.dumps(payload))
        return {"truncated": truncated, "infinite": infinite}

    @pytest.mark.parametrize("kind", ["truncated", "infinite"])
    @pytest.mark.parametrize("command", ["query", "compile"])
    def test_bad_release_exits_with_reason(self, bad_releases, tmp_path, command, kind):
        path = bad_releases[kind]
        extra = (["--rect", "0.1,0.1,0.5,0.5"] if command == "query"
                 else ["--output", str(tmp_path / "engine.psdm")])
        with pytest.raises(SystemExit, match=f"cannot load release '{path}'"):
            main([command, str(path)] + extra)

    @pytest.mark.parametrize("kind", ["truncated", "infinite"])
    def test_serve_refuses_bad_release_before_binding(self, bad_releases, tmp_path, kind):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        wal = tmp_path / "wal.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve", str(bad_releases[kind]),
             "--ledger", str(wal)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode != 0
        assert "http://" not in done.stdout  # the banner follows the bind
        assert "cannot load release" in done.stderr
        assert "Traceback" not in done.stderr
        assert not wal.exists()  # no ledger opened, nothing charged

    def test_parser_structure(self):
        parser = build_parser()
        args = parser.parse_args(["build", "--synthetic", "10", "--output", "x.json"])
        assert args.command == "build"
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])
