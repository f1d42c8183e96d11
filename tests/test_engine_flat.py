"""Tests for the compiled flat-array query engine (:mod:`repro.engine`).

The load-bearing property: on randomized trees and query workloads, the flat
engine must agree with the recursive walk of the test oracle
(``oracle.query``) — estimates within float-summation tolerance, ``n(Q)``
*exactly*, variances within tolerance — for all three PSD families, before
and after post-processing and pruning.  The rest covers the serving
conveniences: the LRU answer cache, FLATPSD2 round-trips and fail-closed
loads, engine memoisation and the CLI batch mode.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import oracle
from repro.cli import main
from repro.core import (
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    load_psd,
    save_psd,
)
from repro.data import uniform_points
from repro.engine import (
    FlatPSD,
    batch_query,
    batch_range_query,
    compile_psd,
    compiled_engine,
    load_engine,
    save_engine,
)
from repro.engine.flat import COMPILED_ENGINE_KEY
from repro.geometry import Domain, Rect
from repro.queries import random_query_rects


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def points(domain):
    return uniform_points(3_000, domain, rng=np.random.default_rng(17))


def _build(variant: str, points, domain, seed: int = 0):
    """One released PSD per family (the Hilbert entry answers planar queries)."""
    if variant == "quad-opt":
        return build_private_quadtree(points, domain, height=4, epsilon=1.0,
                                      variant="quad-opt", rng=seed)
    if variant == "kd-hybrid":
        return build_private_kdtree(points, domain, height=4, epsilon=1.0,
                                    variant="kd-hybrid", rng=seed)
    if variant == "hilbert-r":
        return build_private_hilbert_rtree(points, domain, height=6, epsilon=1.0, rng=seed)
    raise AssertionError(variant)


VARIANTS = ("quad-opt", "kd-hybrid", "hilbert-r")


def _random_queries(psd, rng, n=120):
    """Random rects over the space the PSD's engine answers in (the plane for
    a Hilbert R-tree), plus the always-tricky whole-domain query (all-full
    path)."""
    space = psd.domain if psd.curve is None else psd.planar_domain
    whole = Rect(space.rect.lo, space.rect.hi)
    return [whole] + random_query_rects(space, n, rng=rng,
                                        min_frac=0.005, max_frac=0.5)


# ----------------------------------------------------------------------
# Parity with the recursive reference
# ----------------------------------------------------------------------
class TestFlatRecursiveParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_randomized_parity_all_quantities(self, variant, points, domain):
        psd = _build(variant, points, domain, seed=3)
        engine = compile_psd(psd).validate()
        queries = _random_queries(psd, np.random.default_rng(29))
        result = batch_query(engine, queries)
        ref = oracle.pointer_view(psd)
        for i, query in enumerate(queries):
            assert result.estimates[i] == pytest.approx(oracle.range_query(ref, query), rel=1e-9, abs=1e-9)
            assert int(result.nodes_touched[i]) == oracle.nodes_touched(ref, query)
            assert result.variances[i] == pytest.approx(oracle.query_variance(ref, query),
                                                        rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_parity_without_uniformity(self, variant, points, domain):
        psd = _build(variant, points, domain, seed=5)
        engine = compile_psd(psd)
        queries = _random_queries(psd, np.random.default_rng(31), n=60)
        estimates = batch_range_query(engine, queries, use_uniformity=False)
        ref = oracle.pointer_view(psd)
        for i, query in enumerate(queries):
            expected = oracle.range_query(ref, query, use_uniformity=False)
            assert estimates[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_parity_survives_postprocess_and_prune(self, points, domain):
        psd = build_private_quadtree(points, domain, height=4, epsilon=1.0,
                                     variant="quad-baseline", rng=7)
        queries = _random_queries(psd, np.random.default_rng(37), n=40)
        for mutate in (lambda: psd.postprocess(), lambda: psd.prune(10.0)):
            # Warm the memoised engine, then mutate: the stale engine must be
            # dropped and the fresh compile must match the mutated tree.
            _ = psd.range_query(queries[0])
            mutate()
            ref = oracle.pointer_view(psd)
            for query in queries:
                flat = psd.range_query(query)
                assert flat == pytest.approx(oracle.range_query(ref, query), rel=1e-9, abs=1e-9)
                assert psd.nodes_touched(query) == oracle.nodes_touched(ref, query)

    def test_hilbert_planar_parity(self, points, domain):
        tree = build_private_hilbert_rtree(points, domain, height=6, epsilon=1.0, rng=13)
        engine = compile_psd(tree).validate()
        rng = np.random.default_rng(41)
        queries = []
        for _ in range(60):
            lo = rng.random(2) * 0.7
            hi = lo + 0.02 + rng.random(2) * 0.3
            queries.append(Rect(tuple(lo), tuple(np.minimum(hi, 1.0))))
        estimates = batch_range_query(engine, queries)
        view = oracle.hilbert_view(tree)
        for i, query in enumerate(queries):
            expected = oracle.hilbert_range_query(view, query)
            assert estimates[i] == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert tree.range_query(query) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_planar_engine_invalidated_by_direct_psd_mutation(self, points, domain):
        from repro.core import apply_ols

        tree = build_private_hilbert_rtree(points, domain, height=6, epsilon=1.0,
                                           postprocess=False, rng=53)
        query = Rect((0.2, 0.2), (0.7, 0.8))
        _ = tree.range_query(query)  # warm the planar engine
        apply_ols(tree)  # mutate the 1-D tree *without* the method
        assert tree.range_query(query) == pytest.approx(
            oracle.hilbert_range_query(tree, query), rel=1e-9, abs=1e-9
        )

    def test_empty_batch_and_disjoint_query(self, points, domain):
        psd = _build("quad-opt", points, domain)
        engine = compile_psd(psd)
        empty = batch_query(engine, [])
        assert len(empty) == 0
        outside = Rect((2.0, 2.0), (3.0, 3.0))
        result = batch_query(engine, [outside])
        assert result.estimates[0] == 0.0
        assert result.nodes_touched[0] == 0
        assert result.variances[0] == 0.0

    def test_query_input_forms_are_equivalent(self, points, domain):
        psd = _build("quad-opt", points, domain)
        engine = compile_psd(psd)
        rects = [Rect((0.1, 0.2), (0.6, 0.9)), Rect((0.3, 0.0), (0.8, 0.5))]
        as_rows = [(0.1, 0.2, 0.6, 0.9), (0.3, 0.0, 0.8, 0.5)]
        as_array = np.asarray(as_rows, dtype=float)
        expected = batch_range_query(engine, rects)
        assert np.array_equal(batch_range_query(engine, as_rows), expected)
        assert np.array_equal(batch_range_query(engine, as_array), expected)

    def test_dimension_mismatch_rejected(self, points, domain):
        engine = compile_psd(_build("quad-opt", points, domain))
        with pytest.raises(ValueError, match="dims"):
            batch_range_query(engine, [Rect((0.0,), (1.0,))])
        with pytest.raises(ValueError, match="columns"):
            batch_range_query(engine, np.zeros((2, 3)))

    def test_inverted_coordinate_rows_rejected(self, points, domain):
        # Rect enforces lo <= hi at construction; raw rows must be checked too
        # or two negative extents multiply into a positive leaf overlap.
        engine = compile_psd(_build("quad-opt", points, domain))
        with pytest.raises(ValueError, match="lo <= hi"):
            batch_range_query(engine, np.asarray([[0.4, 0.4, 0.3, 0.3]]))
        with pytest.raises(ValueError, match="lo <= hi"):
            batch_range_query(engine, [(0.4, 0.4, 0.3, 0.3)])
        with pytest.raises(ValueError, match="finite"):
            batch_range_query(engine, np.asarray([[np.nan, 0.0, 1.0, 1.0]]))


# ----------------------------------------------------------------------
# Engine memoisation
# ----------------------------------------------------------------------
class TestBackendDispatch:
    def test_compiled_engine_is_memoised(self, points, domain):
        psd = _build("kd-hybrid", points, domain)
        first = compiled_engine(psd)
        assert compiled_engine(psd) is first
        assert psd.compiled_engines[COMPILED_ENGINE_KEY] is first
        assert psd.compile() is first
        psd.prune(5.0)
        assert COMPILED_ENGINE_KEY not in psd.compiled_engines
        assert compiled_engine(psd) is not first

    def test_compiled_engine_not_serialised(self, points, domain, tmp_path):
        psd = _build("quad-opt", points, domain)
        _ = psd.range_query(Rect((0.0, 0.0), (0.4, 0.4)))
        path = tmp_path / "release.json"
        save_psd(psd, str(path))  # must not choke on the cached FlatPSD
        assert COMPILED_ENGINE_KEY not in path.read_text()

    def test_compiled_arrays_are_readonly(self, points, domain):
        engine = compile_psd(_build("quad-opt", points, domain))
        with pytest.raises(ValueError):
            engine.released[0] = 1e9


def _random_queries_2d(rng, n):
    return random_query_rects(Domain.unit(2), n, rng=rng, min_frac=0.05, max_frac=0.4)


# ----------------------------------------------------------------------
# FLATPSD2 round-trip and fail-closed loads
# ----------------------------------------------------------------------
def _save_corrupted(engine, path, **fields):
    """Write ``engine`` with ``fields`` replaced as a FLATPSD2 file.

    The writer checks nothing, so the file carries exactly the corruption;
    header and region bounds stay consistent, which leaves the refusal to
    the structural checks of ``FlatPSD.validate`` (``deep_validate=True``).
    """
    save_engine(dataclasses.replace(engine, **fields), path)
    return path


class TestEngineIO:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_roundtrip_identical_answers(self, variant, points, domain, tmp_path):
        psd = _build(variant, points, domain, seed=19)
        engine = compile_psd(psd)
        path = tmp_path / "engine.psdm"
        save_engine(engine, path)
        loaded = load_engine(path)
        assert isinstance(loaded, FlatPSD)
        assert loaded.n_nodes == engine.n_nodes
        assert loaded.height == engine.height and loaded.fanout == engine.fanout
        assert loaded.name == engine.name and loaded.domain_name == engine.domain_name
        queries = _random_queries(psd, np.random.default_rng(47), n=30)
        before, after = batch_query(engine, queries), batch_query(loaded, queries)
        # Same arrays in, bitwise-same answers out.
        assert np.array_equal(before.estimates, after.estimates)
        assert np.array_equal(before.nodes_touched, after.nodes_touched)
        assert np.array_equal(before.variances, after.variances)

    def test_save_honours_exact_path_without_suffix(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        path = tmp_path / "engine.dat"
        save_engine(engine, path)
        assert path.exists()
        assert load_engine(path).n_nodes == engine.n_nodes

    def test_load_reports_truncated_file(self, points, domain, tmp_path):
        # A partially-copied artifact must fail with a message that says
        # "truncated", not a bare mmap traceback.
        engine = compile_psd(_build("quad-opt", points, domain))
        path = tmp_path / "engine.psdm"
        save_engine(engine, path)
        blob = path.read_bytes()
        truncated = tmp_path / "truncated.psdm"
        truncated.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_engine(truncated)

    def test_savez_file_is_refused(self, tmp_path):
        """A NumPy archive (the retired engine format) is not FLATPSD2: the
        loader refuses it on its magic, and the CLI hands it to the JSON
        loader, which fails closed too."""
        path = tmp_path / "engine.npz"
        np.savez(path, data=np.arange(4))
        with pytest.raises(ValueError, match="bad magic"):
            load_engine(path)
        with pytest.raises(SystemExit, match="cannot load release"):
            main(["query", str(path), "--rect", "0.1,0.1,0.6,0.7"])

    def test_load_rejects_corrupted_structure(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        child_end = np.array(engine.child_end)
        child_end[0] = 10 ** 9  # range beyond the node table
        bad = _save_corrupted(engine, tmp_path / "bad.psdm", child_end=child_end)
        with pytest.raises(ValueError):
            load_engine(bad, deep_validate=True)

    def test_load_rejects_nonfinite_bounds_and_counts(self, points, domain, tmp_path):
        # NaN makes lo > hi vacuously false and the intersect test silently
        # skip the subtree; finiteness must be enforced explicitly.
        engine = compile_psd(_build("quad-opt", points, domain))
        for field, match in (("lo", "finite"), ("released", "finite")):
            corrupted = np.array(getattr(engine, field))
            corrupted[1] = np.nan
            bad = _save_corrupted(engine, tmp_path / f"nan_{field}.psdm", **{field: corrupted})
            with pytest.raises(ValueError, match=match):
                load_engine(bad, deep_validate=True)

    def test_load_rejects_aliased_child_ranges(self, points, domain, tmp_path):
        # An internal node whose child range aliases a sibling's subtree
        # passes all per-node checks; the partition check must catch it.
        engine = compile_psd(_build("quad-opt", points, domain))
        starts, ends = np.array(engine.child_start), np.array(engine.child_end)
        starts[2], ends[2] = starts[1], ends[1]  # node 2 now claims node 1's children
        bad = _save_corrupted(engine, tmp_path / "aliased.psdm",
                              child_start=starts, child_end=ends)
        with pytest.raises(ValueError, match="partition"):
            load_engine(bad, deep_validate=True)

    def test_load_rejects_out_of_range_levels(self, points, domain, tmp_path):
        # A declared height below the true depth would make leaf levels
        # negative and silently wrap into level_variance; it must fail loudly.
        engine = compile_psd(_build("quad-opt", points, domain))
        bad = _save_corrupted(
            engine, tmp_path / "bad_levels.psdm",
            height=engine.height - 1,
            level=np.asarray(engine.level) - 1,
            count_epsilons=np.asarray(engine.count_epsilons)[:-1],
            level_variance=np.asarray(engine.level_variance)[:-1],
        )
        with pytest.raises(ValueError, match="level"):
            load_engine(bad, deep_validate=True)


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliEngine:
    @pytest.fixture()
    def release_path(self, points, domain, tmp_path):
        psd = _build("quad-opt", points, domain, seed=23)
        psd.strip_private_fields()
        path = tmp_path / "release.json"
        save_psd(psd, str(path))
        return path

    def test_query_engine_flat_matches_recursive(self, release_path, capsys):
        spec = "0.1,0.1,0.6,0.7"
        recursive = oracle.range_query(load_psd(str(release_path)), Rect((0.1, 0.1), (0.6, 0.7)))
        assert main(["query", str(release_path), "--rect", spec]) == 0
        assert capsys.readouterr().out == f"{spec}\t{recursive:.2f}\n"

    def test_queries_file_batch_mode(self, release_path, tmp_path, capsys):
        workload = tmp_path / "queries.txt"
        workload.write_text("# workload\n0.1,0.1,0.6,0.7\n\n0.2,0.3,0.9,0.9\n")
        assert main(["query", str(release_path), "--queries-file", str(workload)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("0.1,0.1,0.6,0.7\t")

    def test_compile_then_serve_engine(self, release_path, tmp_path, capsys):
        engine = tmp_path / "engine.psdm"
        assert main(["compile", str(release_path), "--output", str(engine)]) == 0
        capsys.readouterr()
        spec = "0.1,0.1,0.6,0.7"
        assert main(["query", str(engine), "--rect", spec]) == 0
        engine_out = capsys.readouterr().out
        assert main(["query", str(release_path), "--rect", spec]) == 0
        assert capsys.readouterr().out == engine_out

    def test_query_without_rects_fails(self, release_path):
        with pytest.raises(SystemExit):
            main(["query", str(release_path)])
