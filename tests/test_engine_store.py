"""Tests for the FLATPSD2 release file (:mod:`repro.engine.io`).

The load-bearing contracts:

* **bitwise parity** — a float64 engine attached via ``np.memmap`` must
  answer every query (estimates, ``n(Q)``, variances) bitwise identically to
  the in-RAM engine it was saved from, across all three PSD families, the
  empty workload and the whole-domain query;
* **precision contract** — float32 storage never moves the query
  decomposition (``n(Q)`` identical; geometry stays float64) and its added
  estimate error stays below the per-leaf Laplace standard deviation;
* **validation** — a missing, truncated or wrongly-versioned file fails
  loudly, naming the offending field;
* **zero-copy serving** — a mapped engine pickles as its path and file
  identity, :class:`ShardedQueryServer` workers re-map the same file with
  bitwise-identical sharded answers, and a worker refuses a file replaced
  since the parent attached it.
"""

from __future__ import annotations

import dataclasses
import json
import pickle
import struct

import numpy as np
import pytest

from repro.cli import main
from repro.core import (
    build_private_hilbert_rtree,
    build_private_kdtree,
    build_private_quadtree,
    load_psd,
    psd_from_dict,
    psd_to_dict,
    save_psd,
)
from repro.data import road_intersections, uniform_points
from repro.engine import (
    FlatPSD,
    batch_query,
    compile_psd,
    engine_with_precision,
    is_engine_file,
    load_engine,
    save_engine,
)
from repro.geometry import TIGER_DOMAIN, Domain, Rect
from repro.privacy.mechanisms import laplace_variance
from repro.queries import random_query_rects


# ----------------------------------------------------------------------
# Shared builders (same families as test_engine_flat)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def domain():
    return Domain.unit(2)


@pytest.fixture(scope="module")
def points(domain):
    return uniform_points(3_000, domain, rng=np.random.default_rng(17))


def _build(variant: str, points, domain, seed: int = 0):
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


def _queries(psd, n=80, seed=47):
    """Random rects over the space the PSD's engine answers in (the plane for
    a Hilbert R-tree), plus the whole-domain query."""
    space = psd.domain if psd.curve is None else psd.planar_domain
    whole = Rect(space.rect.lo, space.rect.hi)
    return [whole] + random_query_rects(space, n, rng=np.random.default_rng(seed),
                                        min_frac=0.005, max_frac=0.5)


def _assert_bitwise(a, b):
    assert np.array_equal(a.estimates, b.estimates)
    assert np.array_equal(a.nodes_touched, b.nodes_touched)
    assert np.array_equal(a.variances, b.variances)


# ----------------------------------------------------------------------
# Bitwise parity: mapped float64 vs in-RAM, all families
# ----------------------------------------------------------------------
class TestMemmapParity:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_float64_mapped_answers_bitwise_equal(self, variant, points, domain, tmp_path):
        psd = _build(variant, points, domain, seed=23)
        engine = compile_psd(psd)
        path = tmp_path / "engine.psdm"
        save_engine(engine, path, format="mmap")
        mapped = load_engine(path)
        assert mapped.mapped_nbytes() > 0
        assert mapped.source_path == str(path)
        assert mapped.storage_precision == "float64"
        queries = _queries(psd)
        _assert_bitwise(batch_query(engine, queries), batch_query(mapped, queries))

    def test_empty_workload(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        path = tmp_path / "engine.psdm"
        save_engine(engine, path, format="mmap")
        mapped = load_engine(path)
        result = batch_query(mapped, [])
        assert result.estimates.shape == (0,)
        assert result.nodes_touched.shape == (0,)

    def test_deep_validate_passes_on_mapped_engine(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        path = tmp_path / "engine.psdm"
        save_engine(engine, path, format="mmap")
        assert isinstance(load_engine(path, deep_validate=True), FlatPSD)

    def test_mapped_arrays_are_readonly(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        path = tmp_path / "engine.psdm"
        save_engine(engine, path, format="mmap")
        mapped = load_engine(path)
        with pytest.raises(ValueError):
            mapped.released[0] = 1.0

    def test_format_detection(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        npz, mm, other = tmp_path / "e.npz", tmp_path / "e.psdm", tmp_path / "e.json"
        np.savez(npz, data=np.arange(4))
        save_engine(engine, mm, format="mmap")
        other.write_text("{}")
        assert not is_engine_file(npz)
        assert is_engine_file(mm)
        assert not is_engine_file(other)
        assert not is_engine_file(tmp_path / "absent")

    def test_unknown_format_rejected(self, points, domain, tmp_path):
        engine = compile_psd(_build("quad-opt", points, domain))
        with pytest.raises(ValueError, match="unknown engine format"):
            save_engine(engine, tmp_path / "e.bin", format="flatbuffer")


# ----------------------------------------------------------------------
# The float32 precision contract
# ----------------------------------------------------------------------
class TestFloat32Precision:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_decomposition_unchanged_and_error_below_noise_floor(
        self, variant, points, domain, tmp_path
    ):
        psd = _build(variant, points, domain, seed=29)
        engine = compile_psd(psd)
        path = tmp_path / "engine32.psdm"
        save_engine(engine, path, format="mmap", precision="float32")
        mapped = load_engine(path)
        assert mapped.storage_precision == "float32"
        assert mapped.child_start.dtype == np.int32
        queries = _queries(psd)
        r64, r32 = batch_query(engine, queries), batch_query(mapped, queries)
        # Geometry stays float64, so the decomposition cannot move.
        assert np.array_equal(r64.nodes_touched, r32.nodes_touched)
        # The per-leaf Laplace sd is the natural noise floor of the release:
        # storage rounding far below it cannot change any conclusion.
        leaf_sd = np.sqrt(laplace_variance(float(np.min(
            engine.count_epsilons[engine.count_epsilons > 0]))))
        assert np.max(np.abs(r64.estimates - r32.estimates)) < leaf_sd

    def test_float32_file_roundtrip_is_bitwise_stable(self, points, domain, tmp_path):
        # Saving the narrowed engine and mapping it back must reproduce the
        # in-RAM float32 cast exactly: rounding happens once, at cast time.
        engine = compile_psd(_build("quad-opt", points, domain))
        narrowed = engine_with_precision(engine, "float32")
        path = tmp_path / "engine32.psdm"
        save_engine(engine, path, format="mmap", precision="float32")
        mapped = load_engine(path)
        queries = _queries(_build("quad-opt", points, domain))
        _assert_bitwise(batch_query(narrowed, queries), batch_query(mapped, queries))

    def test_cast_is_idempotent_and_reversible_in_dtype(self, points, domain):
        engine = compile_psd(_build("quad-opt", points, domain))
        narrowed = engine_with_precision(engine, "float32")
        assert engine_with_precision(narrowed, "float32") is narrowed
        assert engine_with_precision(engine, "float64") is engine
        widened = engine_with_precision(narrowed, "float64")
        assert widened.released.dtype == np.float64
        assert widened.child_start.dtype == np.int64
        # Widening is exact (float32 -> float64 is an embedding).
        assert np.array_equal(widened.released,
                              narrowed.released.astype(np.float64))

    def test_unknown_precision_rejected(self, points, domain):
        engine = compile_psd(_build("quad-opt", points, domain))
        with pytest.raises(ValueError, match="unknown precision"):
            engine_with_precision(engine, "float16")


# ----------------------------------------------------------------------
# Validation of the v2 file format
# ----------------------------------------------------------------------
def _rewrite_header(path, edit):
    """Apply ``edit`` to the parsed JSON header in place, padding the header
    to its original length so every region offset stays valid."""
    blob = path.read_bytes()
    header_len = struct.unpack("<Q", blob[8:16])[0]
    header = json.loads(blob[16:16 + header_len].decode())
    edit(header)
    packed = json.dumps(header).encode()
    assert len(packed) <= header_len
    packed += b" " * (header_len - len(packed))
    path.write_bytes(blob[:16] + packed + blob[16 + header_len:])


@pytest.fixture()
def v2_file(points, domain, tmp_path):
    engine = compile_psd(_build("quad-opt", points, domain))
    path = tmp_path / "engine.psdm"
    save_engine(engine, path)
    return path


class TestV2Validation:
    def test_bad_magic(self, v2_file):
        blob = bytearray(v2_file.read_bytes())
        blob[:8] = b"NOTMAGIC"
        v2_file.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="bad magic"):
            load_engine(v2_file)

    def test_truncated_header(self, v2_file):
        v2_file.write_bytes(v2_file.read_bytes()[:12])
        with pytest.raises(ValueError, match="truncated"):
            load_engine(v2_file)

    def test_truncated_array_region_names_the_field(self, v2_file):
        # Chop the file mid-data: the *last* stored field's region now falls
        # outside the file and the error must say which field.
        blob = v2_file.read_bytes()
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:16 + header_len].decode())
        last = max(header["arrays"], key=lambda k: header["arrays"][k]["offset"])
        cut = header["arrays"][last]["offset"] + 1
        v2_file.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match=rf"{last}.*truncated|truncated.*{last}"):
            load_engine(v2_file)

    def test_missing_field_named(self, v2_file):
        _rewrite_header(v2_file, lambda header: header["arrays"].pop("released"))
        with pytest.raises(ValueError, match="missing array field 'released'"):
            load_engine(v2_file)

    def test_format_version_mismatch(self, v2_file):
        blob = v2_file.read_bytes()
        # Same-length byte substitution keeps the header length field valid.
        assert b'"format_version": 2' in blob
        v2_file.write_bytes(blob.replace(b'"format_version": 2',
                                         b'"format_version": 9', 1))
        with pytest.raises(ValueError, match="format version 9"):
            load_engine(v2_file)

    def test_corrupt_header_json(self, v2_file):
        blob = bytearray(v2_file.read_bytes())
        blob[16] = ord("!")  # breaks the leading '{'
        v2_file.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="corrupt v2 header"):
            load_engine(v2_file)

    def test_int32_overflow_guard_message(self, points, domain):
        engine = compile_psd(_build("quad-opt", points, domain))
        big = int(np.iinfo(np.int32).max) + 1
        # Fake the node count without allocating 2^31 rows.
        class _Huge(FlatPSD):
            @property
            def n_nodes(self):  # noqa: D401 - test shim
                return big
        huge = _Huge(**{f: getattr(engine, f) for f in (
            "lo", "hi", "level", "released", "has_count", "is_leaf",
            "child_start", "child_end", "area", "count_epsilons",
            "level_variance", "domain_lo", "domain_hi")},
            height=engine.height, fanout=engine.fanout, release=engine.release)
        with pytest.raises(ValueError, match="int32 child offsets"):
            engine_with_precision(huge, "float32")


# ----------------------------------------------------------------------
# The release block: meta.release
# ----------------------------------------------------------------------
class TestReleaseBlock:
    @pytest.mark.parametrize("variant,ols", [("quad-opt", True), ("kd-pure", False),
                                             ("hilbert-r", True)])
    def test_block_roundtrips_and_survives_float32(self, variant, ols, points, domain,
                                                   tmp_path):
        if variant == "kd-pure":
            psd = build_private_kdtree(points, domain, height=4, epsilon=1.0,
                                       variant="kd-pure", rng=3)
        else:
            psd = _build(variant, points, domain, seed=3)
        engine = compile_psd(psd)
        assert engine.release == {"ols": ols, "metadata": psd.metadata}
        assert psd.metadata["split_rule"] and psd.metadata["epsilon"] == 1.0
        path, path32 = tmp_path / "engine.psdm", tmp_path / "engine32.psdm"
        save_engine(engine, path)
        loaded = load_engine(path)
        assert loaded.release == engine.release
        assert engine_with_precision(loaded, "float32").release == engine.release
        save_engine(loaded, path32, precision="float32")
        assert load_engine(path32).release == engine.release

    def test_cli_float32_restore_keeps_block(self, v2_file, tmp_path, capsys):
        out = tmp_path / "engine32.psdm"
        assert main(["compile", str(v2_file), "--precision", "float32",
                     "--output", str(out)]) == 0
        narrowed = load_engine(out)
        assert narrowed.storage_precision == "float32"
        assert narrowed.release == load_engine(v2_file).release

    def test_restore_in_place_over_the_mapped_file(self, v2_file, points, domain, capsys):
        before = load_engine(v2_file)
        queries = _queries(_build("quad-opt", points, domain))
        reference = batch_query(before, queries)
        assert main(["compile", str(v2_file), "--precision", "float32",
                     "--output", str(v2_file)]) == 0
        # The mapped engine still reads the bytes it was attached to.
        _assert_bitwise(reference, batch_query(before, queries))
        assert load_engine(v2_file).storage_precision == "float32"

    @pytest.mark.parametrize("release,field", [
        (None, "'meta.release' block"),
        ([], "'meta.release' must be an object"),
        ({"ols": 1, "metadata": {}}, "'meta.release.ols' must be a bool"),
        ({"ols": True}, "'meta.release.metadata' must be an object"),
        ({"ols": True, "metadata": []}, "'meta.release.metadata' must be an object"),
    ])
    def test_malformed_block_refused_by_name(self, v2_file, release, field):
        def edit(header):
            header["meta"].pop("release")
            if release is not None:
                header["meta"]["release"] = release

        _rewrite_header(v2_file, edit)
        with pytest.raises(ValueError, match=field):
            load_engine(v2_file)

    @pytest.mark.parametrize("variant", ["quad-opt", "kd-hybrid", "hilbert-r"])
    def test_built_file_answers_as_the_imported_json(self, variant, tmp_path, capsys):
        built, exported = tmp_path / "built.psdm", tmp_path / "release.json"
        assert main(["build", "--synthetic", "3000", "--variant", variant, "--height", "4",
                     "--epsilon", "0.5", "--prune", "32", "--seed", "4",
                     "--output", str(built)]) == 0
        # The same seeded build in the library, exported as nested JSON.
        points = road_intersections(n=3000, rng=4)
        if variant == "hilbert-r":
            psd = build_private_hilbert_rtree(points, TIGER_DOMAIN, 8, 0.5,
                                              prune_threshold=32.0, rng=4)
        else:
            build = build_private_quadtree if variant == "quad-opt" else build_private_kdtree
            psd = build(points, TIGER_DOMAIN, 4, 0.5, variant=variant,
                        prune_threshold=32.0, rng=4)
        save_psd(psd, str(exported))
        imported = compile_psd(load_psd(str(exported)))
        engine = load_engine(built)
        assert engine.release == imported.release
        space = Domain.from_bounds(engine.domain_lo.tolist(), engine.domain_hi.tolist())
        queries = random_query_rects(space, 60, rng=np.random.default_rng(9))
        _assert_bitwise(batch_query(imported, queries), batch_query(engine, queries))


# ----------------------------------------------------------------------
# A Hilbert R-tree release is its planar engine
# ----------------------------------------------------------------------
class TestHilbertRelease:
    @pytest.fixture(scope="class")
    def psd(self):
        return build_private_hilbert_rtree(road_intersections(n=5_000, rng=2), TIGER_DOMAIN, 12,
                                           0.5, order=16, prune_threshold=32.0, rng=3)

    def test_file_and_json_hold_the_planar_engine(self, psd, tmp_path):
        """The file is the planar engine, read back whole with no rebuild;
        the nested JSON keeps the index intervals plus the curve, so an
        import compiles to the same engine (the JSON loader never sees the
        planar boxes, whose children can exceed their parents by rounding)."""
        engine = psd.compile()
        path, exported = tmp_path / "hilbert.psdm", tmp_path / "hilbert.json"
        save_engine(engine, path)
        save_psd(psd, str(exported))
        loaded = load_engine(path, verify=True).validate()
        imported = compile_psd(load_psd(str(exported)))
        queries = random_query_rects(TIGER_DOMAIN, 60, rng=np.random.default_rng(5))
        for other in (loaded, imported):
            for name in ("lo", "hi", "level", "released", "has_count", "is_leaf",
                         "child_start", "child_end", "area", "count_epsilons",
                         "level_variance", "domain_lo", "domain_hi"):
                assert np.array_equal(getattr(other, name), getattr(engine, name)), name
            assert ((other.name, other.domain_name, other.release)
                    == (engine.name, engine.domain_name, engine.release))
            _assert_bitwise(batch_query(engine, queries), batch_query(other, queries))

    def test_json_curve_must_match_the_index_domain(self, psd):
        payload = psd_to_dict(psd)
        assert payload["curve"]["order"] == 16
        payload["curve"]["order"] = 15
        with pytest.raises(ValueError, match="index range"):
            psd_from_dict(payload)


# ----------------------------------------------------------------------
# Artifact integrity: per-region CRC32 in the v2 header
# ----------------------------------------------------------------------
class TestArtifactIntegrity:
    def _corrupt_region(self, path, field):
        blob = bytearray(path.read_bytes())
        header_len = struct.unpack("<Q", blob[8:16])[0]
        header = json.loads(blob[16:16 + header_len].decode())
        offset = header["arrays"][field]["offset"]
        blob[offset + 3] ^= 0xFF
        path.write_bytes(bytes(blob))

    def test_v2_verified_load_roundtrips_bitwise(self, points, domain, tmp_path, v2_file):
        engine = compile_psd(_build("quad-opt", points, domain))
        verified = load_engine(v2_file, verify=True)
        queries = _queries(_build("quad-opt", points, domain))
        _assert_bitwise(batch_query(engine, queries), batch_query(verified, queries))

    def test_v2_corrupted_region_named(self, v2_file):
        from repro.engine import EngineIntegrityError

        self._corrupt_region(v2_file, "released")
        with pytest.raises(EngineIntegrityError, match="'released' is corrupted"):
            load_engine(v2_file, verify=True)
        # unverified attach stays fast and permissive (serving opts in)
        load_engine(v2_file)

    def test_v2_geometry_corruption_named(self, v2_file):
        from repro.engine import EngineIntegrityError

        self._corrupt_region(v2_file, "lo")
        with pytest.raises(EngineIntegrityError, match="'lo' is corrupted"):
            load_engine(v2_file, verify=True)

    def test_v2_missing_crc_stamp_refused(self, v2_file):
        from repro.engine import EngineIntegrityError

        def strip_stamps(header):
            for entry in header["arrays"].values():
                entry.pop("crc32", None)

        _rewrite_header(v2_file, strip_stamps)
        load_engine(v2_file)  # pre-integrity files still load unverified
        with pytest.raises(EngineIntegrityError, match="no crc32 stamp"):
            load_engine(v2_file, verify=True)

    def test_serve_cli_refuses_corrupted_engine(self, v2_file, capsys):
        self._corrupt_region(v2_file, "released")
        with pytest.raises(SystemExit, match="corrupted"):
            main(["serve", str(v2_file), "--ledger", str(v2_file) + ".ledger"])

    def test_compile_cli_refuses_corrupted_engine(self, v2_file, tmp_path):
        self._corrupt_region(v2_file, "released")
        out = tmp_path / "restamped.psdm"
        with pytest.raises(SystemExit, match="corrupted"):
            main(["compile", str(v2_file), "--output", str(out)])
        assert not out.exists()

    def test_query_cli_verify_flag(self, v2_file, capsys):
        rc = main(["query", str(v2_file), "--rect", "0.1,0.1,0.6,0.6", "--verify"])
        assert rc == 0
        self._corrupt_region(v2_file, "released")
        with pytest.raises(SystemExit, match="corrupted"):
            main(["query", str(v2_file), "--rect", "0.1,0.1,0.6,0.6", "--verify"])


# ----------------------------------------------------------------------
# Zero-copy serving: pickling, sharded workers
# ----------------------------------------------------------------------
class TestZeroCopyServing:
    def test_mapped_engine_pickles_as_its_file(self, points, domain, tmp_path):
        psd = _build("quad-opt", points, domain)
        path = tmp_path / "engine.psdm"
        save_engine(compile_psd(psd), path, format="mmap")
        mapped = load_engine(path)
        payload = pickle.dumps(mapped)
        # The path and the file identity, not the arrays.
        assert len(payload) < 1024
        attached = pickle.loads(payload)
        for name in ("lo", "released", "child_start", "domain_hi"):
            view = getattr(attached, name)
            assert isinstance(view, np.memmap)
            assert view.filename == getattr(mapped, name).filename == str(path)
            assert view.offset == getattr(mapped, name).offset
        assert attached.mapped_nbytes() == mapped.mapped_nbytes()
        queries = _queries(psd)
        _assert_bitwise(batch_query(mapped, queries), batch_query(attached, queries))

    def test_replaced_file_is_refused_on_unpickle(self, points, domain, tmp_path):
        from repro.engine import EngineIntegrityError

        first, second = (compile_psd(_build("kd-hybrid", points, domain, seed=s)) for s in (1, 2))
        path = tmp_path / "engine.psdm"
        save_engine(first, path)
        mapped = load_engine(path)
        payload = pickle.dumps(mapped)
        save_engine(second, path)  # the same layout and size, other counts
        with pytest.raises(EngineIntegrityError, match="replaced after it was attached"):
            pickle.loads(payload)
        queries = _queries(_build("kd-hybrid", points, domain))
        _assert_bitwise(batch_query(mapped, queries), batch_query(first, queries))

    def test_engine_no_file_backs_pickles_its_arrays(self, points, domain, tmp_path):
        # An engine derived from a mapped one holds arrays the file does not,
        # so it ships them, never the path.
        psd = _build("quad-opt", points, domain)
        path = tmp_path / "engine.psdm"
        save_engine(compile_psd(psd), path, format="mmap")
        mapped = load_engine(path)
        queries = _queries(psd)
        for derived in (engine_with_precision(mapped, "float32"),
                        dataclasses.replace(mapped, name="renamed")):
            assert derived.source_path is None
            payload = pickle.dumps(derived)
            assert len(payload) > derived.nbytes()
            _assert_bitwise(batch_query(derived, queries),
                            batch_query(pickle.loads(payload), queries))

    def test_sharded_server_over_mapped_engine(self, points, domain, tmp_path):
        from repro.parallel import ShardedQueryServer

        # Pruned, so the frontier walk answers it and the batch crosses the
        # pool (a complete quadtree is answered in the caller).
        psd = build_private_quadtree(points, domain, height=4, epsilon=1.0,
                                     variant="quad-opt", prune_threshold=32, rng=0)
        engine = compile_psd(psd)
        path = tmp_path / "engine.psdm"
        save_engine(engine, path, format="mmap")
        mapped = load_engine(path)
        queries = _queries(psd, n=60)
        direct = batch_query(engine, queries)
        with ShardedQueryServer(mapped, workers=2, chunk_queries=16) as server:
            sharded = server.batch_query(queries)
            stats = server.stats()
        _assert_bitwise(direct, sharded)
        assert stats["sharded_batches"] == 1
        assert stats["engine_mapped_bytes"] > 0

    def test_release_replaced_under_a_running_server(self, tmp_path):
        """Rewriting the served path with a release of the same size and
        layout must not reach the answers: the workers rebuilt after a kill
        refuse the new file, and the pool answers from the parent's mapping."""
        from repro.parallel import ShardedQueryServer

        path = tmp_path / "release.psdm"
        build = ["build", "--synthetic", "4000", "--variant", "kd-hybrid", "--height", "6",
                 "--output", str(path)]
        assert main(build + ["--epsilon", "0.5"]) == 0
        served = load_engine(path)
        queries = [list(r.lo) + list(r.hi)
                   for r in random_query_rects(TIGER_DOMAIN, 600, rng=np.random.default_rng(3))]
        reference = batch_query(served, queries)
        with ShardedQueryServer(served, workers=2, chunk_queries=100) as server:
            _assert_bitwise(server.batch_query(queries), reference)  # the pool starts
            size = path.stat().st_size
            assert main(build + ["--epsilon", "0.2"]) == 0
            assert path.stat().st_size == size
            replaced = batch_query(load_engine(path), queries)
            assert not np.array_equal(replaced.estimates, reference.estimates)
            # A dead worker may be noticed mid-batch or between batches;
            # re-kill until the pool has rebuilt and fallen back.
            for _ in range(5):
                server.drill("kill-worker")
                _assert_bitwise(server.batch_query(queries), reference)
                if server.stats()["inproc_fallbacks"]:
                    break
            assert server.stats()["inproc_fallbacks"] >= 1


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCliMmap:
    @pytest.fixture(scope="class")
    def release_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "release.psdm"
        main(["build", "--synthetic", "4000", "--variant", "quad-opt",
              "--height", "5", "--epsilon", "0.5", "--output", str(path)])
        return path

    def test_compile_mmap_and_query_autodetects(self, release_path, tmp_path, capsys):
        mm = tmp_path / "engine.psdm"
        assert main(["compile", str(release_path), "--output", str(mm)]) == 0
        capsys.readouterr()
        rect = "--rect=-123,46,-121,48"
        assert main(["query", str(release_path), rect]) == 0
        json_out = capsys.readouterr().out
        assert main(["query", str(mm), rect]) == 0
        mm_out = capsys.readouterr().out
        assert json_out == mm_out  # bitwise-identical answer; the CLI reads either file

    def test_compile_float32_precision(self, release_path, tmp_path, capsys):
        mm = tmp_path / "engine32.psdm"
        assert main(["compile", str(release_path), "--precision", "float32",
                     "--output", str(mm)]) == 0
        out = capsys.readouterr().out
        assert "float32" in out
        assert load_engine(mm).storage_precision == "float32"

    def test_query_mmap_with_workers_reports_mapped_bytes(
        self, release_path, tmp_path, capsys
    ):
        mm = tmp_path / "engine.psdm"
        main(["compile", str(release_path), "--output", str(mm)])
        capsys.readouterr()
        rects = [f"--rect=-123,4{i},-121,4{i + 2}" for i in range(4)]
        assert main(["query", str(mm), *rects, "--workers", "2",
                     "--chunk-queries", "2", "--stats"]) == 0
        import re

        err = capsys.readouterr().err
        match = re.search(r"(\d+) engine bytes memory-mapped", err)
        assert match is not None
        assert int(match.group(1)) > 0
