"""Checkpoint/resume semantics (SURVEY.md §5.5): kill after a partial
commit, rerun, identical final output; committed stages are skipped."""

import json
import os

import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.config import DEFAULT_CONFIG, DedupConfig, LSHConfig
from simhash_ray.fixtures import FixtureSpec, generate_fixture
from simhash_ray.pipelines.dedup_images import dedup_images, dedup_images_checkpointed


@pytest.fixture(scope="module")
def images_tbl():
    return generate_fixture(FixtureSpec(n_rows=300, seed=3))["images"]


def _canon(ds):
    return (
        ds.to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)[["image_id", "cluster_id", "is_representative"]]
    )


def test_checkpointed_matches_plain(tmp_path, images_tbl):
    images = rd.from_arrow(images_tbl)
    plain = dedup_images(images, DEFAULT_CONFIG, n_parts=8)
    ckpt = dedup_images_checkpointed(
        images, str(tmp_path / "run"), DEFAULT_CONFIG, n_parts=8
    )
    pd.testing.assert_frame_equal(_canon(plain.assignment), _canon(ckpt.assignment))
    # manifests + metrics committed
    for stage in ("signatures", "collapsed", "edges", "assignment"):
        m = json.load(open(tmp_path / "run" / f"{stage}.manifest.json"))
        assert m["config_hash"] == DEFAULT_CONFIG.config_hash()
        assert m["row_count"] > 0
    metrics = json.load(open(tmp_path / "run" / "metrics.json"))
    assert all(not v["resumed"] for v in metrics.values())


def test_resume_skips_committed_and_is_identical(tmp_path, images_tbl):
    images = rd.from_arrow(images_tbl)
    root = str(tmp_path / "run")
    first = dedup_images_checkpointed(images, root, DEFAULT_CONFIG, n_parts=8)
    want = _canon(first.assignment)

    # simulate a crash after 'collapsed' committed: later stages lost
    from simhash_ray.state.manifest import CheckpointedRun

    run = CheckpointedRun(root, DEFAULT_CONFIG.config_hash())
    run.invalidate_from("edges")
    run.invalidate_from("assignment")

    second = dedup_images_checkpointed(images, root, DEFAULT_CONFIG, n_parts=8)
    pd.testing.assert_frame_equal(_canon(second.assignment), want)
    metrics = json.load(open(tmp_path / "run" / "metrics.json"))
    assert metrics["signatures"]["resumed"] and metrics["collapsed"]["resumed"]
    assert not metrics["edges"]["resumed"] and not metrics["assignment"]["resumed"]


def test_sharded_stage_resumes_mid_stage(tmp_path):
    """Per-shard manifests: kill after k of n shards; the rerun
    recomputes only the unfinished shards and the final table is
    identical to a never-killed run (the reference's debounced-saver
    analogue at partition granularity, Htm/Runner.hs:58-86)."""
    from simhash_ray.state.manifest import CheckpointedRun

    calls = []

    def make(i, fail=False):
        def fn():
            calls.append(i)
            if fail:
                raise RuntimeError("injected kill")
            return rd.from_pandas(
                pd.DataFrame({"x": range(i * 10, i * 10 + 5), "shard": [i] * 5})
            )

        return fn

    run = CheckpointedRun(str(tmp_path / "ck"), "cfg1")
    with pytest.raises(RuntimeError):
        run.sharded_stage("sigs", [make(0), make(1), make(2, fail=True), make(3)])
    assert calls == [0, 1, 2]  # died inside shard 2; 0 and 1 committed

    calls.clear()
    run2 = CheckpointedRun(str(tmp_path / "ck"), "cfg1")
    out = run2.sharded_stage("sigs", [make(0), make(1), make(2), make(3)])
    assert calls == [2, 3]  # committed shards 0,1 were NOT recomputed
    assert run2.metrics.stages["sigs"]["shards_resumed"] == 2

    clean = CheckpointedRun(str(tmp_path / "ck2"), "cfg1").sharded_stage(
        "sigs", [make(0), make(1), make(2), make(3)]
    )

    def canon(ds):
        return ds.to_pandas().sort_values(["shard", "x"]).reset_index(drop=True)

    pd.testing.assert_frame_equal(canon(out), canon(clean))


def test_shard_count_change_invalidates_all_shards(tmp_path):
    """Rerunning a sharded stage with a different shard count changes
    every shard's row range; trusting old manifests would duplicate
    and/or drop rows, so ALL shards must recompute (ADVICE round 2)."""
    from simhash_ray.state.manifest import CheckpointedRun

    calls = []

    def make(i, lo, hi):
        def fn():
            calls.append(i)
            return rd.from_pandas(pd.DataFrame({"x": range(lo, hi)}))

        return fn

    root = str(tmp_path / "ck")
    # 2-shard decomposition of rows 0..9
    CheckpointedRun(root, "cfg1").sharded_stage(
        "sigs", [make(0, 0, 5), make(1, 5, 10)], input_fingerprint="tbl"
    )
    assert calls == [0, 1]

    # same input, 4-shard decomposition: old manifests must NOT be
    # trusted (shard 0 now covers rows 0..2, not 0..4)
    calls.clear()
    out = CheckpointedRun(root, "cfg1").sharded_stage(
        "sigs",
        [make(0, 0, 3), make(1, 3, 5), make(2, 5, 8), make(3, 8, 10)],
        input_fingerprint="tbl",
    )
    assert calls == [0, 1, 2, 3]
    got = sorted(out.to_pandas()["x"].tolist())
    assert got == list(range(10)), got


def test_layout_switch_sharded_then_stage_drops_shard_manifests(tmp_path):
    """A stage()-mode commit over a directory previously written by
    sharded_stage() must drop the stale per-shard manifests — else a
    LATER sharded rerun would trust shard commits whose data files were
    deleted by the stage-mode commit."""
    from simhash_ray.state.manifest import CheckpointedRun

    def shard(i):
        return lambda: rd.from_pandas(pd.DataFrame({"x": [i]}))

    root = str(tmp_path / "ck")
    CheckpointedRun(root, "cfg1").sharded_stage("sigs", [shard(0), shard(1)])
    assert os.path.exists(os.path.join(root, "sigs.shard_00000.manifest.json"))

    # stage-mode rerun of the same name (e.g. operator switched from
    # per-shard to whole-stage checkpointing)
    out = CheckpointedRun(root, "cfg1").stage(
        "sigs", lambda: rd.from_pandas(pd.DataFrame({"x": [7, 8]}))
    )
    assert sorted(out.to_pandas()["x"]) == [7, 8]
    for f in os.listdir(root):
        assert not (f.startswith("sigs.shard_") and f.endswith(".manifest.json")), f

    # a sharded rerun now recomputes every shard (nothing stale trusted)
    calls = []

    def counted(i):
        def fn():
            calls.append(i)
            return rd.from_pandas(pd.DataFrame({"x": [i]}))

        return fn

    out2 = CheckpointedRun(root, "cfg1").sharded_stage(
        "sigs", [counted(0), counted(1)]
    )
    assert calls == [0, 1]
    assert sorted(out2.to_pandas()["x"]) == [0, 1]


def test_layout_switch_stage_then_sharded_drops_stage_commit(tmp_path):
    """sharded_stage() over a directory previously committed by
    stage() must drop the stale whole-stage manifest and loose parquet
    files, else the stage-mode read would double-count both layouts."""
    from simhash_ray.state.manifest import CheckpointedRun

    root = str(tmp_path / "ck")
    CheckpointedRun(root, "cfg1").stage(
        "sigs", lambda: rd.from_pandas(pd.DataFrame({"x": [7, 8]}))
    )
    assert os.path.exists(os.path.join(root, "sigs.manifest.json"))

    def shard(i):
        return lambda: rd.from_pandas(pd.DataFrame({"x": [i]}))

    out = CheckpointedRun(root, "cfg1").sharded_stage("sigs", [shard(0), shard(1)])
    assert sorted(out.to_pandas()["x"]) == [0, 1]  # no 7/8 leakage
    assert not os.path.exists(os.path.join(root, "sigs.manifest.json"))
    # a stage-mode is_committed must not trust the sharded layout either
    assert not CheckpointedRun(root, "cfg1").is_committed("sigs")


def test_manifest_without_data_dir_not_committed(tmp_path):
    """A manifest whose data directory was deleted out from under it
    (partial cleanup, disk recovery) must read as not-committed."""
    import shutil

    from simhash_ray.state.manifest import CheckpointedRun

    root = str(tmp_path / "ck")
    run = CheckpointedRun(root, "cfg1")
    run.stage("sigs", lambda: rd.from_pandas(pd.DataFrame({"x": [1]})))
    assert CheckpointedRun(root, "cfg1").is_committed("sigs")
    shutil.rmtree(os.path.join(root, "sigs"))
    assert not CheckpointedRun(root, "cfg1").is_committed("sigs")
    # and the rerun recomputes rather than crashing on the missing dir
    out = CheckpointedRun(root, "cfg1").stage(
        "sigs", lambda: rd.from_pandas(pd.DataFrame({"x": [2]}))
    )
    assert out.to_pandas()["x"].tolist() == [2]


def test_sharded_signatures_resume_identical(tmp_path):
    """End-to-end per-shard resume on the real encoder: kill between
    shards, resume, output identical to the unsharded signatures."""
    import pyarrow.parquet as pq

    from simhash_ray.pipelines.dedup_images import (
        sharded_signatures_checkpointed,
        signatures,
    )

    tables = generate_fixture(FixtureSpec(n_rows=300, seed=3))
    path = str(tmp_path / "images.parquet")
    pq.write_table(tables["images"], path, row_group_size=50)

    ck = str(tmp_path / "ck")
    sigs, run = sharded_signatures_checkpointed(path, ck, n_shards=4)
    # simulate losing the last shard's manifest (crash before commit)
    os.remove(os.path.join(ck, "signatures.shard_00003.manifest.json"))
    sigs2, run2 = sharded_signatures_checkpointed(path, ck, n_shards=4)
    assert run2.metrics.stages["signatures"]["shards_resumed"] == 3

    want = (
        signatures(rd.from_arrow(tables["images"]))
        .to_pandas()
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    got = sigs2.to_pandas().sort_values("image_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_checkpointed_flagship_with_sharded_signatures(tmp_path, images_tbl):
    """The flagship checkpointed run with per-shard signature commits
    produces the same assignment as the plain pipeline, and the shard
    manifests exist for mid-encode resume."""
    import pyarrow.parquet as pq

    path = str(tmp_path / "images.parquet")
    pq.write_table(images_tbl, path, row_group_size=50)
    images = rd.from_arrow(images_tbl)
    plain = dedup_images(images, DEFAULT_CONFIG, n_parts=8)
    root = str(tmp_path / "run")
    ckpt = dedup_images_checkpointed(
        images, root, DEFAULT_CONFIG, n_parts=8,
        table_path=path, signature_shards=4,
    )
    pd.testing.assert_frame_equal(_canon(plain.assignment), _canon(ckpt.assignment))
    for i in range(4):
        assert os.path.exists(
            os.path.join(root, f"signatures.shard_{i:05d}.manifest.json")
        )


def test_config_change_invalidates(tmp_path, images_tbl):
    images = rd.from_arrow(images_tbl)
    root = str(tmp_path / "run")
    dedup_images_checkpointed(images, root, DEFAULT_CONFIG, n_parts=8)
    other = DedupConfig(text_lsh=LSHConfig(hamming_tau=4))
    dedup_images_checkpointed(images, root, other, n_parts=8)
    metrics = json.load(open(tmp_path / "run" / "metrics.json"))
    assert all(not v["resumed"] for v in metrics.values())


def test_curation_checkpointed_matches_plain_and_resumes(tmp_path):
    """curate_documents_checkpointed == curate_documents, and a rerun
    resumes every committed stage with identical output."""
    import numpy as np
    import pyarrow as pa

    from simhash_ray.pipelines.curate import (
        curate_documents,
        curate_documents_checkpointed,
    )

    rng = np.random.default_rng(11)
    langs = np.array(["en", "de", "fr", "es", "zh"])
    words = [f"w{i}" for i in range(30)] + ["the", "and", "der", "die", "le", "el"]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(5, 40)))
        for _ in range(400)
    ]
    texts[50] = texts[40]  # planted exact/tokenset dups
    texts[51] = texts[40]
    docs_tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(400, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(rng.choice(langs, size=400), type=pa.string()),
        }
    )

    def canon(ds):
        return (
            ds.to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)[["doc_id", "split", "n_tokens"]]
        )

    docs = rd.from_arrow(docs_tbl)
    want = canon(curate_documents(docs))
    root = str(tmp_path / "cur")
    got1 = canon(curate_documents_checkpointed(docs, root))
    pd.testing.assert_frame_equal(want, got1)
    for stage in ("gated", "survivors", "clean"):
        assert os.path.exists(os.path.join(root, f"{stage}.manifest.json")), stage
    # rerun: all stages resumed, identical output
    got2 = canon(curate_documents_checkpointed(docs, root))
    pd.testing.assert_frame_equal(want, got2)
    metrics = json.load(open(os.path.join(root, "metrics.json")))
    assert all(v["resumed"] for v in metrics.values())
    # kill-sim: drop the clean stage's manifest → only it recomputes
    os.remove(os.path.join(root, "clean.manifest.json"))
    got3 = canon(curate_documents_checkpointed(docs, root))
    pd.testing.assert_frame_equal(want, got3)
    metrics = json.load(open(os.path.join(root, "metrics.json")))
    assert metrics["gated"]["resumed"] and metrics["survivors"]["resumed"]
    assert not metrics["clean"]["resumed"]


def test_doc_dedup_checkpointed_matches_plain_and_resumes(tmp_path):
    """dedup_documents_checkpointed == dedup_documents; a rerun resumes
    both stages; dropping the assignment manifest recomputes only the
    clustering (the committed encode never reruns)."""
    import numpy as np
    import pyarrow as pa

    from simhash_ray.pipelines.dedup_docs import (
        dedup_documents,
        dedup_documents_checkpointed,
    )

    rng = np.random.default_rng(21)
    words = [f"w{i}" for i in range(50)]
    texts = [
        " ".join(rng.choice(words, size=rng.integers(8, 30))) for _ in range(300)
    ]
    texts[40] = texts[30]  # planted dups
    texts[41] = texts[30] + " w0"
    docs_tbl = pa.table(
        {
            "doc_id": pa.array(np.arange(300, dtype=np.int64)),
            "text": pa.array(texts, type=pa.string()),
        }
    )

    def canon(ds):
        return ds.to_pandas().sort_values("doc_id", ignore_index=True)

    docs = rd.from_arrow(docs_tbl)
    want = canon(dedup_documents(docs))
    root = str(tmp_path / "dd")
    got1 = canon(dedup_documents_checkpointed(docs, root))
    pd.testing.assert_frame_equal(want, got1.astype(want.dtypes.to_dict()))
    # full rerun: both stages resumed
    got2 = canon(dedup_documents_checkpointed(docs, root))
    pd.testing.assert_frame_equal(want, got2.astype(want.dtypes.to_dict()))
    metrics = json.load(open(os.path.join(root, "metrics.json")))
    assert all(v["resumed"] for v in metrics.values())
    # kill-sim: lose the assignment commit, keep the encode
    os.remove(os.path.join(root, "doc_assignment.manifest.json"))
    got3 = canon(dedup_documents_checkpointed(docs, root))
    pd.testing.assert_frame_equal(want, got3.astype(want.dtypes.to_dict()))
    metrics = json.load(open(os.path.join(root, "metrics.json")))
    assert metrics["doc_signatures"]["resumed"]
    assert not metrics["doc_assignment"]["resumed"]


def test_edge_shards_resume_mid_edges_identical(tmp_path, images_tbl):
    """Round-4 verdict item 8: the band+verify (edges) pass commits per
    band-partition-range shard.  A run killed mid-edge_cands resumes at
    shard granularity — committed shards are never recomputed — and
    the final assignment is identical to both the unsharded
    checkpointed run and the plain pipeline."""
    import glob

    images = rd.from_arrow(images_tbl)
    plain = dedup_images(images, DEFAULT_CONFIG, n_parts=8)
    want = _canon(plain.assignment)

    root = str(tmp_path / "run")
    first = dedup_images_checkpointed(
        images, root, DEFAULT_CONFIG, n_parts=8, edge_shards=3
    )
    pd.testing.assert_frame_equal(_canon(first.assignment), want)
    shard_manifests = sorted(
        glob.glob(os.path.join(root, "edge_cands.shard_*.manifest.json"))
    )
    assert len(shard_manifests) == 3

    # simulate a kill mid-edges: shard 1 and everything downstream lost
    from simhash_ray.state.manifest import CheckpointedRun

    os.remove(shard_manifests[1])
    run = CheckpointedRun(root, DEFAULT_CONFIG.config_hash())
    run.invalidate_from("edges")
    run.invalidate_from("assignment")

    second = dedup_images_checkpointed(
        images, root, DEFAULT_CONFIG, n_parts=8, edge_shards=3
    )
    pd.testing.assert_frame_equal(_canon(second.assignment), want)
    metrics = json.load(open(os.path.join(root, "metrics.json")))
    assert metrics["edge_cands"]["shards_resumed"] == 2  # 0 and 2 kept
    assert metrics["signatures"]["resumed"] and metrics["collapsed"]["resumed"]
