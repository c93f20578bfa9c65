"""Incremental dedup ≡ full-batch rerun (the module's output contract)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.fixtures import FixtureSpec, generate_fixture
from simhash_ray.pipelines.dedup_images import dedup_images, signatures
from simhash_ray.pipelines.dedup_incremental import (
    apply_remap,
    dedup_images_incremental,
)


def _assign_df(ds) -> pd.DataFrame:
    return (
        ds.to_pandas()[["image_id", "cluster_id", "is_representative"]]
        .sort_values("image_id")
        .reset_index(drop=True)
    )


@pytest.fixture(scope="module")
def split_fixture():
    fx = generate_fixture(FixtureSpec(n_rows=900, seed=33))
    df = fx["images"].to_pandas()
    idx = np.arange(len(df))
    base_df = df[idx % 10 < 7].reset_index(drop=True)
    shard_df = df[idx % 10 >= 7].reset_index(drop=True)
    return df, base_df, shard_df


def test_incremental_reproduces_full_batch(split_fixture):
    df, base_df, shard_df = split_fixture
    full = dedup_images(rd.from_pandas(df))
    base = dedup_images(rd.from_pandas(base_df))
    base_sigs = signatures(rd.from_pandas(base_df)).materialize()
    inc = dedup_images_incremental(
        rd.from_pandas(shard_df), base_sigs, base.assignment
    )
    reconstructed = pd.concat(
        [
            _assign_df(apply_remap(base.assignment, inc.remap)),
            _assign_df(inc.assignment_new),
        ]
    ).sort_values("image_id").reset_index(drop=True)
    want = _assign_df(full.assignment)
    pd.testing.assert_frame_equal(reconstructed, want)
    # sanity: planted clusters straddle the split, so the shard must
    # actually join existing clusters (the interesting case ran)
    assert inc.n_joined_existing > 0
    assert len(inc.edges_new) > 0


def test_disjoint_shard_all_singletons(split_fixture):
    _df, base_df, _shard = split_fixture
    base = dedup_images(rd.from_pandas(base_df))
    base_sigs = signatures(rd.from_pandas(base_df)).materialize()
    # a shard of fresh originals: new ids, captions/pixels from a
    # different seed — no near-dups against the base
    other = generate_fixture(
        FixtureSpec(n_rows=120, seed=777, frac_exact=0.0, frac_near_caption=0.0,
                    frac_near_image=0.0, frac_near_both=0.0, hot_frac=0.0)
    )["images"].to_pandas()
    other["image_id"] = "z" + other["image_id"]  # disjoint id space
    inc = dedup_images_incremental(
        rd.from_pandas(other), base_sigs, base.assignment
    )
    out = inc.assignment_new.to_pandas()
    assert (out["image_id"] == out["cluster_id"]).all()
    assert out["is_representative"].all()
    assert len(inc.remap) == 0
    assert inc.n_joined_existing == 0


def test_metrics_when_shard_id_becomes_label():
    """A shard id lexicographically below the base cluster's label must
    still count as joined-existing (review finding: classification is
    by component membership, not by who wins the min-label election)."""
    import pyarrow as pa
    import ray.data as rd

    def imgs(rows):
        return rd.from_arrow(
            pa.table(
                {
                    "image_id": pa.array([r[0] for r in rows], type=pa.string()),
                    "caption": pa.array([r[1] for r in rows], type=pa.string()),
                    "phash": pa.array([r[2] for r in rows], type=pa.int64()),
                }
            )
        )

    cap = "the exact same caption tokens repeated here for the pair"
    base_rows = [("b2", cap, 12345), ("b3", cap, 12345),
                 ("b9", "a totally different unrelated caption text", 777)]
    shard_rows = [("a1", cap, 12345),
                  ("a5", "yet another unrelated shard caption body", 999)]
    base = dedup_images(imgs(base_rows))
    base_sigs = signatures(imgs(base_rows)).materialize()
    inc = dedup_images_incremental(imgs(shard_rows), base_sigs, base.assignment)
    out = inc.assignment_new.to_pandas().set_index("image_id")
    # a1 joins the base cluster AND becomes its min label
    assert out.loc["a1", "cluster_id"] == "a1"
    assert inc.n_joined_existing == 1  # a1 joined an existing cluster
    assert inc.n_new_clusters == 0  # no shard-only duplicate cluster
    # base rows b2, b3 remap to the new label
    remap = dict(zip(inc.remap["old_cluster"], inc.remap["new_cluster"]))
    assert remap == {"b2": "a1"}
    applied = apply_remap(base.assignment, inc.remap).to_pandas()
    assert set(applied[applied["cluster_id"] == "a1"]["image_id"]) == {"b2", "b3"}
    # a5 is untouched: its own singleton cluster
    assert out.loc["a5", "cluster_id"] == "a5"


def test_doc_incremental_reproduces_full_batch():
    """Document-domain wrapper: incremental fold over the testdata
    documents table ≡ full dedup_documents rerun (int64 ids)."""
    import pyarrow as pa
    import ray.data as rd

    from simhash_ray.config import DEFAULT_CONFIG
    from simhash_ray.pipelines.dedup_docs import dedup_documents
    from simhash_ray.pipelines.dedup_incremental import (
        dedup_documents_incremental,
    )
    from simhash_ray.stages.encode import encode_signatures

    docs = rd.read_parquet(
        "/root/testdata/sf0.01/documents.parquet", columns=["doc_id", "text"]
    )

    def split(want_base: bool):
        def fn(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            return t.filter(pa.array((ids % 5 < 4) == want_base))

        return fn

    base = docs.map_batches(split(True), batch_format="pyarrow").materialize()
    shard = docs.map_batches(split(False), batch_format="pyarrow").materialize()
    base_assign = dedup_documents(base).materialize()
    base_sigs = (
        encode_signatures(base, DEFAULT_CONFIG.simhash, text_col="text")
        .select_columns(["doc_id", "simhash"])
        .materialize()
    )
    inc = dedup_documents_incremental(shard, base_sigs, base_assign)
    reconstructed = pd.concat(
        [
            apply_remap(base_assign, inc.remap, id_col="doc_id").to_pandas(),
            inc.assignment_new.to_pandas(),
        ]
    ).sort_values("doc_id").reset_index(drop=True)
    want = (
        dedup_documents(docs).to_pandas().sort_values("doc_id")
        .reset_index(drop=True)
    )
    cols = ["doc_id", "cluster_id", "is_representative"]
    pd.testing.assert_frame_equal(
        reconstructed[cols].astype(want[cols].dtypes.to_dict()), want[cols]
    )
    # the documents table plants near-dups, so the shard must join some
    assert inc.n_joined_existing > 0


def test_shard_validation_guards():
    """Duplicate shard ids and base-overlapping ids raise clear errors
    (at-least-once delivery protection), not pandas internals."""
    import pyarrow as pa
    import ray.data as rd

    from simhash_ray.pipelines.dedup_incremental import (
        dedup_images_incremental,
    )

    def imgs(rows):
        return rd.from_arrow(
            pa.table(
                {
                    "image_id": pa.array([r[0] for r in rows], type=pa.string()),
                    "caption": pa.array([r[1] for r in rows], type=pa.string()),
                    "phash": pa.array([r[2] for r in rows], type=pa.int64()),
                }
            )
        )

    cap = "one shared caption body for every row in this tiny test"
    base_rows = [("b1", cap, 1), ("b2", "a different caption entirely", 2)]
    base = dedup_images(imgs(base_rows))
    base_sigs = signatures(imgs(base_rows)).materialize()

    with pytest.raises(ValueError, match="duplicate"):
        dedup_images_incremental(
            imgs([("x1", cap, 9), ("x1", cap, 9)]), base_sigs, base.assignment
        )
    # exact re-delivery of b1 shares every band key → caught via candidates
    with pytest.raises(ValueError, match="re-delivers"):
        dedup_images_incremental(
            imgs([("b1", cap, 1)]), base_sigs, base.assignment
        )
    # candidate_limit guard surfaces the hot-region case loudly
    with pytest.raises(ValueError, match="candidate_limit"):
        dedup_images_incremental(
            imgs([("z9", cap, 1)]), base_sigs, base.assignment,
            candidate_limit=0,
        )


def test_full_verify_mode_equals_probe_mode(split_fixture):
    """The saturation auto-switch (round-3 verdict item 5) must not
    change the output: force both probe modes on the same shard and
    compare the reconstructed assignments."""
    from simhash_ray.pipelines.dedup_incremental import (
        estimate_candidate_fraction,
    )

    _df, base_df, shard_df = split_fixture
    base = dedup_images(rd.from_pandas(base_df))
    base_sigs = signatures(rd.from_pandas(base_df)).materialize()

    def run(threshold):
        inc = dedup_images_incremental(
            rd.from_pandas(shard_df), base_sigs, base.assignment,
            saturation_threshold=threshold,
        )
        return inc, pd.concat(
            [
                _assign_df(apply_remap(base.assignment, inc.remap)),
                _assign_df(inc.assignment_new),
            ]
        ).sort_values("image_id").reset_index(drop=True)

    inc_probe, got_probe = run(1.1)   # never switch
    inc_full, got_full = run(0.0)     # always switch
    assert inc_probe.probe_mode == "probe"
    assert inc_full.probe_mode == "full_verify"
    assert inc_full.candidate_fraction == 1.0
    assert 0.0 < inc_probe.candidate_fraction <= 1.0
    pd.testing.assert_frame_equal(got_probe, got_full)
    # the estimator is a probability
    assert 0.0 <= estimate_candidate_fraction(
        {0: [np.array([1, 2, 3], dtype=np.uint64)]},
        [(0, "simhash", __import__("simhash_ray.config", fromlist=["LSHConfig"]).LSHConfig())],
    ) <= 1.0


def test_strict_ids_catches_non_candidate_overlap():
    """A shard id colliding with a base id that is NOT a band-key
    candidate passes the cheap check but must be caught when
    strict_ids=True (round-3 advice item 2)."""
    import pyarrow as pa

    from simhash_ray.pipelines.dedup_incremental import (
        dedup_images_incremental,
    )

    def imgs(rows):
        return rd.from_arrow(
            pa.table(
                {
                    "image_id": pa.array([r[0] for r in rows], type=pa.string()),
                    "caption": pa.array([r[1] for r in rows], type=pa.string()),
                    "phash": pa.array([r[2] for r in rows], type=pa.int64()),
                }
            )
        )

    # full-width phash patterns: low-bit-only values would collide in
    # the all-zero high blocks of the image bands and become candidates
    base_rows = [
        ("b1", "completely unrelated base caption text here", 0x0123_4567_89AB_CDEF),
        ("b2", "another unrelated body of words for the base", 0x7EDC_BA98_7654_3210),
    ]
    base = dedup_images(imgs(base_rows))
    base_sigs = signatures(imgs(base_rows)).materialize()
    # shard row reuses id b1 but with a totally different caption/phash
    # (so b1 is unlikely to be a band-key candidate of the shard)
    shard = imgs([("b1", "zzz qqq www eee rrr ttt yyy uuu", 0x1357_9BDF_0246_8ACE)])
    inc = dedup_images_incremental(
        shard, base_sigs, base.assignment, saturation_threshold=1.1
    )
    assert inc.probe_mode == "probe"  # silently passed the cheap check
    with pytest.raises(ValueError, match="strict"):
        dedup_images_incremental(
            shard, base_sigs, base.assignment,
            saturation_threshold=1.1, strict_ids=True,
        )


def test_apply_remap_int64_ids_exact_above_2_53():
    """Regression: ``apply_remap`` mapped cluster ids through
    ``pd.Series.map(dict)``, which widens a batch to float64 whenever
    one of its rows is not remapped, so int64 document ids above 2^53
    came back rounded — the row that was never remapped included."""
    big = 2**60
    ids = pa.array([big + 1, big + 3, 5], type=pa.int64())
    base = rd.from_arrow(
        pa.table(
            {
                "doc_id": ids,
                "cluster_id": ids,
                "is_representative": pa.array([True, True, True]),
            }
        )
    )
    remap = pd.DataFrame({"old_cluster": [big + 3], "new_cluster": [big + 1]})
    out = (
        apply_remap(base, remap, id_col="doc_id")
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["doc_id"].tolist() == [5, big + 1, big + 3]
    assert out["cluster_id"].tolist() == [5, big + 1, big + 1]
    assert out["is_representative"].tolist() == [True, True, False]
