"""End-to-end flagship pipeline conformance on the planted fixture
(SURVEY.md §5.2): dup-pair recall ≥ 0.99, cluster-assignment match,
per-row invariant on survivors."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.config import DEFAULT_CONFIG
from simhash_ray.fixtures import FixtureSpec, generate_fixture
from simhash_ray.imgcodec import decode_image
from simhash_ray.phash import phash64
from simhash_ray.pipelines.dedup_images import (
    dedup_images,
    planted_pair_recall,
    survivors,
)


@pytest.fixture(scope="module")
def fixture_tables():
    return generate_fixture(FixtureSpec(n_rows=800, seed=42))


@pytest.fixture(scope="module")
def result(fixture_tables):
    images = rd.from_arrow(fixture_tables["images"])
    return dedup_images(images, DEFAULT_CONFIG, n_parts=16)


def test_assignment_covers_all_rows(fixture_tables, result):
    adf = result.assignment.to_pandas()
    assert len(adf) == fixture_tables["images"].num_rows
    assert adf["image_id"].is_unique
    # every cluster id is the min image_id of its members
    mins = adf.groupby("cluster_id")["image_id"].min()
    assert (mins.index == mins.values).all()


def test_recall_and_precision(fixture_tables, result):
    adf = result.assignment.to_pandas()
    tdf = fixture_tables["truth"].to_pandas()
    recall, precision, n_pairs = planted_pair_recall(adf, tdf)
    assert n_pairs > 50
    assert recall >= 0.99, f"dup-pair recall {recall:.4f} < 0.99"
    assert precision >= 0.99, f"planted-pair precision {precision:.4f}"


def test_representatives_consistent(result):
    adf = result.assignment.to_pandas()
    reps = adf[adf["is_representative"]]
    assert (reps["image_id"] == reps["cluster_id"]).all()
    # exactly one representative per cluster
    assert reps["cluster_id"].is_unique
    assert set(adf["cluster_id"]) == set(reps["cluster_id"])


def test_survivor_per_row_invariant(fixture_tables, result):
    """North-rule per-row invariant: surviving representatives decode to
    pixels whose pinned phash matches the column, caption byte-equal to
    the source row (lossless fmts → exact equality; PSNR branch n/a)."""
    images = rd.from_arrow(fixture_tables["images"])
    surv = survivors(images, result).to_pandas()
    adf = result.assignment.to_pandas()
    n_reps = int(adf["is_representative"].sum())
    assert len(surv) == n_reps
    src = fixture_tables["images"].to_pandas().set_index("image_id")
    for row in surv.head(60).itertuples():
        pix = decode_image(row.bytes, row.fmt, row.w, row.h)
        assert phash64(pix) == row.phash
        assert src.loc[row.image_id, "caption"] == row.caption
        assert src.loc[row.image_id, "bytes"] == row.bytes


def test_exact_dups_always_collapse(fixture_tables, result):
    adf = result.assignment.to_pandas().set_index("image_id")
    tdf = fixture_tables["truth"].to_pandas()
    exact = tdf[tdf["kind"] == "exact_dup"]
    originals = tdf.iloc[exact["cluster_id"].values]
    for dup_id, src_id in zip(exact["image_id"], originals["image_id"]):
        assert adf.loc[dup_id, "cluster_id"] == adf.loc[src_id, "cluster_id"]


def test_cluster_scale_attach_and_survivor_join_paths(fixture_tables, result):
    """Force the >BROADCAST_LIMIT code paths (distributed CC + label
    left-join attach; survivor hash semi-join) with broadcast_limit=0
    and assert they equal the broadcast paths."""
    import pandas as pd

    from simhash_ray.pipelines.dedup_images import (
        attach_clusters,
        dup_edges,
        signatures,
        survivors,
    )
    from simhash_ray.stages.collapse import collapse_exact

    images = rd.from_arrow(fixture_tables["images"])
    sigs = signatures(images, DEFAULT_CONFIG)
    collapsed = collapse_exact(sigs, 8).materialize()
    edges = dup_edges(collapsed, DEFAULT_CONFIG, 8).materialize()

    def canon(ds):
        return ds.to_pandas().sort_values("image_id", ignore_index=True)

    a_bc, nc_bc, _ = attach_clusters(collapsed, edges, DEFAULT_CONFIG, 8)
    a_join, nc_join, _ = attach_clusters(
        collapsed, edges, DEFAULT_CONFIG, n_parts=2, broadcast_limit=0
    )
    pd.testing.assert_frame_equal(canon(a_bc), canon(a_join))
    assert nc_bc == nc_join

    surv_bc = canon(survivors(images, result))
    surv_join = canon(survivors(images, result, broadcast_limit=0))
    assert list(surv_bc["image_id"]) == list(surv_join["image_id"])
    assert list(surv_bc.columns) == list(surv_join.columns)


def test_distributed_regime_matches_direct():
    """Compose-test the cluster-scale regime (exact-sig collapse →
    band-bucket groupby shuffle → distributed pair-gen → attach) that
    runs above BROADCAST_SIG_LIMIT, and assert its cluster assignment
    is identical to the direct broadcast regime at 10k rows with
    planted dups — this is THE 100-TB path (round-1 left it
    `pragma: no cover`)."""
    import pandas as pd

    tables = generate_fixture(FixtureSpec(n_rows=10_000, seed=7))
    images = rd.from_arrow(tables["images"])
    direct_res = dedup_images(images, DEFAULT_CONFIG, n_parts=32)
    dist_res = dedup_images(
        images, DEFAULT_CONFIG, n_parts=32, broadcast_sig_limit=0
    )
    direct = direct_res.assignment.to_pandas().sort_values(
        "image_id", ignore_index=True
    )
    dist = dist_res.assignment.to_pandas().sort_values(
        "image_id", ignore_index=True
    )
    pd.testing.assert_frame_equal(direct, dist)
    # metrics must also be regime-independent: n_clusters counts every
    # cluster with >= 2 members, INCLUDING collapse-only exact-dup
    # clusters that never produce a verified edge in the distributed
    # regime (regression for the label-set-count definition)
    want_clusters = dist[~dist["is_representative"]]["cluster_id"].nunique()
    assert direct_res.n_clusters_with_dups == want_clusters
    assert dist_res.n_clusters_with_dups == want_clusters
    recall, precision, n_pairs = planted_pair_recall(
        dist, tables["truth"].to_pandas()
    )
    assert n_pairs > 100
    assert recall >= 0.99
    assert precision >= 0.99


def test_no_duplicates_all_self_clusters():
    """Degenerate input with zero planted duplicates: every row must be
    its own representative (empty verified-edge set exercised end to
    end, in both regimes)."""
    tables = generate_fixture(
        FixtureSpec(
            n_rows=120, seed=19,
            frac_exact=0.0, frac_near_caption=0.0,
            frac_near_image=0.0, frac_near_both=0.0,
        )
    )
    images = rd.from_arrow(tables["images"])
    for limit in (None, 0):  # direct and distributed regimes
        res = dedup_images(
            images, DEFAULT_CONFIG, n_parts=8, broadcast_sig_limit=limit
        )
        adf = res.assignment.to_pandas()
        assert len(adf) == 120
        assert adf["is_representative"].all()
        assert (adf["cluster_id"] == adf["image_id"]).all()
        surv = survivors(images, res)
        assert surv.count() == 120


def test_hot_caption_skew_fixture():
    """Skew stressor: one hot caption in 10% of rows — the exact-sig
    collapse must shield LSH, pipeline completes and clusters the hot
    rows together."""
    tables = generate_fixture(FixtureSpec(n_rows=400, seed=11, hot_frac=0.1))
    images = rd.from_arrow(tables["images"])
    res = dedup_images(images, DEFAULT_CONFIG, n_parts=8)
    adf = res.assignment.to_pandas()
    tdf = tables["truth"].to_pandas()
    hot_ids = tdf[tdf["kind"] == "hot_caption"]["image_id"]
    hot_clusters = adf.set_index("image_id").loc[hot_ids, "cluster_id"]
    assert hot_clusters.nunique() == 1
    recall, _, _ = planted_pair_recall(adf, tdf)
    assert recall >= 0.99


def test_dihedral_dedup_finds_mirrors_both_regimes():
    """Planted mirrored copies (fresh captions, flipped pixels) are
    invisible to the flagship's two spaces but Hamming-0 in the
    dihedral-canonical space: dedup_images_dihedral links every one to
    its source in BOTH regimes with identical assignments, while the
    plain pipeline links none."""
    import pandas as pd

    from simhash_ray.pipelines.dedup_images import dedup_images_dihedral

    tables = generate_fixture(FixtureSpec(n_rows=600, seed=13, frac_mirror=0.1))
    truth = tables["truth"].to_pandas()
    images = rd.from_arrow(tables["images"])
    mirrors = truth[truth["kind"] == "mirror_dup"]
    assert len(mirrors) == 60
    src_by_cluster = (
        truth[truth["kind"] == "original"].set_index("cluster_id")["image_id"]
    )

    def mirror_hits(adf):
        a = adf.set_index("image_id")["cluster_id"]
        return sum(
            a[m.image_id] == a[src_by_cluster[m.cluster_id]]
            for m in mirrors.itertuples()
        )

    direct = dedup_images_dihedral(images, n_parts=8)
    dist = dedup_images_dihedral(images, n_parts=8, broadcast_sig_limit=0)
    d_df = direct.assignment.to_pandas().sort_values("image_id", ignore_index=True)
    x_df = dist.assignment.to_pandas().sort_values("image_id", ignore_index=True)
    pd.testing.assert_frame_equal(d_df, x_df)
    assert mirror_hits(d_df) == len(mirrors)

    plain = dedup_images(images, DEFAULT_CONFIG, n_parts=8)
    assert mirror_hits(plain.assignment.to_pandas()) == 0


def test_nclusters_driver_and_groupby_paths_agree(monkeypatch):
    """_count_distinct_clusters: the bounded driver np.unique path and
    the distributed groupby fallback (forced via a 0 bound) must return
    the same exact count, equal to the pandas reference."""
    from simhash_ray.pipelines import dedup_images as M

    tables = generate_fixture(FixtureSpec(n_rows=4_000, seed=11))
    images = rd.from_arrow(tables["images"])
    res = dedup_images(images, DEFAULT_CONFIG, n_parts=16)
    assignment = res.assignment
    df = assignment.to_pandas()
    want = df[~df["is_representative"]]["cluster_id"].nunique()
    assert M._count_distinct_clusters(assignment) == want
    monkeypatch.setattr(M, "NCLUSTERS_COLLECT_LIMIT", 0)
    assert M._count_distinct_clusters(assignment) == want


def test_dedup_images_precomputed_sigs_identical():
    """The encode-skipping path (gate query-sharing) must produce the
    same assignment as the self-encoding run in both regimes."""
    import pandas as pd

    tables = generate_fixture(FixtureSpec(n_rows=2_000, seed=5))
    images = rd.from_arrow(tables["images"])
    from simhash_ray.pipelines.dedup_images import signatures

    sigs = signatures(images, DEFAULT_CONFIG).materialize()
    base = dedup_images(images, DEFAULT_CONFIG, n_parts=16)
    pre = dedup_images(
        images, DEFAULT_CONFIG, n_parts=16, precomputed_sigs=sigs
    )
    canon = lambda r: (
        r.assignment.to_pandas().sort_values("image_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(canon(base), canon(pre))
    pre_dist = dedup_images(
        images, DEFAULT_CONFIG, n_parts=16, precomputed_sigs=sigs,
        broadcast_sig_limit=0,
    )
    pd.testing.assert_frame_equal(canon(base), canon(pre_dist))


def test_direct_regime_completes_on_one_cpu_session(tmp_path):
    """A 1-CPU Ray session must finish the direct regime over a Parquet
    read, twice.  Two things once made it wait forever: broadcast band
    tasks that asked for 2 CPUs, and an encode actor pool that kept the
    only CPU so the read tasks feeding it never ran.  Own session in a
    subprocess, hard timeout."""
    import os
    import signal
    import subprocess
    import sys
    import textwrap

    from simhash_ray.fixtures import FixtureSpec, default_fixture_dir, write_fixture

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = FixtureSpec(n_rows=400, seed=5)
    fdir = write_fixture(default_fixture_dir(spec), spec)
    code = textwrap.dedent(
        f"""
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=200 << 20)
        from simhash_ray.pipelines.dedup_images import dedup_images
        from simhash_ray.sources.tables import read_table
        for _ in range(2):
            images = read_table({fdir!r}, "images",
                                columns=["image_id", "caption", "phash"])
            res = dedup_images(images)
            print("ROWS", res.assignment.count(), res.n_clusters_with_dups)
        ray.shutdown()
        """
    )
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = root
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=str(tmp_path), env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=180)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet/gcs too
        proc.communicate()
        pytest.fail("dedup_images did not finish on a 1-CPU Ray session")
    assert proc.returncode == 0, err[-2000:]
    lines = [ln for ln in out.splitlines() if ln.startswith("ROWS")]
    assert len(lines) == 2
    for ln in lines:
        rows, n_clusters = ln.split()[1:]
        assert int(rows) == 400 and int(n_clusters) >= 1
