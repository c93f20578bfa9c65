"""Tile (per-quadrant) perceptual hashing + crop/occlusion-robust
near-dup pairs: per-row reference parity, the occlusion story (global
phash misses, tile operator finds), thresholds, partition invariance."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.imgcodec import encode_image
from simhash_ray.phash import (
    _dct_matrix,
    gray32_from_rgb,
    phash_batch_32,
    tile_phash_batch_32,
)
from simhash_ray.pipelines.dedup_images import tile_dup_pairs


def _ref_tile_hash(gray32: np.ndarray) -> list[int]:
    """Independent per-row reference: explicit quadrant slices, scipy-free
    DCT-II via the module's own (test-pinned elsewhere) matrix."""
    d16 = _dct_matrix(16)
    out = []
    for r0 in (0, 16):
        for c0 in (0, 16):
            tile = gray32[r0 : r0 + 16, c0 : c0 + 16]
            coef = d16 @ tile @ d16.T
            low = coef[:8, :8].ravel()
            med = np.median(low)
            bits = low > med
            out.append(int(sum(1 << i for i, b in enumerate(bits) if b)))
    return [v - (1 << 64) if v >= 1 << 63 else v for v in out]


def test_tile_hash_matches_per_row_reference():
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 256, size=(7, 32, 32, 3), dtype=np.uint8)
    gray = gray32_from_rgb(rgb)
    got = tile_phash_batch_32(gray)
    for i in range(7):
        assert list(got[i]) == _ref_tile_hash(gray[i]), i


def _corpus():
    """40 base images + for the first 10: a copy with ONE quadrant
    inverted (occlusion/logo-overlay stand-in)."""
    rng = np.random.default_rng(3)
    base = rng.integers(0, 256, size=(40, 32, 32, 3), dtype=np.uint8)
    rows = []
    for i, img in enumerate(base):
        rows.append((f"img{i:04d}", img))
    for j in range(10):
        ed = base[j].copy()
        ed[16:, 16:, :] = 255 - ed[16:, 16:, :]  # invert the BR quadrant
        rows.append((f"occ{j:04d}", ed))
    return rows


def _table(rows):
    return pa.table(
        {
            "image_id": pa.array([r[0] for r in rows], type=pa.string()),
            "bytes": pa.array(
                [encode_image(r[1], "raw") for r in rows], type=pa.binary()
            ),
            "w": pa.array([32] * len(rows), type=pa.int32()),
            "h": pa.array([32] * len(rows), type=pa.int32()),
            "fmt": pa.array(["raw"] * len(rows), type=pa.string()),
        }
    )


def test_occluded_copies_found_by_tiles_missed_by_global():
    rows = _corpus()
    # global phash: the quadrant inversion must push most planted pairs
    # beyond the flagship's tau=6 (every DCT coefficient sees the edit)
    gray = gray32_from_rgb(np.stack([r[1] for r in rows]))
    ph = phash_batch_32(gray).view(np.uint64)
    from simhash_ray.simhash import hamming64

    dists = [hamming64(ph[j], ph[40 + j]) for j in range(10)]
    assert sum(int(d) > 6 for d in dists) >= 8, dists

    out = tile_dup_pairs(
        rd.from_arrow(_table(rows)).repartition(4), tau=2, k_min=3
    ).to_pandas()
    got = set(map(tuple, out[["a", "b"]].values.tolist()))
    planted = {(f"img{j:04d}", f"occ{j:04d}") for j in range(10)}
    assert planted <= got
    # the 3 untouched tiles collide at Hamming 0
    planted_rows = out[out["a"].str.startswith("img") & out["b"].str.startswith("occ")]
    assert (planted_rows["n_tiles_close"] >= 3).all()


def test_tile_pairs_partition_invariant_and_kmin():
    rows = _corpus()
    a = tile_dup_pairs(rd.from_arrow(_table(rows)).repartition(7)).to_pandas()
    b = tile_dup_pairs(rd.from_arrow(_table(rows)).repartition(2)).to_pandas()
    key = ["a", "b", "n_tiles_close"]
    assert sorted(map(tuple, a[key].values.tolist())) == sorted(
        map(tuple, b[key].values.tolist())
    )
    # k_min=4 demands all four quadrants match -> occluded copies drop out
    strict = tile_dup_pairs(rd.from_arrow(_table(rows)), k_min=4).to_pandas()
    occ = (
        {p for p in map(tuple, strict[["a", "b"]].values.tolist())
         if p[1].startswith("occ")}
        if len(strict)
        else set()
    )
    assert not occ


def test_tile_pairs_validation():
    rows = _corpus()[:4]
    ds = rd.from_arrow(_table(rows))
    with pytest.raises(ValueError, match="k_min"):
        tile_dup_pairs(ds, k_min=0)
    with pytest.raises(ValueError, match="pigeonhole"):
        tile_dup_pairs(ds, tau=3)
    # above the broadcast limit the operator no longer raises — it
    # switches to the distributed regime (equivalence tested below)


def test_hot_bucket_pairs_fully_enumerated():
    """Constant-content tiles (letterbox/blank corners) put hundreds of
    images in one identical-sig band bucket; with the clustering
    default full-pair threshold (256) the oversized fallback emits
    only chain edges, undercounting PAIRS.  The operator's default
    threshold (OVERSIZED_EXACT_CAP) must enumerate all C(g,2)."""
    rng = np.random.default_rng(9)
    n = 300
    rows = []
    for i in range(n):
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        # tiles 0-2 constant black; tile 3 (BR) random -> far in Hamming
        img[16:, 16:, :] = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        rows.append((f"hot{i:04d}", img))
    out = tile_dup_pairs(
        rd.from_arrow(_table(rows)).repartition(4), tau=2, k_min=3
    ).to_pandas()
    # every pair shares 3 identical (constant) tiles -> qualifies
    assert len(out) == n * (n - 1) // 2
    assert (out["n_tiles_close"] >= 3).all()
    # past the full-pair threshold, identical-sig runs STILL enumerate
    # exactly (round-4 verdict item 4) as long as the per-run pair
    # budget allows — the old undercount regime now needs the budget
    # exhausted too (exact_identical_pairs_cap=0 = clustering behavior)
    past_threshold = tile_dup_pairs(
        rd.from_arrow(_table(rows)), tau=2, k_min=3, pair_full_threshold=256
    ).to_pandas()
    assert len(past_threshold) == n * (n - 1) // 2
    few = tile_dup_pairs(
        rd.from_arrow(_table(rows)), tau=2, k_min=3, pair_full_threshold=256,
        exact_identical_pairs_cap=0,
    ).to_pandas()
    assert len(few) < n * (n - 1) // 2


def test_tile_pairs_distributed_regime_matches_broadcast():
    """Forcing broadcast_sig_limit=0 routes through the distributed
    banding (band-bucket groupby + fused per-space verify + distinct-
    tile count); pairs and n_tiles_close must match the broadcast
    regime exactly — incl. the planted occlusion corpus AND a
    hot-bucket (constant-tile) mass."""
    rng = np.random.default_rng(13)
    rows = _corpus()
    for i in range(40):  # constant tiles 0-2, random tile 3
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        img[16:, 16:, :] = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        rows.append((f"hot{i:04d}", img))
    ds = rd.from_arrow(_table(rows)).repartition(5)
    key = ["a", "b", "n_tiles_close"]
    broad = tile_dup_pairs(ds, tau=2, k_min=3).to_pandas()
    dist = tile_dup_pairs(ds, tau=2, k_min=3, broadcast_sig_limit=0).to_pandas()
    assert sorted(map(tuple, broad[key].values.tolist())) == sorted(
        map(tuple, dist[key].values.tolist())
    )
    assert len(broad) >= 40 * 39 // 2  # the hot mass fully enumerated

    # degenerate buckets: at pair_full_threshold=16 the 40-row constant-
    # tile mass is an oversized bucket (under OVERSIZED_EXACT_CAP) in
    # which identical-tile twins sit beside distinct-tile members; every
    # within-tau tile must still count toward n_tiles_close in both regimes
    broad = tile_dup_pairs(ds, tau=2, k_min=3, pair_full_threshold=16).to_pandas()
    dist = tile_dup_pairs(
        ds, tau=2, k_min=3, pair_full_threshold=16, broadcast_sig_limit=0
    ).to_pandas()
    assert sorted(map(tuple, broad[key].values.tolist())) == sorted(
        map(tuple, dist[key].values.tolist())
    )
    assert len(broad) >= 40 * 39 // 2


def test_oversized_identical_run_kernel_exact_and_capped():
    """Kernel-level pin of the exact-identical enumeration (round-4
    verdict item 4): an identical-sig run inside an oversized bucket
    emits all C(r,2) pairs (star=False) under the cap and the
    connectivity chain (star=True) past it; distinct-sig heads keep
    their triu."""
    from simhash_ray.stages.buckets import oversized_bucket_pairs

    r = 5000  # past the 4096 full-pair threshold regime
    sig = np.concatenate(
        [np.full(r, 7, dtype=np.uint64), np.array([9, 11], dtype=np.uint64)]
    )
    order = np.arange(r + 2, dtype=np.int64)
    a, b, star = oversized_bucket_pairs(order, sig, exact_identical_cap=1 << 24)
    n_run = r * (r - 1) // 2
    # run pairs exact + head triu over the 3 distinct sigs (7, 9, 11)
    assert len(a) == n_run + 3
    assert (~star).sum() == n_run  # exact pairs flagged non-fallback
    assert star.sum() == 3
    # all exact pairs are within the identical run and canonical (a < b)
    assert (a[~star] < r).all() and (b[~star] < r).all()
    assert (a < b).all()

    # cap exhausted -> chain fallback for the run (r-1 edges), loud-logged
    a2, b2, star2 = oversized_bucket_pairs(order, sig, exact_identical_cap=10)
    assert len(a2) == (r - 1) + 3
    assert star2.all()

    # cap=0 (clustering default) keeps the historic chain behavior
    a3, b3, star3 = oversized_bucket_pairs(order, sig)
    assert len(a3) == (r - 1) + 3 and star3.all()
    assert np.array_equal(np.sort(a2), np.sort(a3))


def test_hot_bucket_exact_past_threshold_both_regimes():
    """Regime equivalence in the exact-past-threshold setting: a
    constant-tile mass larger than a small forced full-pair threshold
    must fully enumerate in BOTH the broadcast and distributed
    regimes, with identical pair sets."""
    rng = np.random.default_rng(21)
    n = 120
    rows = []
    for i in range(n):
        img = np.zeros((32, 32, 3), dtype=np.uint8)
        img[16:, 16:, :] = rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8)
        rows.append((f"hot{i:04d}", img))
    ds = rd.from_arrow(_table(rows)).repartition(3)
    kw = dict(tau=2, k_min=3, pair_full_threshold=16)
    broad = tile_dup_pairs(ds, **kw).to_pandas()
    dist = tile_dup_pairs(ds, broadcast_sig_limit=0, **kw).to_pandas()
    assert len(broad) == n * (n - 1) // 2
    key = ["a", "b", "n_tiles_close"]
    assert sorted(map(tuple, broad[key].values.tolist())) == sorted(
        map(tuple, dist[key].values.tolist())
    )


def test_identical_runs_emit_only_in_band0():
    """r5 review finding: an identical-sig run collides in EVERY band,
    so the exact enumeration must come from band 0 only — bands > 0
    contribute nothing for identical runs (the n_bands× duplication
    blew up the broadcast driver concat)."""
    from simhash_ray.stages.buckets import oversized_bucket_pairs

    sig = np.concatenate(
        [np.full(50, 7, dtype=np.uint64), np.array([9, 11], dtype=np.uint64)]
    )
    order = np.arange(52, dtype=np.int64)
    a0, b0, star0 = oversized_bucket_pairs(
        order, sig, exact_identical_cap=1 << 20, emit_identical=True
    )
    aN, bN, starN = oversized_bucket_pairs(
        order, sig, exact_identical_cap=1 << 20, emit_identical=False
    )
    n_run = 50 * 49 // 2
    assert len(a0) == n_run + 3  # run pairs + head triu over 3 sigs
    assert len(aN) == 3  # band>0: head triu only, no identical pairs
    assert starN.all()
