"""Broadcast vs distributed candidate-generation equivalence: the two
paths (shuffle-free band tasks over broadcast sigs; groupby band-bucket
shuffle) must produce the same verified edge set."""

import numpy as np
import pandas as pd
import pytest
import pyarrow as pa
import ray.data as rd

from simhash_ray.config import DEFAULT_CONFIG
from simhash_ray.fixtures import FixtureSpec, generate_fixture
from simhash_ray.pipelines.dedup_images import (
    _direct_regime_cluster,
    dup_edges,
    signatures,
)
from simhash_ray.stages.collapse import collapse_exact
from simhash_ray.stages.lsh import make_verifier


def test_broadcast_and_distributed_edges_agree():
    fx = generate_fixture(FixtureSpec(n_rows=500, seed=21))
    images = rd.from_arrow(fx["images"])
    collapsed = collapse_exact(signatures(images, DEFAULT_CONFIG), 16).materialize()

    dist = dup_edges(collapsed, DEFAULT_CONFIG, 16).to_pandas()
    dist_pairs = set(map(tuple, dist[["a", "b"]].itertuples(index=False)))

    # the direct regime's production tail over the collapsed rep rows
    from simhash_ray.stages.lsh import IMAGE_SPACE, TEXT_SPACE

    cfg = DEFAULT_CONFIG
    reps = (
        collapsed.filter(expr="is_rep == True")
        .select_columns(["image_id", "simhash", "phash"])
        .to_pandas()
    )
    edge_df, _, _ = _direct_regime_cluster(
        reps["image_id"].to_numpy(dtype=object),
        {
            TEXT_SPACE: reps["simhash"].to_numpy().view(np.uint64),
            IMAGE_SPACE: reps["phash"].to_numpy().view(np.uint64),
        },
        [(TEXT_SPACE, cfg.text_lsh), (IMAGE_SPACE, cfg.image_lsh)],
        taus={
            TEXT_SPACE: cfg.text_lsh.hamming_tau,
            IMAGE_SPACE: cfg.image_lsh.hamming_tau,
        },
        pair_full_threshold=min(
            cfg.text_lsh.pair_full_threshold, cfg.image_lsh.pair_full_threshold
        ),
    )
    bc_pairs = set(map(tuple, edge_df[["a", "b"]].itertuples(index=False)))

    assert dist_pairs == bc_pairs
    assert len(bc_pairs) > 0


def test_make_verifier_filters_by_space_tau():
    batch = pa.table(
        {
            "a": pa.array(["x", "y", "z"]),
            "b": pa.array(["p", "q", "r"]),
            "sig_a": pa.array([0, 0, 0], type=pa.int64()),
            "sig_b": pa.array([0b111, 0b11111, 0], type=pa.int64()),
            "space": pa.array([0, 0, 1], type=pa.int32()),
            "star": pa.array([False, False, False]),
        }
    )
    out = make_verifier({0: 4, 1: 0})(batch)
    assert out["a"].to_pylist() == ["x", "z"]  # 3 bits ok, 5 bits rejected, 0 ok


def test_oversized_bucket_cross_sig_pair_survives_verify(ray_session):
    """Round-4 recall fix: in a bucket larger than pair_full_threshold,
    a within-tau pair whose members are BOTH far from the bucket head
    must still be found (exact triu over distinct-sig run heads, not a
    filtered head-star) — in BOTH pair-generation kernels."""
    from simhash_ray.config import LSHConfig
    from simhash_ray.stages.lsh import (
        broadcast_candidate_edges,
        make_pair_generator,
    )

    tau = 1
    base = np.uint64(0)
    # filler sigs: disjoint set nibbles, pairwise Hamming 8 from each
    # other and 4 from base — never within tau of anything
    fillers = [np.uint64(0xF) << np.uint64(16 + 4 * i) for i in range(8)]
    x = np.uint64(0b111) << np.uint64(50)  # 3 bits: dist 3 from base
    y = np.uint64(0b011) << np.uint64(50)  # 2 bits: dist 2 from base
    assert bin(int(x ^ y)).count("1") == tau
    sigs = np.array([base, *fillers, x, y], dtype=np.uint64)
    n = len(sigs)
    ids = np.array([f"n{i:02d}" for i in range(n)], dtype=object)

    # kernel 1: the groupby-partition pair generator (fused verify)
    group = pa.table(
        {
            "id": pa.array(ids, type=pa.string()),
            "space": pa.array(np.zeros(n, dtype=np.int64)),
            "band": pa.array(np.zeros(n, dtype=np.int64)),
            "key": pa.array(np.zeros(n, dtype=np.int64)),
            "sig": pa.array(sigs.view(np.int64), type=pa.int64()),
        }
    )
    out = make_pair_generator(pair_full_threshold=4, taus={0: tau})(group)
    got = {(a, b) for a, b in zip(out["a"].to_pylist(), out["b"].to_pylist())}
    assert ("n09", "n10") in got, got  # the planted x-y pair

    # kernel 2: the broadcast band tasks
    cfg = LSHConfig(n_blocks=4, combo_m=1, hamming_tau=tau, pair_full_threshold=4)
    ai, bi = broadcast_candidate_edges(
        {0: sigs}, [(0, cfg)], taus={0: tau},
        pair_full_threshold=4,
    )
    idx_pairs = {(int(a), int(b)) for a, b in zip(ai, bi)}
    assert (9, 10) in idx_pairs, idx_pairs


def test_pair_generator_rejects_missing_tau_space(ray_session):
    """A space id with no taus entry must raise, not silently drop."""
    from simhash_ray.stages.lsh import make_pair_generator

    group = pa.table(
        {
            "id": pa.array(["a", "b"], type=pa.string()),
            "space": pa.array(np.array([1, 1], dtype=np.int64)),
            "band": pa.array(np.zeros(2, dtype=np.int64)),
            "key": pa.array(np.zeros(2, dtype=np.int64)),
            "sig": pa.array(np.zeros(2, dtype=np.int64)),
        }
    )
    with pytest.raises(ValueError, match="no taus entry"):
        make_pair_generator(pair_full_threshold=4, taus={0: 3})(group)


@pytest.mark.parametrize("space_cfg", ["text_lsh", "image_lsh"])
def test_band_expander_keys_are_band_keys(space_cfg):
    """The distributed regime's band rows carry exactly the keys of
    stages.lsh.band_keys (the broadcast regime and the incremental
    probe use it), band by band, for both default configs."""
    from simhash_ray.stages.lsh import TEXT_SPACE, band_keys, make_band_expander

    cfg = getattr(DEFAULT_CONFIG, space_cfg)
    rng = np.random.default_rng(17)
    sig = rng.integers(-(2**63), 2**63 - 1, 300, dtype=np.int64)
    batch = pa.table({"image_id": [f"i{k}" for k in range(300)], "sig": sig})
    out = make_band_expander([(TEXT_SPACE, "sig", cfg)], n_parts=16)(batch)
    keys = band_keys(sig.view(np.uint64), cfg)
    assert np.array_equal(
        out["key"].to_numpy(), np.concatenate(keys).view(np.int64)
    )
    assert np.array_equal(
        out["band"].to_numpy(), np.repeat(np.arange(len(keys)), len(sig))
    )


def test_broadcast_band_task_is_not_redefined_per_call(monkeypatch):
    """Every ``@ray.remote`` mints a new function descriptor that Ray
    exports again; the broadcast band task must be defined once, not
    once per ``broadcast_candidate_edges`` call."""
    import ray

    from simhash_ray.stages.lsh import TEXT_SPACE, broadcast_candidate_edges

    made = []
    real_remote = ray.remote

    def counting_remote(*args, **kwargs):
        made.append(1)
        return real_remote(*args, **kwargs)

    monkeypatch.setattr(ray, "remote", counting_remote)
    cfg = DEFAULT_CONFIG.text_lsh
    sig = np.random.default_rng(2).integers(0, 2**63, 200, dtype=np.uint64)
    for _ in range(2):
        broadcast_candidate_edges(
            {TEXT_SPACE: sig}, [(TEXT_SPACE, cfg)],
            taus={TEXT_SPACE: cfg.hamming_tau},
        )
    assert len(made) == 0
