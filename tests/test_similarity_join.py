"""minhash_similarity_join: cross-table near-dup join — planted-match
recall, orientation/side purity, equivalence with the dedup pipeline's
cross-side subset, and the disjoint-id-space guard."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.stages.minhash import (
    minhash_dup_pairs,
    minhash_similarity_join,
)


def _mk_corpus(seed: int, n: int, id_start: int = 0) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    vocab = [f"tok{i}" for i in range(300)]
    texts = [
        " ".join(rng.choice(vocab, size=rng.integers(20, 40)))
        for _ in range(n)
    ]
    return pd.DataFrame(
        {
            "doc_id": np.arange(id_start, id_start + n, dtype=np.int64),
            "text": texts,
        }
    )


def _with_planted_cross_dups(seed: int):
    """right corpus + left probe where some probe docs are near-copies
    of right docs (one token changed) and the rest are fresh."""
    right = _mk_corpus(seed, 80, id_start=0)
    rng = np.random.default_rng(seed + 1)
    probe_rows = []
    planted = []
    for i in range(10):
        src = right.iloc[int(rng.integers(0, len(right)))]
        toks = src["text"].split()
        toks[int(rng.integers(0, len(toks)))] = "zzz"
        probe_rows.append(" ".join(toks))
        planted.append(int(src["doc_id"]))
    fresh = _mk_corpus(seed + 2, 10, id_start=0)
    probe_rows.extend(fresh["text"])
    left = pd.DataFrame(
        {
            "doc_id": np.arange(1000, 1000 + len(probe_rows), dtype=np.int64),
            "text": probe_rows,
        }
    )
    return left, right, planted


def test_planted_cross_matches_found_with_orientation():
    left, right, planted = _with_planted_cross_dups(seed=0)
    out = minhash_similarity_join(
        rd.from_pandas(left).repartition(3),
        rd.from_pandas(right).repartition(4),
        theta=0.5,
        concurrency=(1, 2),
    ).to_pandas()
    assert len(out) >= 8  # banding recall on 1-token edits is near 1
    left_ids = set(left["doc_id"])
    right_ids = set(right["doc_id"])
    assert set(out["a"]).issubset(left_ids)  # orientation holds
    assert set(out["b"]).issubset(right_ids)
    # each found pair's b is one of the planted sources
    found_srcs = set(out["b"])
    assert found_srcs.issubset(set(planted))
    assert (out["est_jaccard"] >= 0.5).all()


def test_equals_cross_side_subset_of_dedup_pairs():
    left, right, _ = _with_planted_cross_dups(seed=3)
    union = pd.concat([left, right], ignore_index=True)
    dup = minhash_dup_pairs(
        rd.from_pandas(union).repartition(5), theta=0.5, concurrency=(1, 2)
    ).to_pandas()
    left_ids = set(left["doc_id"])
    cross = dup[
        dup["a"].isin(left_ids) != dup["b"].isin(left_ids)
    ].copy()
    # normalize dedup's (min, max) orientation to (left, right)
    swap = ~cross["a"].isin(left_ids)
    cross.loc[swap, ["a", "b"]] = cross.loc[swap, ["b", "a"]].to_numpy()
    join = minhash_similarity_join(
        rd.from_pandas(left).repartition(2),
        rd.from_pandas(right).repartition(3),
        theta=0.5,
        concurrency=(1, 2),
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df[["a", "b"]].to_numpy().tolist()))
    assert key(join) == key(cross)
    # est values agree pairwise
    j = join.set_index(["a", "b"])["est_jaccard"].sort_index()
    c = cross.set_index(["a", "b"])["est_jaccard"].sort_index()
    assert np.allclose(j.to_numpy(), c.to_numpy())


def test_overlapping_id_spaces_raise():
    df = _mk_corpus(seed=7, n=30, id_start=0)
    with pytest.raises(Exception, match="overlap"):
        minhash_similarity_join(
            rd.from_pandas(df).repartition(2),
            rd.from_pandas(df).repartition(2),  # identical ids AND texts
            theta=0.5,
            concurrency=(1, 2),
        ).to_pandas()


def test_join_verify_path_equivalence():
    left, right, _ = _with_planted_cross_dups(seed=11)
    a = minhash_similarity_join(
        rd.from_pandas(left), rd.from_pandas(right), theta=0.5,
        concurrency=(1, 2),
    ).to_pandas()
    # small n_parts: the join's shuffle aggregators are actors — at the
    # test session's 4 CPUs the default 64 partitions would deadlock;
    # production n_parts sizes to the cluster
    b = minhash_similarity_join(
        rd.from_pandas(left), rd.from_pandas(right), theta=0.5,
        concurrency=(1, 2), broadcast_limit=0, n_parts=2,
    ).to_pandas()
    key = lambda df: sorted(map(tuple, df[["a", "b"]].to_numpy().tolist()))
    assert key(a) == key(b)


def test_bucket_pair_cap_truncates_without_error():
    left, right, _ = _with_planted_cross_dups(seed=17)
    full = minhash_similarity_join(
        rd.from_pandas(left), rd.from_pandas(right), theta=0.5,
        concurrency=(1, 2),
    ).to_pandas()
    capped = minhash_similarity_join(
        rd.from_pandas(left), rd.from_pandas(right), theta=0.5,
        concurrency=(1, 2), bucket_pair_cap=1,  # force truncation
    ).to_pandas()
    key = lambda df: set(map(tuple, df[["a", "b"]].to_numpy().tolist()))
    assert key(capped).issubset(key(full))  # truncation only removes


def test_cross_pair_generator_truncation_is_lowest_id_prefix():
    """Direct unit test of the capped cross-product arithmetic: the
    truncated pair set must equal the first `cap` pairs of the full
    row-major enumeration (lowest-id-first), built WITHOUT ever
    materializing the full gl*gr index arrays."""
    import numpy as np
    import pyarrow as pa

    from simhash_ray.stages.minhash import make_cross_pair_generator

    gl, gr = 37, 53  # one bucket, both sides populated
    ids = np.concatenate([np.arange(gl), 10_000 + np.arange(gr)])
    group = pa.table(
        {
            "id": pa.array(ids, type=pa.int64()),
            "band": pa.array(np.zeros(gl + gr, dtype=np.int64)),
            "key": pa.array(np.zeros(gl + gr, dtype=np.int64)),
            "left": pa.array([True] * gl + [False] * gr),
        }
    )
    full = make_cross_pair_generator(bucket_pair_cap=10**6)(group)
    cap = 101
    capped = make_cross_pair_generator(bucket_pair_cap=cap)(group)
    fa = full["a"].to_numpy(zero_copy_only=False)
    fb = full["b"].to_numpy(zero_copy_only=False)
    assert len(fa) == gl * gr
    ca = capped["a"].to_numpy(zero_copy_only=False)
    cb = capped["b"].to_numpy(zero_copy_only=False)
    assert len(ca) == cap
    assert np.array_equal(ca, fa[:cap]) and np.array_equal(cb, fb[:cap])
