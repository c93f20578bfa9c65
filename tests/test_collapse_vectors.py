"""Identical-vector collapse + collapse-first LSH cosine dedup:
regime equality, exact-operator equivalence, guards."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.stages.ann import (
    collapse_identical_vectors,
    cosine_dup_pairs,
    expand_collapsed_pairs,
    lsh_cosine_dup_pairs,
)


def _vecs(n=1200, d=16, seed=3, groups=20, span=40):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(n, d))
    for g in range(groups):
        src = g * span
        for m in range(1, 4):
            mat[src + m] = mat[src]  # identical groups of 4
    mat[77] = 0.0  # zero vector: cosine undefined, must emit no pairs
    if n > 201:
        mat[201] = mat[200] + 1e-6 * rng.normal(size=d)  # near, not identical
    return pd.DataFrame(
        {
            "vec_id": rng.permutation(np.arange(n, dtype=np.int64) * 3),
            "embedding": [v.astype(np.float32).tolist() for v in mat],
        }
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        {},  # driver fast path
        {"driver_limit_bytes": 0},  # distributed digest groupby, broadcast attach
        {"driver_limit_bytes": 0, "broadcast_limit": 0},  # join attach
    ],
    ids=["driver", "dist-broadcast", "dist-join"],
)
def test_collapse_regimes_identical(kwargs):
    df = _vecs()
    ds = rd.from_pandas(df).repartition(7)
    members, reps = collapse_identical_vectors(ds, **kwargs)
    m = members.to_pandas().sort_values("vec_id").reset_index(drop=True)
    # every row mapped, rep is the min id of its group, rep maps to itself
    assert len(m) == len(df)
    rep_rows = m[m["vec_id"] == m["rep"]]
    assert set(m["rep"]) == set(rep_rows["vec_id"])
    assert (m.groupby("rep")["vec_id"].min().to_numpy()
            == sorted(set(m["rep"]))).all()
    r = reps.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert list(r["vec_id"]) == sorted(set(m["rep"]))
    # truth: np.unique over the raw vectors
    mat = np.array(df["embedding"].tolist(), dtype=np.float64)
    void = np.ascontiguousarray(mat).view([("", np.float64)] * mat.shape[1]).ravel()
    n_distinct = len(np.unique(void))
    assert len(r) == n_distinct


def test_collapse_lsh_matches_exact_operator():
    df = _vecs()
    ds = rd.from_pandas(df).repartition(7)
    exact = (
        cosine_dup_pairs(ds, 999, 1000)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    col = (
        lsh_cosine_dup_pairs(ds, 999, 1000, n_parts=4, collapse=True)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(exact, col)
    assert len(exact) > 0


def test_collapse_threshold_above_one_emits_no_within():
    # num > den: even identical vectors (cos = 1) must not qualify
    df = _vecs(n=200, groups=5)
    ds = rd.from_pandas(df)
    out = lsh_cosine_dup_pairs(ds, 1001, 1000, n_parts=4, collapse=True)
    assert out.count() == 0


def test_expand_cross_members_limit_guard():
    members = rd.from_pandas(
        pd.DataFrame(
            {
                "vec_id": np.arange(6, dtype=np.int64),
                "rep": np.array([0, 0, 0, 3, 3, 3], dtype=np.int64),
                "nonzero": np.ones(6, dtype=bool),
            }
        )
    )
    rep_pairs = rd.from_pandas(
        pd.DataFrame({"a": np.array([0], dtype=np.int64),
                      "b": np.array([3], dtype=np.int64)})
    )
    with pytest.raises(ValueError, match="cross_members_limit"):
        expand_collapsed_pairs(
            rep_pairs, members, 999, 1000, cross_members_limit=3
        ).materialize()
    out = (
        expand_collapsed_pairs(rep_pairs, members, 999, 1000)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    # 3x3 cross + C(3,2) within each of the two groups
    assert len(out) == 9 + 3 + 3
    assert (out["a"] < out["b"]).all()
