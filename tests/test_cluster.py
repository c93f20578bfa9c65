"""Distributed CC vs driver union-find equivalence + convergence."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.stages.cluster import connected_components, unionfind_driver


def _random_edges(seed, n_nodes=300, n_edges=260):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    keep = a != b
    return pd.DataFrame(
        {"a": [f"n{x:05d}" for x in a[keep]], "b": [f"n{x:05d}" for x in b[keep]]}
    )


@pytest.mark.parametrize("seed", [1, 2])
def test_distributed_matches_driver(seed):
    df = _random_edges(seed)
    got = (
        connected_components(rd.from_pandas(df), max_rounds=40, n_parts=8)
        .to_pandas()
        .sort_values("node")
        .reset_index(drop=True)
    )
    want = unionfind_driver(df).sort_values("node").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_chain_converges_logarithmically():
    """Worst-case diameter: a 200-node path graph.  Pointer jumping
    makes convergence O(log d) — the default 12 rounds must suffice
    where plain propagation would need ~200 (the round-1 behavior the
    advisor flagged as an abort hazard)."""
    n = 200
    df = pd.DataFrame(
        {"a": [f"n{i:03d}" for i in range(n - 1)], "b": [f"n{i+1:03d}" for i in range(n - 1)]}
    )
    labels = connected_components(rd.from_pandas(df), max_rounds=12, n_parts=4).to_pandas()
    assert len(labels) == n
    assert set(labels["label"]) == {"n000"}
    with pytest.raises(RuntimeError):
        connected_components(rd.from_pandas(df), max_rounds=2, n_parts=4)


def test_unionfind_driver_basic():
    df = pd.DataFrame({"a": ["x", "y", "p"], "b": ["y", "z", "q"]})
    out = unionfind_driver(df).set_index("node")["label"]
    assert out["x"] == out["y"] == out["z"] == "x"
    assert out["p"] == out["q"] == "p"


def test_attach_int_labels_exact_above_2_53():
    """Regression (late-r4 review): the pandas map+fillna attach
    round-tripped ids through float64, corrupting ids above 2^53.
    The driver-side label attach (stages.cluster.cluster_of, which
    dedup_incremental's shard fold runs: the id's label, else the id
    itself) must be exact over the full int64 range."""
    import pandas as pd
    import pyarrow as pa

    from simhash_ray.stages.cluster import cluster_of

    big = 2**53 + 1  # not representable in float64
    label_df = pd.DataFrame({"node": [5, 7], "label": [5, 5]})
    ids = np.array([5, 7, big, 2**62 + 3], dtype=np.int64)
    out = cluster_of(pa.array(ids), label_df)
    assert out.to_pylist() == [5, 5, big, 2**62 + 3]
    # empty label table: everyone self-labels, still exact
    out2 = cluster_of(pa.array(ids), label_df.iloc[:0])
    assert out2.to_pylist() == ids.tolist()
