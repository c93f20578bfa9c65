"""Native id types through the dedup core and the pairs→assignment tail.

The core (pipelines.dedup_images.dedup_signatures) must give the same
assignment in both regimes for string ids and for int64 ids that
include negatives and values ≥ 2^53 (neither order-preserving as
zero-padded strings nor exact as float64) — and that assignment must
equal a brute-force union-find over every signature pair within τ,
with the min id (in the id's own order) as representative."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.config import DEFAULT_CONFIG
from simhash_ray.pipelines.dedup_docs import dedup_documents_from_sigs
from simhash_ray.pipelines.dedup_images import dedup_signatures
from simhash_ray.simhash import hamming64
from simhash_ray.stages.cluster import assign_clusters
from simhash_ray.stages.lsh import TEXT_SPACE

CFG = DEFAULT_CONFIG
SPACES = [(TEXT_SPACE, "simhash", CFG.text_lsh)]
TAU = CFG.text_lsh.hamming_tau


def _signatures(n_base: int = 40, seed: int = 3) -> np.ndarray:
    """Random base signatures plus, for every third one, a chain of two
    near-dups (each within τ of the previous, so the chain's ends may
    be farther apart than τ) and an exact twin."""
    rng = np.random.default_rng(seed)
    base = rng.integers(0, 2**63, n_base, dtype=np.uint64) << np.uint64(1)
    sigs = list(base)
    for i in range(0, n_base, 3):
        s = base[i]
        for _ in range(2):
            for b in rng.choice(64, int(rng.integers(1, TAU + 1)), replace=False):
                s = s ^ (np.uint64(1) << np.uint64(b))
            sigs.append(s)
        sigs.append(base[i])
    return np.array(sigs, dtype=np.uint64).view(np.int64)


def _ids(kind: str, n: int) -> tuple[list, pa.DataType]:
    rng = np.random.default_rng(11)
    if kind == "string":
        # unpadded: lexicographic order differs from numeric ('d10' < 'd9')
        return [f"d{k}" for k in rng.permutation(n)], pa.string()
    ids = rng.integers(-(2**62), 2**62, n, dtype=np.int64)
    ids[:5] = [-1, -(2**63), 2**53, 2**53 + 1, 2**63 - 1]
    assert len(set(ids.tolist())) == n
    return rng.permutation(ids).tolist(), pa.int64()


def _brute_force(ids: list, edges) -> pd.DataFrame:
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    cluster = [find(i) for i in ids]
    return pd.DataFrame(
        {
            "doc_id": ids,
            "cluster_id": cluster,
            "is_representative": [i == c for i, c in zip(ids, cluster)],
        }
    ).sort_values("doc_id", ignore_index=True)


def _within_tau_pairs(ids: list, sigs: np.ndarray) -> list:
    u = sigs.view(np.uint64)
    ai, bi = np.triu_indices(len(u), k=1)
    keep = hamming64(u[ai], u[bi]) <= TAU
    return [(ids[a], ids[b]) for a, b in zip(ai[keep], bi[keep])]


def _canon(ds: rd.Dataset, id_col: str = "doc_id") -> pd.DataFrame:
    return ds.to_pandas().sort_values(id_col, ignore_index=True)


@pytest.mark.parametrize("kind", ["string", "int64"])
def test_core_native_ids_both_regimes_match_brute_force(kind):
    sigs = _signatures()
    ids, id_type = _ids(kind, len(sigs))
    want = _brute_force(ids, _within_tau_pairs(ids, sigs))
    assert (~want["is_representative"]).sum() > 20  # dups were planted
    table = pa.table({"doc_id": pa.array(ids, id_type), "simhash": sigs})

    got = []
    for limit in (len(ids), 0):  # direct, then forced distributed
        res = dedup_signatures(
            rd.from_arrow(table).repartition(3), SPACES, "doc_id", limit,
            n_parts=4, n_rows=len(ids), id_type=id_type,
        )
        out = res.assignment.to_pandas()
        assert res.assignment.schema().types[:2] == [id_type, id_type]
        assert res.n_clusters_with_dups == out[~out["is_representative"]][
            "cluster_id"
        ].nunique()
        got.append(out.sort_values("doc_id", ignore_index=True))
    direct, dist = got
    pd.testing.assert_frame_equal(direct, dist)
    pd.testing.assert_frame_equal(direct, want, check_dtype=False)


def test_docs_distributed_regime_accepts_negative_int_ids():
    """The text pipeline's cluster-scale regime keeps int64 doc ids
    native: negative ids and ids above 2^53 elect the numeric min."""
    sigs = _signatures(n_base=24, seed=5)
    ids, id_type = _ids("int64", len(sigs))
    sig_ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, id_type), "simhash": sigs}))
    want = _brute_force(ids, _within_tau_pairs(ids, sigs))
    direct = _canon(dedup_documents_from_sigs(sig_ds, CFG))
    dist = _canon(dedup_documents_from_sigs(sig_ds, CFG, broadcast_sig_limit=0))
    pd.testing.assert_frame_equal(direct, dist)
    pd.testing.assert_frame_equal(direct, want, check_dtype=False)


@pytest.mark.parametrize("kind", ["string", "int64"])
def test_assign_clusters_native_ids_both_paths(kind):
    """assign_clusters keeps the id type (no int64 cast) on the driver
    union-find path and on the distributed min-label rounds."""
    sigs = _signatures(n_base=24, seed=8)
    ids, id_type = _ids(kind, len(sigs))
    pairs = _within_tau_pairs(ids, sigs)
    want = _brute_force(ids, pairs)
    ids_ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, id_type)}))
    pairs_ds = rd.from_arrow(
        pa.table(
            {
                "a": pa.array([a for a, _ in pairs], id_type),
                "b": pa.array([b for _, b in pairs], id_type),
            }
        )
    )
    bc = assign_clusters(ids_ds, pairs_ds)
    assert bc.schema().types[:2] == [id_type, id_type]
    cc = assign_clusters(ids_ds, pairs_ds, n_parts=2, broadcast_limit=0)
    pd.testing.assert_frame_equal(_canon(bc), _canon(cc))
    pd.testing.assert_frame_equal(_canon(bc), want, check_dtype=False)
