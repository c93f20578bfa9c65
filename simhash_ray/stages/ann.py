"""Approximate-nearest-neighbor search over an embedding column.

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(``ray.put``), each batch does one float64 matmul against it, emits
per-batch partial top-k, and a final small aggregation merges partials.
Scale path: ``lsh_bucketed_topk`` buckets vectors by random-hyperplane
SimHash (a Charikar LSH for cosine) so each query only scans its
bucket's collision set — the same banding machinery as the dedup
pipeline, re-used for similarity search.

Float policy: all scores are computed in float64 from the stored
float32 values so results are comparable with a DuckDB
``list_cosine_similarity`` oracle; outputs carry (query_id, neighbor
id, rank) with rank resolved by (score desc, id asc) to make ties
deterministic.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from .buckets import all_pairs, runs
from .joins import lookup
from .pairverify import pack_matrix, unpack_matrix, verify_pairs

logger = logging.getLogger(__name__)

_EMPTY_ID_PAIRS = pa.table(
    {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
)

_EMPTY_TOPK = pa.table(
    {
        "query_id": pa.array([], type=pa.int64()),
        "neighbor_id": pa.array([], type=pa.int64()),
        "rank": pa.array([], type=pa.int64()),
    }
)


def _to_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if not hasattr(col, "flatten"):
        # Ray tensor extension array (from_pandas auto-tensorizes
        # uniform ndarray columns) — to_numpy gives the (n, dim) block
        return np.asarray(
            col.to_numpy(zero_copy_only=False), dtype=np.float64
        ).reshape(len(col), -1)
    flat = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(flat) // len(col)
    return flat.reshape(len(col), dim)



def _fetch_queries(
    vectors: rd.Dataset,
    query_ids,
    id_col: str,
    vec_col: str,
    normalize: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """(q_ids, q_mat — L2-normalized unless ``normalize=False``) for
    the given ids — one filtered scan + driver collect (bounded by
    |query_ids|).  Raises if any requested id is absent from the corpus
    (np.stack on a partial set would silently drop queries or crash
    opaquely)."""
    qset = np.array(sorted(int(q) for q in query_ids), dtype=np.int64)

    def is_query(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(np.isin(ids, qset)))

    qtbl = (
        vectors.select_columns([id_col, vec_col])
        .map_batches(is_query, batch_format="pyarrow")
        .take_all()
    )
    q_ids = np.array([r[id_col] for r in qtbl], dtype=np.int64)
    missing = set(qset.tolist()) - set(q_ids.tolist())
    if missing:
        raise ValueError(f"query ids absent from the vector table: {sorted(missing)}")
    q_mat = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in qtbl])
    if normalize:
        q_mat = q_mat / np.linalg.norm(q_mat, axis=1, keepdims=True)
    return q_ids, q_mat


def _merge_topk(k: int):
    """Shared top-k merge: drop self-pairs, (score desc, id asc) head-k,
    1-based rank — the ROW_NUMBER() contract every top-k query pins."""

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        group = group[group["neighbor_id"] != group["query_id"]]
        group = group.sort_values(
            ["score", "neighbor_id"], ascending=[False, True]
        ).head(k)
        group = group.reset_index(drop=True)
        group["rank"] = np.arange(1, len(group) + 1, dtype=np.int64)
        return group[["query_id", "neighbor_id", "rank"]]

    return merge


def brute_force_topk(
    vectors: rd.Dataset,
    query_ids: list[int],
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> rd.Dataset:
    """(query_id, neighbor_id, rank) — exact cosine top-k per query.

    Queries are fetched once on the driver (tiny), normalized, and
    broadcast; the big vector table streams through one matmul per
    batch.  Per-batch partial top-k bounds the shuffle to
    len(queries)×k rows per batch before the final merge."""
    q_ids, q_mat = _fetch_queries(vectors, query_ids, id_col, vec_col)
    ref = ray.put((q_ids, q_mat))

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_TOPK_PARTIAL
        qi, qm = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _to_matrix(batch[vec_col])
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        scores = qm @ mat.T  # (n_q, n_batch)
        out_q, out_n, out_s = [], [], []
        kk = min(k + 1, scores.shape[1])  # +1: the query itself may be here
        for row in range(len(qi)):
            # full (score desc, id asc) order — argpartition keeps an
            # ARBITRARY subset among boundary ties, which breaks the
            # deterministic-tie contract vs the oracle on dup-heavy data
            top = np.lexsort((ids, -scores[row]))[:kk]
            out_q.append(np.full(len(top), qi[row], dtype=np.int64))
            out_n.append(ids[top])
            out_s.append(scores[row][top])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), type=pa.int64()),
                "score": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )

    partials = vectors.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )

    from .base import map_groups_typed

    return map_groups_typed(
        partials, "query_id", _merge_topk(k), _EMPTY_TOPK, batch_format="pandas"
    )


def cosine_dup_pairs(
    vectors: rd.Dataset,
    threshold_num: int,
    threshold_den: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    exact_limit: int = 500_000,
    allow_approx: bool = True,
) -> rd.Dataset:
    """Embedding-cosine near-duplicate pairs: (a, b) with
    cos(a, b) * den >= num (rational threshold, float64 math on both
    sides so a DuckDB list_cosine_similarity oracle agrees).

    Broadcast-matrix exact operator (oracle/validation scale); above
    ``exact_limit`` rows it delegates to the banded
    :func:`lsh_cosine_dup_pairs` scale path (documented approximation:
    recall < 1 for pairs barely over the threshold; exact-cosine
    verification, so precision stays 1).  The delegation is logged;
    pass ``allow_approx=False`` to keep the exact contract and raise
    instead."""
    n = vectors.count()
    if n > exact_limit:
        if not allow_approx:
            raise ValueError(
                f"cosine_dup_pairs: {n} rows exceeds exact_limit="
                f"{exact_limit} and allow_approx=False; use "
                "lsh_cosine_dup_pairs or raise exact_limit"
            )
        logger.warning(
            "cosine_dup_pairs: %d rows > exact_limit=%d — delegating to "
            "the approximate lsh_cosine_dup_pairs scale path (recall < 1 "
            "near the threshold; precision stays 1)",
            n, exact_limit,
        )
        return lsh_cosine_dup_pairs(
            vectors, threshold_num, threshold_den, id_col=id_col, vec_col=vec_col
        )
    rows = vectors.select_columns([id_col, vec_col]).take_all()
    ids = np.array([r[id_col] for r in rows], dtype=np.int64)
    order = np.argsort(ids)
    ids = ids[order]
    mat = np.stack([np.asarray(rows[i][vec_col], dtype=np.float64) for i in order])
    mat /= np.linalg.norm(mat, axis=1, keepdims=True)
    ref = ray.put((ids, mat))

    def compare(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_ID_PAIRS
        uids, umat = ray.get(ref)
        my_ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mine = _to_matrix(batch[vec_col])
        # out-of-place: a float64 tensor column arrives as a read-only
        # zero-copy view and in-place /= raises
        mine = mine / np.linalg.norm(mine, axis=1, keepdims=True)
        cos = mine @ umat.T
        keep = (cos * threshold_den >= threshold_num) & (
            my_ids[:, None] < uids[None, :]
        )
        bi, ui = np.nonzero(keep)
        return pa.table(
            {
                "a": pa.array(my_ids[bi], type=pa.int64()),
                "b": pa.array(uids[ui], type=pa.int64()),
            }
        )

    return vectors.select_columns([id_col, vec_col]).map_batches(
        compare, batch_format="pyarrow", batch_size=2048
    )


class HyperplaneSigner:
    """Actor stage: 64-plane Charikar signature as one u64 ``hsig``
    column — the cosine-space analogue of the SimHash encoder.  Bit j
    = sign of the projection onto random plane j; P[bit match] =
    1 − angle/π, so near-duplicates agree on almost every bit."""

    def __init__(
        self, dim: int, id_col: str, vec_col: str, seed: int = 1234,
        center: np.ndarray | None = None,
    ):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, 64))
        self.id_col, self.vec_col = id_col, vec_col
        self.center = center

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {"id": pa.array([], type=pa.int64()),
                 "hsig": pa.array([], type=pa.int64())}
            )
        mat = _to_matrix(batch[self.vec_col])
        if self.center is not None:
            # sign((û − c) @ P): on corpora whose normalized vectors
            # concentrate around one direction (e.g. color histograms
            # of natural/noise images all near uniform), raw sign bits
            # agree for almost every pair and banding degenerates to
            # all-pairs; centering spreads the angular distribution
            # while near-duplicates (û ≈ v̂) keep identical centered
            # vectors and still collide
            nrm = np.linalg.norm(mat, axis=1, keepdims=True)
            nrm[nrm == 0] = 1.0
            mat = mat / nrm - self.center[None, :]
        bits = (mat @ self.planes > 0).astype(np.uint64)
        sig = np.zeros(len(mat), dtype=np.uint64)
        for j in range(64):
            sig |= bits[:, j] << np.uint64(j)
        return pa.table(
            {
                "id": batch[self.id_col].cast(pa.int64()),
                "hsig": pa.array(sig.view(np.int64), type=pa.int64()),
            }
        )


def _corpus_center(
    vectors: rd.Dataset, id_col: str, vec_col: str, n_rows: int
) -> np.ndarray:
    """Deterministic estimate of the normalized-vector centroid: an
    md5-Bernoulli id sample targeting ~64k rows (whole corpus below
    that), collected once and averaged in sorted-id order — no RNG, so
    the center (hence every band key) is partition-invariant and
    reproducible across reruns."""
    from ..functions.hashing import md5_u32_of_int_ids

    target = 65536
    sample = vectors.select_columns([id_col, vec_col])
    if n_rows > target:
        thr = np.uint64(((1 << 32) * target) // n_rows)

        def keep(batch: pa.Table) -> pa.Table:
            ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return batch.filter(pa.array(md5_u32_of_int_ids(ids) < thr))

        sample = sample.map_batches(keep, batch_format="pyarrow")
    batches = list(sample.iter_batches(batch_format="pyarrow", batch_size=65536))
    if not batches:  # sample drained (degenerate hash luck): no shift
        dim = len(vectors.take(1)[0][vec_col])
        return np.zeros(dim, dtype=np.float64)
    tbl = pa.concat_tables(batches)
    order = np.argsort(tbl[id_col].to_numpy(zero_copy_only=False))
    mat = _to_matrix(tbl[vec_col])[order]
    nrm = np.linalg.norm(mat, axis=1, keepdims=True)
    nrm[nrm == 0] = 1.0
    return (mat / nrm).mean(axis=0)


def choose_cosine_bands(n_rows: int) -> int:
    """Band count for the hyperplane-LSH signature as a function of
    corpus size — the key-space-saturation guard.  With ``n_bands``
    bands of ``r = 64/n_bands`` bits each there are only ``2^r``
    buckets per band; once ``n_rows / 2^r`` exceeds the pair
    generator's useful bucket size, EVERY bucket is oversized and
    candidate generation degenerates toward all-pairs (measured: the
    n_bands=8 default at 400k rows spent 340 s where n_bands=4 needs
    seconds — the same saturation disease the incremental band keys
    had).  Pick the largest band count (most recall) whose expected
    bucket stays small; at the high-cosine thresholds this operator
    targets, fewer/wider bands barely cost recall (c = 0.999:
    1−(1−p^16)^4 ≈ 0.998)."""
    for nb in (8, 4, 2):
        if n_rows / float(2 ** (64 // nb)) <= 64:
            return nb
    return 2


def lsh_cosine_candidates(
    vectors: rd.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bands: int | None = None,
    seed: int = 1234,
    n_parts: int = 64,
    pair_full_threshold: int = 512,
    concurrency=(1, 8),
    center: bool = True,
) -> rd.Dataset:
    """Candidate half of :func:`lsh_cosine_dup_pairs`: encode
    (HyperplaneSigner actor pool) → narrow band rows (the u64 signature
    splits into ``n_bands`` contiguous bit-chunks; OR-of-bands rule) →
    one bucket groupby (reusing the MinHash pair generator with its
    star skew-guard) → the pair reduce.  Returns (a, b).
    ``n_bands=None`` sizes the bands to the corpus
    (:func:`choose_cosine_bands`); ``center=True`` signs the
    MEAN-CENTERED normalized vectors (deterministic sampled centroid,
    :func:`_corpus_center`) — on angularly concentrated corpora raw
    sign bits agree for almost every pair (measured: 38.5M candidates
    for 10k true pairs at 400k histogram embeddings) while near-dup
    pairs keep identical centered vectors; pairs lying essentially AT
    the centroid are the only recall exposure, and the exact verify
    keeps precision 1 either way.  Pass ``vectors`` materialized — the
    auto rules count/scan it.  Exposed separately so the candidate set
    can be staged for the SQL oracle, which re-runs the exact-cosine
    verify in DuckDB."""
    from ..functions.hashing import part_of_ints
    from .base import map_groups_typed
    from .cluster import dedupe_edges
    from .minhash import _EMPTY_PAIRS, make_pair_generator

    # materialize first: a lazy input (e.g. bench's decode→embed chain)
    # would otherwise re-execute for the count, the take(1), the center
    # scan AND the signer pass (review finding, late r4); materialize
    # is idempotent when the caller already did it
    vectors = vectors.materialize()
    n_rows = vectors.count()
    if n_bands is None:
        n_bands = choose_cosine_bands(n_rows)
    first = vectors.take(1)[0]
    dim = len(first[vec_col])
    c_vec = (
        _corpus_center(vectors, id_col, vec_col, n_rows) if center else None
    )
    sig_ds = vectors.select_columns([id_col, vec_col]).map_batches(
        HyperplaneSigner,
        fn_constructor_kwargs={"dim": dim, "id_col": id_col, "vec_col": vec_col,
                               "seed": seed, "center": c_vec},
        batch_format="pyarrow",
        concurrency=concurrency,
    )
    assert 64 % n_bands == 0
    r = 64 // n_bands
    mask = np.uint64((1 << r) - 1)

    def expand(batch: pa.Table) -> pa.Table:
        sig = batch["hsig"].to_numpy(zero_copy_only=False).view(np.uint64)
        ids = batch["id"].to_numpy(zero_copy_only=False)
        n = len(sig)
        out_id, out_band, out_key = [], [], []
        for b in range(n_bands):
            out_id.append(ids)
            out_band.append(np.full(n, b, dtype=np.int32))
            out_key.append(((sig >> np.uint64(b * r)) & mask).view(np.int64))
        band = np.concatenate(out_band)
        key = np.concatenate(out_key)
        return pa.table(
            {
                "id": pa.array(np.concatenate(out_id), type=pa.int64()),
                "band": pa.array(band, type=pa.int32()),
                "key": pa.array(key, type=pa.int64()),
                "part": pa.array(
                    part_of_ints(n_parts, band.astype(np.int64), key), type=pa.int32()
                ),
            }
        )

    bands = sig_ds.map_batches(expand, batch_format="pyarrow")
    pairs = map_groups_typed(
        bands, "part", make_pair_generator(pair_full_threshold), _EMPTY_PAIRS
    )
    return dedupe_edges(pairs.select_columns(["a", "b"]), n_parts, pa.int64())


def collapse_identical_vectors(
    vectors: rd.Dataset,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    broadcast_limit: int = 5_000_000,
    driver_limit_bytes: int = 2_000_000_000,
) -> tuple[rd.Dataset, rd.Dataset]:
    """Byte-identical-vector collapse: → (members, reps).

    ``members`` is (id_col, rep, nonzero) for EVERY input row — ``rep``
    the min id among rows with the identical vector, ``nonzero`` whether
    the vector has nonzero norm; ``reps`` is the (id_col, vec_col) table
    of one representative row per distinct vector.

    Web-scale embedding corpora are dominated by exact duplicates
    (re-encoded images, mirrored documents): at the benched 400k-image
    fixture, 135,701 of 135,703 true cosine-0.999 pairs are
    identical-vector pairs.  Collapsing first makes every downstream
    LSH/verify stage scale with DISTINCT vectors and finds the
    identical mass exactly, at the cost of one narrow groupby.

    Group key = blake2b-128 of the float64 row bytes (the repo-standard
    fingerprint bound: ~2⁻⁶⁴ collision odds at 10⁹ distinct vectors).
    The key→rep map and the rep filter are two
    :func:`stages.joins.lookup` calls: broadcast under
    ``broadcast_limit`` distinct vectors, a hash join above it.

    Two regimes, the repo's usual shape: when the whole (id, vec) table
    fits ``driver_limit_bytes`` it is collected once and collapsed with
    a single ``np.unique`` over the raw row bytes (exact, no hashing,
    no shuffle); above the bound the distributed digest-groupby path
    runs.  Both produce identical (members, reps).
    """
    import hashlib

    from ray.data.aggregate import Min

    vectors = vectors.materialize()
    n_rows = vectors.count()
    if n_rows == 0:
        empty_members = pa.table(
            {
                id_col: pa.array([], type=pa.int64()),
                "rep": pa.array([], type=pa.int64()),
                "nonzero": pa.array([], type=pa.bool_()),
            }
        )
        return rd.from_arrow(empty_members), vectors
    dim = len(vectors.take(1)[0][vec_col])
    if n_rows * (dim * 8 + 16) <= driver_limit_bytes:
        tbl = pa.concat_tables(
            vectors.select_columns([id_col, vec_col]).iter_batches(
                batch_format="pyarrow", batch_size=65536
            )
        )
        ids = tbl[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _to_matrix(tbl[vec_col])
        # opaque-void view → BYTE equality (memcmp), matching the
        # distributed digest regime exactly; a structured float view
        # would instead compare by value (-0.0 == 0.0, NaN ordering)
        # and the two regimes would collapse different groups
        void = np.ascontiguousarray(mat).view(
            np.dtype((np.void, mat.shape[1] * 8))
        ).ravel()
        _, inv = np.unique(void, return_inverse=True)
        order = np.lexsort((ids, inv))
        inv_s, ids_s = inv[order], ids[order]
        first = np.ones(len(ids_s), dtype=bool)
        first[1:] = inv_s[1:] != inv_s[:-1]
        rep_of_group = ids_s[first]  # min id per group (ids sorted within)
        rep_per_row = rep_of_group[inv]
        nonzero = np.linalg.norm(mat, axis=1) > 0
        members_tbl = pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "rep": pa.array(rep_per_row, type=pa.int64()),
                "nonzero": pa.array(nonzero),
            }
        )
        mask = ids == rep_per_row
        d = mat.shape[1]
        reps_tbl = pa.table(
            {
                id_col: pa.array(ids[mask], type=pa.int64()),
                vec_col: pa.ListArray.from_arrays(
                    pa.array(
                        np.arange(int(mask.sum()) + 1, dtype=np.int32) * d
                    ),
                    pa.array(mat[mask].reshape(-1)),
                ),
            }
        )
        n_blocks = max(8, min(64, n_rows // 50_000 + 1))
        return (
            rd.from_arrow(members_tbl).repartition(n_blocks),
            rd.from_arrow(reps_tbl).repartition(n_blocks),
        )
    empty_keyed = pa.table(
        {
            id_col: pa.array([], type=pa.int64()),
            "vkey": pa.array([], type=pa.string()),
            "nonzero": pa.array([], type=pa.bool_()),
        }
    )

    def keyed(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return empty_keyed
        mat = _to_matrix(batch[vec_col])
        keys = [
            hashlib.blake2b(r.tobytes(), digest_size=16).hexdigest() for r in mat
        ]
        nz = np.linalg.norm(mat, axis=1) > 0
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "vkey": pa.array(keys, type=pa.string()),
                "nonzero": pa.array(nz),
            }
        )

    kd = vectors.select_columns([id_col, vec_col]).map_batches(
        keyed, batch_format="pyarrow"
    ).materialize()
    # materialize: both lookups below would otherwise each run the
    # groupby-aggregate shuffle
    key_rep = kd.groupby("vkey").aggregate(
        Min(id_col, alias_name="rep")
    ).materialize()
    members = lookup(kd, "vkey", key_rep, broadcast_limit).select_columns(
        [id_col, "rep", "nonzero"]
    )

    # a rep row is one whose id is some group's rep (its vkey comes back
    # non-null).  Arrow's hash join rejects list payload columns, so the
    # vector travels packed as fixed-size binary and is unpacked after
    # (the feature format of stages/pairverify)

    def pack(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch[id_col].cast(pa.int64()),
                "vpack": pack_matrix(_to_matrix(batch[vec_col])),
            }
        )

    def unpack(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["vkey"]))
        if batch.num_rows == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    vec_col: pa.array([], type=pa.list_(pa.float64())),
                }
            )
        mat = unpack_matrix(batch["vpack"], dim, dtype=np.float64)
        lists = pa.ListArray.from_arrays(
            pa.array(np.arange(batch.num_rows + 1, dtype=np.int32) * dim),
            pa.array(mat.reshape(-1), type=pa.float64()),
        )
        return pa.table({id_col: batch[id_col], vec_col: lists})

    packed = vectors.select_columns([id_col, vec_col]).map_batches(
        pack, batch_format="pyarrow"
    )
    reps = lookup(
        packed, id_col, key_rep.rename_columns({"rep": id_col}), broadcast_limit
    ).map_batches(unpack, batch_format="pyarrow")
    return members, reps


_EMPTY_MEMBER_PAIRS = pa.table(
    {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
)


def expand_collapsed_pairs(
    rep_pairs: rd.Dataset,
    members: rd.Dataset,
    threshold_num: int,
    threshold_den: int,
    id_col: str = "vec_id",
    cross_members_limit: int = 20_000_000,
) -> rd.Dataset:
    """Member-level (a, b) pairs from verified REP-level pairs plus the
    within-group identical pairs.

    - within-group: every member pair of a collapsed group qualifies
      automatically (cos(v, v) = 1 ≥ num/den) unless the vector is zero
      (cosine undefined — the exact operator drops those) or the
      threshold exceeds 1.  Generated by the bucket-pairing kernel
      (stages/buckets) over the rep-sorted block — no per-group Python.
    - cross-group: each verified rep pair (a, b) expands to the full
      member cross product of the two groups (members are byte-identical
      to their rep, so every expanded pair has EXACTLY the verified
      cosine).  ``rep_pairs`` is the VERIFIED pair set — bounded by the
      true cross-group dup count, the same bounded-driver-collect
      contract as the flagship's union-find over verified edges — so it
      and the involved groups' members are collected and expanded
      vectorized on the driver (a sparse-side ``Dataset.join`` here is
      both slower and trips Ray 2.49's hash join on empty partitions).
      ``cross_members_limit`` guards the collect loudly; the expansion
      output is ≥ the collected size, so any engine materializing the
      answer pays at least this much.
    """
    within_qualifies = threshold_num <= threshold_den
    members = members.materialize()  # consumed by the sort + the probe

    def block_pairs(block: pa.Table) -> pa.Table:
        if block.num_rows == 0 or not within_qualifies:
            return _EMPTY_MEMBER_PAIRS
        # zero vectors have no cosine: their (whole) groups pair nothing
        nz = block["nonzero"].to_numpy(zero_copy_only=False)
        ids = block[id_col].to_numpy(zero_copy_only=False).astype(np.int64)[nz]
        reps = block["rep"].to_numpy(zero_copy_only=False)[nz]
        order = np.lexsort((ids, reps))
        ids, reps = ids[order], reps[order]
        ai, bi = all_pairs(*runs(reps))
        a_side, b_side = ids[ai], ids[bi]
        return pa.table(
            {
                "a": pa.array(a_side, type=pa.int64()),
                "b": pa.array(b_side, type=pa.int64()),
            }
        )

    # groups never straddle blocks after the sort (same guarantee
    # map_groups_typed relies on), so block_pairs sees whole groups
    within = members.sort("rep").map_batches(
        block_pairs, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    )

    rp_batches = list(
        rep_pairs.iter_batches(batch_format="pyarrow", batch_size=65536)
    )
    if not rp_batches:
        return within
    rp = pa.concat_tables(rp_batches)
    if rp.num_rows == 0:
        return within
    ra = rp["a"].to_numpy(zero_copy_only=False).astype(np.int64)
    rb = rp["b"].to_numpy(zero_copy_only=False).astype(np.int64)
    involved = np.unique(np.concatenate([ra, rb]))
    inv_ref = ray.put(involved)

    def probe(batch: pa.Table) -> pa.Table:
        inv = ray.get(inv_ref)
        reps_np = batch["rep"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(inv, reps_np).clip(max=len(inv) - 1)
        return batch.filter(pa.array(inv[pos] == reps_np)).select(
            [id_col, "rep"]
        )

    probed = members.map_batches(probe, batch_format="pyarrow").materialize()
    n_inv = probed.count()
    if n_inv > cross_members_limit:  # bound the collect BEFORE collecting
        raise ValueError(
            f"expand_collapsed_pairs: {n_inv} members belong to groups "
            f"with verified cross-group pairs, above "
            f"cross_members_limit={cross_members_limit}; raise the limit "
            "deliberately if that scale is intended"
        )
    mem_inv = pa.concat_tables(
        probed.iter_batches(batch_format="pyarrow", batch_size=65536)
    )
    mids = mem_inv[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    mreps = mem_inv["rep"].to_numpy(zero_copy_only=False)
    order = np.lexsort((mids, mreps))
    mids, mreps = mids[order], mreps[order]
    starts = np.searchsorted(mreps, involved, side="left")
    ends = np.searchsorted(mreps, involved, side="right")
    pa_idx = np.searchsorted(involved, ra)
    pb_idx = np.searchsorted(involved, rb)
    sizes = (ends - starts).astype(np.int64)
    n_expanded = int((sizes[pa_idx] * sizes[pb_idx]).sum())
    if n_expanded > cross_members_limit:
        # the OUTPUT is the sum of per-pair group-size PRODUCTS, which
        # can be quadratically larger than the member count the first
        # guard bounds — guard it separately before allocating
        raise ValueError(
            f"expand_collapsed_pairs: cross-group expansion would emit "
            f"{n_expanded} pairs, above "
            f"cross_members_limit={cross_members_limit}; raise the limit "
            "deliberately if that output size is intended"
        )
    out_a, out_b = [], []
    # one tiny numpy cross product per VERIFIED rep pair — the loop is
    # over true cross-group dup relations, not rows
    for i in range(len(ra)):
        ga = mids[starts[pa_idx[i]] : ends[pa_idx[i]]]
        gb = mids[starts[pb_idx[i]] : ends[pb_idx[i]]]
        left = np.repeat(ga, len(gb))
        right = np.tile(gb, len(ga))
        out_a.append(np.minimum(left, right))
        out_b.append(np.maximum(left, right))
    crossed = pa.table(
        {
            "a": pa.array(np.concatenate(out_a), type=pa.int64()),
            "b": pa.array(np.concatenate(out_b), type=pa.int64()),
        }
    )
    return within.union(rd.from_arrow(crossed))


def lsh_cosine_dup_pairs(
    vectors: rd.Dataset,
    threshold_num: int,
    threshold_den: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bands: int | None = None,
    seed: int = 1234,
    n_parts: int = 64,
    pair_full_threshold: int = 512,
    concurrency=(1, 8),
    broadcast_limit: int = 2_000_000,
    candidates: rd.Dataset | None = None,
    collapse: bool = False,
) -> rd.Dataset:
    """Banded hyperplane-LSH near-dup pairs — the scale path the
    round-1 verdict asked for (VERDICT.md item 4): no full-table
    ``take_all``; same output schema as :func:`cosine_dup_pairs`.

    :func:`lsh_cosine_candidates` → EXACT float64 cosine verification
    against a broadcast of the normalized vectors (hash joins above
    ``broadcast_limit``).  Recall for a pair at cosine c is
    1 − (1 − p^(64/n_bands))^n_bands with p = 1 − arccos(c)/π —
    ≈ 0.999 at c = 0.98 with 8 bands.  The default ``n_bands=None``
    widens bands as the corpus grows (:func:`choose_cosine_bands`) so
    band-key space never saturates; at this operator's high-cosine
    thresholds the recall cost is negligible (c = 0.999, 4 bands:
    ≈ 0.998).

    Exact-cosine verify means precision 1 vs the exact operator; only
    barely-over-threshold pairs can be missed (tests/test_minhash_ann
    pins recall ≥ 0.95 on planted near-dups).  ``candidates``
    short-circuits the candidate stage (the oracle-staging caller
    passes a materialized candidate set so both engines verify the
    same pairs).

    ``collapse=True`` runs the identical-vector collapse first
    (:func:`collapse_identical_vectors`): LSH + verify touch only
    DISTINCT vectors, within-group pairs are emitted exactly, and
    verified rep pairs expand to the member cross product
    (:func:`expand_collapsed_pairs`).  On dup-heavy corpora this finds
    MORE pairs (within-group recall 1 vs the LSH band recall) in less
    time; measured at the 400k-image bench: 12.9M→7.2M candidates, the
    identical mass (135,701 pairs) found without any verify, end-to-end
    33.2 s vs 53.9 s (identical 135,703-pair output).
    ``collapse`` composes with ``candidates`` only at rep level — pass
    rep-level candidates (the staging caller composes the stages
    explicitly instead)."""
    if collapse:
        members, reps = collapse_identical_vectors(
            vectors, id_col=id_col, vec_col=vec_col
        )
        rep_pairs = lsh_cosine_dup_pairs(
            reps, threshold_num, threshold_den, id_col=id_col,
            vec_col=vec_col, n_bands=n_bands, seed=seed, n_parts=n_parts,
            pair_full_threshold=pair_full_threshold, concurrency=concurrency,
            broadcast_limit=broadcast_limit, candidates=candidates,
            collapse=False,
        )
        return expand_collapsed_pairs(
            rep_pairs, members, threshold_num, threshold_den, id_col=id_col
        )
    # materialized: the plan is consumed by the candidate scan, the
    # count() regime pick, and the verify collect/join — an expensive
    # upstream (e.g. computed embeddings) would otherwise re-execute
    # per consumer
    vectors = vectors.materialize()
    pairs = candidates if candidates is not None else lsh_cosine_candidates(
        vectors, id_col=id_col, vec_col=vec_col, n_bands=n_bands, seed=seed,
        n_parts=n_parts, pair_full_threshold=pair_full_threshold,
        concurrency=concurrency,
    )

    # exact verify through stages/pairverify: unit vectors packed to
    # fixed-size float64 binary (Arrow's hash join rejects list payload
    # columns; the fixed width makes the unpack a zero-copy reshape),
    # broadcast up to broadcast_limit rows, two hash joins above
    n_rows = vectors.count()
    dim = len(vectors.take(1)[0][vec_col]) if n_rows else 0

    def pack(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            mat = np.empty((0, dim))
        else:
            mat = _to_matrix(t[vec_col])
            mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        return pa.table({"id": t[id_col].cast(pa.int64()), "vec": pack_matrix(mat)})

    def check(a, b, fa, fb) -> pa.Table:
        va = unpack_matrix(fa, dim, dtype=np.float64)
        vb = unpack_matrix(fb, dim, dtype=np.float64)
        cos = np.einsum("ij,ij->i", va, vb)
        keep = cos * threshold_den >= threshold_num
        return pa.table(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(b[keep], type=pa.int64()),
            }
        )

    feats = vectors.select_columns([id_col, vec_col]).map_batches(
        pack, batch_format="pyarrow"
    )
    return verify_pairs(
        pairs, feats, check, _EMPTY_ID_PAIRS, n_rows <= broadcast_limit
    )


class HyperplaneHasher:
    """Random-hyperplane signature (Charikar cosine LSH) as an actor
    stage: adds a ``bucket`` column = sign-pattern of r projections."""

    def __init__(self, dim: int, n_planes: int = 12, seed: int = 99):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((dim, n_planes))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("bucket", pa.array([], type=pa.int64()))
        mat = _to_matrix(batch[batch.column_names[1]])
        proj = mat @ self.planes
        bits = (proj > 0).astype(np.uint64)
        bucket = np.zeros(len(mat), dtype=np.uint64)
        for j in range(bits.shape[1]):
            bucket |= bits[:, j] << np.uint64(j)
        return batch.append_column("bucket", pa.array(bucket.view(np.int64)))


def _lsh_probe_plan(
    vectors: rd.Dataset,
    query_ids: list[int],
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_planes: int = 8,
    n_probes: int = 1,
):
    """Probe-plan half of :func:`lsh_bucketed_topk`: bucket the corpus
    by hyperplane signs and build the broadcast (q_ids, q_mat,
    bucket→queries) ref.  Exposed separately so the candidate set the
    plan induces can be staged for the SQL oracle
    (:func:`bucketed_candidates`) while the SAME plan drives the
    scan — both engines then rank exactly the same candidates."""
    first = vectors.take(1)[0]
    dim = len(first[vec_col])
    hashed = vectors.select_columns([id_col, vec_col]).map_batches(
        HyperplaneHasher,
        fn_constructor_kwargs={"dim": dim, "n_planes": n_planes},
        batch_format="pyarrow",
        concurrency=(1, 4),
    )
    rng_planes = HyperplaneHasher(dim=dim, n_planes=n_planes).planes
    q_ids, q_mat = _fetch_queries(vectors, query_ids, id_col, vec_col)
    proj = q_mat @ rng_planes  # same seed → same planes as the hasher
    base = np.zeros(len(q_mat), dtype=np.uint64)
    for j in range(n_planes):
        base |= (proj[:, j] > 0).astype(np.uint64) << np.uint64(j)
    # probe sequence per query: own bucket, then flip planes in order
    # of |projection| (closest boundary first)
    flip_order = np.argsort(np.abs(proj), axis=1)
    bucket_to_queries: dict[int, list[int]] = {}
    for qi in range(len(q_ids)):
        bl = [int(base[qi])]
        for p in range(min(n_probes - 1, n_planes)):
            bl.append(int(base[qi] ^ np.uint64(1) << np.uint64(flip_order[qi, p])))
        for b in bl:
            bucket_to_queries.setdefault(b, []).append(qi)
    ref = ray.put((q_ids, q_mat, bucket_to_queries))
    return hashed, ref


def lsh_bucketed_topk(
    vectors: rd.Dataset,
    query_ids: list[int],
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_planes: int = 8,
    n_probes: int = 1,
) -> rd.Dataset:
    """Approximate top-k: candidates sharing one of the query's probed
    hyperplane buckets are scored.  Multi-probe (``n_probes`` > 1) also
    visits the buckets whose sign patterns differ from the query's in
    the bits with the SMALLEST projection magnitude — the standard
    multi-probe LSH refinement: a near-boundary plane is the likeliest
    to disagree between true neighbors, so flipping it first recovers
    most of the recall a single probe loses.  Bucket count (n_planes)
    and probe count are the recall/cost knobs.

    The query vectors (a tiny set) are broadcast with their probe
    lists; the corpus streams once through a per-batch probed-bucket
    scan — per-batch partial top-k, then a small per-query merge."""
    hashed, ref = _lsh_probe_plan(
        vectors, query_ids, id_col=id_col, vec_col=vec_col,
        n_planes=n_planes, n_probes=n_probes,
    )
    return _bucketed_scan_topk(
        hashed, ref, k, id_col, vec_col, bucket_col="bucket"
    )


def bucketed_candidates(
    bucketed: rd.Dataset, ref, id_col: str, bucket_col: str
) -> rd.Dataset:
    """(query_id, neighbor_id) — every corpus row a probe plan would
    score, streamed per batch (the staging projection behind the
    lsh/ivf top-k SQL oracles: DuckDB re-ranks these candidates by
    exact cosine and must reproduce the Ray top-k exactly)."""
    _empty = pa.table(
        {
            "query_id": pa.array([], type=pa.int64()),
            "neighbor_id": pa.array([], type=pa.int64()),
        }
    )

    def per_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _empty
        uq_ids, _, b2q = ray.get(ref)
        buckets = batch[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        out_q, out_n = [], []
        for b, qidxs in b2q.items():
            rows = ids[buckets == b]
            if not len(rows):
                continue
            for qi in qidxs:
                out_q.append(np.full(len(rows), uq_ids[qi], dtype=np.int64))
                out_n.append(rows)
        if not out_q:
            return _empty
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), type=pa.int64()),
            }
        )

    return bucketed.map_batches(
        per_batch, batch_format="pyarrow", batch_size=_TOPK_SCAN_BATCH_SIZE
    )


# corpus rows per scan task in the bucketed ANN tail — the only
# per-task materialization bound there (tested batch-size-invariant)
_TOPK_SCAN_BATCH_SIZE = 4096

_EMPTY_TOPK_PARTIAL = pa.table(
    {
        "query_id": pa.array([], type=pa.int64()),
        "neighbor_id": pa.array([], type=pa.int64()),
        "score": pa.array([], type=pa.float64()),
    }
)


def _bucketed_scan_topk(
    bucketed: rd.Dataset, ref, k: int, id_col: str, vec_col: str, bucket_col: str
) -> rd.Dataset:
    """Shared tail of the bucketed ANN variants (hyperplane LSH + IVF):
    a STREAMED ``map_batches`` scan — each batch keeps only its rows
    whose bucket is probed by some query (broadcast (q_ids, q_mat,
    bucket→queries) in ``ref``), scores them, and emits a per-(batch,
    bucket, query) partial top-k; a small per-query merge finishes.

    No ``groupby(bucket)`` — the corpus is never re-shuffled and no
    task ever materializes more than one batch of corpus rows (the
    round-2 verdict's scale fix: with few buckets, a whole bucket =
    corpus/n_buckets rows in one worker was a driver-class OOM at
    10^9+ rows).  Output is identical: a vector in the final top-k must
    be in the top-k of every subset containing it, so per-batch partial
    top-(k+1) loses nothing the per-bucket partial kept."""

    def per_batch(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return _EMPTY_TOPK_PARTIAL
        uq_ids, uq_mat, b2q = ray.get(ref)
        buckets = batch[bucket_col].to_numpy(zero_copy_only=False).astype(np.int64)
        probed_keys = np.fromiter(b2q.keys(), dtype=np.int64, count=len(b2q))
        probed = np.isin(buckets, probed_keys)
        if not probed.any():
            return _EMPTY_TOPK_PARTIAL
        sub = batch.filter(pa.array(probed))
        ids = sub[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _to_matrix(sub[vec_col])
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sub_buckets = buckets[probed]
        order = np.argsort(sub_buckets, kind="stable")
        sorted_buckets = sub_buckets[order]
        uniq, starts = np.unique(sorted_buckets, return_index=True)
        ends = np.append(starts[1:], len(sorted_buckets))
        out_q, out_n, out_s = [], [], []
        for u, s, e in zip(uniq, starts, ends):
            rows = order[s:e]
            qidxs = b2q.get(int(u), [])
            if not qidxs:
                continue
            scores = mat[rows] @ uq_mat[qidxs].T  # (n_rows, n_q)
            kk = min(k + 1, len(rows))
            for c, qi in enumerate(qidxs):
                # (score desc, id asc): deterministic among ties (same
                # rationale as brute_force_topk's partial)
                top = np.lexsort((ids[rows], -scores[:, c]))[:kk]
                out_q.append(np.full(len(top), uq_ids[qi], dtype=np.int64))
                out_n.append(ids[rows[top]])
                out_s.append(scores[top, c])
        if not out_q:
            return _EMPTY_TOPK_PARTIAL
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "neighbor_id": pa.array(np.concatenate(out_n), type=pa.int64()),
                "score": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )

    partials = bucketed.map_batches(
        per_batch, batch_format="pyarrow", batch_size=_TOPK_SCAN_BATCH_SIZE
    )

    def merge(group: pd.DataFrame) -> pd.DataFrame:
        group = group[group["neighbor_id"] != group["query_id"]]
        group = group.drop_duplicates("neighbor_id")  # multi-probe overlap
        group = group.sort_values(
            ["score", "neighbor_id"], ascending=[False, True]
        ).head(k)
        group = group.reset_index(drop=True)
        group["rank"] = np.arange(1, len(group) + 1, dtype=np.int64)
        return group[["query_id", "neighbor_id", "rank"]]

    from .base import map_groups_typed

    return map_groups_typed(
        partials, "query_id", merge, _EMPTY_TOPK, batch_format="pandas"
    )


class CentroidAssigner:
    """Actor stage: adds a ``cent`` column = argmax-cosine centroid id
    against a broadcast centroid matrix (state = the matrix ref)."""

    def __init__(self, cent_ref, id_col: str, vec_col: str):
        self.cents = ray.get(cent_ref)  # (n_centroids, dim), L2-normalized
        self.id_col, self.vec_col = id_col, vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.append_column("cent", pa.array([], type=pa.int64()))
        mat = _to_matrix(batch[self.vec_col])
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        cent = np.argmax(mat @ self.cents.T, axis=1).astype(np.int64)
        return batch.append_column("cent", pa.array(cent, type=pa.int64()))


def _ivf_probe_plan(
    vectors: rd.Dataset,
    query_ids: list[int],
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_centroids: int | None = None,
    n_probe: int = 4,
    train_sample: int = 4096,
    lloyd_iters: int = 10,
    seed: int = 47,
    concurrency=(1, 4),
):
    """Probe-plan half of :func:`ivf_topk` (same staging rationale as
    :func:`_lsh_probe_plan`): train the coarse quantizer, assign the
    corpus, and build the broadcast (q_ids, q_mat, centroid→queries)
    ref.  Returns (assigned_ds, ref)."""
    n_rows = vectors.count()
    if n_centroids is None:
        n_centroids = int(min(4096, max(16, round(np.sqrt(n_rows)))))
    # deterministic md5-hash Bernoulli subsample instead of .limit():
    # the first train_sample rows of a source-ordered corpus would
    # train every centroid on one source's region (head bias)
    sample_src = vectors.select_columns([id_col, vec_col])
    if n_rows > train_sample:
        from .sample import hash_sample

        num = min(2 * train_sample, n_rows)
        sample_src = hash_sample(sample_src, num, n_rows, id_col=id_col)
    sample = sample_src.limit(train_sample).take_all()
    smat = np.stack([np.asarray(r[vec_col], dtype=np.float64) for r in sample])
    smat /= np.linalg.norm(smat, axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    cents = smat[rng.choice(len(smat), size=min(n_centroids, len(smat)), replace=False)]
    for _ in range(lloyd_iters):  # spherical k-means on the sample
        assign = np.argmax(smat @ cents.T, axis=1)
        for c in range(len(cents)):
            members = smat[assign == c]
            if len(members):
                v = members.sum(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    cent_ref = ray.put(cents)

    assigned = vectors.select_columns([id_col, vec_col]).map_batches(
        CentroidAssigner,
        fn_constructor_kwargs={"cent_ref": cent_ref, "id_col": id_col,
                               "vec_col": vec_col},
        batch_format="pyarrow",
        concurrency=concurrency,
    )

    q_ids, q_mat = _fetch_queries(vectors, query_ids, id_col, vec_col)
    order = np.argsort(-(q_mat @ cents.T), axis=1)[:, : min(n_probe, len(cents))]
    bucket_to_queries: dict[int, list[int]] = {}
    for qi in range(len(q_ids)):
        for c in order[qi]:
            bucket_to_queries.setdefault(int(c), []).append(qi)
    ref = ray.put((q_ids, q_mat, bucket_to_queries))
    return assigned, ref


def ivf_topk(
    vectors: rd.Dataset,
    query_ids: list[int],
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_centroids: int | None = None,
    n_probe: int = 4,
    train_sample: int = 4096,
    lloyd_iters: int = 10,
    seed: int = 47,
    concurrency=(1, 4),
) -> rd.Dataset:
    """IVF (inverted-file) approximate top-k — the coarse-quantizer
    counterpart of :func:`lsh_bucketed_topk`.

    Train: spherical k-means on a driver-side sample (``limit`` pull,
    tiny); Assign: one actor-pool pass adds the nearest-centroid id;
    Search: queries probe their ``n_probe`` nearest centroid lists via
    the same streamed per-batch partial-top-k scan as the LSH variant
    (no per-list materialization).  Recall/cost knobs: n_centroids
    (list length ~ n/n_centroids; default √n, the standard IVF sizing,
    so lists stay bounded as the corpus grows) and n_probe."""
    assigned, ref = _ivf_probe_plan(
        vectors, query_ids, id_col=id_col, vec_col=vec_col,
        n_centroids=n_centroids, n_probe=n_probe, train_sample=train_sample,
        lloyd_iters=lloyd_iters, seed=seed, concurrency=concurrency,
    )
    return _bucketed_scan_topk(assigned, ref, k, id_col, vec_col, bucket_col="cent")


def hamming_topk(
    sigs: rd.Dataset,
    n_queries: int = 20,
    k: int = 5,
    id_col: str = "image_id",
    sig_col: str = "phash",
):
    """Similarity retrieval in Hamming space: per query signature the
    k nearest OTHER rows by popcount(sig XOR sig) — the bit-signature
    twin of :func:`brute_force_topk`.  Queries = the ``n_queries``
    lowest ids (deterministic), broadcast once via ``ray.put``; each
    corpus block computes the queries × batch SWAR-popcount matrix and
    forwards ONLY its per-query top-k (≤ n_queries × k rows per block
    through the partial-topk merge — no all-pairs relation ever
    materializes).  Ties break on neighbor id ascending, matching a
    SQL ``ROW_NUMBER() OVER (... ORDER BY dist, nbr)``.

    Returns ``(query_df, ranked)``: the pandas query table (for oracle
    staging) and a Dataset of (qid, nbr, dist, rank)."""
    import pandas as pd

    from ..simhash import hamming64
    from .topk import topk_per_group

    qdf = sigs.sort(id_col).limit(n_queries).to_pandas()
    q_ids = qdf[id_col].to_numpy(dtype=object)
    q_hash = qdf[sig_col].to_numpy().view(np.uint64)
    q_ref = ray.put((q_ids, q_hash))

    empty = pa.table(
        {"qid": pa.array([], type=pa.string()),
         "nbr": pa.array([], type=pa.string()),
         "dist": pa.array([], type=pa.int64()),
         "neg": pa.array([], type=pa.int64())}
    )

    def partial(batch: pa.Table) -> pa.Table:
        qi, qh = ray.get(q_ref)
        m = batch.num_rows
        if m == 0:
            return empty
        c_ids = batch[id_col].to_numpy(zero_copy_only=False)
        c_hash = batch[sig_col].to_numpy(zero_copy_only=False).view(np.uint64)
        self_pos = pd.Index(c_ids).get_indexer(qi)  # -1 when absent
        out_q, out_n, out_d = [], [], []
        for j in range(len(qi)):
            dist = hamming64(np.full(m, qh[j], dtype=np.uint64), c_hash)
            if self_pos[j] >= 0:
                dist[self_pos[j]] = 65  # self never a neighbor
            order = np.lexsort((c_ids, dist))[: min(k, m)]
            order = order[dist[order] < 65]
            out_q.append(np.full(len(order), qi[j], dtype=object))
            out_n.append(c_ids[order])
            out_d.append(dist[order])
        dists = np.concatenate(out_d) if out_d else np.empty(0, np.int64)
        return pa.table(
            {
                "qid": pa.array(np.concatenate(out_q), type=pa.string()),
                "nbr": pa.array(np.concatenate(out_n), type=pa.string()),
                "dist": pa.array(dists, type=pa.int64()),
                "neg": pa.array(-dists, type=pa.int64()),
            }
        )

    parts = sigs.map_batches(partial, batch_format="pyarrow")
    ranked = topk_per_group(parts, "qid", "neg", k, "nbr").select_columns(
        ["qid", "nbr", "dist", "rank"]
    )
    return qdf, ranked
