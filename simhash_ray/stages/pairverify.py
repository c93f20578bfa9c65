"""One pair-verify gather for every candidate-pair operator.

Candidate-then-verify (Broder, SEQUENCES'97; Manku et al., WWW'07):
once an operator's (a, b) candidate pairs are generated and deduped
(stages/cluster.dedupe_edges), each pair's two feature rows are brought
together and the operator's own vectorised predicate decides.
:func:`verify_pairs` is the only place that gathers, in one of two
regimes picked by the operator's size rule:

- broadcast: the (id, feat) table is sorted by id and ``ray.put`` once;
  each pair batch gathers both sides with a membership-guarded
  ``searchsorted`` + Arrow ``take``;
- join: two hash joins (a left outer join on ``a``, an inner join on
  ``b``) ship each feature row only to the pairs that reference it (no
  replication of the whole table); the candidate set is materialized
  and counted first, and an empty one returns at once (Ray's hash join
  does not finish on an empty side).

Both regimes share one policy: a pair naming an id that is absent from
the feature table, or whose feature is null, is dropped (inner-join
semantics), and the result keeps the operator's typed ``empty`` schema
when no pair reaches the check.

Features are one Arrow column in one of three formats: fixed-size
binary matrices (:func:`pack_matrix` / :func:`unpack_matrix` —
MinHash, OPH, b-bit and cosine vectors), UTF-8 text (edit distance,
suffix-array spans) or one ``large_binary`` blob of sorted int64
hashes per doc (ssjoin).
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

# large explicit batches: pair streams arrive as many small map_groups
# blocks, and the default ~1k batch size turns millions of candidates
# into thousands of tiny tasks whose per-batch overhead dwarfs the
# gather + predicate (measured 113 s → numpy-bound seconds at 12.9M
# cosine candidates); 256k pairs gather ~200 MB of 100-d vectors
_BATCH_ROWS = 262144


def unpack_matrix(
    col: pa.ChunkedArray | pa.Array, n_words: int, dtype=np.uint64
) -> np.ndarray:
    """Zero-copy (n_rows, n_words) matrix view of a fixed-size-binary
    column — one ``frombuffer`` + reshape over the Arrow data buffer,
    no per-row Python.  Falls back to a per-row parse for
    variable-width binary (legacy tables)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if pa.types.is_fixed_size_binary(col.type):
        flat = np.frombuffer(col.buffers()[1], dtype=dtype)
        start = col.offset * n_words
        return flat[start : start + len(col) * n_words].reshape(len(col), n_words)
    return np.stack([np.frombuffer(s, dtype=dtype) for s in col.to_pylist()])


def pack_matrix(mat: np.ndarray) -> pa.Array:
    """(n_rows, n_words) array → fixed-size-binary column (one buffer
    handoff; rows are little-endian word sequences)."""
    n, n_words = mat.shape
    width = n_words * mat.dtype.itemsize
    data = np.ascontiguousarray(mat)
    return pa.Array.from_buffers(
        pa.binary(width), n, [None, pa.py_buffer(data.tobytes())]
    )


Check = Callable[[np.ndarray, np.ndarray, pa.Array, pa.Array], pa.Table]


def verify_pairs(
    pairs: rd.Dataset,
    feats: rd.Dataset,
    check: Check,
    empty: pa.Table,
    broadcast: bool,
) -> rd.Dataset:
    """Verified pairs: ``check(a, b, fa, fb)`` over every candidate
    (a, b) whose ids both appear in ``feats`` with a non-null feature.

    ``feats`` has two columns, the id first and the feature second
    (names are free); ``a``/``b`` reach ``check`` as numpy arrays and
    ``fa``/``fb`` as row-aligned Arrow arrays of the feature type, with
    string and binary widened to ``large_string``/``large_binary``.
    ``empty`` is the typed result when no pair reaches the check;
    ``broadcast`` is the operator's size rule."""
    # Arrow blocks: the join regime hands them on by reference
    pairs = pairs.map_batches(lambda t: t.select(["a", "b"]), batch_format="pyarrow")
    if broadcast:
        out = _gather_broadcast(pairs, feats, check, empty)
    else:
        pairs = _nonempty_blocks(pairs)
        if pairs is None:
            return rd.from_arrow(empty)
        out = _gather_join(pairs, feats, check, empty)
    # the typed empty block pins the schema when no batch reaches the
    # check (no candidate, or every candidate dropped)
    return out.union(rd.from_arrow(empty))


def join_partitions() -> int:
    """Hash-join width: half the cluster's CPUs, 2 to 64 partitions.
    The aggregators run at 0.5 CPU each, so one join holds at most a
    quarter of the cluster and the map side is not starved."""
    return int(max(2, min(64, ray.cluster_resources().get("CPU", 8) // 2)))


def _usable(t: pa.Table) -> pa.Table:
    """The (id, feat) rows a pair can gather: a null feature counts as
    absent, and string/binary features get 64-bit offsets (a gather or
    join partition past 2 GiB of text overflows 32-bit ones)."""
    if t.column(1).null_count:
        t = t.filter(pc.is_valid(t.column(1)))
    wide = _WIDE.get(t.schema.field(1).type)
    if wide is not None:
        t = t.set_column(1, t.schema.field(1).name, t.column(1).cast(wide))
    return t


_WIDE = {pa.string(): pa.large_string(), pa.binary(): pa.large_binary()}


def _gather_broadcast(
    pairs: rd.Dataset, feats: rd.Dataset, check: Check, empty: pa.Table
) -> rd.Dataset:
    parts = [
        t for t in feats.iter_batches(batch_format="pyarrow", batch_size=65536)
        if t.num_rows
    ]
    if not parts:
        return rd.from_arrow(empty)
    tbl = _usable(pa.concat_tables(parts))
    if tbl.num_rows == 0:
        return rd.from_arrow(empty)
    ids = tbl.column(0).to_numpy()
    order = np.argsort(ids, kind="stable")
    ref = ray.put((ids[order], tbl.column(1).take(order).combine_chunks()))

    def gather(batch: pa.Table) -> pa.Table:
        ids, feat = ray.get(ref)
        a = batch["a"].to_numpy(zero_copy_only=False)
        b = batch["b"].to_numpy(zero_copy_only=False)
        ia = np.searchsorted(ids, a).clip(max=len(ids) - 1)
        ib = np.searchsorted(ids, b).clip(max=len(ids) - 1)
        ok = (ids[ia] == a) & (ids[ib] == b)
        if not ok.all():
            a, b, ia, ib = a[ok], b[ok], ia[ok], ib[ok]
        if len(a) == 0:
            return empty
        return check(a, b, feat.take(ia), feat.take(ib))

    return pairs.map_batches(gather, batch_format="pyarrow", batch_size=_BATCH_ROWS)


def _gather_join(
    pairs: rd.Dataset, feats: rd.Dataset, check: Check, empty: pa.Table
) -> rd.Dataset:
    n_join = join_partitions()
    # aggregators at 0.5 CPU: join aggregator actors must not starve
    # the map side on small clusters (and two joins run back-to-back)
    agg_args = {"num_cpus": 0.5}

    def side(key: str) -> rd.Dataset:
        return feats.map_batches(
            lambda t: _usable(t).rename_columns([key, "f" + key]),
            batch_format="pyarrow",
        )

    # A Ray 2.49 hash join takes each side's schema from that side's
    # first block, and does not finish when a side has no rows.  The
    # first join is a left outer join, so its output keeps every pair
    # (a null fa marks an absent a) and the second join's left side is
    # never empty; the streaming rebatch drops its empty blocks.
    with_a = pairs.join(
        side("a"), join_type="left_outer", num_partitions=n_join, on=("a",),
        aggregator_ray_remote_args=agg_args,
    ).map_batches(lambda t: t, batch_format="pyarrow", batch_size=_BATCH_ROWS)
    joined = with_a.join(
        side("b"), join_type="inner", num_partitions=n_join, on=("b",),
        aggregator_ray_remote_args=agg_args,
    )

    def gather(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["fa"]))
        if batch.num_rows == 0:
            return empty
        return check(
            batch["a"].to_numpy(zero_copy_only=False),
            batch["b"].to_numpy(zero_copy_only=False),
            batch["fa"],
            batch["fb"],
        )

    return joined.map_batches(gather, batch_format="pyarrow", batch_size=_BATCH_ROWS)


def _nonempty_blocks(ds: rd.Dataset) -> rd.Dataset | None:
    """``ds`` materialized with its empty blocks dropped (no copy), or
    None when it has no rows — the join's first block must carry the
    schema, and a join over an empty side does not finish."""
    refs = [
        ref
        for bundle in ds.materialize().iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
    return rd.from_arrow_refs(refs) if refs else None
