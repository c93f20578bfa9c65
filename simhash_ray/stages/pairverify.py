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
- join: two :func:`stages.joins.hash_join` calls (a left outer join on
  ``a``, an inner join on ``b``) against one stored (id, feat) table
  ship each feature row only to the pairs that reference it (no
  replication of the whole table).  The candidate set is materialized
  and counted first, and an empty one returns at once; the first
  join's output, which then has rows, streams into the second.

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

from .joins import hash_join

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
        out = _gather_join(pairs, feats, check, empty)
    # the typed empty block pins the schema when no batch reaches the
    # check (no candidate, or every candidate dropped)
    return out.union(rd.from_arrow(empty))


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
    # one (id, f) table is the right side of both joins; the pairs
    # side renames its key to "id" instead, so no per-side copy of the
    # features is stored
    feats = feats.map_batches(
        lambda t: _usable(t).rename_columns(["id", "f"]), batch_format="pyarrow"
    ).materialize()
    by_a = pairs.map_batches(
        lambda t: t.rename_columns(["id", "b"]), batch_format="pyarrow"
    ).materialize()
    if by_a.count() == 0:
        return rd.from_arrow(empty)
    # The first join is a left outer join, so its output keeps every
    # pair (a null f marks an absent a) and streams into the second
    # join unstored; the rebatch drops its empty blocks.
    by_b = hash_join(by_a, feats, "id", "left_outer").map_batches(
        lambda t: pa.table({"id": t["b"], "a": t["id"], "fa": t["f"]}),
        batch_format="pyarrow",
        batch_size=_BATCH_ROWS,
    )
    joined = hash_join(by_b, feats, "id", "inner")

    def gather(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_valid(batch["fa"]))
        if batch.num_rows == 0:
            return empty
        return check(
            batch["a"].to_numpy(zero_copy_only=False),
            batch["id"].to_numpy(zero_copy_only=False),
            batch["fa"],
            batch["f"],
        )

    return joined.map_batches(gather, batch_format="pyarrow", batch_size=_BATCH_ROWS)
