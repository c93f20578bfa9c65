"""Exact-signature collapse (dedup fast path + skew shield).

Groups rows with identical signatures (the flagship's ``(simhash,
phash)``; the single signature column of a one-space pipeline) and
elects the minimum id as the group representative.  Two jobs at once:

- the exact-dup short-circuit of SURVEY.md §2.5 ("group identical
  (simhash, phash), keep first");
- the skew shield for LSH: a hot caption repeated in 10% of rows (the
  stressor fixture) collapses to ONE node before banding, so no LSH
  bucket ever sees the hot key's full multiplicity.

Implementation is the same coarse-partition pattern as stages/lsh.py:
one groupby shuffle on a hash partition of the signature pair, then
vectorized run detection inside the partition — no per-group Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import part_of_ints


def _min_id_runs(ids: np.ndarray, keys: list) -> tuple:
    """Sort rows by (*keys, id) and elect each identical-key run's
    minimum id → (order, is_first_of_run, rep id per sorted row)."""
    order = np.lexsort((ids, *reversed(keys)))
    is_first = np.zeros(len(ids), dtype=bool)
    is_first[:1] = True
    for k in keys:
        k = k[order]
        is_first[1:] |= k[1:] != k[:-1]
    ids = ids[order]
    return order, is_first, ids[is_first][np.cumsum(is_first) - 1]


def collapse_exact(
    sig_ds: rd.Dataset,
    n_parts: int = 64,
    id_col: str = "image_id",
    sig_cols: tuple = ("simhash", "phash"),
    id_type: pa.DataType = pa.string(),
) -> rd.Dataset:
    """(id, *sig_cols) → (id, rep_id, *sig_cols, is_rep): rows with
    identical signatures in every ``sig_cols`` column collapse to their
    minimum id (in the id's own order; ids keep Arrow type
    ``id_type``).  Filter ``is_rep`` for the distinct-signature node
    table; the full output is the member→rep mapping."""
    sig_cols = list(sig_cols)

    def add_part(batch: pa.Table) -> pa.Table:
        part = part_of_ints(
            n_parts, *(batch[c].to_numpy(zero_copy_only=False) for c in sig_cols)
        )
        return batch.append_column("part", pa.array(part, type=pa.int32()))

    def collapse_group(group: pa.Table) -> pa.Table:
        ids = np.asarray(group[id_col].to_numpy(zero_copy_only=False))
        sigs = [group[c].to_numpy(zero_copy_only=False) for c in sig_cols]
        order, is_rep, rep = _min_id_runs(ids, sigs)
        return pa.table(
            {
                id_col: pa.array(ids[order], type=id_type),
                "rep_id": pa.array(rep, type=id_type),
                **{
                    c: pa.array(s[order], type=pa.int64())
                    for c, s in zip(sig_cols, sigs)
                },
                "is_rep": pa.array(is_rep),
            }
        )

    return (
        sig_ds.map_batches(add_part, batch_format="pyarrow")
        .repartition(n_parts)  # sort-shuffle map tasks = input blocks
        .groupby("part")
        .map_groups(collapse_group, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# exact byte-payload dedup (the step BEFORE any near-dup pass)


def _bytes_rep_group(group: pa.Table, id_col: str, id_type=None) -> pa.Table:
    """Per-partition min-id election over identical digests: sort by
    (digest code, id), run-detect, broadcast each run's first id.
    The id column keeps its input arrow type (string image ids and
    int64 doc ids both flow through)."""
    dig = group["digest"]
    dig = dig.combine_chunks() if isinstance(dig, pa.ChunkedArray) else dig
    codes = dig.dictionary_encode().indices.to_numpy(zero_copy_only=False)
    ids = np.asarray(group[id_col].to_numpy(zero_copy_only=False), dtype=object)
    order, is_rep, rep = _min_id_runs(ids, [codes])
    id_type = id_type if id_type is not None else group[id_col].type
    return pa.table(
        {
            id_col: pa.array(ids[order], type=id_type),
            "rep_id": pa.array(rep, type=id_type),
            "is_rep": pa.array(is_rep),
        }
    )


def dedup_exact_bytes(
    ds: rd.Dataset,
    id_col: str = "image_id",
    bytes_col: str = "bytes",
    n_parts: int = 64,
    id_type: pa.DataType | None = None,
) -> rd.Dataset:
    """Exact byte-payload dedup: rows with identical ``bytes_col``
    content collapse to the lexicographically smallest id.  Output:
    (id, rep_id, is_rep) — the member→rep mapping; filter ``is_rep``
    for survivors.

    Scale shape: the payload is hashed IN PLACE by a streaming
    ``map_batches`` (sha256 per row — the hash is the hot cost and
    runs in C releasing the GIL; the image bytes themselves never
    enter a shuffle), then only (id, 32-byte digest) rows move through
    one coarse-partition groupby keyed on the digest prefix — the
    narrow-shuffle discipline of the flagship (bytes move zero times,
    signatures once).
    """
    import hashlib

    from .base import map_groups_typed

    def digest(batch: pa.Table) -> pa.Table:
        col = batch[bytes_col]
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
            col = col.cast(pa.large_binary())  # text payloads hash as UTF-8
        if pa.types.is_binary(col.type):
            col = col.cast(pa.large_binary())
        n = len(col)
        # tag-prefix so a null payload gets its own digest group (SQL
        # PARTITION BY groups NULLs together) and no real payload can
        # collide with the sentinel
        out = bytearray(32 * n)
        if col.null_count == 0 and n:
            # hot path: hash zero-copy memoryview slices straight off the
            # Arrow offsets/data buffers — no per-row bytes objects, no
            # tag+payload concat copy (streaming update ≡ concatenation)
            offs = np.frombuffer(
                col.buffers()[1], dtype=np.int64, count=n + 1,
                offset=col.offset * 8,
            )
            data = memoryview(col.buffers()[2])
            for i in range(n):
                h = hashlib.sha256(b"\x01")
                h.update(data[offs[i]:offs[i + 1]])
                out[32 * i:32 * i + 32] = h.digest()
        else:  # null-bearing batches take the simple row path
            for i, b in enumerate(col.to_pylist()):
                out[32 * i:32 * i + 32] = hashlib.sha256(
                    b"\x00" if b is None else b"\x01" + b
                ).digest()
        digs_buf = bytes(out)
        # first 4 digest bytes, big-endian, of each 32-byte digest
        part = (
            np.frombuffer(digs_buf, dtype=">u4").reshape(n, 8)[:, 0] % n_parts
            if n else np.empty(0, dtype=np.uint32)
        ).astype(np.int32)
        dig_offsets = np.arange(0, 32 * (n + 1), 32, dtype=np.int32)
        dig_arr = pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(dig_offsets.tobytes()), pa.py_buffer(digs_buf)],
        )
        return pa.table(
            {
                id_col: batch[id_col],
                "digest": dig_arr,
                "part": pa.array(part),
            }
        )

    id_type = id_type if id_type is not None else pa.string()
    empty = pa.table(
        {
            id_col: pa.array([], type=id_type),
            "rep_id": pa.array([], type=id_type),
            "is_rep": pa.array([], type=pa.bool_()),
        }
    )
    hashed = ds.map_batches(digest, batch_format="pyarrow")
    return map_groups_typed(
        hashed, "part", lambda g: _bytes_rep_group(g, id_col, id_type), empty
    )
