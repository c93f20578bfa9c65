"""Exact set-similarity self-join at scale via PREFIX FILTERING.

``prefix_jaccard_pairs`` computes EXACTLY the pairs with token-set
Jaccard ≥ θ (same output contract as
``minhash.all_pairs_jaccard(use_token_sets=True)``: (a, b, inter, uni)
with the integer-rational threshold) — but with SSJoin/PPJoin-family
candidate generation (Chaudhuri et al. ICDE'06, Xiao et al. WWW'08 —
public algorithms, re-derived here) instead of the all-pairs broadcast
matrix, closing the "scalable exact candidates would be a prefix-filter
inverted index" delegation documented on the all-pairs operator.

The filter: order every doc's distinct tokens by GLOBAL RARITY
(ascending document frequency, ties by token hash — one canonical
total order).  For Jaccard ≥ t = num/den, a partner's size satisfies
``t·|x| ≤ |y| ≤ |x|/t`` and the overlap satisfies ``|x∩y| ≥ ⌈t·|x|⌉``;
hence if NONE of the first ``p(x) = |x| − ⌈t·|x|⌉ + 1`` tokens of x
(its *prefix*) were shared, all ≥ ⌈t·|x|⌉ common tokens would have to
sit in the remaining ``⌈t·|x|⌉ − 1`` positions — impossible.  The same
holds symmetrically for y, and because both prefixes are prefixes of
one global order, the pair meets in the inverted index on at least one
common prefix token (the smallest common token is within both
prefixes: fewer than p(x) tokens of x and p(y) of y precede it on
either side, else the counting above fails).  So indexing ONLY prefix
tokens loses nothing: recall is exactly 1 — pinned by equality tests
against the brute-force engine, including adversarial boundary pairs.

Distributed shape (narrow rows only, no dense matrix):
1. one tokenize pass → distinct (doc, tok-hash) rows + per-doc size;
2. one token groupby → document frequencies;
3. one token-keyed Dataset.join attaches df to each (doc, tok) row;
4. one doc-hash groupby sorts each doc's tokens by (df, hash) and
   emits its prefix rows — ``|prefix| = n − ⌈t·n⌉ + 1`` per doc;
5. one token-hash groupby pairs docs within each prefix-token bucket
   (size filter ``num·max ≤ den·min`` applied inside), exact triu —
   rarity ordering keeps buckets small; a bucket above ``run_cap``
   raises with the standing advice: collapse exact duplicates first
   (stages/collapse), since identical-set classes defeat EVERY exact
   pair enumerator;
6. the pair reduce (stages/cluster.dedupe_edges);
7. exact verify through stages/pairverify — intersection sizes
   computed by a fully vectorized sorted-merge over the pairs' flat
   token-hash sets, each doc's set one blob of sorted int64 hashes
   (~8 B/token, far lighter than the all-pairs binary matrix), gathered
   from a ``ray.put`` broadcast or, above ``broadcast_limit`` total
   tokens, by two doc-keyed hash joins.

Token hashing matches ``all_pairs_jaccard`` exactly
(``pd.util.hash_array`` on the token object array), so outputs are
comparable row-for-row.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..functions.hashing import part_of_ints
from ..functions.tokenize import tokens_flat
from .base import map_groups_typed
from .buckets import all_pairs, runs
from .cluster import dedupe_edges
from .joins import hash_join
from .pairverify import verify_pairs

_EMPTY_DT = pa.table(
    {
        "doc": pa.array([], type=pa.int64()),
        "th": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
    }
)
_EMPTY_PREFIX = pa.table(
    {
        "th": pa.array([], type=pa.int64()),
        "doc": pa.array([], type=pa.int64()),
        "n": pa.array([], type=pa.int64()),
        "part": pa.array([], type=pa.int32()),
    }
)
_EMPTY_PAIRS = pa.table(
    {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
)
_EMPTY_OUT = pa.table(
    {
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
        "inter": pa.array([], type=pa.int64()),
        "uni": pa.array([], type=pa.int64()),
    }
)


def _ceil_mul(n: np.ndarray | int, num: int, den: int):
    """ceil(n · num / den) in exact integer arithmetic."""
    return (n * num + den - 1) // den


def _doc_token_hashes(
    batch: pa.Table, text_col: str, id_col: str, shingle_k: int | None = None
) -> pa.Table:
    """(doc, th, n) distinct element-hash rows, n = the doc's set size.

    ``shingle_k=None``: elements are tokens (hash identical to
    all_pairs_jaccard's token-set mode).  ``shingle_k=k``: elements are
    word k-gram shingles (the same u64 shingle hashes as the MinHash
    encoder and all_pairs_jaccard's default measure) — the setting
    where prefix filtering actually bites on web text: the shingle
    universe is combinatorially large and Zipf-shaped, so
    document-frequency-ordered prefixes are genuinely rare.  A tiny
    uniform vocabulary (every token df ≈ n·len/|V|) degenerates prefix
    selectivity toward all-pairs — a known property of the filter, and
    the reason the unigram mode is for validation-scale corpora."""
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    if shingle_k is not None:
        from .minhash import _shingle_hashes

        sets = _shingle_hashes(batch[text_col], shingle_k)
        rows_l, th_l = [], []
        for r, s in enumerate(sets):
            if len(s):
                u = np.unique(s)
                rows_l.append(np.full(len(u), r, dtype=np.int64))
                th_l.append(u.view(np.int64))
        if not rows_l:
            return _EMPTY_DT
        rows = np.concatenate(rows_l)
        uth = np.concatenate(th_l)
        n_per_row = np.bincount(rows, minlength=len(ids)).astype(np.int64)
        return pa.table(
            {
                "doc": pa.array(ids[rows], type=pa.int64()),
                "th": pa.array(uth, type=pa.int64()),
                "n": pa.array(n_per_row[rows], type=pa.int64()),
            }
        )
    ft = tokens_flat(batch[text_col])
    if len(ft.flat) == 0:
        return _EMPTY_DT
    th = pd.util.hash_array(ft.to_object_array()).view(np.int64)
    pairs = np.stack([ft.row_of, th], axis=1)
    uniq = np.unique(pairs, axis=0)
    rows, uth = uniq[:, 0], uniq[:, 1]
    n_per_row = np.bincount(rows, minlength=len(ids)).astype(np.int64)
    return pa.table(
        {
            "doc": pa.array(ids[rows], type=pa.int64()),
            "th": pa.array(uth, type=pa.int64()),
            "n": pa.array(n_per_row[rows], type=pa.int64()),
        }
    )


def _merge_intersections(
    pair_of_a: np.ndarray, ths_a: np.ndarray, pair_of_b: np.ndarray, ths_b: np.ndarray,
    n_pairs: int,
) -> np.ndarray:
    """inter[i] = |set_a(i) ∩ set_b(i)| via one lexsort over the tagged
    union — within a pair each side's hashes are distinct, so every
    adjacent-equal (pair, th) run is exactly one cross-side match."""
    pair = np.concatenate([pair_of_a, pair_of_b])
    th = np.concatenate([ths_a, ths_b])
    order = np.lexsort((th, pair))
    pair, th = pair[order], th[order]
    dup = np.zeros(len(pair), dtype=bool)
    if len(pair) > 1:
        dup[1:] = (pair[1:] == pair[:-1]) & (th[1:] == th[:-1])
    return np.bincount(pair[dup], minlength=n_pairs).astype(np.int64)


def prefix_jaccard_pairs(
    docs: rd.Dataset,
    theta_num: int,
    theta_den: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int = 64,
    run_cap: int = 100_000,
    broadcast_limit: int = 50_000_000,
    shingle_k: int | None = None,
) -> rd.Dataset:
    """(a, b, inter, uni) pairs with token-set (or, with ``shingle_k``,
    shingle-set) Jaccard ≥ theta_num/theta_den — exact, via prefix
    filtering (module doc; shingle mode is the scale setting)."""
    if not 0 < theta_num <= theta_den:
        raise ValueError(f"theta must be in (0, 1], got {theta_num}/{theta_den}")

    dt = (
        docs.select_columns([id_col, text_col])
        .map_batches(
            lambda t: _doc_token_hashes(t, text_col, id_col, shingle_k),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def df_part(batch: pa.Table) -> pa.Table:
        u, c = np.unique(
            batch["th"].to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {"th": pa.array(u, type=pa.int64()),
             "df": pa.array(c.astype(np.int64), type=pa.int64())}
        )

    n_tokens = dt.count()
    broadcast_regime = n_tokens <= broadcast_limit

    def _prefix_kernel(
        doc: np.ndarray, th: np.ndarray, n: np.ndarray, dfv: np.ndarray
    ) -> pa.Table:
        order = np.lexsort((th, dfv, doc))  # canonical (df, hash) per doc
        doc, th, n = doc[order], th[order], n[order]
        new_run = np.ones(len(doc), dtype=bool)
        new_run[1:] = doc[1:] != doc[:-1]
        run_start = np.maximum.accumulate(
            np.where(new_run, np.arange(len(doc)), 0)
        )
        rank = np.arange(len(doc)) - run_start
        p = n - _ceil_mul(n, theta_num, theta_den) + 1
        keep = rank < p
        return pa.table(
            {
                "th": pa.array(th[keep], type=pa.int64()),
                "doc": pa.array(doc[keep], type=pa.int64()),
                "n": pa.array(n[keep], type=pa.int64()),
                "part": pa.array(
                    part_of_ints(n_parts, th[keep]), type=pa.int32()
                ),
            }
        )

    # _doc_token_hashes emits each doc's rows CONTIGUOUSLY within its
    # block (np.unique sorts by (row, th); a Ray block split can only
    # ADD prefix rows — part-local rank ≤ global rank — which the
    # verify discards), so in the broadcast regime prefixes compute per
    # BLOCK with a searchsorted df attach — no token join, no
    # doc-keyed shuffle — and the df fold itself happens driver-side
    # from the per-block partials (bounded by the same envelope as the
    # df broadcast: ≤ n_tokens rows; the 2.7M-group Ray groupby this
    # replaces alone cost 30 of the pre-fix 43 s).  Above the limit the
    # groupby + join + doc-hash-groupby path preserves correctness.
    if broadcast_regime:
        th_parts, df_parts = [], []
        for b in dt.map_batches(df_part, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=1 << 20
        ):
            th_parts.append(b["th"].to_numpy(zero_copy_only=False))
            df_parts.append(b["df"].to_numpy(zero_copy_only=False))
        th_all = np.concatenate(th_parts) if th_parts else np.empty(0, np.int64)
        df_all = np.concatenate(df_parts) if df_parts else np.empty(0, np.int64)
        ths_sorted, inv = np.unique(th_all, return_inverse=True)
        dfs = np.bincount(inv, weights=df_all).astype(np.int64)
        dref = ray.put((ths_sorted, dfs))

        def prefix_block(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return _EMPTY_PREFIX
            ths_sorted, dfs = ray.get(dref)
            doc = batch["doc"].to_numpy(zero_copy_only=False)
            th = batch["th"].to_numpy(zero_copy_only=False)
            n = batch["n"].to_numpy(zero_copy_only=False)
            dfv = dfs[np.searchsorted(ths_sorted, th)]
            return _prefix_kernel(doc, th, n, dfv)

        prefixes = dt.map_batches(prefix_block, batch_format="pyarrow")
    else:
        df = (
            dt.map_batches(df_part, batch_format="pyarrow")
            .groupby("th")
            .aggregate(Sum("df", alias_name="df"))
            .materialize()
        )
        joined = hash_join(dt, df, "th", "inner")

        def tag_doc_part(batch: pa.Table) -> pa.Table:
            d = batch["doc"].to_numpy(zero_copy_only=False)
            return batch.append_column(
                "part", pa.array(part_of_ints(n_parts, d), type=pa.int32())
            )

        keyed = joined.map_batches(tag_doc_part, batch_format="pyarrow")

        def prefix_rows(group: pa.Table) -> pa.Table:
            if group.num_rows == 0:
                return _EMPTY_PREFIX
            return _prefix_kernel(
                group["doc"].to_numpy(zero_copy_only=False),
                group["th"].to_numpy(zero_copy_only=False),
                group["n"].to_numpy(zero_copy_only=False),
                group["df"].to_numpy(zero_copy_only=False),
            )

        prefixes = map_groups_typed(keyed, "part", prefix_rows, _EMPTY_PREFIX)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return _EMPTY_PAIRS
        th = group["th"].to_numpy(zero_copy_only=False)
        doc = group["doc"].to_numpy(zero_copy_only=False)
        n = group["n"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, th))
        th, doc, n = th[order], doc[order], n[order]
        starts, lengths = runs(th)
        if len(lengths) and lengths.max() > run_cap:
            raise ValueError(
                f"prefix_jaccard_pairs: a prefix-token bucket has "
                f"{lengths.max()} members (> run_cap={run_cap}) — exact "
                "pair enumeration over an identical-set class this large "
                "is quadratic by nature; collapse exact duplicates first "
                "(stages/collapse) or raise run_cap knowingly"
            )
        ai, bi = all_pairs(starts, lengths)
        if len(ai) == 0:
            return _EMPTY_PAIRS
        na, nb = n[ai], n[bi]
        # size filter: J ≥ t forces num·max(|x|,|y|) ≤ den·min(|x|,|y|)
        ok = theta_num * np.maximum(na, nb) <= theta_den * np.minimum(na, nb)
        a, b = doc[ai[ok]], doc[bi[ok]]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {"a": pa.array(lo, type=pa.int64()), "b": pa.array(hi, type=pa.int64())}
        )

    raw_pairs = map_groups_typed(prefixes, "part", bucket_pairs, _EMPTY_PAIRS)
    pairs = dedupe_edges(raw_pairs, n_parts, pa.int64())

    # per-doc sets as one blob each: built on the driver from the
    # broadcast-sized token table, by one doc-keyed groupby above it
    if broadcast_regime:
        tbl = pa.concat_tables(
            [_EMPTY_DT, *dt.iter_batches(batch_format="pyarrow", batch_size=1 << 20)]
        )
        sets = rd.from_arrow(_set_blobs(tbl))
    else:
        keyed = dt.map_batches(
            lambda t: t.append_column(
                "part",
                pa.array(
                    part_of_ints(64, t["doc"].to_numpy(zero_copy_only=False)),
                    type=pa.int32(),
                ),
            ),
            batch_format="pyarrow",
        )
        sets = map_groups_typed(keyed, "part", _set_blobs, _set_blobs(_EMPTY_DT))

    def check(a, b, fa, fb) -> pa.Table:
        pa_of, tha, na = _blob_sets(fa)
        pb_of, thb, nb = _blob_sets(fb)
        inter = _merge_intersections(pa_of, tha, pb_of, thb, len(a))
        uni = na + nb - inter
        keep = (uni > 0) & (inter * theta_den >= theta_num * uni)
        return pa.table(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(b[keep], type=pa.int64()),
                "inter": pa.array(inter[keep], type=pa.int64()),
                "uni": pa.array(uni[keep], type=pa.int64()),
            }
        )

    return verify_pairs(pairs, sets, check, _EMPTY_OUT, broadcast_regime)


def _set_blobs(t: pa.Table) -> pa.Table:
    """(doc, ths) with one ``large_binary`` blob of SORTED int64 hashes
    per doc (acero joins reject list-typed payload columns); the blobs
    share one data buffer, no per-doc Python."""
    d = t["doc"].to_numpy(zero_copy_only=False)
    h = t["th"].to_numpy(zero_copy_only=False)
    order = np.lexsort((h, d))
    d, h = d[order], np.ascontiguousarray(h[order], dtype=np.int64)
    uids, starts = np.unique(d, return_index=True)
    offs = np.append(starts, len(d)).astype(np.int64) * 8
    blobs = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(uids), [None, pa.py_buffer(offs), pa.py_buffer(h)]
    )
    return pa.table({"doc": pa.array(uids, type=pa.int64()), "ths": blobs})


def _blob_sets(
    col: pa.ChunkedArray | pa.Array,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row_of, flat hashes, sizes) of a column of :func:`_set_blobs`
    blobs — read straight off the offsets and data buffers."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    offs = np.frombuffer(col.buffers()[1], dtype=np.int64)
    offs = offs[col.offset : col.offset + len(col) + 1]
    sizes = np.diff(offs) // 8
    n_vals = int(offs[-1] - offs[0]) // 8
    vals = (
        np.frombuffer(col.buffers()[2], dtype=np.int64, count=n_vals,
                      offset=int(offs[0]))
        if n_vals else np.empty(0, dtype=np.int64)
    )
    return np.repeat(np.arange(len(col)), sizes), vals, sizes
