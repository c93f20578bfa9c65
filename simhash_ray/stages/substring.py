"""Shared-substring duplicate detection (the north rule's
"suffix-array substring" dedup variant, in its scalable windowed form).

Exact suffix arrays over a distributed corpus are impractical; the
standard large-scale equivalent (cf. Lee et al., "Deduplicating
Training Data Makes Language Models Better", ACL 2022 — see PAPERS.md)
detects documents sharing long verbatim token runs via fixed-width
token windows: any common substring of ≥ (2·window−1) tokens is
guaranteed to contribute ≥ window shared windows, so thresholding on
shared-window count lower-bounds shared-substring length.

Pipeline: per-doc DISTINCT w-token windows → explode (window, doc) →
coarse-partition groupby on the window → per-window doc pairs →
second groupby counting distinct shared windows per pair → threshold.
Both shuffles use the vectorized run-detection pattern of stages/lsh.

Boilerplate guard: windows shared by more than ``max_df`` documents
(headers, license blurbs, templates) are EXCLUDED from pair counting —
this is part of the operator's defined semantics (cf. the too-common-
shingle filtering in the dedup literature), mirrored exactly by the
SQL oracle (queries.SQL_DOC_SUBSTRING_PAIRS filters on window document
frequency too), and every exclusion is counted and logged.  Windows at
or below ``max_df`` are counted exactly — no silent truncation.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.hashing import part_of_ints
from ..functions.tokenize import tokens_flat
from .buckets import all_pairs, runs
from .joins import hash_join


# window hashing rides the vectorized flat shingle machinery (one
# token-hash pass + masked rolling fold + lexsort dedupe); rows
# shorter than the window contribute nothing ("drop"), matching the
# SQL oracle's `i <= len(t) - 7` bound.  Window identity is hash
# identity — same probabilistic-collision stance as before, now
# without building per-window Python strings.


def _df_guarded_pairs(
    group: pa.Table, max_df: int, op: str
) -> tuple[np.ndarray, np.ndarray]:
    """(a < b) doc pairs sharing a window, over one window-hash
    partition of (doc, win) rows.  Boilerplate guard: a window's run
    length IS its global df (the groupby partitions by window hash), so
    windows with df > ``max_df`` are dropped exactly here — counted and
    logged, never silent."""
    doc = group["doc"].to_numpy(zero_copy_only=False)
    win = group["win"].to_numpy(zero_copy_only=False)
    order = np.lexsort((doc, win))
    doc, win = doc[order], win[order]
    starts, lengths = runs(win)
    keep = lengths <= max_df
    if not keep.all():
        logging.getLogger(__name__).warning(
            "%s: excluded %d boilerplate windows with df > %d from pair "
            "counting", op, int((~keep).sum()), max_df,
        )
    ai, bi = all_pairs(starts[keep], lengths[keep])
    return doc[ai], doc[bi]  # doc-sorted inside each run


def shared_substring_pairs(
    docs: rd.Dataset,
    window: int = 8,
    min_shared: int = 3,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int = 64,
    max_df: int = 256,
) -> rd.Dataset:
    """(a, b, n_shared) for doc pairs sharing ≥ min_shared distinct
    w-token windows, counting only windows whose document frequency is
    ≤ ``max_df`` (a < b; counts are exact and SQL-oracle-matched under
    that definition — see module docstring's boilerplate guard)."""

    def explode(batch: pa.Table) -> pa.Table:
        from .minhash import _shingle_hashes_flat

        if not pa.types.is_integer(batch[id_col].type):
            raise ValueError(
                f"shared_substring_pairs requires integer {id_col!r} ids "
                f"(got {batch[id_col].type}); map string ids to int64 "
                "first — the pair table and its partition hash are "
                "int-keyed end-to-end"
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sh, rows, _ = _shingle_hashes_flat(
            batch[text_col], window, short_rows="drop"
        )
        wh = sh.view(np.int64)
        return pa.table(
            {
                "doc": pa.array(ids[rows], type=pa.int64()),
                "win": pa.array(wh, type=pa.int64()),
                "part": pa.array(part_of_ints(n_parts, wh), type=pa.int32()),
            }
        )

    def window_pairs(group: pa.Table) -> pa.Table:
        lo, hi = _df_guarded_pairs(group, max_df, "shared_substring_pairs")
        return pa.table(
            {
                "a": pa.array(lo, type=pa.int64()),
                "b": pa.array(hi, type=pa.int64()),
                "part": pa.array(part_of_ints(n_parts, lo, hi), type=pa.int32()),
            }
        )

    def count_pairs(group: pa.Table) -> pa.Table:
        df = (
            group.select(["a", "b"])
            .to_pandas()
            .groupby(["a", "b"], as_index=False)
            .size()
            .rename(columns={"size": "n_shared"})
        )
        df = df[df["n_shared"] >= min_shared]
        df["n_shared"] = df["n_shared"].astype(np.int64)
        return pa.Table.from_pandas(
            df,
            preserve_index=False,
            schema=pa.schema(
                [("a", pa.int64()), ("b", pa.int64()), ("n_shared", pa.int64())]
            ),
        )

    from .base import map_groups_typed

    exploded = docs.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow"
    )
    empty_pairs = pa.table(
        {
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "part": pa.array([], type=pa.int32()),
        }
    )
    empty_counts = pa.table(
        {
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "n_shared": pa.array([], type=pa.int64()),
        }
    )
    pairs = map_groups_typed(exploded, "part", window_pairs, empty_pairs)
    return map_groups_typed(pairs, "part", count_pairs, empty_counts)


# ---------------------------------------------------------------------------
# duplicated-span REMOVAL (the rewrite counterpart of the detector above)
#
# Lee et al. (ACL 2022) don't just drop documents sharing long verbatim
# runs — their ExactSubstr variant CUTS the duplicated span itself and
# keeps exactly one occurrence corpus-wide.  remove_duplicate_spans is
# that operator in the windowed form: every w-token sliding window
# occurring ≥ 2 times anywhere in the corpus (across documents or
# repeated within one) is removed at every occurrence EXCEPT the
# lexicographically first (min (doc_id, pos)); a doc's removed token
# set is the union of its removed windows' [pos, pos+w) intervals and
# the doc is rebuilt from the surviving tokens (single-space joined —
# whitespace is canonicalized, tokens are preserved byte-exact, case
# kept).  Unlike paradedup.paragraph_dedup's disjoint chunks this is
# ALIGNMENT-ROBUST: a shared run is caught at any token offset.
#
# Scale shape (two-pass, exact):
#   pass A  counts window u64 HASHES only — per-block distinct-(h,cnt)
#           combiner partials through one narrow (8+8 B/row) groupby →
#           the candidate set {h : count ≥ 2}.  At web scale the vast
#           majority of windows are unique, so candidates ≪ windows.
#   probe   candidates ship once per node: an exact sorted-u64 array
#           (ray.put, searchsorted membership) below
#           SPAN_CANDIDATE_BROADCAST_LIMIT; above it a fixed-size Bloom
#           bitmap (no false negatives — misses are provably unique;
#           false positives only admit extra strings that pass B then
#           ignores, so semantics stay exact at any corpus size).
#   pass B  re-tokenizes (recompute beats carrying w× strings) and
#           ships window STRINGS for candidate occurrences only; one
#           coarse-partition groupby groups by the exact string —
#           string-groups with count ≥ 2 emit their non-keeper
#           occurrences as (doc, pos) removal rows.  Hash collisions
#           therefore NEVER corrupt output: a unique window riding a
#           colliding hash forms a count-1 string group and is kept.
#   rebuild removal rows fold to per-doc position blobs through one
#           (doc-keyed) groupby, then attach to the docs either by
#           ray.put broadcast (≤ SPAN_REMOVAL_BROADCAST_LIMIT removed
#           docs) or a left-outer Dataset.join; the rewrite is one
#           streaming map_batches (masked flat-token ListArray +
#           binary_join — no per-token Python).


SPAN_CANDIDATE_BROADCAST_LIMIT = 50_000_000  # u64s ≈ 400 MB via ray.put
SPAN_REMOVAL_BROADCAST_LIMIT = 20_000_000  # removed docs in the driver map
_SPAN_BLOOM_BITS = 1 << 30  # 128 MiB bitmap when candidates exceed the limit
_SPAN_BLOOM_K = 7


def _window_occurrences(texts, window: int):
    """Flat view of every w-token sliding-window occurrence of a string
    column: (ft, h, rows, pos, flat_start) with h = u64 rolling-fold
    hash (the pinned shingle constants of stages/minhash), rows = row
    index, pos = 0-based token offset in the row, flat_start = the
    window's first-token index into ``ft.flat``.  Original-case tokens
    (``lower=False``) — the rebuild must preserve them."""
    from .minhash import _ACC_SEED, _MIX

    ft = tokens_flat(texts, lower=False)
    nil = (np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0, np.int32),
           np.empty(0, np.int64))
    if ft.n == 0 or len(ft.flat) < window:
        return (ft,) + nil
    th = pd.util.hash_array(ft.to_object_array())
    acc = np.full(len(th) - window + 1, _ACC_SEED, dtype=np.uint64)
    for j in range(window):
        acc = (acc ^ th[j : j + len(acc)]) * _MIX
    acc ^= acc >> np.uint64(31)
    valid = ft.row_of[: len(acc)] == ft.row_of[window - 1 :]
    start = np.flatnonzero(valid)
    rows = ft.row_of[start]
    row_starts = np.cumsum(ft.counts) - ft.counts
    pos = (start - row_starts[rows]).astype(np.int32)
    return ft, acc[start], rows.astype(np.int64), pos, start.astype(np.int64)


def _sorted_u64_member(sorted_vals: np.ndarray, h: np.ndarray) -> np.ndarray:
    if len(sorted_vals) == 0 or len(h) == 0:
        return np.zeros(len(h), dtype=bool)
    idx = np.searchsorted(sorted_vals, h)
    idx_c = np.minimum(idx, len(sorted_vals) - 1)
    return (idx < len(sorted_vals)) & (sorted_vals[idx_c] == h)


def remove_duplicate_spans(
    docs: rd.Dataset,
    window: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int = 64,
    candidate_limit: int = SPAN_CANDIDATE_BROADCAST_LIMIT,
    removal_limit: int = SPAN_REMOVAL_BROADCAST_LIMIT,
) -> rd.Dataset:
    """Cross-document duplicated-span removal: every w-token window
    occurring ≥ 2 times in the corpus keeps only its lexicographically
    first (doc_id, pos) occurrence; other occurrences' token intervals
    are cut and each doc rebuilt from the survivors.

    Output: (id_col, text, n_kept, n_removed) — one row per input doc;
    text = surviving tokens single-space joined ('' when everything is
    cut or the doc was empty/null).  Exact semantics (string-verified,
    hash only routes — see module notes); oracle-matched end-to-end by
    queries.SQL_DOC_SPAN_DEDUP."""
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    from .base import map_groups_typed

    log = logging.getLogger(__name__)
    narrow = docs.select_columns([id_col, text_col])

    # ---- pass A: candidate hashes (count >= 2), combiner partials ----
    def count_partial(batch: pa.Table) -> pa.Table:
        _, h, _, _, _ = _window_occurrences(batch[text_col], window)
        if len(h) == 0:
            return _span_cnt_empty()
        hs = np.sort(h)
        first = np.ones(len(hs), dtype=bool)
        first[1:] = hs[1:] != hs[:-1]
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, len(hs)))
        hd = hs[starts].view(np.int64)
        return pa.table(
            {
                "h": pa.array(hd, type=pa.int64()),
                "cnt": pa.array(cnt.astype(np.int64)),
                "part": pa.array(part_of_ints(n_parts, hd), type=pa.int32()),
            }
        )

    def fold_counts(group: pa.Table) -> pa.Table:
        h = group["h"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        order = np.argsort(h, kind="stable")
        h, cnt = h[order], cnt[order]
        first = np.ones(len(h), dtype=bool)
        first[1:] = h[1:] != h[:-1]
        total = np.add.reduceat(cnt, np.flatnonzero(first))
        hd = h[first]
        return pa.table({"h": pa.array(hd[total >= 2], type=pa.int64())})

    cand = map_groups_typed(
        narrow.map_batches(count_partial, batch_format="pyarrow"),
        "part",
        fold_counts,
        pa.table({"h": pa.array([], type=pa.int64())}),
    ).materialize()
    n_cand = cand.count()
    if n_cand == 0:
        # nothing duplicated anywhere: rebuild is identity (still
        # re-tokenized so the whitespace canonicalization contract and
        # the output schema hold)
        return _span_rebuild(narrow, None, "none", window, text_col, id_col)

    if n_cand <= candidate_limit:
        cand_arr = np.sort(
            cand.to_pandas()["h"].to_numpy().view(np.uint64)
        )
        probe_ref, probe_mode = ray.put(cand_arr), "exact"
    else:
        from .sketch import build_bloom

        log.warning(
            "remove_duplicate_spans: %d candidate windows exceed the "
            "broadcast limit %d; probing through a %d-bit Bloom filter "
            "(no false negatives — output stays exact, pass B admits "
            "~%.2f%% false-positive extra strings)",
            n_cand,
            candidate_limit,
            _SPAN_BLOOM_BITS,
            100.0 * (1 - np.exp(-_SPAN_BLOOM_K * n_cand / _SPAN_BLOOM_BITS))
            ** _SPAN_BLOOM_K,
        )
        bf = build_bloom(cand, "h", m_bits=_SPAN_BLOOM_BITS, k=_SPAN_BLOOM_K)
        probe_ref, probe_mode = ray.put(bf), "bloom"

    # ---- pass B: string-exact removal rows for candidate occurrences ----
    def cand_occurrences(batch: pa.Table) -> pa.Table:
        ft, h, rows, pos, start = _window_occurrences(batch[text_col], window)
        if len(h) == 0:
            return _span_occ_empty()
        obj = ray.get(probe_ref)
        m = (
            _sorted_u64_member(obj, h)
            if probe_mode == "exact"
            else obj.contains(h.view(np.int64))
        )
        sel = np.flatnonzero(m)
        if len(sel) == 0:
            return _span_occ_empty()
        st = start[sel]
        cols = [ft.flat.take(pa.array(st + j)) for j in range(window)]
        win = (
            pc.binary_join_element_wise(*cols, " ")
            if window > 1
            else cols[0]
        )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        hd = h[sel].view(np.int64)
        return pa.table(
            {
                "win": win,
                "doc": pa.array(ids[rows[sel]], type=pa.int64()),
                "pos": pa.array(pos[sel], type=pa.int32()),
                "part": pa.array(part_of_ints(n_parts, hd), type=pa.int32()),
            }
        )

    def removal_rows(group: pa.Table) -> pa.Table:
        win = group["win"].to_numpy(zero_copy_only=False)
        doc = group["doc"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False)
        codes, _ = pd.factorize(win, sort=False)
        order = np.lexsort((pos, doc, codes))
        c, d, p = codes[order], doc[order], pos[order]
        first = np.ones(len(c), dtype=bool)
        first[1:] = c[1:] != c[:-1]
        starts = np.flatnonzero(first)
        lens = np.diff(np.append(starts, len(c)))
        in_dup = np.repeat(lens >= 2, lens)
        remove = in_dup & ~first
        d, p = d[remove], p[remove]
        return pa.table(
            {
                "doc": pa.array(d, type=pa.int64()),
                "pos": pa.array(p, type=pa.int32()),
                "part": pa.array(part_of_ints(n_parts, d), type=pa.int32()),
            }
        )

    removal = map_groups_typed(
        narrow.map_batches(cand_occurrences, batch_format="pyarrow"),
        "part",
        removal_rows,
        pa.table(
            {
                "doc": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int32()),
                "part": pa.array([], type=pa.int32()),
            }
        ),
    )

    # ---- fold removals to per-doc position blobs ----
    def doc_blobs(group: pa.Table) -> pa.Table:
        doc = group["doc"].to_numpy(zero_copy_only=False)
        pos = group["pos"].to_numpy(zero_copy_only=False)
        order = np.lexsort((pos, doc))
        d, p = doc[order], pos[order].astype("<i4")
        first = np.ones(len(d), dtype=bool)
        first[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(d))
        raw = p.tobytes()
        blobs = [raw[s * 4 : e * 4] for s, e in zip(starts, ends)]
        return pa.table(
            {
                "doc": pa.array(d[starts], type=pa.int64()),
                "rm": pa.array(blobs, type=pa.binary()),
            }
        )

    blob_ds = map_groups_typed(
        removal,
        "part",
        doc_blobs,
        pa.table(
            {
                "doc": pa.array([], type=pa.int64()),
                "rm": pa.array([], type=pa.binary()),
            }
        ),
    ).materialize()
    n_removed_docs = blob_ds.count()

    if n_removed_docs <= removal_limit:
        if n_removed_docs == 0:
            return _span_rebuild(narrow, None, "none", window, text_col, id_col)
        pdf = blob_ds.to_pandas()
        d_ids = pdf["doc"].to_numpy()
        order = np.argsort(d_ids, kind="stable")
        d_ids = d_ids[order]
        blobs = pdf["rm"].to_numpy()[order]
        lens = np.array([len(b) // 4 for b in blobs], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(lens)])
        flat = (
            np.frombuffer(b"".join(blobs), dtype="<i4")
            if len(blobs)
            else np.empty(0, np.int32)
        )
        ref = ray.put((d_ids, offs, flat))
        return _span_rebuild(narrow, ref, "broadcast", window, text_col, id_col)

    log.warning(
        "remove_duplicate_spans: %d docs carry removals (> limit %d); "
        "attaching through a left-outer hash join",
        n_removed_docs,
        removal_limit,
    )
    joined = hash_join(
        narrow, blob_ds.rename_columns({"doc": id_col}), id_col, "left_outer"
    )
    return _span_rebuild(joined, None, "join", window, text_col, id_col)


def _span_cnt_empty() -> pa.Table:
    return pa.table(
        {
            "h": pa.array([], type=pa.int64()),
            "cnt": pa.array([], type=pa.int64()),
            "part": pa.array([], type=pa.int32()),
        }
    )


def _span_occ_empty() -> pa.Table:
    return pa.table(
        {
            "win": pa.array([], type=pa.string()),
            "doc": pa.array([], type=pa.int64()),
            "pos": pa.array([], type=pa.int32()),
            "part": pa.array([], type=pa.int32()),
        }
    )


def _span_rebuild(
    ds: rd.Dataset,
    removals_ref,
    mode: str,
    window: int,
    text_col: str,
    id_col: str,
) -> rd.Dataset:
    """Streaming rewrite: mask removed token intervals out of the flat
    token array, re-offset a ListArray over the survivors, one
    binary_join per batch.  ``mode``: "none" (identity rebuild),
    "broadcast" (removals via ray.put (sorted doc ids, offsets, flat
    positions)), "join" (per-row ``rm`` blob column from a left-outer
    join)."""

    def rebuild(batch: pa.Table) -> pa.Table:
        ft = tokens_flat(batch[text_col], lower=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n = ft.n
        keep = np.ones(len(ft.flat), dtype=bool)
        if n and len(ft.flat):
            row_starts = np.cumsum(ft.counts) - ft.counts
            rm_rows = np.empty(0, np.int64)
            rm_pos = np.empty(0, np.int64)
            if mode == "broadcast":
                d_ids, offs, flat = ray.get(removals_ref)
                idx = np.searchsorted(d_ids, ids)
                idx_c = np.minimum(idx, len(d_ids) - 1)
                hit = (idx < len(d_ids)) & (d_ids[idx_c] == ids)
                hrows = np.flatnonzero(hit)
                if len(hrows):
                    s = offs[idx[hrows]]
                    ln = offs[idx[hrows] + 1] - s
                    total = int(ln.sum())
                    base = np.repeat(s, ln)
                    step = np.arange(total) - np.repeat(
                        np.cumsum(ln) - ln, ln
                    )
                    rm_pos = flat[base + step].astype(np.int64)
                    rm_rows = np.repeat(hrows, ln)
            elif mode == "join":
                rm_col = batch["rm"]
                valid = ~np.asarray(
                    pc.is_null(rm_col).to_numpy(zero_copy_only=False)
                )
                parts_r, parts_p = [], []
                for i in np.flatnonzero(valid):
                    p = np.frombuffer(
                        rm_col[int(i)].as_py(), dtype="<i4"
                    ).astype(np.int64)
                    parts_p.append(p)
                    parts_r.append(np.full(len(p), i, dtype=np.int64))
                if parts_p:
                    rm_pos = np.concatenate(parts_p)
                    rm_rows = np.concatenate(parts_r)
            if len(rm_rows):
                starts = row_starts[rm_rows] + rm_pos
                grid = starts[:, None] + np.arange(window)
                keep[grid.ravel()] = False
        kept_counts = (
            np.bincount(ft.row_of[keep], minlength=n)
            if len(ft.flat)
            else np.zeros(n, dtype=np.int64)
        )
        new_flat = (
            ft.flat.filter(pa.array(keep)) if len(ft.flat) else ft.flat
        )
        offsets = np.concatenate([[0], np.cumsum(kept_counts)]).astype(
            np.int32
        )
        lists = pa.ListArray.from_arrays(pa.array(offsets), new_flat)
        text = pc.binary_join(lists, " ")
        return pa.table(
            {
                id_col: pa.array(ids, type=pa.int64()),
                "text": text.cast(pa.string()),
                "n_kept": pa.array(kept_counts.astype(np.int64)),
                "n_removed": pa.array(
                    (ft.counts - kept_counts).astype(np.int64)
                ),
            }
        )

    return ds.map_batches(rebuild, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# suffix-array substring (the north rule's third named dedup technique,
# alongside MinHash and SimHash): exact maximum-common-substring length
# per near-dup candidate pair, computed with a prefix-doubling suffix
# array + Kasai LCP over the pair's concatenated code points.
#
# Division of labor (candidate-then-verify, like every pair operator
# verified through stages/pairverify): RECALL comes from
# character-window candidates — any shared span of >= min_len chars
# contains an aligned min_len-char window, so the window join finds
# every qualifying pair exactly (df-guarded against boilerplate) —
# and PRECISION/measurement from the per-pair SA kernel, which is
# exact.  Works in Unicode CODE POINTS (UTF-32 views), so lengths
# match SQL substr() semantics byte-for-byte in the oracle.


def suffix_array(s: np.ndarray) -> np.ndarray:
    """Suffix array of an integer sequence via prefix doubling —
    O(n log² n) in numpy lexsorts, no per-suffix Python."""
    n = len(s)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    _, rank = np.unique(np.asarray(s), return_inverse=True)
    rank = rank.astype(np.int64)
    k = 1
    order = np.argsort(rank, kind="stable")
    while rank[order[-1]] != n - 1:
        key2 = np.full(n, -1, dtype=np.int64)
        if k < n:
            key2[: n - k] = rank[k:]
        order = np.lexsort((key2, rank))
        new = np.ones(n, dtype=bool)
        new[1:] = (rank[order][1:] != rank[order][:-1]) | (
            key2[order][1:] != key2[order][:-1]
        )
        new_rank = np.empty(n, dtype=np.int64)
        new_rank[order] = np.cumsum(new) - 1
        rank = new_rank
        k <<= 1
    return order.astype(np.int64)


def lcp_kasai(s: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """LCP array (lcp[i] = LCP(suffix sa[i-1], suffix sa[i]); lcp[0]=0)
    via Kasai's O(n) recurrence.  The inner extension loop is Python,
    but total extensions are bounded by 2n and the kernel runs on
    PAIR-sized inputs (two docs), never the corpus."""
    n = len(sa)
    s = np.asarray(s)
    rank = np.empty(n, dtype=np.int64)
    rank[sa] = np.arange(n)
    lcp = np.zeros(n, dtype=np.int64)
    h = 0
    for i in range(n):
        r = rank[i]
        if r > 0:
            j = sa[r - 1]
            m = min(n - i, n - j)
            while h < m and s[i + h] == s[j + h]:
                h += 1
            lcp[r] = h
            if h:
                h -= 1
        else:
            h = 0
    return lcp


def _codepoints(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32).astype(
        np.int64
    )


def max_common_substring_chars(a: str, b: str) -> int:
    """Exact length (in code points) of the longest common substring of
    two strings: SA + LCP over ``a ⊕ sep ⊕ b`` with a sentinel no code
    point can equal; the answer is the max LCP between SA-adjacent
    suffixes owned by different sides (the classic SA LCS reduction)."""
    ca, cb = _codepoints(a), _codepoints(b)
    if len(ca) == 0 or len(cb) == 0:
        return 0
    s = np.concatenate([ca, np.array([-1], dtype=np.int64), cb])
    sa = suffix_array(s)
    lcp = lcp_kasai(s, sa)
    owner = sa > len(ca)  # True = suffix starts inside b (sep is side a)
    cross = owner[1:] != owner[:-1]
    if not cross.any():
        return 0
    return int(lcp[1:][cross].max())


_CHAR_WINDOW_BASE = 1099511628211  # FNV-1a 64-bit prime


def _char_window_hashes(
    texts: pa.ChunkedArray | pa.Array, min_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (row, hash) pairs over every ``min_len``-code-point
    window of a string column, hash = Σ_j cp[i+j]·B^j mod 2^64.

    One flat pass over the batch's concatenated code points: the
    polynomial accumulates over the ``min_len`` offsets and windows
    crossing a row boundary are masked out (``_window_occurrences``'s
    scheme), so memory stays O(text) — ~30 B per character — instead of
    an O(text × min_len) window matrix.  Null and short rows yield
    nothing.  Returns (rows, hashes), sorted by hash."""
    strs = ["" if t is None else t for t in texts.to_pylist()]
    lens = np.fromiter(map(len, strs), dtype=np.int64, count=len(strs))
    cp = np.frombuffer("".join(strs).encode("utf-32-le"), dtype=np.uint32)
    del strs
    m = len(cp) - min_len + 1
    if m <= 0:
        return np.empty(0, np.int64), np.empty(0, np.uint64)
    row_of = np.repeat(np.arange(len(lens), dtype=np.int32), lens)
    valid = row_of[:m] == row_of[min_len - 1 :]
    # powers B^j wrap mod 2^64 in Python ints: no numpy overflow warning
    pw = np.array(
        [pow(_CHAR_WINDOW_BASE, j, 1 << 64) for j in range(min_len)],
        dtype=np.uint64,
    )
    h = np.zeros(m, dtype=np.uint64)
    term = np.empty(m, dtype=np.uint64)
    for j in range(min_len):
        np.multiply(cp[j : j + m], pw[j], out=term)
        h += term
    del cp, term
    h = h[valid]
    rows = row_of[:m][valid]
    del row_of, valid
    # a stable sort by hash keeps rows ascending within equal hashes,
    # so equal (row, hash) pairs end up adjacent
    order = np.argsort(h, kind="stable")
    h = h[order]
    rows = rows[order]
    del order
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (h[1:] != h[:-1]) | (rows[1:] != rows[:-1])
    return rows[keep].astype(np.int64), h[keep]


def sa_max_span_pairs(
    docs: rd.Dataset,
    min_len: int = 24,
    text_col: str = "text",
    id_col: str = "doc_id",
    n_parts: int = 64,
    max_df: int = 256,
    broadcast_limit: int = 2_000_000,
) -> rd.Dataset:
    """(a, b, max_span_len) for document pairs sharing a character
    span of ≥ ``min_len`` code points, with the EXACT maximum shared
    length per pair.

    Scale shape: one (doc, window-hash) explode + one df-guarded
    window groupby produce the exact candidate pair set (a shared
    span of length s ≥ min_len contains ⌈s−min_len+1⌉ aligned windows
    — pigeonhole recall 1.0; windows with df > ``max_df`` are
    boilerplate-excluded, loudly); texts attach through
    stages/pairverify (``ray.put`` broadcast up to ``broadcast_limit``
    docs, two hash joins above); the per-pair SA kernel verifies and
    measures.  Candidates ≪ corpus by construction."""
    from .base import map_groups_typed
    from .cluster import dedupe_edges
    from .pairverify import verify_pairs

    def explode(batch: pa.Table) -> pa.Table:
        if not pa.types.is_integer(batch[id_col].type):
            raise ValueError(
                f"sa_max_span_pairs requires integer {id_col!r} ids"
            )
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids) and (ids.min() < 0 or ids.max() >= 1 << 32):
            raise ValueError(
                "sa_max_span_pairs: ids must fit uint32 for the pair "
                f"packing (got range [{ids.min()}, {ids.max()}])"
            )
        rows, win = _char_window_hashes(batch[text_col], min_len)
        win = win.view(np.int64)
        return pa.table(
            {
                "doc": pa.array(ids[rows], type=pa.int64()),
                "win": pa.array(win, type=pa.int64()),
                "part": pa.array(part_of_ints(n_parts, win), type=pa.int32()),
            }
        )

    _PAIRS_EMPTY = pa.table(
        {"a": pa.array([], type=pa.int64()), "b": pa.array([], type=pa.int64())}
    )

    def window_pairs(group: pa.Table) -> pa.Table:
        lo, hi = _df_guarded_pairs(group, max_df, "sa_max_span_pairs")
        packed = np.unique(
            lo.astype(np.uint64) << np.uint64(32) | hi.astype(np.uint64)
        )
        a = (packed >> np.uint64(32)).astype(np.int64)
        b = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64)
        return pa.table(
            {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64())}
        )

    narrow = docs.select_columns([id_col, text_col])
    cands = dedupe_edges(
        map_groups_typed(
            narrow.map_batches(explode, batch_format="pyarrow"),
            "part", window_pairs, _PAIRS_EMPTY,
        ),
        n_parts, pa.int64(),
    )

    _OUT_EMPTY = pa.table(
        {
            "a": pa.array([], type=pa.int64()),
            "b": pa.array([], type=pa.int64()),
            "max_span_len": pa.array([], type=pa.int64()),
        }
    )

    def check(a, b, fa, fb) -> pa.Table:
        ta = fa.to_numpy(zero_copy_only=False)
        tb = fb.to_numpy(zero_copy_only=False)
        spans = np.empty(len(a), dtype=np.int64)
        for i in range(len(a)):  # candidates ≪ corpus; SA is per PAIR
            spans[i] = max_common_substring_chars(ta[i], tb[i])
        keep = spans >= min_len
        return pa.table(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(b[keep], type=pa.int64()),
                "max_span_len": pa.array(spans[keep], type=pa.int64()),
            }
        )

    # texts attach through stages/pairverify: broadcast up to
    # broadcast_limit docs, two hash joins above (forced with
    # broadcast_limit=0 in tests — equivalence-pinned)
    return verify_pairs(
        cands, narrow, check, _OUT_EMPTY, narrow.count() <= broadcast_limit
    )
