"""Benchmark decontamination: flag corpus documents that share a
verbatim w-token window with any document of an evaluation set.

The standard pre-training hygiene step (cf. the n-gram overlap
decontamination in Brown et al., "Language Models are Few-Shot
Learners", NeurIPS 2020 §C, and the contamination audits in PAPERS.md):
before training, every document sharing an n-gram with a held-out
benchmark is flagged/removed so eval numbers stay meaningful.

Semantics (mirrored exactly by queries.SQL_DOC_DECONTAMINATE):
tokenize = lower + whitespace split; a window is w consecutive tokens
(rows shorter than w contribute nothing — same "drop" stance as
stages/substring.py); per document windows are DISTINCT; output is
``(doc_id, n_hits)`` for every corpus doc whose window set intersects
the eval side's global window set, with ``n_hits`` = number of its
distinct windows found there.  Window identity is 64-bit hash identity
(the same probabilistic-collision stance as the substring operator).

Scale design: the eval side is a benchmark — small relative to a
100-TB corpus — so its distinct window hashes are collected once,
``ray.put`` once and probed per batch with one ``np.isin``
(sorted-array membership); the corpus side streams through a single
``map_batches`` with NO shuffle.  Above ``broadcast_limit`` distinct
eval windows the operator switches to a distributed inner hash join on
the window hash followed by a per-doc count — both paths produce
identical output (pinned by tests/test_decontam.py).
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from .joins import hash_join
from .minhash import _shingle_hashes_flat

logger = logging.getLogger(__name__)

_EMPTY_WINDOWS = pa.table({"win": pa.array([], type=pa.int64())})


def _empty_hits(id_type: pa.DataType) -> pa.Table:
    return pa.table(
        {"doc_id": pa.array([], type=id_type),
         "n_hits": pa.array([], type=pa.int64())}
    )


def _empty_doc_windows(id_type: pa.DataType) -> pa.Table:
    return pa.table(
        {"doc_id": pa.array([], type=id_type),
         "win": pa.array([], type=pa.int64())}
    )


def _window_explode(text_col: str, id_col: str, window: int):
    """batch → (doc_id, win) over each row's DISTINCT w-token windows.
    The id column's Arrow type is carried through unchanged (string or
    any integer ids work — round-3 advice item 4)."""

    def fn(batch: pa.Table) -> pa.Table:
        sh, rows, _n = _shingle_hashes_flat(batch[text_col], window, short_rows="drop")
        if len(sh) == 0:
            return _empty_doc_windows(batch[id_col].type)
        return pa.table(
            {
                "doc_id": batch[id_col].take(pa.array(rows)),
                "win": pa.array(sh.view(np.int64), type=pa.int64()),
            }
        )

    return fn


def eval_window_hashes(
    eval_ds: rd.Dataset,
    window: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """Distinct u64 window hashes (as int64 column ``win``) of the eval
    set.  Per-batch dedup happens inside the shingler; the global
    distinct is one groupby on the narrow 8-byte column."""
    exploded = eval_ds.select_columns([id_col, text_col]).map_batches(
        _window_explode(text_col, id_col, window), batch_format="pyarrow"
    )

    def drop_ids(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_WINDOWS
        # per-batch pre-distinct shrinks the shuffle before the global one
        return pa.table(
            {"win": pa.array(np.unique(t["win"].to_numpy(zero_copy_only=False)),
                             type=pa.int64())}
        )

    from ray.data.aggregate import Count

    return (
        exploded.map_batches(drop_ids, batch_format="pyarrow")
        .groupby("win")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["win"])
    )


def decontaminate(
    corpus: rd.Dataset,
    eval_ds: rd.Dataset,
    window: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_limit: int = 50_000_000,
) -> rd.Dataset:
    """(doc_id, n_hits) for corpus docs sharing ≥1 distinct w-token
    window with the eval set (see module docstring for semantics).

    ``broadcast_limit`` bounds the driver-collected eval window count
    for the zero-shuffle probe path (50M hashes = 400 MB, one object
    put, read zero-copy by every probe task); larger eval sides take
    the distributed join path."""
    # materialize: count() and the downstream consumer (iter_batches or
    # the join) would otherwise each execute the explode+distinct plan
    eval_wins = eval_window_hashes(eval_ds, window, text_col, id_col).materialize()
    n_eval = eval_wins.count()
    if n_eval > broadcast_limit:
        logger.info(
            "decontaminate: %d eval windows > broadcast_limit=%d — join path",
            n_eval, broadcast_limit,
        )
        return _decontaminate_join(corpus, eval_wins, window, text_col, id_col)

    wins = np.sort(
        np.concatenate(
            [
                b["win"].to_numpy(zero_copy_only=False)
                for b in eval_wins.iter_batches(batch_format="pyarrow",
                                                batch_size=1 << 20)
            ]
            or [np.empty(0, np.int64)]
        ).astype(np.int64)
    )
    ref = ray.put(wins)

    def probe(batch: pa.Table) -> pa.Table:
        ev = ray.get(ref)
        sh, rows, n = _shingle_hashes_flat(batch[text_col], window,
                                           short_rows="drop")
        if len(sh) == 0 or len(ev) == 0:
            return _empty_hits(batch[id_col].type)
        # ev is pre-sorted + distinct: searchsorted membership is
        # O(B log E) per batch; np.isin would re-sort the 50M-entry
        # array on every batch
        x = sh.view(np.int64)
        pos = np.searchsorted(ev, x).clip(max=len(ev) - 1)
        hit = rows[ev[pos] == x]
        if len(hit) == 0:
            return _empty_hits(batch[id_col].type)
        counts = np.bincount(hit, minlength=n)
        flagged = np.flatnonzero(counts)
        return pa.table(
            {
                "doc_id": batch[id_col].take(pa.array(flagged)),
                "n_hits": pa.array(counts[flagged].astype(np.int64),
                                   type=pa.int64()),
            }
        )

    return corpus.select_columns([id_col, text_col]).map_batches(
        probe, batch_format="pyarrow"
    )


def _decontaminate_join(
    corpus: rd.Dataset,
    eval_wins: rd.Dataset,
    window: int,
    text_col: str,
    id_col: str,
) -> rd.Dataset:
    """Distributed path: explode corpus windows (narrow 16-byte rows),
    inner hash join on the window hash against the distinct eval
    windows, then one count per doc.  Only window hashes and doc ids
    move through the shuffle — never text.

    A Bloom pre-filter (built over the distinct eval windows, bitmap
    sized ~16 bits/window capped at 2^30 bits = 128 MiB) drops
    provably-clean corpus windows BEFORE the join shuffle: on a mostly
    clean corpus this cuts the all-to-all volume from every-window to
    ~(true hits + FPR sliver) with zero effect on the result — Bloom
    has no false negatives, and its false positives are removed by the
    exact join."""
    from ray.data.aggregate import Count

    from .sketch import BloomFilter, bloom_split, build_bloom

    exploded = corpus.select_columns([id_col, text_col]).map_batches(
        _window_explode(text_col, id_col, window), batch_format="pyarrow"
    )
    n_eval = eval_wins.count()
    # skip the prefilter when the capped bitmap would saturate (< 4
    # bits/window → FPR ≳ 0.3): a saturated Bloom passes nearly every
    # window and the build + probes become pure overhead
    if n_eval and (1 << 30) < 4 * n_eval:
        logger.warning(
            "decontaminate: %d eval windows saturate the 2^30-bit Bloom "
            "cap — skipping the prefilter (join runs unfiltered)", n_eval,
        )
        n_eval = 0
    if n_eval:
        m_bits = 1 << min(30, max(16, int(np.ceil(np.log2(16 * n_eval)))))
        bf = build_bloom(eval_wins, "win", m_bits=m_bits, k=7)
        bloom_ref = ray.put((bf.m_bits, bf.k, bf.words))
        # stored: the windows that pass are few (true hits plus a
        # false-positive sliver) and on a clean corpus none, which the
        # join's guard answers without a join only for a stored side
        exploded = bloom_split(exploded, "win", bloom_ref, novel=False).materialize()
    joined = hash_join(exploded, eval_wins, "win", "inner")
    out = joined.groupby("doc_id").aggregate(Count(alias_name="n_hits"))
    return out.select_columns(["doc_id", "n_hits"])
