"""End-to-end training-data curation pipeline.

The chain a user of this engine runs to turn a raw crawl table into a
training corpus, expressed as streaming Ray Data stages:

  lang whitelist → quality gate (≥20 tokens, ≥1 stopword per 10
  tokens) → token-set near-dedup (min-id election through a narrow
  (set_key, doc_id) shuffle; text never shuffles) → deterministic md5
  split → eval-set decontamination (verbatim w-token windows vs the
  held-out test split) → (doc_id, split, n_tokens) of the retained
  train+valid corpus.

Two entry points: :func:`curate_documents` (one lazy flow, survivor
table materialized once as the natural mid-point) and
:func:`curate_documents_checkpointed` (each stage commits a Parquet
directory + lineage manifest via state/manifest.CheckpointedRun, so a
killed run resumes at the first uncommitted stage — same resume
semantics as pipelines/dedup_images).

Scale shape: both id-set filters (:func:`id_set_filter`, the package's
one semi/anti filter, built on ``stages.joins.lookup``) broadcast below
``CURATION_BROADCAST_LIMIT`` ids and hash-join above it; the dedup
election shuffles only (set_key, doc_id) rows.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd
from ray.data.aggregate import Count, Min

from ..functions.hashing import md5_first_byte_of_int_ids
from ..stages import text as text_ops
from ..stages.decontam import decontaminate
from ..stages.joins import lookup

CURATION_LANGS = ("de", "en", "es", "fr")
# id-set filters broadcast below this many ids (int64 → 160 MB at the
# limit, one ray.put shared zero-copy); above it a hash join takes over
CURATION_BROADCAST_LIMIT = 20_000_000
_HIT = "__hit"  # id_set_filter's marker column


def tokenset_keyed(batch: pa.Table) -> pa.Table:
    """(doc_id, set_key): md5 of the sorted distinct-token set, computed
    over the distinct-TEXT dictionary only — duplicated texts (the dedup
    target) hash once, the per-row step is a gather."""
    denc = batch["text"].combine_chunks().cast(pa.string()).dictionary_encode()
    uniq_keys = np.array(
        [
            hashlib.md5(
                " ".join(sorted({w for w in (t or "").lower().split() if w})).encode()
            ).hexdigest()
            for t in denc.dictionary.to_pylist()
        ],
        dtype=object,
    )
    codes = denc.indices.to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "doc_id": batch["doc_id"],
            "set_key": pa.array(uniq_keys[codes], type=pa.string()),
        }
    )


def id_set_filter(
    ds: rd.Dataset,
    ids_ds: rd.Dataset,
    keep: bool,
    id_col: str = "doc_id",
    limit: int = CURATION_BROADCAST_LIMIT,
) -> rd.Dataset:
    """Semi-join (``keep=True``) or anti-join (``keep=False``) ``ds``
    against the id set in ``ids_ds``: one :func:`stages.joins.lookup` of
    a marker column (broadcast at or below ``limit`` ids, hash join
    above), then a filter on whether the marker came back.  The one
    id filter: ``dedup_images.survivors``, the cascade's tier filters
    and the CLI's cascade survivors call it too."""
    # marked and materialized in one pass: the id pipeline is often
    # expensive (dedup election, decontamination probe) and is read
    # twice (count and lookup); the typed block carries the schema when
    # there are no ids
    marked = (
        ids_ds.select_columns([id_col])
        .map_batches(
            lambda t: t.append_column(_HIT, pa.array(np.ones(t.num_rows, dtype=bool))),
            batch_format="pyarrow",
        )
        .union(
            rd.from_arrow(
                pa.table({id_col: pa.array([]), _HIT: pa.array([], type=pa.bool_())})
            )
        )
        .materialize()
    )
    if keep and marked.count() > limit:
        # the join regime repeats a row once per duplicate id — distinct
        # ids keep SET semantics (the anti filter drops a matched row
        # however often it matches); the count is a non-null marker
        marked = marked.groupby(id_col).aggregate(Count(alias_name=_HIT))
    present = pc.is_valid if keep else pc.is_null
    return lookup(ds, id_col, marked, limit).map_batches(
        lambda t: t.filter(present(t[_HIT])).drop_columns([_HIT]),
        batch_format="pyarrow",
    )


# --------------------------------------------------------------------------
# stages


def gate_stage(docs: rd.Dataset, langs=CURATION_LANGS) -> rd.Dataset:
    """Lang whitelist + quality gate → (doc_id, text, n_tokens)."""

    def gate(batch: pa.Table) -> pa.Table:
        batch = batch.filter(pc.is_in(batch["lang"], value_set=pa.array(list(langs))))
        batch = text_ops.token_count_batch(batch)
        batch = text_ops.stopword_count_batch(batch)
        n_tok = batch["n_tokens"].to_numpy(zero_copy_only=False)
        n_stop = batch["n_stopwords"].to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array((n_tok >= 20) & (n_stop * 10 >= n_tok)))
        return batch.select(["doc_id", "text", "n_tokens"])

    return docs.map_batches(gate, batch_format="pyarrow")


def survivors_stage(gated: rd.Dataset) -> rd.Dataset:
    """Token-set dedup election + md5 split; keeps train+valid rows →
    (doc_id, text, n_tokens, nib)."""
    winners = (
        gated.map_batches(tokenset_keyed, batch_format="pyarrow")
        .groupby("set_key")
        .aggregate(Min("doc_id", alias_name="doc_id"))
        .select_columns(["doc_id"])
    )
    surv = id_set_filter(gated, winners, keep=True)

    def with_split(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nib = (md5_first_byte_of_int_ids(ids) >> 4).astype(np.int64)
        batch = batch.append_column("nib", pa.array(nib, type=pa.int64()))
        return batch.filter(pa.array(nib < 14))

    return surv.map_batches(with_split, batch_format="pyarrow")


def clean_stage(surv: rd.Dataset, docs: rd.Dataset, window: int = 8) -> rd.Dataset:
    """Decontaminate the train split vs the raw test split and project
    the final (doc_id, split, n_tokens) corpus."""

    def test_split(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        nib = (md5_first_byte_of_int_ids(ids) >> 4).astype(np.int64)
        return batch.filter(pa.array(nib >= 14))

    evalset = docs.map_batches(test_split, batch_format="pyarrow")
    contaminated = decontaminate(
        surv.filter(expr="nib < 12"), evalset, window=window
    ).select_columns(["doc_id"])
    clean = id_set_filter(surv, contaminated, keep=False)

    def finish(batch: pa.Table) -> pa.Table:
        nib = batch["nib"].to_numpy(zero_copy_only=False)
        split = np.where(nib < 12, "train", "valid")
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "split": pa.array(split.astype(object), type=pa.string()),
                "n_tokens": batch["n_tokens"],
            }
        )

    return clean.map_batches(finish, batch_format="pyarrow")


def curate_documents(
    docs: rd.Dataset, langs=CURATION_LANGS, window: int = 8
) -> rd.Dataset:
    """The composed pipeline (module docstring).  The survivor table is
    materialized once — both the decontamination probe and the final
    projection consume it, and it is the run's natural checkpoint."""
    gated = gate_stage(docs, langs)
    surv = survivors_stage(gated).materialize()
    return clean_stage(surv, docs, window)


def _curation_config_hash(langs, window: int) -> str:
    return hashlib.md5(repr((tuple(langs), int(window))).encode()).hexdigest()[:16]


def curate_documents_checkpointed(
    docs: rd.Dataset,
    ckpt_dir: str,
    langs=CURATION_LANGS,
    window: int = 8,
    input_fingerprint: str = "",
) -> rd.Dataset:
    """Checkpoint-resumable curation: the ``gated``, ``survivors`` and
    ``clean`` stages each commit a Parquet directory + lineage manifest
    (state/manifest.py); a rerun skips committed stages, so a run
    killed mid-pipeline resumes instead of recomputing — identical
    final output (pinned in tests/test_resume.py)."""
    from ..state.manifest import CheckpointedRun

    run = CheckpointedRun(ckpt_dir, _curation_config_hash(langs, window))
    gated = run.stage("gated", lambda: gate_stage(docs, langs), input_fingerprint)
    surv = run.stage("survivors", lambda: survivors_stage(gated), input_fingerprint)
    clean = run.stage(
        "clean", lambda: clean_stage(surv, docs, window), input_fingerprint
    )
    run.write_metrics()
    return clean
