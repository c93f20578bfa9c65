"""Document near-duplicate dedup: the flagship SimHash pipeline over a
text-only corpus (the reference's own domain — its encoder consumes
document strings, /root/reference/src/Htm/SimHashDocumentEncoder.hsc).

Same architecture as pipelines/dedup_images with a single (text)
signature space: encode (task-based map_batches) → the dedup core
(dedup_images.dedup_signatures: LSH banding → verified edges →
union-find) → (doc_id, cluster_id, is_representative).  Only the
encode step and the space wiring are this module's own; integer and
string doc ids both travel natively.
"""

from __future__ import annotations

import ray.data as rd

from ..config import DEFAULT_CONFIG, DedupConfig
from ..stages.encode import encode_signatures
from ..stages.lsh import TEXT_SPACE
from .dedup_images import BROADCAST_SIG_LIMIT, choose_n_parts, dedup_signatures


def doc_signatures(
    docs: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """The document pipelines' encode step: (id, text) → (id, simhash)."""
    return encode_signatures(
        docs.select_columns([id_col, text_col]), cfg.simhash, text_col=text_col
    ).select_columns([id_col, "simhash"])


def dedup_documents(
    docs: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_sig_limit: int | None = None,
) -> rd.Dataset:
    """(doc_id, cluster_id, is_representative) — near-dup clusters of a
    document table at the pinned SimHash/LSH config.

    Two regimes, equivalent outputs (the core's, like the image
    flagship): below ``broadcast_sig_limit`` the signature table is
    collected once and banded via broadcast Ray tasks; above it the
    fully-distributed stages run — force with
    ``broadcast_sig_limit=0`` (equivalence-tested)."""
    sigs = doc_signatures(docs, cfg, text_col, id_col)
    # materialize before counting: count() would otherwise execute the
    # (dominant) encode stage once for the count and again for the
    # downstream consumer (the dedup core)
    return dedup_documents_from_sigs(
        sigs.materialize(), cfg, id_col=id_col,
        broadcast_sig_limit=broadcast_sig_limit,
    )


def dedup_documents_from_sigs(
    sigs: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    id_col: str = "doc_id",
    broadcast_sig_limit: int | None = None,
) -> rd.Dataset:
    """Everything after the encode stage of :func:`dedup_documents` —
    the dedup core over the text space, ids in their own Arrow type.
    Callers that already hold the (id, simhash) table (e.g. the
    oracle-staging query) enter here so the encode runs once."""
    limit = BROADCAST_SIG_LIMIT if broadcast_sig_limit is None else broadcast_sig_limit
    n = sigs.count()
    schema = sigs.schema()
    return dedup_signatures(
        sigs,
        [(TEXT_SPACE, "simhash", cfg.text_lsh)],
        id_col,
        limit,
        choose_n_parts(n),
        n,
        id_type=dict(zip(schema.names, schema.types))[id_col],
        cfg=cfg,
    ).assignment


def dedup_documents_checkpointed(
    docs: rd.Dataset,
    ckpt_dir: str,
    cfg: DedupConfig = DEFAULT_CONFIG,
    text_col: str = "text",
    id_col: str = "doc_id",
    input_fingerprint: str = "",
) -> rd.Dataset:
    """Checkpoint-resumable document dedup — the text twin of
    dedup_images_checkpointed: the (dominant) encode stage and the
    clustering each commit a Parquet directory + lineage manifest
    (state/manifest.py), so a killed run resumes at the first
    uncommitted stage and a rerun is free.  Kill-and-rerun identity is
    pinned in tests/test_resume.py."""
    _, assignment = dedup_documents_checkpointed_parts(
        docs, ckpt_dir, cfg, text_col=text_col, id_col=id_col,
        input_fingerprint=input_fingerprint,
    )
    return assignment


def dedup_documents_checkpointed_parts(
    docs: rd.Dataset,
    ckpt_dir: str,
    cfg: DedupConfig = DEFAULT_CONFIG,
    text_col: str = "text",
    id_col: str = "doc_id",
    input_fingerprint: str = "",
) -> tuple[rd.Dataset, rd.Dataset]:
    """:func:`dedup_documents_checkpointed` returning BOTH committed
    stages, (signatures, assignment) — callers that must export the
    signature table for a later incremental ingest (the dedup-docs CLI)
    read it from here instead of re-encoding."""
    from ..state.manifest import CheckpointedRun

    run = CheckpointedRun(ckpt_dir, cfg.config_hash())
    sigs = run.stage(
        "doc_signatures",
        lambda: doc_signatures(docs, cfg, text_col, id_col),
        input_fingerprint,
    )
    assignment = run.stage(
        "doc_assignment",
        lambda: dedup_documents_from_sigs(sigs, cfg, id_col=id_col),
        input_fingerprint,
    )
    run.write_metrics()
    return sigs, assignment
