"""Tiered cascade dedup: exact bytes → phash LSH → caption SimHash.

The web-scale cost-discipline pattern the flagship's joint two-space
pass deliberately does NOT express: run the CHEAPEST dedup tier first
and let every later (more expensive) tier see only the survivors of
the previous one.  At 10^12 rows the exact-bytes tier typically drops
10-30% of the corpus for the price of one streaming sha256 pass and a
digest-only shuffle, so the LSH band expansion — the widest shuffle in
the pipeline — runs over a strictly smaller signature table, and the
caption tier smaller still.

Semantics (differ from the flagship's joint clustering on purpose):
each tier clusters ONLY within its own space over its own input set,
elects the min-id member as keeper, and drops the rest.  A row's
``tier`` records where IT was dropped; its final ``cluster_id`` is the
ultimate surviving keeper, found by chasing the (strictly
id-decreasing, hence acyclic) member→keeper chain across tiers.

Reference parity: the per-tier machinery is the flagship's
(stages/collapse, stages/lsh, stages/cluster — see
pipelines/dedup_images.py for the Haskell reference citations); this
module only adds the tier composition.

Shuffle inventory (scale notes):
  1. exact tier        — sha256 in place; (id, 32 B digest) rows shuffle
                         once; image bytes move ZERO times.
  2. per sig tier      — the dedup core (dedup_images.dedup_signatures)
                         over the PRUNED survivor set: shuffle-free
                         broadcast banding up to BROADCAST_SIG_LIMIT
                         rows, collapse + band groupby above it.
  3. survivor filter   — curate.id_set_filter's anti-join: broadcast
                         of the dropped-id set when small (the typical
                         case: dups ≪ corpus), hash join otherwise.
  4. composition       — keeper maps attach by stages.joins.lookup and
                         move only (member, keeper) pairs of DROPPED
                         rows: bounded by the dup count, never the
                         corpus size.

The caller owns ``ray.init`` (driver contract, __ray_entry__.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..config import DEFAULT_CONFIG, DedupConfig
from ..stages.cluster import label_or_self
from ..stages.collapse import dedup_exact_bytes
from ..stages.joins import lookup
from ..stages.lsh import IMAGE_SPACE, TEXT_SPACE
from .dedup_images import (
    BROADCAST_LIMIT,
    BROADCAST_SIG_LIMIT,
    dedup_signatures,
    signatures,
)
from .curate import id_set_filter

# tier name → (LSH space tag, signature column, cfg attribute)
SIG_TIERS = {
    "phash": (IMAGE_SPACE, "phash", "image_lsh"),
    "caption": (TEXT_SPACE, "simhash", "text_lsh"),
}
DEFAULT_TIERS = ("exact", "phash", "caption")


@dataclass
class CascadeResult:
    # (image_id, cluster_id, tier) for EVERY input row; tier ∈
    # {"exact", "phash", "caption", "survivor"}
    assignment: rd.Dataset
    # per-tier member→keeper maps, in tier order (materialized)
    tier_maps: list = field(default_factory=list)  # [(tier, Dataset), ...]
    # rows dropped at each tier (same order)
    tier_drops: dict = field(default_factory=dict)
    # the signature table the sig tiers ran over (None if no sig tier
    # ran); covers tier-input survivors at the time of the first sig
    # tier — oracle staging reuses it
    signatures: rd.Dataset | None = None


def _remap_keeper(
    m: rd.Dataset, f: rd.Dataset, limit: int, id_col: str = "image_id"
) -> rd.Dataset:
    """Rewrite ``m.keeper_id`` through the later-tier map ``f``: a
    keeper that was itself dropped later resolves to ITS final keeper
    (chains are id-decreasing, so one pass per tier suffices)."""
    final = f.select_columns([id_col, "keeper_id"]).rename_columns(
        {id_col: "keeper_id", "keeper_id": "final_keeper"}
    )

    def finish(batch: pa.Table) -> pa.Table:
        keeper = batch["keeper_id"]
        return pa.table(
            {
                id_col: batch[id_col],
                "keeper_id": label_or_self(
                    batch["final_keeper"], keeper, keeper.type
                ),
                "tier": batch["tier"],
            }
        )

    return lookup(m, "keeper_id", final, limit).map_batches(
        finish, batch_format="pyarrow"
    )


def _attach_final(
    ids: rd.Dataset, f: rd.Dataset | None, limit: int, id_col: str = "image_id"
) -> rd.Dataset:
    """(id) × composed map → (id, cluster_id, tier); unmatched rows
    are their own cluster with tier='survivor'."""

    def finish(batch: pa.Table) -> pa.Table:
        sid = batch[id_col]
        if f is None:
            return pa.table(
                {
                    id_col: sid,
                    "cluster_id": sid,
                    "tier": pa.array(["survivor"] * len(sid), type=pa.string()),
                }
            )
        return pa.table(
            {
                id_col: sid,
                "cluster_id": label_or_self(batch["keeper_id"], sid, sid.type),
                "tier": pc.coalesce(
                    batch["tier"].cast(pa.string()), pa.scalar("survivor")
                ),
            }
        )

    if f is not None:
        f = f.select_columns([id_col, "keeper_id", "tier"])
        ids = lookup(ids, id_col, f, limit)
    return ids.map_batches(finish, batch_format="pyarrow")


def _with_tier(m: rd.Dataset, tier: str) -> rd.Dataset:
    return m.map_batches(
        lambda t: t.append_column(
            "tier", pa.array([tier] * len(t), type=pa.string())
        ),
        batch_format="pyarrow",
    )


def dedup_images_cascade(
    images: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    tiers: tuple = DEFAULT_TIERS,
    n_parts: int = 64,
    broadcast_limit: int | None = None,
    precomputed_sigs: rd.Dataset | None = None,
) -> CascadeResult:
    """Run the dedup tiers in order, each over the previous tier's
    survivors, and compose the per-tier member→keeper maps into one
    global assignment ``(image_id, cluster_id, tier)``.

    ``precomputed_sigs`` (image_id, simhash, phash, covering at least
    every row alive at the first sig tier) skips the encode pass —
    signatures are per-row deterministic, so an all-rows table is
    semantically identical (oracle staging uses this).
    """
    limit = BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    # sig tiers pick the core's regime by size like every pipeline;
    # broadcast_limit=0 forces every join path AND the distributed regime
    sig_limit = BROADCAST_SIG_LIMIT if broadcast_limit is None else broadcast_limit
    unknown = [t for t in tiers if t != "exact" and t not in SIG_TIERS]
    if unknown:
        raise ValueError(f"unknown cascade tiers {unknown}; valid: "
                         f"('exact', {', '.join(repr(k) for k in SIG_TIERS)})")

    current: rd.Dataset | None = images  # wide rows, alive set (exact tier)
    # narrow projection pruned in lockstep with ``current``: the sig-tier
    # encode must NEVER pull the byte payloads through its anti-filter —
    # projecting straight off the read keeps the column pushdown, so the
    # encode pass moves (id, caption, phash) rows only (measured 45 s →
    # ~9 s at 400k rows when bytes stopped flowing through the filter)
    narrow: rd.Dataset = images.select_columns(["image_id", "caption", "phash"])
    sigs: rd.Dataset | None = None  # narrow (id, simhash, phash), alive set
    sigs_out: rd.Dataset | None = None
    tier_maps: list = []
    tier_drops: dict = {}

    for tier_idx, tier in enumerate(tiers):
        if tier == "exact":
            m = dedup_exact_bytes(current, n_parts=n_parts).materialize()
            dropped = m.filter(expr="is_rep == False").map_batches(
                lambda t: t.select(["image_id", "rep_id"]).rename_columns(
                    ["image_id", "keeper_id"]
                ),
                batch_format="pyarrow",
            )
        else:
            space, col, cfg_attr = SIG_TIERS[tier]
            if sigs is None:  # first sig tier
                if precomputed_sigs is not None:
                    sigs = precomputed_sigs
                    # restrict to the alive set (ids dropped by earlier
                    # tiers must not re-enter)
                    for _, prev in tier_maps:
                        sigs = id_set_filter(sigs, prev, False, "image_id", limit)
                else:
                    sigs = signatures(narrow, cfg)
                sigs = sigs.materialize()
                sigs_out = sigs
            dropped = dedup_signatures(
                sigs, [(space, col, getattr(cfg, cfg_attr))], "image_id",
                sig_limit, n_parts, sigs.count(), cfg=cfg,
            ).assignment.filter(
                expr="is_representative == False"
            ).map_batches(
                lambda t: t.select(["image_id", "cluster_id"]).rename_columns(
                    ["image_id", "keeper_id"]
                ),
                batch_format="pyarrow",
            )
        dropped = dropped.materialize()
        n_dropped = dropped.count()
        tier_maps.append((tier, dropped))
        tier_drops[tier] = n_dropped
        # prune the alive set for the NEXT tier (skip after the last)
        if tier_idx + 1 < len(tiers) and n_dropped:
            if sigs is not None:
                sigs = id_set_filter(
                    sigs, dropped, False, "image_id", limit
                ).materialize()
            else:
                current = id_set_filter(current, dropped, False, "image_id", limit)
                narrow = id_set_filter(narrow, dropped, False, "image_id", limit)

    # ---- compose maps, last tier backwards -------------------------------
    final: rd.Dataset | None = None
    for tier, m in reversed(tier_maps):
        if tier_drops[tier] == 0:
            continue
        m_t = _with_tier(m, tier)
        if final is None:
            final = m_t
        else:
            final = _remap_keeper(m_t, final, limit).union(final)
        final = final.materialize()

    ids = images.select_columns(["image_id"])
    assignment = _attach_final(ids, final, limit)
    return CascadeResult(
        assignment=assignment,
        tier_maps=tier_maps,
        tier_drops=tier_drops,
        signatures=sigs_out,
    )


def dedup_docs_cascade(
    docs: rd.Dataset,
    theta: float = 0.7,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    n_bands: int = 16,
    concurrency=(1, 8),
    n_parts: int = 64,
    broadcast_limit: int | None = None,
    pairs: rd.Dataset | None = None,
) -> CascadeResult:
    """Text-domain tiered cascade: exact text → MinHash-LSH (estimated
    Jaccard ≥ θ), the document twin of :func:`dedup_images_cascade`.

    The exact tier pays one streaming sha256 pass + a digest-only
    shuffle to drop every byte-identical document, so the MinHash tier
    — shingling, 64 permutations, band expansion, the wide shuffle —
    runs over distinct texts only.  On web crawls exact duplicates are
    the DOMINANT dup class (mirrors, boilerplate pages), so the
    pruning typically pays for itself many times over.

    Output ``assignment``: (id_col, cluster_id, tier) for every input
    row, tier ∈ {'exact', 'minhash', 'survivor'}; cluster_id is the
    final surviving keeper (exact keepers that the MinHash tier then
    merged resolve through the keeper chain).  ``pairs`` short-circuits
    the MinHash encode when the caller already holds the verified pair
    table FOR THE TIER-1 SURVIVOR SET (oracle staging uses this).
    Ids must be integers: both tiers key documents by int64 id.
    """
    from ..stages.minhash import minhash_dedup

    schema = docs.schema()
    if schema is not None and id_col in schema.names:
        t = schema.types[schema.names.index(id_col)]
        if not (
            pa.types.is_integer(t) if isinstance(t, pa.DataType)
            else np.dtype(t).kind in "iu"
        ):
            raise ValueError(
                f"dedup_docs_cascade requires integer {id_col!r} ids, got "
                f"{t}: both tiers key documents by int64 id (the exact "
                "tier's member→keeper map and the MinHash signature table)"
            )
    limit = BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    narrow = docs.select_columns([id_col, text_col])

    m1 = dedup_exact_bytes(
        narrow, id_col=id_col, bytes_col=text_col, n_parts=n_parts,
        id_type=pa.int64(),
    ).materialize()
    dropped1 = m1.filter(expr="is_rep == False").map_batches(
        lambda t: t.select([id_col, "rep_id"]).rename_columns(
            [id_col, "keeper_id"]
        ),
        batch_format="pyarrow",
    ).materialize()
    n1 = dropped1.count()

    survivors1 = id_set_filter(narrow, dropped1, False, id_col, limit)
    a2 = minhash_dedup(
        survivors1, theta, text_col, id_col, shingle_k, n_perm, n_bands,
        concurrency, n_parts, broadcast_limit=limit, pairs=pairs,
    )
    dropped2 = a2.filter(expr="is_representative == False").map_batches(
        lambda t: t.select([id_col, "cluster_id"]).rename_columns(
            [id_col, "keeper_id"]
        ),
        batch_format="pyarrow",
    ).materialize()
    n2 = dropped2.count()

    tier_maps = [("exact", dropped1), ("minhash", dropped2)]
    tier_drops = {"exact": n1, "minhash": n2}

    final = None
    if n2:
        final = _with_tier(dropped2, "minhash").materialize()
    if n1:
        m1_t = _with_tier(dropped1, "exact")
        if final is None:
            final = m1_t.materialize()
        else:
            final = _remap_keeper(m1_t, final, limit, id_col).union(
                final
            ).materialize()

    ids = docs.select_columns([id_col])
    assignment = _attach_final(ids, final, limit, id_col)
    return CascadeResult(
        assignment=assignment, tier_maps=tier_maps, tier_drops=tier_drops
    )
