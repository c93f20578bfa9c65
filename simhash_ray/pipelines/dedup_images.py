"""Flagship pipeline: near-duplicate detection + clustering over the
image+caption table (BASELINE.json north_rule).

    read (pruned: image_id, caption, phash)
      → map_batches(process-held SimHashEncoder)        [stages/encode]
      → exact-(simhash,phash) collapse                  [stages/collapse]
      → band expansion (text + image spaces, one pass)  [stages/lsh]
      → ONE coarse groupby → vectorized bucket pairing  [stages/lsh]
      → Hamming verify (popcount ≤ τ per space)         [stages/lsh]
      → iterative min-label propagation → clusters      [stages/cluster]
      → cluster attach (broadcast small label map, else
        hash join) → assignment / representatives / survivors

Everything after the encode is :func:`dedup_signatures`, the one dedup
core every SimHash pipeline runs (flagship, dihedral, documents,
cascade tiers).  The collapse → … → attach chain above is its
distributed regime; below BROADCAST_SIG_LIMIT rows its direct regime
replaces collapse, groupby and propagation with broadcast banding and
a driver union-find.

Shuffle inventory (scale notes):
  1. collapse groupby     — narrow (id, 2×int64) rows
  2. band-bucket groupby  — 56 narrow rows per *distinct* signature
  3. CC rounds            — only nodes with verified edges
  4. survivor rejoin      — curate.id_set_filter's anti-join on image_id
                            (stages.joins.lookup: broadcast of the dup-id
                            set when small, hash join otherwise); the
                            wide `bytes` column moves at most once.

The caller owns `ray.init` (driver contract, /root/repo/__ray_entry__.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..config import DEFAULT_CONFIG, DedupConfig, LSHConfig
from ..functions.hashing import part_of_pairs
from ..simhash import hamming64
from ..stages.collapse import collapse_exact
from ..stages.cluster import (
    connected_components,
    dedupe_edges,
    distinct_edges,
    label_or_self,
    label_table,
    unionfind_driver,
)
from ..stages.encode import encode_signatures
from ..stages.joins import lookup
from ..stages.lsh import (
    IMAGE_SPACE,
    TEXT_SPACE,
    broadcast_candidate_edges,
    candidate_pairs,
    make_band_expander,
)

BROADCAST_LIMIT = 2_000_000  # rows; above this fall back to Dataset.join
# Distinct-signature rows (16 B each) below this → shuffle-free
# broadcast pairing (stages/lsh.broadcast_candidate_edges); above →
# the distributed band-bucket groupby.  20M rows ≈ 0.5 GB replicated.
BROADCAST_SIG_LIMIT = 20_000_000


@dataclass
class DedupResult:
    assignment: rd.Dataset  # (image_id, cluster_id, is_representative)
    edges: rd.Dataset  # verified dup pairs (a, b, space)
    n_clusters_with_dups: int
    n_nodes_clustered: int
    # (image_id, simhash, phash) — populated in the direct regime where
    # the table is already materialized (oracle staging reuses it so the
    # driver gate doesn't pay a second encode pass); None in the
    # distributed regime (the collapse stage consumes the lazy plan).
    signatures: rd.Dataset | None = None


def signatures(images: rd.Dataset, cfg: DedupConfig = DEFAULT_CONFIG) -> rd.Dataset:
    """(image_id, caption, phash) → (image_id, simhash, phash)."""
    return encode_signatures(
        images.select_columns(["image_id", "caption", "phash"]), cfg.simhash
    ).select_columns(["image_id", "simhash", "phash"])


def flagship_spaces(cfg: DedupConfig) -> list:
    """The north rule's two signature spaces, as the core's
    [(space, sig_col, LSHConfig)] list: caption SimHash + image pHash."""
    return [
        (TEXT_SPACE, "simhash", cfg.text_lsh),
        (IMAGE_SPACE, "phash", cfg.image_lsh),
    ]


def _band_plan(
    collapsed: rd.Dataset, cfg: DedupConfig, spaces: list | None = None
) -> tuple[list, int, int]:
    """(spaces, n_bands, band_parts) — THE shared banding decomposition
    for the edges stage, used by both `dup_edges` and the per-shard
    checkpointing path so the two cannot drift (r5 review finding).

    band_parts sizing (r5 sweep, 1M rows / 36.8M band rows, 32 CPUs):
    3.3 s at 4096 parts vs 4.1 s at the old rows/4096=10498 — the band
    shuffle is flat across 1k–4k parts and degrades above, so size ~1
    part per 8k band rows."""
    import itertools as _it

    if spaces is None:  # default: both north-rule signature spaces
        spaces = flagship_spaces(cfg)
    n_bands = sum(
        1
        for _, _, c in spaces
        for _ in _it.combinations(range(c.n_blocks), c.combo_m)
    )
    n_reps_max = collapsed.count()  # metadata read on materialized input
    band_parts = int(min(65536, max(256, (n_reps_max * n_bands) // 8192)))
    return spaces, n_bands, band_parts


def _narrow_repartition(ds: rd.Dataset) -> rd.Dataset:
    """~1 block per CPU (at least 32) for the narrow pre-band table —
    the band shuffle runs one map task per input block, and moving the
    narrow rows beats moving the ~n_bands×-larger band table."""
    return ds.repartition(max(32, int(ray.cluster_resources().get("CPU", 32))))


def dup_edges(
    collapsed: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    n_parts: int = 64,
    spaces: list | None = None,
    part_range: tuple[int, int] | None = None,
    candidates_only: bool = False,
    id_col: str = "image_id",
    id_type: pa.DataType = pa.string(),
) -> rd.Dataset:
    """Distinct-signature nodes → banding → bucket pairs → verified
    (a, b) dup edges.

    Shuffle sizing (measured at 400k rows / 17M band rows, 32 CPUs —
    see BASELINE.md "distributed regime tuning"): the narrow rep table
    is repartitioned to ~1 block per CPU BEFORE band expansion (moving
    400k×24 B rows instead of the 43×-larger band table: the round-1
    post-expansion repartition cost ~2× the whole stage); band_parts
    come from :func:`_band_plan`.

    ``part_range``/``candidates_only`` serve the per-shard edge
    checkpointing path: restrict banding to a coarse-partition range
    and return the batch-locally-deduped verified pairs WITHOUT the
    global dedupe (the caller dedupes the shard union)."""
    spaces, _, band_parts = _band_plan(collapsed, cfg, spaces)
    sig_cols = sorted({col for _, col, _ in spaces})
    reps = _narrow_repartition(
        collapsed.filter(expr="is_rep == True").select_columns([id_col, *sig_cols])
    )
    expander = make_band_expander(
        spaces,
        id_col=id_col,
        n_parts=band_parts,
        part_range=part_range,
        id_type=id_type,
    )
    bands = reps.map_batches(expander, batch_format="pyarrow")
    verified = candidate_pairs(
        bands,
        # pairing thresholds are per-pipeline (shared across spaces):
        # the stricter (smaller) of the configs wins
        pair_full_threshold=min(c.pair_full_threshold for _, _, c in spaces),
        taus={sp: c.hamming_tau for sp, _, c in spaces},
        shuffle_blocks=None,  # pre-partitioned above, narrow side
        id_type=id_type,
    )
    if candidates_only:
        return verified.map_batches(
            lambda t: distinct_edges(t, id_type), batch_format="pyarrow"
        )
    return dedupe_edges(verified.select_columns(["a", "b"]), n_parts, id_type)


def choose_n_parts(n_rows: int) -> int:
    """Coarse-partition count for a bucket shuffle over ``n_rows``.

    Round-5 sweep (1M rows, 32 CPUs, BASELINE.md "part-count sweep"):
    the exact-collapse groupby ran 1.37 s at 128 parts, 5.7 s at 325
    (the old ~1 part/3k-rows rule) and 57 s at 1024 — and the edge
    dedupe over 5.9M rows showed the same cliff (64p: 2.6 s, 325p:
    6.9 s, 1024p: 57 s).  Ray's sort-based shuffle cost grows
    super-linearly with reduce-partition count long before partitions
    get large, so parts should track the CLUSTER (a few × total CPUs
    for parallelism) and row count only as a memory bound — not ~1
    part per few thousand rows.  ~4× CPUs, with a rows/65536 floor so
    cluster-scale inputs still bound per-partition memory, both
    clamped."""
    import ray as _ray

    cpus = int(_ray.cluster_resources().get("CPU", 32)) if (
        _ray.is_initialized()
    ) else 32
    return int(min(65536, max(64, 4 * cpus, n_rows // 65536)))


def _broadcast_plan(df, spaces: list) -> tuple:
    """(space_sigs, spaces, taus, pair_full_threshold) — the broadcast
    banding arguments for a collected signature frame and its
    [(space, sig_col, LSHConfig)] list.  Pairing thresholds are
    per-pipeline (shared across spaces): the stricter config wins."""
    return (
        {sp: df[col].to_numpy().view(np.uint64) for sp, col, _ in spaces},
        [(sp, c) for sp, _, c in spaces],
        {sp: c.hamming_tau for sp, _, c in spaces},
        min(c.pair_full_threshold for _, _, c in spaces),
    )


def _canonical_edges(ids, space_sigs, spaces, taus, pair_full_threshold):
    """Broadcast banding over id-aligned signature arrays → the
    canonical (a < b), deduped id edge frame (the direct regime's
    edges; the incremental fold's shard edges)."""
    import pandas as pd

    ai, bi = broadcast_candidate_edges(
        space_sigs, spaces, taus=taus, pair_full_threshold=pair_full_threshold
    )
    a_ids, b_ids = ids[ai], ids[bi]
    swap = a_ids > b_ids
    a_ids[swap], b_ids[swap] = b_ids[swap], a_ids[swap]
    return pd.DataFrame({"a": a_ids, "b": b_ids}).drop_duplicates()


def _direct_regime_cluster(
    ids, space_sigs, spaces, taus, pair_full_threshold, id_type=pa.string()
):
    """The direct regime's tail: :func:`_canonical_edges` → driver
    union-find.  Returns (edge_df, label_df, edges_ds)."""
    edge_df = _canonical_edges(ids, space_sigs, spaces, taus, pair_full_threshold)
    label_df = unionfind_driver(edge_df)
    edges = rd.from_pandas(edge_df) if len(edge_df) else rd.from_arrow(
        pa.table({"a": pa.array([], id_type), "b": pa.array([], id_type)})
    )
    return edge_df, label_df, edges


def dedup_signatures(
    sigs: rd.Dataset,
    spaces: list,
    id_col: str,
    limit: int,
    n_parts: int,
    n_rows: int,
    id_type: pa.DataType = pa.string(),
    cfg: DedupConfig = DEFAULT_CONFIG,
) -> DedupResult:
    """THE dedup core: a signature table (``id_col`` + one int64 column
    per space) and its [(space, sig_col, LSHConfig)] list → clusters.
    Every SimHash pipeline runs this; each only encodes and wires its
    spaces.  Ids keep their Arrow type ``id_type`` (string or integer)
    through every stage, and the min-id representative follows the
    id's own order, so both regimes elect the same one.

    - **direct** (``n_rows`` ≤ ``limit``): collect the narrow table
      once, band it by one Ray task per band over broadcast arrays
      (no all-to-all shuffle), canonical edges → driver union-find →
      attach by own id.  Identical-signature masses (exact dups, hot
      captions) are connected by Hamming-0 chain edges inside
      oversized buckets, so no exact collapse is needed here.
    - **distributed** (above): exact-signature collapse groupby →
      band-bucket groupby with fused Hamming verify
      (:func:`dup_edges`) → :func:`attach_clusters` — every stage
      streaming and partitioned.

    Equivalence of the two regimes: tests/test_lsh_paths.py,
    tests/test_pipeline.py, tests/test_core_ids.py."""
    if n_rows <= limit:
        sigs = sigs.materialize()
        sig_df = sigs.to_pandas()
        _, label_df, edges = _direct_regime_cluster(
            sig_df[id_col].to_numpy(), *_broadcast_plan(sig_df, spaces),
            id_type=id_type,
        )
        return DedupResult(
            assignment=_attach_by_own_id(
                sigs, label_df, id_col=id_col, id_type=id_type
            ).materialize(),
            edges=edges,
            n_clusters_with_dups=len(set(label_df["label"])),
            n_nodes_clustered=len(label_df),
            signatures=sigs,
        )
    sig_cols = list(dict.fromkeys(col for _, col, _ in spaces))
    collapsed = collapse_exact(sigs, n_parts, id_col, sig_cols, id_type).materialize()
    edges = dup_edges(
        collapsed, cfg, n_parts, spaces=spaces, id_col=id_col, id_type=id_type
    ).materialize()
    assignment, n_clusters, n_nodes = attach_clusters(
        collapsed, edges, cfg, n_parts, id_col=id_col, id_type=id_type
    )
    return DedupResult(
        assignment=assignment,
        edges=edges,
        n_clusters_with_dups=n_clusters,
        n_nodes_clustered=n_nodes,
    )


def dedup_images(
    images: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    n_parts: int | None = None,
    broadcast_sig_limit: int | None = None,
    precomputed_sigs: rd.Dataset | None = None,
) -> DedupResult:
    """The flagship: encode (caption SimHash next to the stored pHash)
    → :func:`dedup_signatures` over both spaces.  Rows ≤
    ``broadcast_sig_limit`` (default BROADCAST_SIG_LIMIT) take the
    direct regime, larger inputs the distributed one — pass 0 to force
    it, as bench.py does for its ``e2e_dedup_distributed`` number.
    The direct regime also returns the materialized signature table."""
    n_rows = images.count()
    if n_parts is None:
        n_parts = choose_n_parts(n_rows)
    limit = BROADCAST_SIG_LIMIT if broadcast_sig_limit is None else broadcast_sig_limit
    # ``precomputed_sigs``: callers that already hold the (image_id,
    # simhash, phash) table at the SAME cfg skip the encode pass (the
    # sf0.01 gate's query-sharing path; must cover every input row)
    sigs = (
        precomputed_sigs
        if precomputed_sigs is not None
        else signatures(images, cfg)
    )
    return dedup_signatures(
        sigs, flagship_spaces(cfg), "image_id", limit, n_parts, n_rows, cfg=cfg
    )


def dedup_images_dihedral(
    images: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    n_parts: int | None = None,
    concurrency=(1, 8),
    broadcast_sig_limit: int | None = None,
) -> DedupResult:
    """Mirror/rotation-robust image dedup: the flagship's core run in
    the single dihedral-canonical hash space
    (stages/multimodal.DihedralPhash — min of the pinned phash over the
    8 thumbnail symmetries), so a horizontally mirrored or rotated copy
    lands at Hamming 0 where the precomputed ``phash`` column sees an
    unrelated signature.  Same two regimes as :func:`dedup_images`
    (``broadcast_sig_limit=0`` forces the distributed one).  Unlike
    the flagship this stage must DECODE (the stored phash cannot be
    canonicalized post-hoc), so the encode pool is the wide-binary
    actor-pool shape: small batches, bytes never pass the encoder.
    ``signatures`` is (image_id, dsig) in this pipeline."""
    from ..stages.multimodal import dihedral_signatures

    n_rows = images.count()
    if n_parts is None:
        n_parts = choose_n_parts(n_rows)
    limit = BROADCAST_SIG_LIMIT if broadcast_sig_limit is None else broadcast_sig_limit
    return dedup_signatures(
        dihedral_signatures(images, concurrency=concurrency),
        [(IMAGE_SPACE, "dsig", cfg.image_lsh)],
        "image_id", limit, n_parts, n_rows, cfg=cfg,
    )


def tile_dup_pairs(
    images: rd.Dataset,
    tau: int = 2,
    k_min: int = 3,
    concurrency=(1, 8),
    broadcast_sig_limit: int | None = None,
    lsh_cfg: LSHConfig | None = None,
    pair_full_threshold: int | None = None,
    exact_identical_pairs_cap: int | None = None,
) -> rd.Dataset:
    """Crop/occlusion-robust image near-dup pairs: a pair is a dup iff
    ≥ ``k_min`` of the 4 quadrant hashes (stages/multimodal.TilePhash)
    are within Hamming ``tau``.  The global DCT hash drifts unboundedly
    under a localized edit (logo overlay, caption bar, occlusion) since
    every coefficient sees every pixel; a quadrant edit perturbs only
    the tiles it covers, so the untouched tiles still collide —
    tests/test_tilephash.py plants one-quadrant edits that the global
    hash misses at τ=6 and this operator finds exactly.

    Candidates band each tile as its own LSH space (default 4 blocks
    choose 2 → 6 bands of 32-bit keys per tile, pigeonhole recall 1.0
    for any tile ≤ τ ≤ 2; a qualifying pair has ≥ k_min ≥ 1 such
    tiles), via the flagship's broadcast-band machinery over the
    collected narrow signature table — bounded by BROADCAST_SIG_LIMIT
    like the flagship's direct regime.  Above the limit the SAME
    per-tile spaces ride the flagship's distributed banding (narrow
    sig repartition → one band-bucket groupby with fused per-space
    Hamming verify → one (a,b) groupby counting distinct agreeing
    tiles): by the pigeonhole bound a tile within τ ALWAYS collides
    in ≥1 of its bands, so "pair verified in space t" ⟺ "tile t
    within τ" and the distinct-space count IS n_tiles_close — the two
    regimes emit identical pairs (equivalence-tested by forcing
    ``broadcast_sig_limit=0``).

    Pair-enumeration recall: full C(g,2) pairs are emitted for any
    band bucket up to ``pair_full_threshold`` members (default
    buckets.OVERSIZED_EXACT_CAP = 4096 — tiles with constant content,
    e.g. letterbox bars or blank document corners, produce huge
    identical-sig buckets, and unlike the clustering pipelines there
    is no exact-collapse upstream to absorb them, so this operator
    needs a much larger full-pair threshold than the clustering
    default of 256).  PAST the threshold, identical-sig runs still
    enumerate their exact C(r,2) pairs up to
    ``exact_identical_pairs_cap`` pairs per run (default
    buckets.EXACT_IDENTICAL_PAIRS_CAP ≈ 16.7M ⇔ ~5800 identical members
    — round-4 verdict item 4: a pairs-emitting operator must not
    silently undercount), degrading to the connectivity chain with a
    loud log only beyond that bound; distinct-sig heads keep the
    oversized-bucket policy's head pairs/star (stages/buckets)."""
    from ..stages.buckets import EXACT_IDENTICAL_PAIRS_CAP, OVERSIZED_EXACT_CAP
    from ..stages.multimodal import tile_signatures

    if not 1 <= k_min <= 4:
        raise ValueError(f"k_min must be in 1..4, got {k_min}")
    cfg = lsh_cfg or LSHConfig(n_blocks=4, combo_m=2, hamming_tau=tau)
    if tau > cfg.n_blocks - cfg.combo_m:
        raise ValueError(
            f"tau={tau} exceeds the banding's pigeonhole bound "
            f"{cfg.n_blocks - cfg.combo_m}; recall would drop below 1.0"
        )
    limit = BROADCAST_SIG_LIMIT if broadcast_sig_limit is None else broadcast_sig_limit
    sigs = tile_signatures(images, concurrency=concurrency).materialize()
    n = sigs.count()
    threshold = (
        OVERSIZED_EXACT_CAP if pair_full_threshold is None else pair_full_threshold
    )
    id_cap = (
        EXACT_IDENTICAL_PAIRS_CAP
        if exact_identical_pairs_cap is None else exact_identical_pairs_cap
    )
    if n > limit:
        import logging

        logging.getLogger(__name__).info(
            "tile_dup_pairs: %d rows exceed broadcast_sig_limit=%d; "
            "using the distributed banding regime", n, limit,
        )
        return _tile_pairs_distributed(
            sigs, n, tau, k_min, cfg, threshold, exact_identical_cap=id_cap
        )
    ids, arrs, ai, bi = _tile_candidates(
        sigs.to_pandas(), tau, cfg, threshold, exact_identical_cap=id_cap
    )
    return rd.from_arrow(_tile_verify(arrs, ids, ai, bi, tau, k_min))


_EMPTY_TILE_PAIRS = pa.table(
    {
        "a": pa.array([], type=pa.string()),
        "b": pa.array([], type=pa.string()),
        "n_tiles_close": pa.array([], type=pa.int64()),
    }
)


def _tile_pairs_distributed(
    sigs: rd.Dataset,
    n: int,
    tau: int,
    k_min: int,
    cfg: LSHConfig,
    pair_full_threshold: int,
    exact_identical_cap: int = 0,
) -> rd.Dataset:
    """Cluster-scale regime of tile_dup_pairs: the 4 tile columns band
    as 4 LSH spaces through ONE bucket groupby with fused per-space
    Hamming verify (the flagship's dup_edges shape), then ONE (a, b)
    groupby on the pair-reduce partition (functions/hashing.part_of_pairs,
    as cluster.dedupe_edges) counts the distinct agreeing tiles per
    pair.  Narrow rows only; nothing collects."""
    from ..stages.base import map_groups_typed

    spaces = [(t, f"t{t}", cfg) for t in range(4)]
    _, _, band_parts = _band_plan(sigs, DEFAULT_CONFIG, spaces)
    bands = _narrow_repartition(sigs).map_batches(
        make_band_expander(spaces, id_col="image_id", n_parts=band_parts),
        batch_format="pyarrow",
    )
    verified = candidate_pairs(
        bands,
        pair_full_threshold=pair_full_threshold,
        taus={t: tau for t in range(4)},
        exact_identical_cap=exact_identical_cap,
    )
    pair_parts = choose_n_parts(n)

    def add_part(batch: pa.Table) -> pa.Table:
        part = part_of_pairs(
            batch["a"].to_numpy(zero_copy_only=False),
            batch["b"].to_numpy(zero_copy_only=False),
            pair_parts,
        )
        return batch.select(["a", "b", "space"]).append_column(
            "part", pa.array(part, type=pa.int32())
        )

    def count_tiles(group: pa.Table) -> pa.Table:
        # band multiplicity collapses inside count_distinct: the
        # distinct-space count per pair IS n_tiles_close
        t = group.group_by(["a", "b"]).aggregate([("space", "count_distinct")])
        t = t.filter(pc.greater_equal(t["space_count_distinct"], k_min))
        return pa.table(
            {
                "a": t["a"].cast(pa.string()),
                "b": t["b"].cast(pa.string()),
                "n_tiles_close": t["space_count_distinct"].cast(pa.int64()),
            }
        )

    parted = verified.map_batches(add_part, batch_format="pyarrow")
    return map_groups_typed(parted, "part", count_tiles, _EMPTY_TILE_PAIRS)


def _tile_candidates(
    df, tau: int, cfg: LSHConfig, pair_full_threshold: int,
    exact_identical_cap: int = 0,
):
    """Shared candidate half of the tile near-dup (collected pandas
    signature frame → (ids, per-tile sig arrays, ai, bi) index pairs)
    — used by tile_dup_pairs and by the oracle-staging query so the
    candidate configuration cannot drift between them."""
    ids = df["image_id"].to_numpy(dtype=object)
    arrs = {
        t: df[f"t{t}"].to_numpy().astype(np.int64).view(np.uint64)
        for t in range(4)
    }
    ai, bi = broadcast_candidate_edges(
        arrs,
        [(t, cfg) for t in range(4)],
        taus={t: tau for t in range(4)},
        pair_full_threshold=pair_full_threshold,
        exact_identical_cap=exact_identical_cap,
    )
    return ids, arrs, ai, bi


def _tile_verify(arrs, ids, ai, bi, tau: int, k_min: int) -> pa.Table:
    """Shared verify tail of the tile near-dup: count tiles within
    Hamming ``tau`` per candidate index pair, keep ≥ ``k_min``, emit
    canonical (a < b) id pairs — used by tile_dup_pairs and by the
    oracle-staging query so the two cannot drift."""
    if len(ai) == 0:
        return _EMPTY_TILE_PAIRS
    close = np.zeros(len(ai), dtype=np.int64)
    for t in range(4):
        close += (hamming64(arrs[t][ai], arrs[t][bi]) <= tau).astype(np.int64)
    keep = close >= k_min
    if not keep.any():
        return _EMPTY_TILE_PAIRS
    a_ids, b_ids = ids[ai[keep]], ids[bi[keep]]
    swap = a_ids > b_ids
    a_ids[swap], b_ids[swap] = b_ids[swap], a_ids[swap]
    return pa.table(
        {
            "a": pa.array(a_ids, type=pa.string()),
            "b": pa.array(b_ids, type=pa.string()),
            "n_tiles_close": pa.array(close[keep], type=pa.int64()),
        }
    )


def _attach_by_own_id(
    rows: rd.Dataset,
    label_df,
    id_col: str = "image_id",
    key_col: str | None = None,
    id_type: pa.DataType = pa.string(),
) -> rd.Dataset:
    """Attach cluster ids from a collected (node → label) frame: each
    row's cluster is the label of its ``key_col`` (its own id by default
    — the direct regime, where nodes ARE ids; ``rep_id`` after an exact
    collapse), else the key itself."""
    key_col = key_col or id_col
    labels = label_table(label_df, id_type, key_col)
    return _attach_labels(rows, labels, BROADCAST_SIG_LIMIT, id_col, key_col, id_type)


def _attach_labels(
    rows: rd.Dataset,
    labels: rd.Dataset | pa.Table,
    limit: int,
    id_col: str,
    key_col: str,
    id_type: pa.DataType,
) -> rd.Dataset:
    """(id, cluster_id, is_representative): the (``key_col``, label)
    table's label of each row's key (stages.joins.lookup), else the key."""

    def finish(batch: pa.Table) -> pa.Table:
        cluster = label_or_self(batch["label"], batch[key_col], id_type)
        return pa.table(
            {
                id_col: batch[id_col],
                "cluster_id": cluster,
                "is_representative": pc.equal(batch[id_col].cast(id_type), cluster),
            }
        )

    keys = rows.select_columns(list(dict.fromkeys([id_col, key_col])))
    return lookup(keys, key_col, labels, limit).map_batches(
        finish, batch_format="pyarrow"
    )


def attach_clusters(
    collapsed: rd.Dataset,
    edges: rd.Dataset,
    cfg: DedupConfig = DEFAULT_CONFIG,
    n_parts: int = 64,
    broadcast_limit: int | None = None,
    id_col: str = "image_id",
    key_col: str = "rep_id",
    id_type: pa.DataType = pa.string(),
) -> tuple[rd.Dataset, int, int]:
    """Cluster the verified edges over ``key_col`` nodes and attach a
    cluster id to every row of ``collapsed`` → (assignment, n_clusters,
    n_nodes).  The core's attach tail; ``stages.cluster.assign_clusters``
    feeds it pair tables with every id its own key.

    The verified edge set is tiny relative to the input (only near-dup
    pairs): below BROADCAST_LIMIT run union-find on the driver (one
    collect, zero extra shuffles); above it, the distributed min-label-
    propagation rounds, whose labels attach by a broadcast below
    BROADCAST_LIMIT labels and a hash join above it
    (``broadcast_limit=0`` forces both — equivalence-tested in
    tests/test_pipeline.py)."""
    from ..stages import cluster

    limit = BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    if edges.count() <= limit:
        label_df = cluster.unionfind_driver(edges.to_pandas())
        n_nodes = len(label_df)
        assignment = _attach_by_own_id(collapsed, label_df, id_col, key_col, id_type)
    else:  # cluster-scale path
        labels = connected_components(
            edges, cfg.max_cluster_rounds, n_parts, id_type
        ).materialize()
        n_nodes = labels.count()
        assignment = _attach_labels(
            collapsed, labels.rename_columns({"node": key_col}), limit,
            id_col, key_col, id_type,
        )

    # n_clusters = distinct cluster ids among NON-representative rows —
    # one regime-independent definition (the label-set count missed
    # collapse-only exact-dup clusters in the distributed regime, so the
    # CLI metrics differed between regimes and across a resume)
    assignment = assignment.materialize()
    return assignment, _count_distinct_clusters(assignment), n_nodes


# Per-block-unique cluster-id rows collected for the exact distinct
# count before falling back to the groupby path (strings ≈ 20 B → the
# bound is ~1 GB of driver ids; the r5 part-count sweep measured the
# groupby alternative at 5.7-6.7 s for a metric scalar).
NCLUSTERS_COLLECT_LIMIT = 50_000_000


def _count_distinct_clusters(assignment: rd.Dataset) -> int:
    """Exact count of distinct ``cluster_id`` among non-representative
    rows: per-block unique partials stream to the driver (bounded by
    NCLUSTERS_COLLECT_LIMIT) for one np.unique; past the bound the
    distributed groupby-count path runs instead (equivalence-tested in
    tests/test_pipeline.py by forcing the bound to 0)."""
    def block_unique(t: pa.Table) -> pa.Table:
        nr = t.filter(pc.invert(t["is_representative"]))
        return pa.table({"cluster_id": pc.unique(nr["cluster_id"])})

    partials = assignment.map_batches(block_unique, batch_format="pyarrow")
    collected: list = []
    total = 0
    for bt in partials.iter_batches(batch_format="pyarrow", batch_size=None):
        total += bt.num_rows
        if total > NCLUSTERS_COLLECT_LIMIT:
            return (
                partials.groupby("cluster_id").count().count()
            )
        collected.append(bt["cluster_id"].to_numpy(zero_copy_only=False))
    if not collected:
        return 0
    return int(len(np.unique(np.concatenate(collected))))


def _edge_shard_fns(
    collapsed: rd.Dataset, cfg: DedupConfig, n_shards: int
) -> tuple[list, str]:
    """Deterministic band-partition-range shards of the dup_edges
    computation (round-4 verdict item 8: at 10^12 rows the band +
    verify pass is hours long, so `edges` needs the same per-shard
    resume granularity signatures already have).

    Shard i delegates to :func:`dup_edges` with a contiguous
    ``part_range`` and ``candidates_only=True`` — ONE banding code
    path for the sharded and unsharded stages, so they cannot drift.
    Band keys are a pure function of the signatures, so the
    decomposition is deterministic w.r.t. (collapsed, band_parts,
    n_shards); the fingerprint suffix pins band_parts so a rep-count
    change can't silently mix decompositions.  The caller runs the
    global dedupe over the shard union (cheap relative to the banding
    it skips on resume)."""
    _, _, band_parts = _band_plan(collapsed, cfg)
    bounds = np.linspace(0, band_parts, num=max(1, n_shards) + 1, dtype=np.int64)

    def make_fn(lo: int, hi: int):
        def fn() -> rd.Dataset:
            return dup_edges(
                collapsed, cfg, part_range=(lo, hi), candidates_only=True
            )

        return fn

    fns = [
        make_fn(int(lo), int(hi))
        for lo, hi in zip(bounds[:-1], bounds[1:])
        if hi > lo
    ]
    return fns, f"bandparts={band_parts}"


def _signature_shard_fns(table_path: str, cfg: DedupConfig, n_shards: int):
    """Deterministic row-group-range shards of one Parquet file, each
    producing its slice of the signature table (used by the per-shard
    checkpointing paths)."""
    import pyarrow.parquet as pq

    n_rg = pq.ParquetFile(table_path).metadata.num_row_groups
    groups = np.array_split(np.arange(n_rg), max(1, min(n_shards, n_rg)))

    def make_fn(rgs):
        def fn():
            tbl = pq.ParquetFile(table_path).read_row_groups(
                [int(r) for r in rgs],
                columns=["image_id", "caption", "phash"],
            )
            return signatures(rd.from_arrow(tbl), cfg)

        return fn

    return [make_fn(rgs) for rgs in groups if len(rgs)]


def dedup_images_checkpointed(
    images: rd.Dataset,
    ckpt_dir: str,
    cfg: DedupConfig = DEFAULT_CONFIG,
    n_parts: int | None = None,
    input_fingerprint: str = "",
    table_path: str | None = None,
    signature_shards: int = 0,
    edge_shards: int = 0,
) -> DedupResult:
    """Checkpoint-resumable flagship run: each stage commits a Parquet
    directory + lineage manifest (state/manifest.py); a rerun skips
    committed stages — kill-and-rerun yields identical output
    (SURVEY.md §5.5 resume test).

    With ``table_path`` + ``signature_shards`` > 0, the (dominant)
    signature stage commits PER SHARD — a run killed mid-encode
    resumes at the first uncommitted row-group range instead of
    re-encoding everything (the 100-TB resume granularity)."""
    from ..state.manifest import CheckpointedRun

    if n_parts is None:
        n_parts = choose_n_parts(images.count())
    run = CheckpointedRun(ckpt_dir, cfg.config_hash())
    if table_path and signature_shards > 0:
        sigs = run.sharded_stage(
            "signatures",
            _signature_shard_fns(table_path, cfg, signature_shards),
            input_fingerprint or table_path,
        )
    else:
        sigs = run.stage(
            "signatures", lambda: signatures(images, cfg), input_fingerprint
        )
    collapsed = run.stage(
        "collapsed", lambda: collapse_exact(sigs, n_parts), input_fingerprint
    )
    if edge_shards > 0:
        # per-band-partition-range resume for the (hours-long at 10^12
        # rows) band+verify pass; the global dedupe over the shard
        # union commits as its own (cheap) stage
        fns, decomp = _edge_shard_fns(collapsed, cfg, edge_shards)
        cand_fp = f"{input_fingerprint}:{decomp}"
        cands = run.sharded_stage("edge_cands", fns, cand_fp)
        edges = run.stage(
            "edges",
            lambda: dedupe_edges(cands.select_columns(["a", "b"]), n_parts),
            cand_fp,
        )
    else:
        edges = run.stage(
            "edges", lambda: dup_edges(collapsed, cfg, n_parts), input_fingerprint
        )
    holder: dict = {"n_nodes": -1}  # n_nodes is not recomputed on resume

    def produce_assignment():
        assignment, holder["n_clusters"], holder["n_nodes"] = attach_clusters(
            collapsed, edges, cfg, n_parts
        )
        return assignment

    assignment = run.stage("assignment", produce_assignment, input_fingerprint)
    run.write_metrics()
    return DedupResult(
        assignment=assignment,
        edges=edges,
        n_clusters_with_dups=(
            holder["n_clusters"] if "n_clusters" in holder
            else _count_distinct_clusters(assignment)  # stage was resumed
        ),
        n_nodes_clustered=holder["n_nodes"],
    )


def sharded_signatures_checkpointed(
    table_path: str,
    ckpt_dir: str,
    cfg: DedupConfig = DEFAULT_CONFIG,
    n_shards: int = 8,
):
    """Signature encode with PER-SHARD checkpointing: the input Parquet
    is split into deterministic row-group ranges, each encoded and
    committed (data dir + manifest) independently
    (state/manifest.sharded_stage) — a run killed after k of n shards
    resumes at shard k instead of re-encoding everything.  This is the
    100-TB-regime resume granularity the stage-level manifests of
    ``dedup_images_checkpointed`` cannot give (a signature stage over
    10^12 rows runs for hours).

    Returns (signatures Dataset, CheckpointedRun)."""
    from ..state.manifest import CheckpointedRun

    run = CheckpointedRun(ckpt_dir, cfg.config_hash())
    sigs = run.sharded_stage(
        "signatures",
        _signature_shard_fns(table_path, cfg, n_shards),
        input_fingerprint=table_path,
    )
    return sigs, run


def survivors(
    images: rd.Dataset,
    result: DedupResult,
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """Anti-join the byte-bearing table against the non-representative
    ids (pipelines.curate.id_set_filter): below ``broadcast_limit`` dup
    ids the id set is broadcast and the wide ``bytes`` rows are filtered
    in place, never shuffled; above it a hash join takes over (forced
    with 0 in tests)."""
    from .curate import id_set_filter

    limit = BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    dups = result.assignment.filter(expr="is_representative == False")
    return id_set_filter(images, dups, keep=False, id_col="image_id", limit=limit)


def planted_pair_recall(
    assignment_df, truth_df
) -> tuple[float, float, int]:
    """Driver-side scoring vs the fixture truth table.

    Returns (dup_pair_recall, cluster_merge_precision, n_truth_pairs):
    recall = fraction of planted same-cluster pairs that the pipeline
    co-clustered; precision = fraction of found co-clustered planted
    pairs that are planted pairs (computed over planted rows only).
    """
    import pandas as pd

    df = truth_df.merge(assignment_df, on="image_id", how="left")
    n_pairs = 0
    n_hit = 0
    for _, grp in df.groupby("cluster_id_x"):
        if len(grp) < 2:
            continue
        n = len(grp)
        n_pairs += n * (n - 1) // 2
        counts = grp.groupby("cluster_id_y").size()
        n_hit += int((counts * (counts - 1) // 2).sum())
    found_pairs = 0
    found_true = 0
    for _, grp in df.groupby("cluster_id_y"):
        if len(grp) < 2:
            continue
        n = len(grp)
        found_pairs += n * (n - 1) // 2
        counts = grp.groupby("cluster_id_x").size()
        found_true += int((counts * (counts - 1) // 2).sum())
    recall = n_hit / n_pairs if n_pairs else 1.0
    precision = found_true / found_pairs if found_pairs else 1.0
    return recall, precision, n_pairs
