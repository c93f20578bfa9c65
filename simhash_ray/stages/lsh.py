"""Hamming-ball LSH: band expansion → bucket pair generation → verify.

The reference has no candidate-generation machinery (it is a linear
per-record classifier chain, SURVEY.md §2.5); this is the new engine's
design for the north rule's "LSH banding → Hamming verification":

1. ``expand_bands`` (map_batches, stateless): per signature space emit
   C(n_blocks, combo_m) narrow rows ``(id, space, band, key, sig)``.
   Pigeonhole guarantee (config.LSHConfig): any pair within
   ``hamming_tau`` shares at least one exact band key.
2. ``candidate_pairs``: ONE coarse groupby shuffle on a hash partition
   of (space, band, key), then *vectorized* run detection inside each
   partition — pairing logic is numpy over sorted runs, not a Python
   call per bucket (millions of tiny buckets would drown
   ``map_groups`` per-group overhead).
3. ``verify_pairs`` (map_batches, stateless): exact popcount Hamming
   check against the per-space τ.

Skew guard: buckets larger than ``pair_full_threshold``
(config.LSHConfig) get the oversized-bucket policy of
stages/buckets.oversized_bucket_pairs, which states the recall
guarantee; fallback-path edges are reported in the ``star`` column.
Exact-signature hot keys (the 10%-hot-caption stressor) never reach
here: the pipeline collapses identical (simhash, phash) groups first
(stages/collapse.py).
"""

from __future__ import annotations

import itertools

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from ..config import LSHConfig
from ..functions.hashing import part_of_ints
from ..simhash import hamming64
from .buckets import all_pairs, oversized_bucket_pairs, runs

TEXT_SPACE, IMAGE_SPACE = 0, 1


def _combos(cfg: LSHConfig) -> list[tuple[int, ...]]:
    return list(itertools.combinations(range(cfg.n_blocks), cfg.combo_m))


def combo_key(sig: np.ndarray, combo: tuple[int, ...], r: int) -> np.ndarray:
    """Band key for one block combination: the concatenated r-bit
    blocks of ``sig`` named by ``combo``.  THE key construction — every
    band producer (expander, broadcast band tasks, incremental probe)
    must call this so keys stay bit-identical across paths."""
    mask = np.uint64((1 << r) - 1)
    key = np.zeros(len(sig), dtype=np.uint64)
    for j, b in enumerate(combo):
        key |= ((sig >> np.uint64(b * r)) & mask) << np.uint64(j * r)
    return key


def band_keys(sig: np.ndarray, cfg: LSHConfig) -> list[np.ndarray]:
    """:func:`combo_key` per band of ``cfg`` (one array per combo)."""
    r = 64 // cfg.n_blocks
    return [combo_key(sig, combo, r) for combo in _combos(cfg)]


def make_band_expander(
    spaces: list[tuple[int, str, LSHConfig]],
    id_col: str = "image_id",
    n_parts: int = 64,
    part_range: tuple[int, int] | None = None,
    id_type: pa.DataType = pa.string(),
):
    """Build the map_batches fn: one pass emits band rows for every
    signature space (text simhash + image phash) — a single downstream
    shuffle instead of one per space.  Keys come from :func:`band_keys`;
    the ``id`` column keeps Arrow type ``id_type``.

    ``part_range=(lo, hi)`` emits only rows whose coarse partition
    falls in [lo, hi) — the per-shard edge checkpointing path filters
    INSIDE the expander so out-of-range band rows never materialize
    (each shard still computes every key, but ships ~1/n_shards of the
    rows)."""

    def expand(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        out_id, out_space, out_band, out_key, out_sig = [], [], [], [], []
        for space_id, sig_col, cfg in spaces:
            sig = batch[sig_col].to_numpy(zero_copy_only=False).view(np.uint64)
            n = len(sig)
            for band_idx, key in enumerate(band_keys(sig, cfg)):
                out_id.append(ids)
                out_space.append(np.full(n, space_id, dtype=np.int32))
                out_band.append(np.full(n, band_idx, dtype=np.int32))
                out_key.append(key.view(np.int64))
                out_sig.append(sig.view(np.int64))
        space = np.concatenate(out_space)
        band = np.concatenate(out_band)
        key = np.concatenate(out_key)
        part = part_of_ints(n_parts, space.astype(np.int64), band.astype(np.int64), key)
        ids_out = np.concatenate(out_id)
        sig_out = np.concatenate(out_sig)
        if part_range is not None:
            keep = (part >= part_range[0]) & (part < part_range[1])
            ids_out, space, band = ids_out[keep], space[keep], band[keep]
            key, sig_out, part = key[keep], sig_out[keep], part[keep]
        return pa.table(
            {
                "id": pa.array(ids_out, type=id_type),
                "space": space,
                "band": band,
                "key": key,
                "sig": sig_out,
                "part": part,
            }
        )

    return expand


def lsh_bucket_pairs(
    starts: np.ndarray,
    lengths: np.ndarray,
    sig: np.ndarray,
    band: np.ndarray | int,
    pair_full_threshold: int,
    exact_identical_cap: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The LSH operators' pairing policy over the bucket runs of one
    sorted partition: all C(g,2) pairs for runs of ≤
    ``pair_full_threshold`` members (star=False); larger runs are
    re-sorted by ``sig`` and get the oversized-bucket policy
    (buckets.oversized_bucket_pairs, whose docstring states the recall
    guarantee).  ``band`` is each run's band index (or
    one index for all): identical-sig runs are enumerated from band 0
    only.  Returns (a_idx, b_idx, star)."""
    full = lengths <= pair_full_threshold
    ai, bi = all_pairs(starts[full], lengths[full])
    parts = [(ai, bi, np.zeros(len(ai), dtype=bool))]
    band0 = np.broadcast_to(np.asarray(band) == 0, lengths.shape)
    for r in np.flatnonzero(~full):  # rare oversized buckets
        s, g = starts[r], lengths[r]
        seg = s + np.argsort(sig[s : s + g], kind="stable")
        parts.append(oversized_bucket_pairs(
            seg, sig[seg], exact_identical_cap,
            emit_identical=bool(band0[r]),
        ))
    return tuple(np.concatenate(p) for p in zip(*parts))


def make_pair_generator(
    pair_full_threshold: int = 256,
    taus: dict[int, int] | None = None,
    exact_identical_cap: int = 0,
    id_type: pa.DataType = pa.string(),
):
    """Per-coarse-partition pair generation (used via groupby('part')).

    Inside one partition: lexsort by (space, band, key), find runs,
    pair them with :func:`lsh_bucket_pairs` (same policy as
    ``broadcast_candidate_edges``).  The fallback-path edges are
    visible in the ``star`` column for observability.

    When ``taus`` is given (space → Hamming τ), verification is FUSED
    into pair generation — the popcount check runs on the in-partition
    numpy arrays and only surviving edges leave the stage (one fewer
    operator, no unverified-pair traffic).  Any space id present in
    the band rows MUST have a τ entry (validated; a silent default of
    0 would discard every pair of that space).

    Edge endpoints ``a < b`` keep the id's Arrow type ``id_type``."""
    tau_arr = None
    if taus is not None:
        tau_arr = np.full(max(taus) + 1, -1, dtype=np.int64)
        for k, v in taus.items():
            tau_arr[k] = v

    empty = _empty_pairs(id_type)

    def pairs(group: pa.Table) -> pa.Table:
        ids = np.asarray(group["id"].to_numpy(zero_copy_only=False))
        space = group["space"].to_numpy(zero_copy_only=False)
        band = group["band"].to_numpy(zero_copy_only=False)
        key = group["key"].to_numpy(zero_copy_only=False)
        sig = group["sig"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, band, space))
        space, band, key = space[order], band[order], key[order]
        ids, sig = ids[order], sig[order]
        starts, lengths = runs(space, band, key)
        ai, bi, stars = lsh_bucket_pairs(
            starts, lengths, sig, band[starts], pair_full_threshold,
            exact_identical_cap,
        )
        if tau_arr is not None:  # fused Hamming verification
            sp = space[ai]
            if len(sp) and (sp.max() >= len(tau_arr) or tau_arr[sp].min() < 0):
                raise ValueError(
                    f"make_pair_generator: band rows contain space ids "
                    f"{sorted(set(sp.tolist()) - set(np.flatnonzero(tau_arr >= 0).tolist()))} "
                    f"with no taus entry"
                )
            d = hamming64(
                sig[ai].view(np.uint64), sig[bi].view(np.uint64)
            )
            keep = d <= tau_arr[sp]
            ai, bi, stars = ai[keep], bi[keep], stars[keep]
            if len(ai) == 0:
                return empty
        a, b = ids[ai], ids[bi]
        swap = a > b
        a[swap], b[swap] = b[swap], a[swap]
        sa, sb = sig[ai].copy(), sig[bi].copy()
        sa[swap], sb[swap] = sig[bi][swap], sig[ai][swap]
        return pa.table(
            {
                "a": pa.array(a, type=id_type),
                "b": pa.array(b, type=id_type),
                "sig_a": pa.array(sa, type=pa.int64()),
                "sig_b": pa.array(sb, type=pa.int64()),
                "space": pa.array(space[ai], type=pa.int32()),
                "star": pa.array(stars, type=pa.bool_()),
            }
        )

    return pairs


def _empty_pairs(id_type: pa.DataType) -> pa.Table:
    return pa.table(
        {
            "a": pa.array([], type=id_type),
            "b": pa.array([], type=id_type),
            "sig_a": pa.array([], type=pa.int64()),
            "sig_b": pa.array([], type=pa.int64()),
            "space": pa.array([], type=pa.int32()),
            "star": pa.array([], type=pa.bool_()),
        }
    )


@ray.remote
def _band_task(
    sig, combo, r, tau, band_idx, pair_full_threshold, exact_identical_cap
):
    """One broadcast band of :func:`broadcast_candidate_edges`: key,
    sort, pair with :func:`lsh_bucket_pairs` (the same policy as
    ``make_pair_generator``, so the direct and distributed regimes
    cannot diverge) and Hamming-verify; returns (lo, hi) index pairs.
    Defined once at module scope: a ``@ray.remote`` minted per call is
    a new function descriptor, exported again on every dedup call."""
    key = combo_key(sig, combo, r)
    order = np.lexsort((sig, key))
    starts, lengths = runs(key[order])
    ai, bi, _ = lsh_bucket_pairs(
        starts, lengths, sig[order], band_idx, pair_full_threshold,
        exact_identical_cap,
    )
    ai, bi = order[ai], order[bi]
    d = hamming64(sig[ai], sig[bi])
    keep = d <= tau
    ai, bi = ai[keep], bi[keep]
    lo = np.minimum(ai, bi)
    hi = np.maximum(ai, bi)
    return lo.astype(np.int64), hi.astype(np.int64)


def broadcast_candidate_edges(
    sig_arrays: dict[int, "np.ndarray"],
    spaces: list[tuple[int, LSHConfig]],
    taus: dict[int, int],
    pair_full_threshold: int = 256,
    exact_identical_cap: int = 0,
):
    """Shuffle-free candidate generation for the post-collapse regime.

    After exact-signature collapse the distinct-signature table is tiny
    (16 bytes/row) — when it fits comfortably in memory, replicating it
    beats an all-to-all: the signature arrays are ``ray.put`` ONCE and
    one Ray task per (space, band) extracts its band key, argsorts,
    pair-generates and Hamming-verifies locally, returning int64 INDEX
    pairs (a few KB).  No groupby, no sort shuffle, no driver-side
    coordination beyond a concat + unique.

    This is the same broadcast-small-side principle as the ray_guide's
    join pattern; the distributed ``candidate_pairs`` groupby remains
    the path for when distinct signatures outgrow memory (the caller
    picks by row count — see pipelines/dedup_images.py).

    Returns (ai, bi): deduplicated int64 index arrays (ai < bi).
    """
    for sp, arr in sig_arrays.items():
        # the dedupe below packs (ai << 32) | bi into one u64 — only
        # valid when indices fit 32 bits (the caller gates this path at
        # BROADCAST_SIG_LIMIT ≪ 2^32; assert so a future caller can't
        # silently corrupt edges)
        if len(arr) >= 1 << 32:
            raise ValueError(
                f"broadcast_candidate_edges: space {sp} has {len(arr)} "
                "rows >= 2^32; use the distributed candidate_pairs path"
            )
    refs = {sp: ray.put(arr.astype(np.uint64)) for sp, arr in sig_arrays.items()}

    # up to 2 CPUs per task: the kernel (u64 sorts + pair gathers) is
    # memory-bandwidth-bound — measured on 28 bands × 1M sigs, 8
    # concurrent tasks beat 28 concurrent by 1.6×, so reserving 2
    # CPUs/task caps concurrency near the bandwidth sweet spot; a
    # 1-CPU session can never grant 2, so the task would wait forever.
    band_task = _band_task.options(
        num_cpus=min(2, ray.cluster_resources().get("CPU", 2))
    )
    futures = []
    for space_id, cfg in spaces:
        r = 64 // cfg.n_blocks
        for band_idx, combo in enumerate(_combos(cfg)):
            futures.append(
                band_task.remote(
                    refs[space_id], combo, r, taus[space_id], band_idx,
                    pair_full_threshold, exact_identical_cap,
                )
            )
    parts = ray.get(futures)
    if not parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ai = np.concatenate([p[0] for p in parts])
    bi = np.concatenate([p[1] for p in parts])
    if len(ai) == 0:
        return ai, bi
    packed = np.unique((ai.astype(np.uint64) << np.uint64(32)) | bi.astype(np.uint64))
    return (packed >> np.uint64(32)).astype(np.int64), (
        packed & np.uint64(0xFFFFFFFF)
    ).astype(np.int64)


def make_verifier(taus: dict[int, int]):
    """map_batches fn: exact Hamming verification per signature space.
    Every space id appearing in the pairs MUST have a τ entry —
    validated per batch (a silent default of 0 would discard every
    pair of an unlisted space)."""
    tau_arr = np.full(max(taus) + 1, -1, dtype=np.int64)
    for k, v in taus.items():
        tau_arr[k] = v

    def verify(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        d = hamming64(
            batch["sig_a"].to_numpy(zero_copy_only=False).view(np.uint64),
            batch["sig_b"].to_numpy(zero_copy_only=False).view(np.uint64),
        )
        space = batch["space"].to_numpy(zero_copy_only=False)
        if space.max() >= len(tau_arr) or tau_arr[space].min() < 0:
            raise ValueError(
                "make_verifier: pairs contain space ids with no taus entry"
            )
        keep = d <= tau_arr[space]
        return batch.filter(pa.array(keep))

    return verify


def candidate_pairs(
    band_rows: rd.Dataset,
    pair_full_threshold: int = 256,
    taus: dict[int, int] | None = None,
    shuffle_blocks: int | None = None,
    exact_identical_cap: int = 0,
    id_type: pa.DataType = pa.string(),
) -> rd.Dataset:
    """ONE all-to-all shuffle (coarse hash partition) → vectorized
    within-partition bucket pairing (+ fused verify when taus given).

    ``shuffle_blocks``: Ray's sort-based shuffle runs one map task per
    input block — a handful of 128 MiB blocks serializes the whole
    exchange.  Prefer repartitioning the NARROW pre-band table on the
    caller side (pipelines/dedup_images.dup_edges does: moving 24 B/row
    beats moving the 43×-larger band table) and leave this None; pass
    a block count only when the input arrives as a few huge blocks."""
    if shuffle_blocks:
        band_rows = band_rows.repartition(shuffle_blocks)
    from .base import map_groups_typed

    return map_groups_typed(
        band_rows, "part",
        make_pair_generator(
            pair_full_threshold, taus, exact_identical_cap, id_type
        ),
        _empty_pairs(id_type),
    )
