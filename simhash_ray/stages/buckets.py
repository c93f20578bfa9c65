"""Bucket pairing, the step between LSH banding and verification:
sort rows by bucket key, find the runs of equal keys, emit all C(g,2)
pairs per run.  Numpy only, no Ray.  Every candidate generator (SimHash
and MinHash banding, the broadcast band tasks, prefix-filter and window
joins, collapsed-group expansion) calls :func:`runs` and
:func:`all_pairs`; the LSH operators send runs above their
``pair_full_threshold`` to :func:`oversized_bucket_pairs`, the one skew
policy.  Any other per-run policy (ssjoin's ``run_cap`` error, the
window joins' ``max_df`` filter) is written at its call site.
"""

from __future__ import annotations

import logging

import numpy as np

# Above ``pair_full_threshold`` members, a bucket's cross-sig pairs are
# still generated EXACTLY (triu over the distinct-sig run heads) up to
# this many distinct sigs — 4096 heads = 8.4M candidate pairs ≈ 0.25 s
# of SWAR popcount, a bounded cost for a pathological bucket.  Beyond
# it the star fallback concedes recall for pairs whose EVERY shared
# band bucket is this degenerate, and a warning is logged.
OVERSIZED_EXACT_CAP = 4096

# Per-identical-sig-run pair budget for pairs-emitting operators
# (exact_identical_cap): C(g,2) pairs enumerate exactly up to this many
# per run (1<<24 ≈ 16.7M pairs ⇔ g ≈ 5800 identical members, ~270 MB of
# index arrays); past it the run degrades to the connectivity chain
# with a loud warning.  0 (the clustering default) keeps the chain for
# every oversized run — clustering only needs connectivity.
EXACT_IDENTICAL_PAIRS_CAP = 1 << 24

_oversized_cap_warned = False
_identical_cap_warned = False


def runs(*sorted_cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the maximal runs of equal rows across
    ``sorted_cols`` (equal-length arrays, sorted together so that equal
    keys are adjacent)."""
    n = len(sorted_cols[0])
    new_run = np.zeros(n, dtype=bool)
    new_run[:1] = True
    for c in sorted_cols:
        new_run[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(new_run)
    return starts, np.diff(np.append(starts, n))


def all_pairs(
    starts: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair (i, j), i < j, inside each run ``[s, s + g)``.

    Vectorized by distinct run length: collision runs are
    overwhelmingly g == 2 (each near-dup pair re-collides in up to
    every band) — a Python loop per run costs ~70 CPU-seconds per
    400k-row input; one triu template per distinct g costs ~none."""
    sel = lengths >= 2
    starts, lengths = starts[sel], lengths[sel]
    a_parts, b_parts = [], []
    for g in np.unique(lengths):
        run_starts = starts[lengths == g]
        i, j = np.triu_indices(int(g), 1)
        a_parts.append((run_starts[:, None] + i[None, :]).ravel())
        b_parts.append((run_starts[:, None] + j[None, :]).ravel())
    if not a_parts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(a_parts), np.concatenate(b_parts)


def oversized_bucket_pairs(
    seg_order: np.ndarray, seg_sig: np.ndarray, exact_identical_cap: int = 0,
    emit_identical: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges for one oversized (> pair_full_threshold) bucket whose
    members ``seg_order`` are given sig-sorted.

    (a) Identical-sig runs: Hamming-0 chains (keep hot masses connected
    when the caller skipped exact-collapse); with
    ``exact_identical_cap`` > 0 (pairs-emitting operators) the exact
    C(r,2) pairs of each run up to that many pairs, chain + warning
    beyond; ``emit_identical=False`` skips them (bands > 0: identical
    members share every band's key, so band 0 enumerates them once).
    (b) Distinct-sig run heads: all pairs up to OVERSIZED_EXACT_CAP
    heads — cross-sig recall stays 1.0 — else a star from the first head
    with a warning, the only regime where a within-τ pair can be missed,
    and only if every band bucket it shares is equally degenerate.

    Returns (a_idx, b_idx, star): star is False only for exact
    identical-sig pairs, True for chain / head-pair / head-star edges."""
    global _identical_cap_warned, _oversized_cap_warned
    starts, lengths = runs(seg_sig)
    parts = []
    chained = lengths >= 2
    if exact_identical_cap > 0:
        n_pairs = lengths * (lengths - 1) // 2
        exact = chained & (n_pairs <= exact_identical_cap) & emit_identical
        i, j = all_pairs(starts[exact], lengths[exact])
        parts.append((seg_order[i], seg_order[j], False))
        chained = (n_pairs > exact_identical_cap) & emit_identical
        if chained.any() and not _identical_cap_warned:
            logging.getLogger(__name__).warning(
                "identical-sig run of %d members (%d pairs) exceeds "
                "exact_identical_cap=%d: emitting the connectivity "
                "chain instead of exact pairs (logged once per "
                "worker)", lengths[chained].max(), n_pairs[chained].max(),
                exact_identical_cap,
            )
            _identical_cap_warned = True
    # connectivity chain through each chained run: member k → k + 1
    in_chain = np.repeat(chained, lengths)[1:] & (seg_sig[1:] == seg_sig[:-1])
    chain_b = np.flatnonzero(in_chain) + 1
    parts.append((seg_order[chain_b - 1], seg_order[chain_b], True))
    heads = seg_order[starts]
    h = len(heads)
    if h > OVERSIZED_EXACT_CAP:
        if not _oversized_cap_warned:
            logging.getLogger(__name__).warning(
                "oversized LSH bucket with %d distinct sigs > "
                "OVERSIZED_EXACT_CAP=%d: falling back to a head-star; "
                "within-tau pairs confined to such buckets may be "
                "missed (logged once per worker)",
                h, OVERSIZED_EXACT_CAP,
            )
            _oversized_cap_warned = True
        parts.append((np.full(h - 1, heads[0]), heads[1:], True))
    else:
        i, j = all_pairs(np.zeros(1, np.int64), np.array([h]))
        parts.append((heads[i], heads[j], True))
    return (
        np.concatenate([a for a, _, _ in parts]),
        np.concatenate([b for _, b, _ in parts]),
        np.concatenate([np.full(len(a), star) for a, _, star in parts]),
    )
