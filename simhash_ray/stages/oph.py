"""One-permutation-hashing (OPH) MinHash — the encode scale path.

The classic :class:`~simhash_ray.stages.minhash.MinHashEncoder` runs
``n_perm`` independent splitmix passes over every shingle hash (a
(n_perm × total_shingles) matrix per batch).  At 100-TB text scale the
encode pass dominates the whole dedup pipeline, so this module provides
the published alternative that needs **one** pass:

* **OPH** (Li, Owen & Zhang, NIPS 2012, "One Permutation Hashing"):
  split the 64-bit hash space into ``n_perm`` equal bins by the top
  ``log2(n_perm)`` bits and keep the minimum shingle hash per bin.  One
  doc → one vector of per-bin minima; two docs agree on a non-empty bin
  with probability equal to their Jaccard similarity, exactly like
  ``n_perm`` true permutations — without rehashing every shingle
  ``n_perm`` times.
* **Rotation densification** (Shrivastava & Li, ICML 2014, "Densifying
  One Permutation Hashing via Rotation for Fast Near Neighbor Search"):
  an empty bin borrows the value of the nearest non-empty bin to its
  right (circular), offset by ``z·C`` for rotation distance ``z`` so
  borrowed values never spuriously collide across different distances.
  Densified signatures keep the agreement-fraction ≈ Jaccard estimator
  and, crucially, make LSH banding work for short documents (an empty
  bin inside a band would otherwise poison the whole band key).

The output schema is IDENTICAL to the classic encoder — ``(id, sig)``
with ``n_perm`` little-endian u64 words packed into one fixed-width
binary value — so banding, pair generation, verification and clustering
are shared with :mod:`simhash_ray.stages.minhash` unchanged.

Scale notes (100 TB): encode cost drops from O(n_perm · shingles) to
O(shingles + n_perm · rows) hash work per batch; everything downstream
(24 B band rows through one bucket groupby, sig-table rejoin verify) is
the audited MinHash path.  The estimator variance at the same
``n_perm`` is slightly higher than independent permutations for very
short documents (few non-empty bins); ``n_perm=64`` keeps the planted
near-dup recall pinned by tests/test_oph.py.

Reference analogue: the SimHash encoder contract (SURVEY §2.6) — this
is the MinHash-side counterpart of that encoder's "hash once,
accumulate vectorized" discipline.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from .minhash import (
    MINHASH_BROADCAST_LIMIT,
    _banded_candidate_pairs,
    _shingle_hashes_flat,
    verify_signatures,
)
from .pairverify import pack_matrix

_U64_MAX = np.uint64(0xFFFFFFFFFFFFFFFF)
# rotation offset: odd 64-bit constant; z·C (mod 2^64) is distinct for
# every rotation distance z < n_perm, so values borrowed across
# different distances never collide by construction
_ROT_C = 0x9E3779B97F4A7C15


def _rot_offset(z: int) -> np.uint64:
    """z·C mod 2^64 computed in Python ints (numpy warns on scalar
    uint64 overflow even though the wrap is the intended semantics)."""
    return np.uint64((z * _ROT_C) & 0xFFFFFFFFFFFFFFFF)


def _oph_sig_row(shingles: np.ndarray, n_perm: int) -> np.ndarray:
    """Per-row reference implementation (plain loops, no batching) —
    the batch encoder is pinned bit-identical to this in
    tests/test_oph.py::test_encoder_matches_per_row_reference."""
    bits = n_perm.bit_length() - 1
    sig = np.full(n_perm, _U64_MAX, dtype=np.uint64)
    filled = np.zeros(n_perm, dtype=bool)
    for h in shingles:
        b = int(np.uint64(h) >> np.uint64(64 - bits))
        if not filled[b] or np.uint64(h) < sig[b]:
            sig[b] = np.uint64(h)
            filled[b] = True
    if not filled.any():
        return sig
    out = sig.copy()
    for i in range(n_perm):
        if filled[i]:
            continue
        for z in range(1, n_perm):
            j = (i + z) % n_perm
            if filled[j]:
                out[i] = np.uint64((int(sig[j]) + z * _ROT_C) & 0xFFFFFFFFFFFFFFFF)
                break
    return out


def _densify_rotation(sigs: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """Vectorized rotation densification over an (n_rows, n_perm)
    bin-minimum matrix: each empty bin takes the value of the nearest
    ORIGINALLY-non-empty bin to its right (circular) plus ``z·_ROT_C``.
    Rows with no filled bin at all (empty docs) keep the all-sentinel
    signature.  Worst case n_perm−1 vectorized shifts; exits as soon as
    every empty bin found a donor."""
    n_perm = sigs.shape[1]
    out = sigs.copy()
    need = ~filled & filled.any(axis=1)[:, None]
    for z in range(1, n_perm):
        if not need.any():
            break
        donor_ok = np.roll(filled, -z, axis=1)
        take = need & donor_ok
        if take.any():
            donor_vals = np.roll(sigs, -z, axis=1)
            out[take] = donor_vals[take] + _rot_offset(z)
            need &= ~take
    return out


class OPHEncoder:
    """Actor stage: (id, text) → (id, sig), sig = n_perm densified
    per-bin minima packed little-endian (same wire format as
    :class:`~simhash_ray.stages.minhash.MinHashEncoder`).

    ONE hash pass: shingle hashes from the audited tokenizer are
    already (row-ascending, value-ascending), so the top-bits bin index
    is non-decreasing within each row and the per-(row, bin) minimum is
    simply the first element of each run — no sort, no scatter-min."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        shingle_k: int = 2,
        n_perm: int = 64,
    ):
        if n_perm < 2 or n_perm & (n_perm - 1):
            raise ValueError(f"n_perm must be a power of two >= 2, got {n_perm}")
        self.text_col, self.id_col = text_col, id_col
        self.shingle_k, self.n_perm = shingle_k, n_perm
        self._shift = np.uint64(64 - (n_perm.bit_length() - 1))

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh, rows, n = _shingle_hashes_flat(batch[self.text_col], self.shingle_k)
        n_perm = self.n_perm
        sigs = np.full((n, n_perm), _U64_MAX, dtype=np.uint64)
        filled = np.zeros((n, n_perm), dtype=bool)
        if len(sh):
            bins = (sh >> self._shift).astype(np.int64)
            idx = rows * n_perm + bins
            # rows ascending, sh ascending within row ⇒ idx non-decreasing
            # and sh ascending within each equal-idx run: run-first = min
            first = np.ones(len(idx), dtype=bool)
            first[1:] = idx[1:] != idx[:-1]
            sigs.reshape(-1)[idx[first]] = sh[first]
            filled.reshape(-1)[idx[first]] = True
            sigs = _densify_rotation(sigs, filled)
        return pa.table(
            {
                "id": batch[self.id_col].cast(pa.int64()),
                "sig": pack_matrix(sigs),
            }
        )


def oph_signatures(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    concurrency=(1, 8),
) -> rd.Dataset:
    """(id, sig) OPH signature table (actor pool, hash-once encode)."""
    return docs.select_columns([id_col, text_col]).map_batches(
        OPHEncoder,
        fn_constructor_kwargs={
            "text_col": text_col,
            "id_col": id_col,
            "shingle_k": shingle_k,
            "n_perm": n_perm,
        },
        batch_format="pyarrow",
        batch_size=2048,
        concurrency=concurrency,
    )


def oph_dup_pairs(
    docs: rd.Dataset,
    theta: float = 0.7,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    n_bands: int = 16,
    concurrency=(1, 8),
    n_parts: int = 64,
    pair_full_threshold: int = 512,
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """(a, b, est_jaccard) near-dup pairs with the OPH encoder — the
    downstream (band expand → bucket groupby → pair dedupe → sig-rejoin
    verify, broadcast below the bound / hash join above) is byte-for-
    byte the audited classic-MinHash path; only the signature table's
    producer differs."""
    limit = MINHASH_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    sig_ds = oph_signatures(
        docs, text_col, id_col, shingle_k, n_perm, concurrency
    ).materialize()
    pairs = _banded_candidate_pairs(
        sig_ds, n_perm, n_bands, n_parts, pair_full_threshold
    )
    return verify_signatures(pairs, sig_ds, theta, n_perm, sig_ds.count() <= limit)
