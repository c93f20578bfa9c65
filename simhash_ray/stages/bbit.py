"""b-bit MinHash: signature compression + corrected-estimator verify.

Published scheme: Li & König, "b-Bit Minwise Hashing", WWW 2010
(arXiv:0910.3349).  Storing only the lowest ``b`` bits of each of the
``n_perm`` minwise values cuts the stored/shuffled/broadcast signature
table by ``64/b``× (b=4 → 16×) — at 100-TB corpus scale the signature
table is the long-lived artifact (it is what verify broadcasts or
joins, what incremental ingest keeps as corpus state), so its width is
a first-order cost.  The price is a known estimator correction: two
b-bit lanes collide by chance with probability C = 1/2^b even for
unrelated sets, so with A = fraction of agreeing lanes,

    E[A] = C + (1 - C) · J      ⇒      Ĵ = (A - C) / (1 - C)

(the large-universe form of the paper's Eq. 3 — exact-integer rational
form below, never floats, so the SQL oracle compares exactly).

Pipeline placement: candidate generation still bands the FULL-width
minima (transient during encode — banding on b-bit lanes would collapse
the key space to 2^(r·b) and flood every bucket); only the durable
verify table is b-bit.  The decision "Ĵ ≥ θ" for rational θ = num/den
is evaluated in exact integer arithmetic:

    Ĵ ≥ num/den  ⇔  den · (agree · 2^b − n_perm) ≥ num · n_perm · (2^b − 1)

Reference for the surrounding machinery: stages/minhash.py (encoder,
band expander, pair generator) and stages/pairverify.py (the gather).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..simhash import hamming64
from .minhash import MINHASH_BROADCAST_LIMIT
from .pairverify import pack_matrix, unpack_matrix, verify_pairs

_VALID_B = (1, 2, 4, 8, 16, 32)


def _check_b(b: int) -> None:
    if b not in _VALID_B:
        raise ValueError(f"b must be one of {_VALID_B}, got {b}")


def words_per_row(b: int, n_perm: int) -> int:
    lanes_per_word = 64 // b
    return -(-n_perm // lanes_per_word)


def pack_bbit_matrix(mat: np.ndarray, b: int) -> np.ndarray:
    """(n, n_perm) uint64 minima → (n, n_words) uint64 of packed b-bit
    lanes (lane i at bits [i·b, (i+1)·b) of word i // lanes_per_word,
    unused high lanes zero)."""
    _check_b(b)
    n, n_perm = mat.shape
    lanes_per_word = 64 // b
    n_words = words_per_row(b, n_perm)
    low = (mat & np.uint64((1 << b) - 1)).astype(np.uint64)
    pad = n_words * lanes_per_word - n_perm
    if pad:
        low = np.concatenate([low, np.zeros((n, pad), dtype=np.uint64)], axis=1)
    low = low.reshape(n, n_words, lanes_per_word)
    shifts = np.arange(lanes_per_word, dtype=np.uint64) * np.uint64(b)
    return np.bitwise_or.reduce(low << shifts, axis=2)


def unpack_bbit_matrix(words: np.ndarray, b: int, n_perm: int) -> np.ndarray:
    """Inverse of :func:`pack_bbit_matrix` → (n, n_perm) uint64 lane
    values (each < 2^b)."""
    _check_b(b)
    lanes_per_word = 64 // b
    shifts = np.arange(lanes_per_word, dtype=np.uint64) * np.uint64(b)
    lanes = (words[:, :, None] >> shifts) & np.uint64((1 << b) - 1)
    return lanes.reshape(words.shape[0], -1)[:, :n_perm]


def bbit_agreement(
    wa: np.ndarray, wb: np.ndarray, b: int, n_perm: int
) -> np.ndarray:
    """Per-row count of agreeing b-bit lanes between two packed
    matrices (m, n_words) — OR-fold each lane's XOR down to its low
    bit, then SWAR-popcount the lane-difference mask.  Padded lanes
    XOR to zero on both sides, so they never count as differing."""
    _check_b(b)
    x = wa ^ wb
    s = 1
    while s < b:
        x = x | (x >> np.uint64(s))
        s *= 2
    lanes_per_word = 64 // b
    lane_mask = np.uint64(0)
    for i in range(lanes_per_word):
        lane_mask |= np.uint64(1) << np.uint64(i * b)
    diff = hamming64(x & lane_mask, np.uint64(0))
    if diff.ndim == 2:
        diff = diff.sum(axis=1)
    return np.int64(n_perm) - diff


def agree_threshold_keep(
    agree: np.ndarray, b: int, n_perm: int, theta_num: int, theta_den: int
) -> np.ndarray:
    """Exact-integer decision Ĵ ≥ num/den.  The comparison runs in
    int64 vector arithmetic; exactness requires
    ``theta_den * n_perm * 2**b < 2**62`` (checked loudly) — far above
    any practical config (b ≤ 16, n_perm ≤ 2^20, den ≤ 2^16)."""
    if int(theta_den) * int(n_perm) * (1 << b) >= 1 << 62:
        raise ValueError(
            f"agree_threshold_keep: theta_den={theta_den} * n_perm="
            f"{n_perm} * 2^{b} overflows the int64 decision arithmetic"
        )
    a = agree.astype(np.int64)
    lhs = int(theta_den) * (a * (1 << b) - n_perm)
    rhs = int(theta_num) * n_perm * ((1 << b) - 1)
    return lhs >= rhs


def pack_bbit(
    sig_ds: rd.Dataset,
    b: int,
    n_perm: int = 64,
    id_col: str = "id",
    sig_col: str = "sig",
) -> rd.Dataset:
    """(id, sig) full-width signature table → (id, bsig) packed b-bit
    table, ``64/b``× narrower; one streaming pass."""
    _check_b(b)

    def fn(batch: pa.Table) -> pa.Table:
        mat = unpack_matrix(batch[sig_col], n_perm)
        return pa.table(
            {
                "id": batch[id_col].cast(pa.int64()),
                "bsig": pack_matrix(pack_bbit_matrix(mat, b)),
            }
        )

    return sig_ds.map_batches(fn, batch_format="pyarrow")


_EMPTY_BBIT_VERIFIED = pa.table(
    {
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
        "agree": pa.array([], type=pa.int64()),
    }
)


def bbit_verify(
    pairs: rd.Dataset,
    packed: rd.Dataset,
    theta: tuple[int, int],
    b: int,
    n_perm: int = 64,
) -> rd.Dataset:
    """Verify candidate (a, b) pairs against the PACKED table only,
    through stages/pairverify: a ``ray.put`` broadcast up to
    ``MINHASH_BROADCAST_LIMIT`` rows (a payload ``64/b``× smaller than
    the full-width table's — the point of the scheme), two hash joins
    above.  Output (a, b, agree) for pairs passing the
    corrected-estimator threshold; ``agree`` is the integer
    lane-agreement count, so the SQL oracle compares exactly."""
    _check_b(b)
    theta_num, theta_den = theta
    n_words = words_per_row(b, n_perm)

    def check(a, bb, fa, fb) -> pa.Table:
        agree = bbit_agreement(
            unpack_matrix(fa, n_words), unpack_matrix(fb, n_words), b, n_perm
        )
        keep = agree_threshold_keep(agree, b, n_perm, theta_num, theta_den)
        return pa.table(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(bb[keep], type=pa.int64()),
                "agree": pa.array(agree[keep], type=pa.int64()),
            }
        )

    return verify_pairs(
        pairs, packed, check, _EMPTY_BBIT_VERIFIED,
        packed.count() <= MINHASH_BROADCAST_LIMIT,
    )


def bbit_dup_pairs(
    docs: rd.Dataset,
    theta: tuple[int, int] = (7, 10),
    b: int = 4,
    shingle_k: int = 2,
    n_perm: int = 64,
    n_bands: int = 16,
    concurrency=(1, 8),
    pair_full_threshold: int = 512,
    n_parts: int = 64,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> rd.Dataset:
    """End-to-end b-bit MinHash near-dup pairs: full-width encode →
    full-width LSH banding (transient) → b-bit pack → packed-table
    verify with the corrected-estimator integer threshold."""
    from .minhash import _banded_candidate_pairs, minhash_signatures

    sig_ds = minhash_signatures(
        docs,
        text_col=text_col,
        id_col=id_col,
        shingle_k=shingle_k,
        n_perm=n_perm,
        concurrency=concurrency,
    ).materialize()
    # Share minhash's recall-bearing banding prefix verbatim (band
    # expand → bucket groupby → pair dedupe) so fixes to partition
    # sizing / star semantics reach this path automatically.
    pairs = _banded_candidate_pairs(
        sig_ds, n_perm, n_bands, n_parts, pair_full_threshold
    ).materialize()
    packed = pack_bbit(sig_ds, b, n_perm).materialize()
    return bbit_verify(pairs, packed, theta, b, n_perm)
