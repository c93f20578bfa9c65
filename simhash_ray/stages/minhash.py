"""MinHash + LSH near-duplicate detection for text corpora.

Scale path for n-gram-Jaccard dedup: word-shingle → 64-perm MinHash →
band buckets → candidate pairs → Jaccard-estimate verify.  Same
coarse-partition shuffle pattern as stages/lsh.py (one groupby, numpy
run processing inside partitions).

Shuffle diet (round-2 redesign): the expensive shingling+permutation
encode runs ONCE into a narrow signature table (id, 512-byte sig);
band rows derived from it carry only (id, band, key, part) ≈ 24 B/row
— NOT the full signature — so the all-to-all band shuffle moves ~16×
fewer bytes per doc than replicating the signature into every band.
Candidate pairs are globally deduped, then verified against the
signature table through stages/pairverify (``ray.put`` broadcast when
it fits, two hash joins above ``MINHASH_BROADCAST_LIMIT``).

Skew guard: buckets larger than ``pair_full_threshold`` get the LSH
oversized-bucket policy (stages/buckets) on a bucket with no identical
signatures — exact pairs up to ``OVERSIZED_EXACT_CAP`` members, a star
to the min id beyond; fallback edges are flagged in the ``star`` column.

The exact counterpart (``all_pairs_jaccard``) is a broadcast
all-pairs operator used as the correctness oracle at validation scale;
MinHash recall against it is tested on planted paraphrase fixtures.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.hashing import part_of_ints
from ..functions.tokenize import tokens_flat
from .buckets import runs
from .cluster import dedupe_edges
from .lsh import lsh_bucket_pairs
from .pairverify import pack_matrix, unpack_matrix, verify_pairs

_MIX = np.uint64(0x9E3779B97F4A7C15)

# signature-table rows above this use the hash-join verify path instead
# of a ray.put broadcast (512 B/doc → 2M rows ≈ 1 GB replicated)
MINHASH_BROADCAST_LIMIT = 2_000_000


_ACC_SEED = np.uint64(0x5851F42D4C957F2D)


def _shingle_hashes_flat(
    texts: pa.ChunkedArray | pa.Array,
    k: int,
    short_rows: str = "fold",
    return_lens: bool = False,
):
    """Whole-batch shingle hashing, no per-row Python in the main path.

    ``short_rows``: rows with fewer than k tokens either "fold" into a
    single whole-row shingle (MinHash semantics, kk = len(row)) or
    "drop" (windowed-substring semantics: no window fits).

    Returns (shingles, row_of, n_rows): sorted-deduped u64 k-gram
    hashes of every row concatenated, with each shingle's row index.
    With ``return_lens=True`` a fourth element is appended: the
    per-row count of non-empty tokens (consumers needing both token
    counts and shingles tokenize once here, not twice).
    Token hashing runs ONCE over the flattened token column; the
    k-gram rolling combine is a length-k vectorized fold over the flat
    array with cross-row positions masked out; per-row dedup is one
    lexsort + run collapse.  Rows shorter than k fall back to a tiny
    Python loop (kk = len(row)), identical to the historical per-row
    semantics — signatures are bit-for-bit unchanged.

    Tokenization is delegated to the audited
    :func:`simhash_ray.functions.tokenize.tokens_flat` (round-3 verdict
    item 1: the raw split kernel nondeterministically corrupts the tail
    token on trailing-whitespace rows)."""
    ft = tokens_flat(texts)
    n = ft.n
    row_of_tok = ft.row_of
    tok_list = ft.to_object_array()
    lens = ft.counts

    def _ret(sh, rows):
        return (sh, rows, n, lens) if return_lens else (sh, rows, n)

    if len(tok_list) == 0:
        return _ret(np.empty(0, np.uint64), np.empty(0, np.int64))
    th = pd.util.hash_array(tok_list)

    parts_s: list[np.ndarray] = []
    parts_r: list[np.ndarray] = []
    if len(th) >= k:
        acc = np.full(len(th) - k + 1, _ACC_SEED, dtype=np.uint64)
        for j in range(k):
            acc = (acc ^ th[j : j + len(acc)]) * _MIX
        acc ^= acc >> np.uint64(31)
        valid = row_of_tok[: len(acc)] == row_of_tok[k - 1 :]
        parts_s.append(acc[valid])
        parts_r.append(row_of_tok[: len(acc)][valid])
    # rows with 0 < len < k: kk = len(row) → one shingle = the whole row
    short_rows_idx = np.flatnonzero((lens > 0) & (lens < k))
    if short_rows == "drop":
        short_rows_idx = short_rows_idx[:0]
    if len(short_rows_idx):
        starts = np.concatenate([[0], np.cumsum(lens)])
        for r in short_rows_idx:
            seg = th[starts[r] : starts[r + 1]]
            kk = len(seg)
            acc = np.full(1, _ACC_SEED, dtype=np.uint64)
            for j in range(kk):
                acc = (acc ^ seg[j : j + 1]) * _MIX
            acc ^= acc >> np.uint64(31)
            parts_s.append(acc)
            parts_r.append(np.array([r], dtype=np.int64))
    if not parts_s:
        return _ret(np.empty(0, np.uint64), np.empty(0, np.int64))
    sh = np.concatenate(parts_s)
    rows = np.concatenate(parts_r).astype(np.int64)
    order = np.lexsort((sh, rows))
    sh, rows = sh[order], rows[order]
    first = np.ones(len(sh), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (sh[1:] != sh[:-1])
    return _ret(sh[first], rows[first])


def _shingle_hashes(texts: pa.ChunkedArray | pa.Array, k: int) -> list[np.ndarray]:
    """Per row: u64 hashes of the distinct word k-gram shingles
    (ragged-list view over :func:`_shingle_hashes_flat`)."""
    sh, rows, n = _shingle_hashes_flat(texts, k)
    if n == 0:
        return []
    counts = np.bincount(rows, minlength=n)
    return np.split(sh, np.cumsum(counts)[:-1])


def _minhash_sig(shingles: np.ndarray, n_perm: int, seeds: np.ndarray) -> np.ndarray:
    """64-bit universal-hash permutations: h_i(x) = splitmix(x ^ seed_i).

    Per-row reference implementation — the batch encoder's reduceat
    path is pinned bit-identical to this in
    tests/test_minhash_ann.py::test_encoder_matches_per_row_reference."""
    if len(shingles) == 0:
        return np.full(n_perm, np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
    z = shingles[None, :] ^ seeds[:, None]  # (n_perm, n_shingles)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z.min(axis=1)


def _default_seeds(n_perm: int, seed: int = 7_2025) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**63, n_perm, dtype=np.uint64)


class MinHashEncoder:
    """Actor stage: (id, text) → (id, sig) with sig = the n_perm u64
    minima packed little-endian into one binary value.  The expensive
    shingling runs exactly once per doc; banding and verification both
    derive from this table."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        shingle_k: int = 2,
        n_perm: int = 64,
        seed: int = 7_2025,
    ):
        self.text_col, self.id_col = text_col, id_col
        self.shingle_k, self.n_perm = shingle_k, n_perm
        self.seeds = _default_seeds(n_perm, seed)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh, rows, n = _shingle_hashes_flat(batch[self.text_col], self.shingle_k)
        # one (n_perm × total_shingles) permutation pass + segment-min
        # per row via reduceat — no per-row Python
        sigs = np.full((n, self.n_perm), np.uint64(0xFFFFFFFFFFFFFFFF), dtype=np.uint64)
        if len(sh):
            counts = np.bincount(rows, minlength=n)
            nonempty = np.flatnonzero(counts)
            starts = np.concatenate([[0], np.cumsum(counts[nonempty])[:-1]])
            z = sh[None, :] ^ self.seeds[:, None]
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z ^= z >> np.uint64(31)
            sigs[nonempty, :] = np.minimum.reduceat(z, starts, axis=1).T
        return pa.table(
            {
                "id": batch[self.id_col].cast(pa.int64()),
                "sig": pack_matrix(sigs),
            }
        )


def make_band_expander(n_perm: int = 64, n_bands: int = 16, n_parts: int = 64):
    """(id, sig) → narrow band rows (id, band, key, part): each band's
    rows_per_band minima fold into one u64 key.  ~24 B per band row —
    the signature itself never enters the shuffle."""
    assert n_perm % n_bands == 0
    rows_per_band = n_perm // n_bands

    def expand(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        if n == 0:
            return _EMPTY_BANDS
        sigs = unpack_matrix(batch["sig"], n_perm)
        ids = batch["id"].to_numpy(zero_copy_only=False)
        out_id, out_band, out_key = [], [], []
        for b in range(n_bands):
            seg = sigs[:, b * rows_per_band : (b + 1) * rows_per_band]
            key = np.zeros(n, dtype=np.uint64)
            for j in range(rows_per_band):
                key = (key ^ seg[:, j]) * _MIX
            key ^= key >> np.uint64(31)
            out_id.append(ids)
            out_band.append(np.full(n, b, dtype=np.int32))
            out_key.append(key.view(np.int64))
        band = np.concatenate(out_band)
        key = np.concatenate(out_key)
        part = part_of_ints(n_parts, band.astype(np.int64), key)
        return pa.table(
            {
                "id": pa.array(np.concatenate(out_id), type=pa.int64()),
                "band": pa.array(band, type=pa.int32()),
                "key": pa.array(key, type=pa.int64()),
                "part": pa.array(part, type=pa.int32()),
            }
        )

    return expand


_EMPTY_BANDS = pa.table(
    {
        "id": pa.array([], type=pa.int64()),
        "band": pa.array([], type=pa.int32()),
        "key": pa.array([], type=pa.int64()),
        "part": pa.array([], type=pa.int32()),
    }
)

_EMPTY_VERIFIED = pa.table(
    {
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
        "est_jaccard": pa.array([], type=pa.float64()),
    }
)

_EMPTY_PAIRS = pa.table(
    {
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
        "star": pa.array([], type=pa.bool_()),
    }
)


def make_pair_generator(pair_full_threshold: int = 512):
    """Per-coarse-partition candidate generation over narrow band rows.

    Runs ≤ ``pair_full_threshold`` emit all C(g,2) pairs; larger runs
    (hot buckets) get the LSH oversized policy — exact pairs up to
    ``OVERSIZED_EXACT_CAP`` members, an O(g) star to the bucket's min id
    beyond — flagged in the ``star`` column."""

    def pairs(group: pa.Table) -> pa.Table:
        ids = group["id"].to_numpy(zero_copy_only=False)
        band = group["band"].to_numpy(zero_copy_only=False)
        key = group["key"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, key, band))
        ids, band, key = ids[order], band[order], key[order]
        starts, lengths = runs(band, key)
        # a run's ids are distinct and sorted: the LSH policy sees a
        # bucket with no identical signatures (exact pairs up to the
        # cap, a star from the min id beyond)
        ai, bi, stars = lsh_bucket_pairs(
            starts, lengths, ids, band[starts], pair_full_threshold
        )
        if len(ai) == 0:
            return _EMPTY_PAIRS
        a, b = ids[ai], ids[bi]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return pa.table(
            {
                "a": pa.array(lo, type=pa.int64()),
                "b": pa.array(hi, type=pa.int64()),
                "star": pa.array(stars, type=pa.bool_()),
            }
        )

    return pairs


def verify_signatures(
    pairs: rd.Dataset,
    sig_ds: rd.Dataset,
    theta: float,
    n_perm: int,
    broadcast: bool,
) -> rd.Dataset:
    """(a, b, est_jaccard ≥ θ) for candidate pairs over an (id, sig)
    signature table: the estimate is the fraction of agreeing minima,
    gathered by stages/pairverify (broadcast or two hash joins)."""

    def check(a, b, fa, fb) -> pa.Table:
        est = (unpack_matrix(fa, n_perm) == unpack_matrix(fb, n_perm)).mean(axis=1)
        keep = est >= theta
        return pa.table(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(b[keep], type=pa.int64()),
                "est_jaccard": pa.array(est[keep], type=pa.float64()),
            }
        )

    return verify_pairs(pairs, sig_ds, check, _EMPTY_VERIFIED, broadcast)


def minhash_signatures(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    concurrency=(1, 8),
) -> rd.Dataset:
    """(id, sig) MinHash signature table (actor pool, encode-once)."""
    return docs.select_columns([id_col, text_col]).map_batches(
        MinHashEncoder,
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


def _banded_candidate_pairs(
    sig_ds: rd.Dataset,
    n_perm: int,
    n_bands: int,
    n_parts: int,
    pair_full_threshold: int,
) -> rd.Dataset:
    """Deduped (a, b) LSH candidate pairs from a signature table: band
    expand → one bucket groupby → the pair reduce (cluster.dedupe_edges)."""
    from .base import map_groups_typed

    bands = sig_ds.map_batches(
        make_band_expander(n_perm, n_bands, n_parts), batch_format="pyarrow"
    )
    pairs = map_groups_typed(
        bands, "part", make_pair_generator(pair_full_threshold), _EMPTY_PAIRS
    )
    return dedupe_edges(pairs.select_columns(["a", "b"]), n_parts, pa.int64())


def minhash_candidate_pairs(
    docs: rd.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    n_bands: int = 16,
    concurrency=(1, 8),
    n_parts: int = 64,
    pair_full_threshold: int = 512,
) -> rd.Dataset:
    """Deduped (a, b) MinHash-LSH candidate pairs WITHOUT any
    verify — the recall-bearing prefix shared by the Jaccard-estimate
    verify (:func:`minhash_dup_pairs`) and the exact edit-distance
    verify (:func:`editdist_dup_pairs`).  The signature table stays
    lazy here — it has exactly one consumer (the band expand); only
    minhash_dup_pairs, which reuses it for count + verify,
    materializes it."""
    sig_ds = minhash_signatures(
        docs, text_col, id_col, shingle_k, n_perm, concurrency
    )
    return _banded_candidate_pairs(
        sig_ds, n_perm, n_bands, n_parts, pair_full_threshold
    )


def minhash_dup_pairs(
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
    """(a, b, est_jaccard) candidate-verified near-dup pairs.

    encode once → narrow band rows → one bucket groupby → pair reduce
    → signature-rejoin verify (broadcast or hash join)."""
    limit = MINHASH_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    sig_ds = minhash_signatures(
        docs, text_col, id_col, shingle_k, n_perm, concurrency
    ).materialize()
    pairs = _banded_candidate_pairs(
        sig_ds, n_perm, n_bands, n_parts, pair_full_threshold
    )
    return verify_signatures(pairs, sig_ds, theta, n_perm, sig_ds.count() <= limit)


def all_pairs_jaccard(
    docs: rd.Dataset,
    theta_num: int,
    theta_den: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    use_token_sets: bool = False,
    measure: str = "jaccard",
) -> rd.Dataset:
    """EXACT all-pairs set-similarity ≥ θ via a broadcast small side.

    ``measure="jaccard"`` (default) returns (a, b, inter, uni) with the
    exact rational threshold ``inter/uni >= theta_num/theta_den``;
    ``measure="containment"`` returns (a, b, inter, msize) thresholded
    as ``inter/min(|A|,|B|) >= theta_num/theta_den`` — the overlap
    coefficient, which catches near-SUPERSET duplicates (a doc wrapped
    in boilerplate contains the original: containment ≈ 1 while
    Jaccard ≈ |small|/|big| can sit far below any Jaccard θ, so both
    the exact Jaccard operator and the MinHash banding miss it).
    Empty-set rows never pair (denominator > 0 required, both
    measures).  Thresholds compare by integer cross-multiplication
    (bit-exact vs a SQL oracle — a float θ literal would disagree with
    SQL on boundary pairs).  The full shingle-set table is broadcast via
    ``ray.put`` once and compared per batch — valid while the corpus
    fits a worker heap (validation/oracle scale); the scalable EXACT
    counterpart for token-set Jaccard is
    :func:`..stages.ssjoin.prefix_jaccard_pairs` (prefix-filter
    inverted index, wired and pinned equal), the probabilistic one is
    :func:`minhash_dup_pairs`; for containment a prefix-filter variant
    (index the rarest ⌈(1−t)·|x|⌉+1 tokens) remains unwired — this
    operator raises no pretence of scaling past the broadcast regime.
    """
    if measure not in ("jaccard", "containment"):
        raise ValueError(f"unknown measure {measure!r}")

    def row_sets(batch: pa.Table) -> list[tuple[int, np.ndarray]]:
        ids = batch[id_col].to_pylist()
        if use_token_sets:
            sets = [
                np.unique(pd.util.hash_array(np.array(sorted(set(r.tolist())), dtype=object)))
                if len(r)
                else np.empty(0, dtype=np.uint64)
                for r in tokens_flat(batch[text_col]).per_row_lists()
            ]
        else:
            sets = _shingle_hashes(batch[text_col], shingle_k)
        return list(zip(ids, sets))

    # Build the broadcast universe: dense binary matrix over the corpus's
    # distinct shingle hashes (streamed once on the driver, ray.put once).
    all_sets: list[tuple[int, np.ndarray]] = []
    for batch in docs.select_columns([id_col, text_col]).iter_batches(
        batch_size=4096, batch_format="pyarrow"
    ):
        all_sets.extend(row_sets(batch))
    all_sets.sort(key=lambda t: t[0])
    vocab: dict[int, int] = {}
    for _, s in all_sets:
        for v in s:
            vocab.setdefault(int(v), len(vocab))
    uni_ids = np.array([i for i, _ in all_sets], dtype=np.int64)
    mat = np.zeros((len(all_sets), len(vocab)), dtype=np.int8)
    for r, (_, s) in enumerate(all_sets):
        mat[r, [vocab[int(v)] for v in s]] = 1
    sizes = mat.sum(axis=1).astype(np.int64)
    ref = ray.put((uni_ids, mat, sizes, vocab))

    def compare(batch: pa.Table) -> pa.Table:
        uids, umat, usizes, uvocab = ray.get(ref)
        mine = row_sets(batch)
        my_ids = np.array([i for i, _ in mine], dtype=np.int64)
        my_mat = np.zeros((len(mine), umat.shape[1]), dtype=np.int8)
        for r, (_, s) in enumerate(mine):
            cols = [uvocab[int(v)] for v in s if int(v) in uvocab]
            my_mat[r, cols] = 1
        inter = my_mat.astype(np.int32) @ umat.astype(np.int32).T  # (B, N)
        my_sizes = my_mat.sum(axis=1).astype(np.int64)
        if measure == "jaccard":
            denom = my_sizes[:, None] + usizes[None, :] - inter
            denom_col = "uni"
        else:
            denom = np.minimum(my_sizes[:, None], usizes[None, :])
            denom_col = "msize"
        keep = (
            (denom > 0)
            & (inter.astype(np.int64) * theta_den >= theta_num * denom)
            & (my_ids[:, None] < uids[None, :])
        )
        bi, ui = np.nonzero(keep)
        return pa.table(
            {
                "a": pa.array(my_ids[bi], type=pa.int64()),
                "b": pa.array(uids[ui], type=pa.int64()),
                "inter": pa.array(inter[bi, ui].astype(np.int64), type=pa.int64()),
                denom_col: pa.array(
                    denom[bi, ui].astype(np.int64), type=pa.int64()
                ),
            }
        )

    return docs.select_columns([id_col, text_col]).map_batches(
        compare, batch_format="pyarrow", batch_size=1024
    )


def minhash_dedup(
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
) -> rd.Dataset:
    """(doc_id, cluster_id, is_representative) — near-dup CLUSTERS by
    estimated Jaccard ≥ θ: :func:`minhash_dup_pairs`' verified pairs
    union-found into connected components, min-id representative, every
    input row assigned (the MinHash twin of
    pipelines.dedup_docs.dedup_documents; callers that already hold the
    verified pair table pass it via ``pairs`` so the encode runs once).

    Scale shape: the verified pair set is tiny relative to the corpus
    (near-dups only), so below ``broadcast_limit`` pairs collect once,
    union-find runs on the driver and labels attach via one broadcast
    map — zero extra shuffles.  Above it (force with
    ``broadcast_limit=0``; equivalence-tested) the distributed
    min-label-propagation rounds take over on the native ids, and
    labels attach via a hash ``Dataset.join``
    (stages.cluster.assign_clusters)."""
    from .cluster import assign_clusters

    limit = MINHASH_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    if pairs is None:
        pairs = minhash_dup_pairs(
            docs, theta, text_col, id_col, shingle_k, n_perm, n_bands,
            concurrency, n_parts,
        )
    return assign_clusters(
        docs, pairs, id_col=id_col, n_parts=n_parts, broadcast_limit=limit
    )


# ---------------------------------------------------------------------------
# exact edit-distance verify (RefinedWeb-style fuzzy near-dup pairs)
#
# The Jaccard-estimate verify above scores candidates in SIGNATURE
# space; this alternative verifies them in TEXT space with the exact
# character-level Levenshtein distance — the semantics a "≤ d edits"
# near-dup rule wants and the one DuckDB's levenshtein() replays for
# the oracle.  Same recall-bearing prefix (minhash_candidate_pairs);
# only the verify differs.  Texts attach to the pairs through
# stages/pairverify (broadcast up to EDITDIST_BROADCAST_LIMIT docs, two
# hash joins above it); the DP kernel is row-vectorized numpy
# (O(len_a · len_b) worst case) with a band early-exit at cap+1, and
# pairs whose length gap alone exceeds the cap never run the DP.

EDITDIST_BROADCAST_LIMIT = 2_000_000  # docs (id + text) via ray.put


def levenshtein_capped(a: str, b: str, cap: int) -> int:
    """Exact unit-cost Levenshtein distance over UTF-8 BYTES, except
    any value > cap is reported as cap + 1 (band early-exit — callers
    only threshold).

    Byte domain, not codepoints, deliberately: DuckDB 1.x's
    ``levenshtein()`` counts UTF-8 bytes ('café…' vs 'cafe…' is 2 per
    accent, not 1), and the oracle must replay the operator exactly
    (round-4 review finding; pinned by the accented-alphabet fuzz in
    tests/test_minhash_ann.py)."""
    ab, bb = a.encode("utf-8"), b.encode("utf-8")
    la, lb = len(ab), len(bb)
    if abs(la - lb) > cap:
        return cap + 1
    if ab == bb:
        return 0
    if la == 0 or lb == 0:
        return max(la, lb) if max(la, lb) <= cap else cap + 1
    av = np.frombuffer(ab, dtype=np.uint8)
    bv = np.frombuffer(bb, dtype=np.uint8)
    ar = np.arange(lb + 1, dtype=np.int32)
    prev = ar.copy()
    for i in range(la):
        sub = prev[:-1] + (bv != av[i])
        cur = np.empty(lb + 1, dtype=np.int32)
        cur[0] = i + 1
        cur[1:] = np.minimum(prev[1:] + 1, sub)
        # left-to-right insertion chain: cur[j] = min_k<=j cur[k]+(j-k)
        cur = ar + np.minimum.accumulate(cur - ar)
        if cur.min() > cap:
            return cap + 1
        prev = cur
    return int(prev[-1]) if prev[-1] <= cap else cap + 1


# frontier-element budget per batched-DP chunk (× int32 × a few live
# arrays ≈ 64 MB); module-level so tests can force the chunked path
_DP_CHUNK_ELEMS = 1 << 22


def _levenshtein_dp_batch(av: np.ndarray, bv: np.ndarray, cap: int) -> np.ndarray:
    """Capped Levenshtein for a GROUP of same-length byte pairs: one
    numpy recurrence over the whole (m, len_b+1) frontier instead of a
    Python call per pair (round-4 verdict item 5 — the per-pair loop's
    interpreter overhead dominated at high candidate volume).  Early
    exit when every row's frontier minimum exceeds the cap."""
    m, len_a = av.shape
    len_b = bv.shape[1]
    ar = np.arange(len_b + 1, dtype=np.int32)
    prev = np.broadcast_to(ar, (m, len_b + 1)).copy()
    for i in range(len_a):
        sub = prev[:, :-1] + (bv != av[:, i : i + 1])
        cur = np.empty_like(prev)
        cur[:, 0] = i + 1
        cur[:, 1:] = np.minimum(prev[:, 1:] + 1, sub)
        # left-to-right insertion chain (same recurrence as the scalar)
        cur = ar + np.minimum.accumulate(cur - ar, axis=1)
        if (cur.min(axis=1) > cap).all():
            return np.full(m, cap + 1, dtype=np.int64)
        prev = cur
    d = prev[:, -1].astype(np.int64)
    return np.where(d <= cap, d, cap + 1)


def levenshtein_capped_pairs(ta, tb, cap: int) -> np.ndarray:
    """Vectorized :func:`levenshtein_capped` over aligned string
    sequences: trivial cases (length gap > cap, byte-equal, empty side)
    resolve in bulk; the rest group by exact (len_a, len_b) and run
    one :func:`_levenshtein_dp_batch` per shape (near-dup candidates
    cluster tightly in length, so groups are large).  Returns int64
    distances with values > cap reported as cap + 1."""
    n = len(ta)
    out = np.zeros(n, dtype=np.int64)
    if n == 0:
        return out
    ab = [t.encode("utf-8") for t in ta]
    bb = [t.encode("utf-8") for t in tb]
    la = np.fromiter((len(x) for x in ab), dtype=np.int64, count=n)
    lb = np.fromiter((len(x) for x in bb), dtype=np.int64, count=n)
    gap = np.abs(la - lb) > cap
    out[gap] = cap + 1
    need = ~gap
    eq = np.fromiter(
        (ab[i] == bb[i] for i in range(n)), dtype=bool, count=n
    ) & need
    need &= ~eq  # equal pairs stay 0
    empty = need & ((la == 0) | (lb == 0))
    out[empty] = np.minimum(np.maximum(la[empty], lb[empty]), cap + 1)
    need &= ~empty
    idx = np.flatnonzero(need)
    if len(idx) == 0:
        return out
    combo = (la[idx] << np.int64(32)) | lb[idx]
    for c in np.unique(combo):
        rows = idx[combo == c]
        len_a = int(c >> np.int64(32))
        len_b = int(c & np.int64(0xFFFFFFFF))
        # bound the DP frontier to ~64 MB: m rows × (len_b+1) int32 ×
        # a few live arrays — long-document groups chunk instead of
        # allocating an unbounded (m, len_b) matrix
        chunk = max(1, _DP_CHUNK_ELEMS // (len_b + 1))
        for s in range(0, len(rows), chunk):
            rs = rows[s : s + chunk]
            av = np.frombuffer(
                b"".join(ab[i] for i in rs), dtype=np.uint8
            ).reshape(len(rs), len_a)
            bv = np.frombuffer(
                b"".join(bb[i] for i in rs), dtype=np.uint8
            ).reshape(len(rs), len_b)
            out[rs] = _levenshtein_dp_batch(av, bv, cap)
    return out


def editdist_verify(
    pairs: rd.Dataset,
    docs: rd.Dataset,
    max_dist: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """(a, b, dist) for candidate pairs whose texts are within
    ``max_dist`` unit edits.  Pairs with a null text on either side are
    dropped (the SQL oracle's ``levenshtein(NULL, …)`` is NULL and
    fails the threshold — semantics pinned equal); verify_pairs drops
    them as it drops absent ids."""
    limit = EDITDIST_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    narrow = docs.select_columns([id_col, text_col])

    def check(a, b, fa, fb) -> pa.Table:
        ta = fa.to_numpy(zero_copy_only=False)
        tb = fb.to_numpy(zero_copy_only=False)
        d = levenshtein_capped_pairs(ta, tb, max_dist)
        keep = d <= max_dist
        return pa.table(
            {
                "a": pa.array(a[keep], type=pa.int64()),
                "b": pa.array(b[keep], type=pa.int64()),
                "dist": pa.array(d[keep], type=pa.int64()),
            }
        )

    empty = pa.table(
        {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
         "dist": pa.array([], pa.int64())}
    )
    return verify_pairs(pairs, narrow, check, empty, narrow.count() <= limit)


def editdist_dup_pairs(
    docs: rd.Dataset,
    max_dist: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    n_bands: int = 16,
    concurrency=(1, 8),
    n_parts: int = 64,
    broadcast_limit: int | None = None,
) -> rd.Dataset:
    """MinHash-LSH candidates → exact Levenshtein ≤ max_dist verify.
    Recall is the banding's (a pair must share one band bucket);
    precision is exact."""
    cands = minhash_candidate_pairs(
        docs, text_col, id_col, shingle_k, n_perm, n_bands, concurrency, n_parts
    )
    return editdist_verify(
        cands, docs, max_dist, text_col, id_col, broadcast_limit
    )


# ---------------------------------------------------------------------------
# cross-table similarity JOIN (left probe × right corpus)

_cross_cap_warned = False


def make_cross_pair_generator(bucket_pair_cap: int = 1 << 20):
    """Per-coarse-partition CROSS-SIDE candidate generation: band rows
    carry a boolean ``left`` flag; within each (band, key) run only
    left×right pairs are emitted.  A similarity JOIN must not pay for
    within-side pairs, and the dedup generator's hot-bucket star
    fallback would silently lose cross pairs between non-min members —
    so the join gets its own generator.  Orientation is preserved:
    ``a`` = left id, ``b`` = right id (never min/max-swapped).

    A run whose left×right product exceeds ``bucket_pair_cap`` is
    truncated deterministically (lowest (a, b) first) with a loud
    once-per-worker log — the banding's recall is probabilistic
    already; the truncation is visible in the staged candidate set so
    oracles stay consistent."""

    def pairs(group: pa.Table) -> pa.Table:
        ids = group["id"].to_numpy(zero_copy_only=False)
        band = group["band"].to_numpy(zero_copy_only=False)
        key = group["key"].to_numpy(zero_copy_only=False)
        is_left = group["left"].to_numpy(zero_copy_only=False)
        # lefts first inside each run (~is_left sorts False<True)
        order = np.lexsort((ids, ~is_left, key, band))
        ids, band, key, is_left = (
            ids[order], band[order], key[order], is_left[order]
        )
        starts, lengths = runs(band, key)
        # lefts per run: prefix sums over the sorted flag
        cl = np.concatenate([[0], np.cumsum(is_left)])
        n_left = cl[starts + lengths] - cl[starts]
        n_right = lengths - n_left
        a_i, b_i = [], []
        both = (n_left > 0) & (n_right > 0)
        combo = n_left * (np.int64(1) << np.int64(32)) + n_right
        for c in np.unique(combo[both]):  # vectorized per (L, R) shape
            gl = int(c >> np.int64(32))
            gr = int(c & ((np.int64(1) << np.int64(32)) - 1))
            run_starts = starts[both & (combo == c)]
            if gl * gr > bucket_pair_cap:
                global _cross_cap_warned
                if not _cross_cap_warned:
                    import logging

                    logging.getLogger(__name__).warning(
                        "similarity-join bucket with %d x %d members exceeds "
                        "bucket_pair_cap=%d: truncating to the cap (lowest "
                        "id pairs kept; logged once per worker)",
                        gl, gr, bucket_pair_cap,
                    )
                    _cross_cap_warned = True
            # build only the truncated index range: materializing the full
            # gl*gr cross product before slicing would allocate O(gl*gr)
            # memory for a hot bucket, defeating the cap's purpose
            m = min(gl * gr, bucket_pair_cap)
            lin = np.arange(m, dtype=np.int64)
            i = lin // gr
            j = lin % gr
            a_i.append((run_starts[:, None] + i[None, :]).ravel())
            b_i.append((run_starts[:, None] + gl + j[None, :]).ravel())
        if not a_i:
            return _EMPTY_PAIRS
        a = ids[np.concatenate(a_i)]
        b = ids[np.concatenate(b_i)]
        if np.any(a == b):
            raise ValueError(
                "minhash_similarity_join: left and right id spaces overlap "
                "(the same id appeared on both sides of a bucket)"
            )
        return pa.table(
            {
                "a": pa.array(a, type=pa.int64()),
                "b": pa.array(b, type=pa.int64()),
                "star": pa.array(np.zeros(len(a), dtype=bool)),
            }
        )

    return pairs


def _bands_with_side(
    sig_ds: rd.Dataset, left_flag: bool, n_perm: int, n_bands: int, n_parts: int
) -> rd.Dataset:
    exp = make_band_expander(n_perm, n_bands, n_parts)

    def fn(batch: pa.Table) -> pa.Table:
        t = exp(batch)
        return t.append_column(
            "left", pa.array(np.full(t.num_rows, left_flag), type=pa.bool_())
        )

    return sig_ds.map_batches(fn, batch_format="pyarrow")


def similarity_join_candidates(
    left_sigs: rd.Dataset,
    right_sigs: rd.Dataset,
    n_perm: int = 64,
    n_bands: int = 16,
    n_parts: int = 64,
    bucket_pair_cap: int = 1 << 20,
) -> rd.Dataset:
    """Deduped cross-side candidate pairs (a = left id, b = right id)
    from two (id, sig) signature tables with DISJOINT id spaces
    (caller contract; an in-bucket collision raises).  Shared shape
    with the dedup path: band expand (side flag riding the ~25 B band
    rows) → one bucket groupby → cross-side pairing → the pair reduce
    (cluster.dedupe_edges keeps each pair's orientation)."""
    from .base import map_groups_typed

    bands = _bands_with_side(
        left_sigs, True, n_perm, n_bands, n_parts
    ).union(_bands_with_side(right_sigs, False, n_perm, n_bands, n_parts))
    pairs = map_groups_typed(
        bands, "part", make_cross_pair_generator(bucket_pair_cap), _EMPTY_PAIRS
    )
    return dedupe_edges(pairs.select_columns(["a", "b"]), n_parts, pa.int64())


def minhash_similarity_join(
    left: rd.Dataset,
    right: rd.Dataset,
    theta: float = 0.7,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 2,
    n_perm: int = 64,
    n_bands: int = 16,
    concurrency=(1, 8),
    n_parts: int = 64,
    broadcast_limit: int | None = None,
    bucket_pair_cap: int = 1 << 20,
) -> rd.Dataset:
    """Cross-TABLE near-duplicate join: (a = left id, b = right id,
    est_jaccard ≥ θ) — "which rows of the new crawl near-match the
    existing corpus / blocklist", the similarity analogue of
    decontaminate's exact window join.  Both sides are MinHash-encoded
    once (same seeds, so signatures are comparable), banded together
    with a side flag, paired cross-side only, and verified by
    signature agreement through the shared broadcast-or-hash-join
    verify.  Id spaces must be disjoint (an in-bucket collision
    raises).  Scale notes: within-side dup mass costs nothing (no
    within-side pairs are generated); the shuffle carries narrow band
    rows and (a, b) pairs only."""
    limit = MINHASH_BROADCAST_LIMIT if broadcast_limit is None else broadcast_limit
    left_sigs = minhash_signatures(
        left, text_col, id_col, shingle_k, n_perm, concurrency
    ).materialize()
    right_sigs = minhash_signatures(
        right, text_col, id_col, shingle_k, n_perm, concurrency
    ).materialize()
    pairs = similarity_join_candidates(
        left_sigs, right_sigs, n_perm, n_bands, n_parts, bucket_pair_cap
    )
    sig_ds = left_sigs.union(right_sigs).materialize()
    return verify_signatures(pairs, sig_ds, theta, n_perm, sig_ds.count() <= limit)
