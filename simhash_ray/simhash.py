"""64-bit SimHash document encoder — pinned spec, oracle + vectorized impl.

Reproduces the reference encoder's *semantics* (token/shingle hashing →
weighted ±1 bit-vector accumulation → threshold), per SURVEY.md §2.6:
the reference chains tokenize → per-token digest (plus per-character
digests when ``token_similarity``) → integer adder of length ``size``
(+w if digest bit set, −w if clear) → activate top columns
(/root/reference/cxx-src/sdr.cpp:63-79 configures it; algorithm in the
htm.core submodule, public knowledge).  The new engine pins ``bits=64``
and the sign threshold (the sparsity-0.5 degenerate case).

Two implementations, bit-identical by construction and by test
(tests/test_simhash.py):

- :func:`simhash_oracle` — slow, obviously-correct pure Python.  THE SPEC.
- :func:`simhash_batch`  — vectorized numpy path used by the Ray stage
  (simhash_ray/stages/encode.py); per-unique-token hashing with a cache,
  flat-array shingle folding, packed-lane segment-sum accumulation.

Pinned primitives (all keyed by ``SimHashConfig.hash_seed``):

- token hash      = blake2b(token_utf8, digest_size=8, key=seed8)          → u64 LE
- char-gram hash  = blake2b(gram_utf8, digest_size=8, key=seed8, person=b"cg")
- shingle hash    = splitmix64_finalize(fold) where
                    fold = ((...((SEED ^ h0)·M ^ h1)·M ...) ^ h_{k-1})·M  (mod 2^64)
- M = 0x9E3779B97F4A7C15 (golden-ratio odd constant)

Document digest multiset = {shingle hash for every word k-gram}
∪ {char-n-gram hashes of every token occurrence} (when char_ngram > 0).
Rows with fewer than k tokens contribute one shingle over all their
tokens; empty docs → signature 0.  Accumulate ±1 per bit over the
multiset; bit j of the signature is set iff adder[j] > 0 (ties → 0).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .config import SimHashConfig

_M = np.uint64(0x9E3779B97F4A7C15)
_U64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def _seed_key(cfg: SimHashConfig) -> bytes:
    return int(cfg.hash_seed).to_bytes(8, "little")


def _seed_const(cfg: SimHashConfig) -> int:
    """Fold-seed derived from hash_seed (domain-separated from token hashes)."""
    return int.from_bytes(
        hashlib.blake2b(b"fold", digest_size=8, key=_seed_key(cfg)).digest(), "little"
    )


def _splitmix64_py(z: int) -> int:
    z &= 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


def _splitmix64_np(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def token_hash(token: str, cfg: SimHashConfig) -> int:
    return int.from_bytes(
        hashlib.blake2b(
            token.encode("utf-8"), digest_size=8, key=_seed_key(cfg)
        ).digest(),
        "little",
    )


def chargram_hashes(token: str, cfg: SimHashConfig) -> list[int]:
    """Char n-gram digests of one (normalized) token; whole token when
    shorter than n.  The ``token_similarity`` analogue (SURVEY.md §2.6
    step 2)."""
    n = cfg.char_ngram
    if n <= 0:
        return []
    grams = [token[i : i + n] for i in range(max(1, len(token) - n + 1))]
    key = _seed_key(cfg)
    return [
        int.from_bytes(
            hashlib.blake2b(
                g.encode("utf-8"), digest_size=8, key=key, person=b"cg"
            ).digest(),
            "little",
        )
        for g in grams
    ]


def _tokens(text: str, cfg: SimHashConfig) -> list[str]:
    toks = text.split()
    if cfg.lowercase:
        toks = [t.lower() for t in toks]
    return toks


def simhash_oracle(text: str, cfg: SimHashConfig = SimHashConfig()) -> int:
    """Pure-Python spec implementation.  O(len) per doc — test oracle only."""
    toks = _tokens(text, cfg)
    if not toks:
        return 0
    k = min(cfg.shingle_k, len(toks))
    seed = _seed_const(cfg)
    digests: list[int] = []
    for i in range(len(toks) - k + 1):
        acc = seed
        for t in toks[i : i + k]:
            acc = ((acc ^ token_hash(t, cfg)) * int(_M)) & 0xFFFFFFFFFFFFFFFF
        digests.append(_splitmix64_py(acc))
    if cfg.char_ngram > 0:
        for t in toks:  # per occurrence, like the reference's streaming encode
            digests.extend(chargram_hashes(t, cfg))
    adder = [0] * 64
    for h in digests:
        for j in range(64):
            adder[j] += 1 if (h >> j) & 1 else -1
    sig = 0
    for j in range(64):
        if adder[j] > 0:
            sig |= 1 << j
    return sig


class TokenHashCache:
    """Per-process cache: raw token → (u64 hash of the normalized token,
    its char-gram count, and per lane j the number of its char grams
    whose bit j is set).  Natural-language token reuse makes the hit
    rate high; this is the state an encoder process holds (the analogue
    of the reference's per-runner model replica,
    /root/reference/src/Htm/Runner.hs:37-48).

    The cached rows live in one narrow table (uint8 lane counts, uint8
    gram count, u64 hash: 73 bytes a token) indexed by one dict, grown
    by doubling up to ``max_size`` tokens.  A token with more than 255
    char grams does not fit a uint8 lane, so it is hashed again on every
    lookup instead of cached."""

    def __init__(self, cfg: SimHashConfig, max_size: int = 1_000_000):
        self.cfg = cfg
        self.max_size = max_size
        self._row: dict[str, int] = {}
        self._hash = np.empty(0, dtype=np.uint64)
        self._n_grams = np.empty(0, dtype=np.uint8)
        self._bits = np.empty((0, 64), dtype=np.uint8)

    def lookup(
        self, raw_tokens: list[str]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Token hashes (u64, n), char-gram counts (int64, n) and
        per-lane set-bit counts of those grams (n×64, unsigned, at
        least uint8 wide) for a list of *unique* raw tokens.

        The miss path batches all new tokens: blake2b digests stay a C
        loop, but the per-gram bit expansion runs as ONE flat
        (n_grams × 64) unpack + packed-lane segment sum."""
        n = len(raw_tokens)
        get = self._row.get
        rows = np.fromiter((get(t, -1) for t in raw_tokens), np.int64, n)
        miss = np.flatnonzero(rows < 0)
        if not len(miss):
            return (self._hash[rows], self._n_grams[rows].astype(np.int64),
                    self._bits[rows])
        m_hash, m_grams, m_bits = self._hash_tokens([raw_tokens[i] for i in miss])
        hit = np.flatnonzero(rows >= 0)
        hashes = np.empty(n, dtype=np.uint64)
        n_grams = np.empty(n, dtype=np.int64)
        bits = np.empty((n, 64), dtype=m_bits.dtype)
        hashes[hit], hashes[miss] = self._hash[rows[hit]], m_hash
        n_grams[hit], n_grams[miss] = self._n_grams[rows[hit]], m_grams
        bits[hit], bits[miss] = self._bits[rows[hit]], m_bits
        keep = miss[m_grams <= np.iinfo(np.uint8).max][: self.max_size - len(self._row)]
        if len(keep):
            self._store([raw_tokens[i] for i in keep], hashes[keep],
                        n_grams[keep], bits[keep])
        return hashes, n_grams, bits

    def _hash_tokens(self, raw: list[str]):
        """(hashes, gram counts, per-lane set-gram counts) of new tokens."""
        cfg = self.cfg
        norm = [t.lower() for t in raw] if cfg.lowercase else raw
        hashes = np.array([token_hash(t, cfg) for t in norm], dtype=np.uint64)
        grams = [chargram_hashes(t, cfg) for t in norm]
        n_grams = np.array([len(g) for g in grams], dtype=np.int64)
        flat = np.array([h for g in grams for h in g], dtype=np.uint64)
        starts = np.zeros(len(raw), dtype=np.int64)
        np.cumsum(n_grams[:-1], out=starts[1:])
        bound = int(n_grams.max())
        bits = _segment_sum(_unpack_bits64(flat), starts, n_grams, bound)
        return hashes, n_grams, bits.astype(_lane_dtype(bound))

    def _store(self, raw, hashes, n_grams, bits) -> None:
        n0, k = len(self._row), len(raw)
        if n0 + k > len(self._hash):  # grow by doubling, capped at max_size
            cap = min(self.max_size, max(2 * len(self._hash), n0 + k, 1024))
            for name in ("_hash", "_n_grams", "_bits"):
                old = getattr(self, name)
                new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                new[:n0] = old[:n0]
                setattr(self, name, new)
        self._hash[n0 : n0 + k] = hashes
        self._n_grams[n0 : n0 + k] = n_grams
        self._bits[n0 : n0 + k] = bits
        self._row.update(zip(raw, range(n0, n0 + k)))


def _lane_dtype(bound: int):
    """The narrowest unsigned dtype that holds ``bound``."""
    for dt in (np.uint8, np.uint16, np.uint32):
        if bound <= np.iinfo(dt).max:
            return dt
    return np.uint64


def _segment_sum(
    arr: np.ndarray, starts: np.ndarray, counts: np.ndarray, bound: int
) -> np.ndarray:
    """Row-segment lane sums of a non-negative (N, 64) count matrix →
    (n_rows, 64) int64.  ``bound`` must cap every row's lane sum.

    Rows are summed as packed lanes in uint64 words: 8 lanes of 8 bits
    (or 4 of 16, 2 of 32) per word, the narrowest width that holds
    ``bound``, so a word add never carries from one lane into the next
    and ``np.add.reduceat`` touches 8× (4×, 2×) fewer elements than a
    lane-per-element sum.  A bound past 2^32 - 1 sums plain 64-bit
    lanes."""
    lane = _lane_dtype(bound)
    out = np.zeros((len(counts), 64), dtype=lane)
    nz = counts > 0
    if len(arr) and nz.any():
        # reduceat over the starts of NONZERO segments only: those are
        # strictly increasing and < len(arr), so each reduce spans
        # exactly one segment (empty segments sit at the next nonzero
        # start and would otherwise truncate or corrupt their neighbors)
        words = np.ascontiguousarray(arr, dtype=lane).view(np.uint64)
        out.view(np.uint64)[nz] = np.add.reduceat(words, starts[nz], axis=0)
    return out.astype(np.int64)


def _unpack_bits64(h: np.ndarray) -> np.ndarray:
    """(N,) uint64 → (N, 64) uint8 of bits, LSB-first (lane j = bit j)."""
    if len(h) == 0:
        return np.empty((0, 64), dtype=np.uint8)
    bytes_ = h.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(bytes_, axis=1, bitorder="little")


def _tokenize_flat(texts: pa.Array, n: int):
    """Arrow-native whitespace tokenization shared by
    :func:`simhash_batch` and :func:`simhash_digest_rows`: returns
    (unique raw tokens, flat dictionary codes in row order, per-row
    kept-token counts).  Delegates to the audited
    :func:`simhash_ray.functions.tokenize.tokens_flat` (no lowering
    here — lowering policy belongs to the caller)."""
    from .functions.tokenize import tokens_flat

    ft = tokens_flat(texts, lower=False)
    counts = ft.counts
    dict_arr = ft.flat.dictionary_encode()
    uniq = dict_arr.dictionary.to_pylist()
    codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    return uniq, codes, counts


def _shingle_digests(
    h: np.ndarray,
    counts: np.ndarray,
    starts: np.ndarray,
    n: int,
    k: int,
    seed: np.uint64,
):
    """Word-k-gram shingle digests over the flat token-hash array —
    the digest-generation half of :func:`simhash_batch`, shared with
    :func:`simhash_digest_rows`.  Returns (sh_flat, sh_counts,
    sh_starts): digests in row order with per-row counts/offsets.
    Shingle counts: L==0 → 0; 1<=L<k → 1 (whole-row shingle);
    L>=k → L-k+1."""
    sh_counts = np.where(
        counts == 0, 0, np.where(counts < k, 1, counts - k + 1)
    ).astype(np.int64)
    total_sh = int(sh_counts.sum())
    sh_flat = np.empty(total_sh, dtype=np.uint64)
    sh_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(sh_counts, out=sh_starts[1:])

    if len(h) > 0 and k >= 1:
        # full-width shingles computed on the flat array with shifted views
        if len(h) >= k:
            acc = np.full(len(h) - k + 1, seed, dtype=np.uint64)
            for j in range(k):
                acc = (acc ^ h[j : j + len(acc)]) * _M
            full = _splitmix64_np(acc)
        else:
            full = np.empty(0, dtype=np.uint64)
        # a flat position i starts a valid shingle iff i+k-1 is in the same row
        tok_rows = np.repeat(np.arange(n), counts)
        if len(full) > 0:
            valid = tok_rows[: len(full)] == tok_rows[k - 1 :]
            full_in_order = full[valid]
        else:
            full_in_order = full
        long_rows = counts >= k
        # scatter: short rows (0<L<k) occupy one slot each at sh_starts[row]
        short_rows = (counts > 0) & (counts < k)
        slot_is_short = np.zeros(total_sh, dtype=bool)
        slot_is_short[sh_starts[:-1][short_rows]] = True
        assert long_rows.sum() == 0 or len(full_in_order) == (~slot_is_short).sum()
        sh_flat[~slot_is_short] = full_in_order
        if short_rows.any():
            for L in range(1, k):
                rows_L = np.flatnonzero(counts == L)
                if len(rows_L) == 0:
                    continue
                acc = np.full(len(rows_L), seed, dtype=np.uint64)
                for j in range(L):
                    acc = (acc ^ h[starts[rows_L] + j]) * _M
                sh_flat[sh_starts[:-1][rows_L]] = _splitmix64_np(acc)
    return sh_flat, sh_counts, sh_starts


def simhash_digest_rows(
    texts: pa.Array | pa.ChunkedArray, cfg: SimHashConfig = SimHashConfig()
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row digest MULTISET of the encoder — the staging projection
    behind the ``doc_simhash_sigs`` SQL oracle: the digests are staged
    to parquet and DuckDB re-runs the ±1 accumulate + sign fold from
    them (pipelines/queries.SQL_DOC_SIMHASH_SIGS), independently
    cross-checking the encoder's core semantics (SURVEY.md §2.6 steps
    3-4; reference adder at /root/reference/cxx-src/sdr.cpp:63-79).

    Returns (row_idx int64, digest uint64, cnt int64) with
    multiplicities aggregated per (row, digest).  Vectorized the same
    way as :func:`simhash_batch` (shared tokenize/shingle helpers; the
    per-occurrence char-gram replication is a gather over the unique
    tokens' gram table) and bit-faithful to it by construction —
    pinned by test: sign-folding these digests reproduces
    ``simhash_batch`` exactly."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        e = np.empty(0, dtype=np.int64)
        return e, np.empty(0, dtype=np.uint64), e
    uniq, codes, counts = _tokenize_flat(texts, n)
    uhash = TokenHashCache(cfg).lookup(uniq)[0]
    h = uhash[codes]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    starts = offsets[:-1]
    k = cfg.shingle_k
    seed = np.uint64(_seed_const(cfg))
    sh_flat, sh_counts, _ = _shingle_digests(h, counts, starts, n, k, seed)
    rows_sh = np.repeat(np.arange(n, dtype=np.int64), sh_counts)
    parts_d = [sh_flat]
    parts_r = [rows_sh]
    if cfg.char_ngram > 0 and len(codes):
        # per-UNIQUE-token gram digests, replicated per occurrence via
        # one flat gather (no per-occurrence hashing)
        ugram_flat: list[int] = []
        ugram_counts = np.zeros(len(uniq), dtype=np.int64)
        for i, raw in enumerate(uniq):
            norm = raw.lower() if cfg.lowercase else raw
            gh = chargram_hashes(norm, cfg)
            ugram_flat.extend(gh)
            ugram_counts[i] = len(gh)
        ugrams = np.asarray(ugram_flat, dtype=np.uint64)
        ustarts = np.zeros(len(uniq), dtype=np.int64)
        np.cumsum(ugram_counts[:-1], out=ustarts[1:])
        occ_counts = ugram_counts[codes]
        occ_starts = ustarts[codes]
        total = int(occ_counts.sum())
        if total:
            base = np.repeat(occ_starts, occ_counts)
            within = np.arange(total) - np.repeat(
                np.cumsum(occ_counts) - occ_counts, occ_counts
            )
            parts_d.append(ugrams[base + within])
            row_of_occ = np.repeat(np.arange(n, dtype=np.int64), counts)
            parts_r.append(np.repeat(row_of_occ, occ_counts))
    digests = np.concatenate(parts_d)
    rows = np.concatenate(parts_r)
    order = np.lexsort((digests, rows))
    digests, rows = digests[order], rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (digests[1:] != digests[:-1])
    idx = np.flatnonzero(first)
    cnt = np.diff(np.append(idx, len(rows))).astype(np.int64)
    return rows[first], digests[first], cnt


def simhash_batch(
    texts: pa.Array | pa.ChunkedArray,
    cfg: SimHashConfig = SimHashConfig(),
    cache: TokenHashCache | None = None,
) -> np.ndarray:
    """Vectorized SimHash of a string column → uint64 signatures.

    Tokenization stays in Arrow (zero-copy from the object store);
    per-token work touches only the batch's *unique* tokens via
    dictionary encoding + the actor's cache; shingle folding and bit
    accumulation are flat numpy array ops.
    """
    if cache is None:
        cache = TokenHashCache(cfg)
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        return np.empty(0, dtype=np.uint64)

    uniq, codes, counts = _tokenize_flat(texts, n)
    uhash, ugrams, ubits = cache.lookup(uniq)

    h = uhash[codes]  # flat token hashes in row order
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    starts = offsets[:-1]

    k = cfg.shingle_k
    seed = np.uint64(_seed_const(cfg))
    sh_flat, sh_counts, sh_starts = _shingle_digests(h, counts, starts, n, k, seed)

    # --- accumulate -----------------------------------------------------
    # adder = Σ(±1 per digest bit) = 2·(set bits) − n_digests: sum set
    # bits only (each shingle's 0/1, each token occurrence's per-lane
    # set-gram count) and correct with the per-row digest counts.
    n_sh = int(sh_counts.max())
    adder = 2 * _segment_sum(_unpack_bits64(sh_flat), sh_starts[:-1], sh_counts, n_sh)
    adder -= sh_counts[:, None]
    if cfg.char_ngram > 0:
        grams_upto = np.zeros(len(codes) + 1, dtype=np.int64)
        np.cumsum(ugrams[codes], out=grams_upto[1:])
        row_grams = grams_upto[offsets[1:]] - grams_upto[starts]
        bound = int(row_grams.max())
        adder += 2 * _segment_sum(ubits[codes], starts, counts, bound)
        adder -= row_grams[:, None]

    # lane j → bit j: pack each row's 64 sign bits LSB-first into 8 bytes
    return np.packbits(adder > 0, axis=1, bitorder="little").view("<u8").ravel()


_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


def hamming64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized popcount(a XOR b) for uint64 arrays (SWAR bit
    twiddling — ~9× faster than a byte-LUT gather and gather-free, which
    matters in the memory-bandwidth-bound band kernels)."""
    x = np.asarray(a, dtype=np.uint64) ^ np.asarray(b, dtype=np.uint64)
    x = x - ((x >> np.uint64(1)) & _M1)
    x = (x & _M2) + ((x >> np.uint64(2)) & _M2)
    x = (x + (x >> np.uint64(4))) & _M4
    return ((x * _H01) >> np.uint64(56)).astype(np.int64)
