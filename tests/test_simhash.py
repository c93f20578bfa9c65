"""Golden-oracle tests for the 64-bit SimHash encoder (SURVEY.md §5.1).

The pure-Python :func:`simhash_oracle` is the spec; the vectorized
:func:`simhash_batch` must match it bit-for-bit on every input shape.
Pure numpy/pyarrow — no Ray needed here.
"""

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simhash_ray.config import SimHashConfig
from simhash_ray.simhash import (
    TokenHashCache,
    hamming64,
    simhash_batch,
    simhash_oracle,
)

CFG = SimHashConfig()

SAMPLES = [
    "",
    "   ",
    "one",
    "one two",
    "one two three four five",
    "the quick brown fox jumps over the lazy dog",
    "the quick brown fox jumps over the lazy cat",
    "The QUICK brown FOX",
    "  leading and trailing  ",
    "tabs\tand\nnewlines here",
    "repeat repeat repeat repeat",
    "unicode tøkens füß İstanbul",
    "a, b, c, commas, inside",
    "x" * 300,
    " ".join(f"w{i}" for i in range(100)),
]


def test_batch_matches_oracle_default_config():
    sigs = simhash_batch(pa.array(SAMPLES), CFG)
    expected = np.array([simhash_oracle(t, CFG) for t in SAMPLES], dtype=np.uint64)
    np.testing.assert_array_equal(sigs, expected)


@pytest.mark.parametrize(
    "cfg",
    [
        SimHashConfig(shingle_k=1),
        SimHashConfig(shingle_k=3),
        SimHashConfig(char_ngram=0),
        SimHashConfig(char_ngram=2),
        SimHashConfig(lowercase=False),
        SimHashConfig(hash_seed=12345),
    ],
)
def test_batch_matches_oracle_config_sweep(cfg):
    sigs = simhash_batch(pa.array(SAMPLES), cfg)
    expected = np.array([simhash_oracle(t, cfg) for t in SAMPLES], dtype=np.uint64)
    np.testing.assert_array_equal(sigs, expected)


@pytest.mark.parametrize(
    "kwargs",
    [{"bits": 128}, {"bits": 32}, {"shingle_k": 0}, {"char_ngram": -1}],
)
def test_invalid_config_rejected_loudly(kwargs):
    """Config validation fails at construction, not deep in a kernel
    (SURVEY §2 S3: 'validate loudly')."""
    with pytest.raises(ValueError):
        SimHashConfig(**kwargs)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
            max_size=40,
        ),
        max_size=8,
    )
)
def test_batch_matches_oracle_property(texts):
    sigs = simhash_batch(pa.array(texts, type=pa.string()), CFG)
    expected = np.array([simhash_oracle(t, CFG) for t in texts], dtype=np.uint64)
    np.testing.assert_array_equal(sigs, expected)


def test_deterministic_and_cache_invariant():
    cache = TokenHashCache(CFG)
    a = simhash_batch(pa.array(SAMPLES), CFG, cache)
    b = simhash_batch(pa.array(SAMPLES), CFG, cache)  # warm cache
    c = simhash_batch(pa.array(SAMPLES), CFG)  # cold cache
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(a, c)


def test_nulls_and_chunked():
    arr = pa.chunked_array([["a b c", None], ["", "d e"]])
    sigs = simhash_batch(arr, CFG)
    assert sigs[1] == 0 and sigs[2] == 0
    assert sigs[0] == simhash_oracle("a b c", CFG)
    assert sigs[3] == simhash_oracle("d e", CFG)


def test_single_edit_is_near():
    """A one-word substitution in a long caption stays within a small
    Hamming ball — the property LSH banding relies on."""
    base = "alpha bravo charlie delta echo foxtrot golf hotel india juliet kilo lima"
    edited = base.replace("golf", "gulf")
    d = hamming64(
        np.array([simhash_oracle(base, CFG)], dtype=np.uint64),
        np.array([simhash_oracle(edited, CFG)], dtype=np.uint64),
    )[0]
    assert 0 < d <= 16


def test_disjoint_texts_are_far():
    a = simhash_oracle("alpha bravo charlie delta echo foxtrot golf hotel", CFG)
    b = simhash_oracle("zulu yankee xray whiskey victor uniform tango sierra", CFG)
    d = hamming64(np.array([a], dtype=np.uint64), np.array([b], dtype=np.uint64))[0]
    assert d > 16


def test_char_ngram_divergence():
    """token_similarity analogue: with char n-grams on, near-spellings are
    closer than with it off (SURVEY.md §2.6 step 2)."""
    on, off = SimHashConfig(char_ngram=3), SimHashConfig(char_ngram=0)
    t1, t2 = "misspelling of a wordd here today", "misspelling of a words here today"

    def d(cfg):
        return hamming64(
            np.array([simhash_oracle(t1, cfg)], dtype=np.uint64),
            np.array([simhash_oracle(t2, cfg)], dtype=np.uint64),
        )[0]

    assert simhash_oracle(t1, on) != simhash_oracle(t1, off)
    assert d(on) <= d(off) + 2  # overlapping char-grams shouldn't push apart


def test_shingle_order_sensitivity():
    """k>=2 word shingles make word order matter."""
    a = simhash_oracle("one two three four five six", CFG)
    b = simhash_oracle("six five four three two one", CFG)
    assert a != b


def test_hamming64_known_values():
    a = np.array([0, 0xFFFFFFFFFFFFFFFF, 0b1010], dtype=np.uint64)
    b = np.array([0, 0, 0b0101], dtype=np.uint64)
    np.testing.assert_array_equal(hamming64(a, b), [0, 64, 4])


# --------------------------------------------------------------------------
# packed-lane accumulate: overflow guards and the cache's memory bound


def _overflow_rows():
    rng = np.random.default_rng(2024)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))

    def word(n):
        return "".join(rng.choice(letters, n))

    return [
        "a caption " + word(200) + " with one long token",  # 198 grams > 127
        word(300) + " " + word(5),  # 298 grams: too wide to cache
        " ".join(["x" * 100] * 700),  # every lane sums to ±68,600
        "",
        " ".join("".join(p) for p in rng.choice(letters, (700_000, 2))),  # 2.1 MB
        "the quick brown fox",
    ]


# simhash_batch of _overflow_rows() before the accumulate was narrowed
# (int64 reduceat over int32 per-token ±1 sums); each equals the oracle
_OVERFLOW_GOLDEN = [
    0x6F27CBAA3E51242C, 0x547891C6D475B4B8, 0xD7A5009B9DFDBA07,
    0x0, 0xF0E8661F5841D5C1, 0x05891E91CD1034E3,
]


def test_accumulate_overflow_rows_match_oracle_across_batch_splits():
    """Rows that overflow a narrow lane: a token with more than 127 (and
    more than 255) char grams, a row of 700 tokens whose 98 grams all
    agree, so 700 × max|contrib| and every lane's sum pass the int16
    and uint16 ranges, an empty row and a 2.1 MB document (over 65,535
    shingles).  Every batch split, with a warm and with a cold cache,
    gives the oracle's and the pre-narrowing signatures."""
    rows = _overflow_rows()
    want = np.array(_OVERFLOW_GOLDEN, dtype=np.uint64)
    oracle = np.array([simhash_oracle(t, CFG) for t in rows], dtype=np.uint64)
    np.testing.assert_array_equal(oracle, want)
    warm = TokenHashCache(CFG)
    n = len(rows)
    splits = [[range(n)], [[i] for i in range(n)], [range(3), range(3, n)]]
    for split in splits:
        for cache in (warm, TokenHashCache(CFG)):
            for idx in split:
                idx = list(idx)
                got = simhash_batch(pa.array([rows[i] for i in idx]), CFG, cache)
                np.testing.assert_array_equal(got, want[idx])


@pytest.mark.parametrize("bound", [255, 256, 65_535, 65_536, 2**32 - 1, 2**32])
def test_segment_sum_every_lane_width(bound):
    """Each packed lane width (8, 16, 32 bits, and plain 64) sums to the
    int64 reference, also where a row's lane sum sits exactly at the
    width's maximum (a carry would spill into the next lane)."""
    from simhash_ray.simhash import _segment_sum

    rng = np.random.default_rng(bound % 1000)
    counts = np.array([0, 3, 1, 0, 5, 2, 0], dtype=np.int64)
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    top = min(bound, 65_535)  # per-element values stay small in memory
    arr = rng.integers(0, top // 5 + 1, (int(counts.sum()), 64)).astype(np.int64)
    arr[starts[1] : starts[1] + 3, :] = 0
    arr[starts[1], ::2] = top  # row 1 reaches the lane maximum in half its lanes
    want = np.zeros((len(counts), 64), dtype=np.int64)
    for r, (s, c) in enumerate(zip(starts, counts)):
        want[r] = arr[s : s + c].sum(axis=0)
    assert want.max() <= bound
    got = _segment_sum(arr, starts, counts, bound)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_token_cache_bytes_per_token_bound():
    """A cached token costs one narrow table row plus its dict entry:
    under 300 bytes (541 with one int32 ndarray a token), traced over
    50,000 distinct tokens; ``max_size`` caps the entries."""
    import gc
    import tracemalloc

    n = 50_000
    tracemalloc.start()
    try:
        cache = TokenHashCache(CFG)
        for lo in range(0, n, 4096):
            cache.lookup([f"w{i}q{i * 7919 % 1009}" for i in range(lo, min(n, lo + 4096))])
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / n < 300, held / n
    small = TokenHashCache(CFG, max_size=1000)
    small.lookup([f"t{i}" for i in range(5000)])
    small.lookup([f"u{i}" for i in range(5000)])
    assert len(small._row) == 1000 and len(small._hash) == 1000


# --------------------------------------------------------------------------
# digest-multiset projection (the doc_simhash_sigs staged-oracle seam)


def _fold_digests(rows, digs, cnt, n):
    """The ±1 accumulate + sign fold the SQL oracle re-runs in DuckDB
    (pipelines/queries.SQL_DOC_SIMHASH_SIGS), in numpy."""
    sigs = np.zeros(n, dtype=np.uint64)
    for j in range(64):
        bit = ((digs >> np.uint64(j)) & np.uint64(1)).astype(np.int64)
        adder = np.bincount(rows, weights=cnt * (2 * bit - 1), minlength=n)
        sigs |= (adder > 0).astype(np.uint64) << np.uint64(j)
    return sigs


@pytest.mark.parametrize(
    "cfg",
    [
        CFG,
        SimHashConfig(shingle_k=1),
        SimHashConfig(shingle_k=3),
        SimHashConfig(char_ngram=0),
        SimHashConfig(char_ngram=2),
        SimHashConfig(lowercase=False),
    ],
)
def test_digest_rows_fold_reproduces_batch(cfg):
    """Sign-folding the staged digest multiset must reproduce
    simhash_batch exactly — the pin that makes the staged SQL oracle a
    real cross-check of the encoder's accumulate semantics."""
    from simhash_ray.simhash import simhash_digest_rows

    texts = pa.array(SAMPLES)
    rows, digs, cnt = simhash_digest_rows(texts, cfg)
    # multiset is aggregated: no duplicate (row, digest) keys, counts >= 1
    key = rows.astype(object) * (1 << 64) + digs.astype(object)
    assert len(set(key)) == len(key)
    assert (cnt >= 1).all()
    got = _fold_digests(rows, digs, cnt, len(SAMPLES))
    np.testing.assert_array_equal(got, simhash_batch(texts, cfg))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FFF),
            max_size=40,
        ),
        max_size=8,
    )
)
def test_digest_rows_fold_property(texts):
    from simhash_ray.simhash import simhash_digest_rows

    arr = pa.array(texts, type=pa.string())
    rows, digs, cnt = simhash_digest_rows(arr, CFG)
    got = _fold_digests(rows, digs, cnt, len(texts))
    np.testing.assert_array_equal(got, simhash_batch(arr, CFG))


def test_idf_weighted_signatures_cap1_equals_uniform_and_layout_invariant():
    """weight_cap=1 forces every weight to 1 (n//df >= 1 always), so
    the weighted fold must reproduce the uniform encoder bit-for-bit;
    the real weights must be partition-layout-invariant."""
    import pandas as pd
    import ray.data as rd

    from simhash_ray.config import DEFAULT_CONFIG
    from simhash_ray.stages.encode import (
        encode_signatures,
        idf_weighted_signatures,
    )

    rng = np.random.default_rng(13)
    vocab = np.array([f"t{i}" for i in range(200)])
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 25))) for _ in range(300)]
    texts += ["", "   "]
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )
    ds = rd.from_pandas(df).repartition(5)
    cap1 = (
        idf_weighted_signatures(ds, DEFAULT_CONFIG.simhash, weight_cap=1)
        .to_pandas().set_index("doc_id").sort_index()
    )
    uni = (
        encode_signatures(rd.from_pandas(df), DEFAULT_CONFIG.simhash, text_col="text")
        .select_columns(["doc_id", "simhash"])
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert (cap1["simhash"] == uni["simhash"]).all()
    w1 = (
        idf_weighted_signatures(ds, DEFAULT_CONFIG.simhash)
        .to_pandas().set_index("doc_id").sort_index()
    )
    w2 = (
        idf_weighted_signatures(
            rd.from_pandas(df).repartition(17), DEFAULT_CONFIG.simhash
        )
        .to_pandas().set_index("doc_id").sort_index()
    )
    assert (w1["simhash"] == w2["simhash"]).all()
    # empty/whitespace docs land on signature 0 in both variants
    assert w1.loc[300, "simhash"] == 0 and w1.loc[301, "simhash"] == 0
