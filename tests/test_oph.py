"""One-permutation-hashing MinHash: batch ≡ per-row reference,
densification invariants, estimator quality, planted-dup recall."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.stages.minhash import _shingle_hashes
from simhash_ray.stages.oph import (
    _U64_MAX,
    OPHEncoder,
    _oph_sig_row,
    oph_dup_pairs,
    oph_signatures,
)
from simhash_ray.stages.pairverify import unpack_matrix


def _random_corpus(n=120, seed=11):
    rng = np.random.default_rng(seed)
    vocab = np.array([f"t{i:03d}q" for i in range(500)])
    docs = [" ".join(rng.choice(vocab, rng.integers(0, 80))) for _ in range(n)]
    docs += ["", "one", "a b", "x " * 3]  # empty / shorter-than-k edge rows
    return pd.DataFrame(
        {"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs}
    )


def _encode(df: pd.DataFrame, n_perm=64, batch_rows=None) -> np.ndarray:
    """Run the encoder over the frame (optionally in slices) and return
    the (n, n_perm) u64 signature matrix in doc order."""
    enc = OPHEncoder(n_perm=n_perm)
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    pieces = (
        [tbl]
        if batch_rows is None
        else [tbl.slice(i, batch_rows) for i in range(0, tbl.num_rows, batch_rows)]
    )
    outs = [enc(p) for p in pieces]
    out = pa.concat_tables(outs)
    order = np.argsort(out["id"].to_numpy(zero_copy_only=False))
    return unpack_matrix(out["sig"].combine_chunks(), n_perm)[order]


def test_encoder_matches_per_row_reference():
    df = _random_corpus()
    got = _encode(df)
    shingles = _shingle_hashes(pa.array(df["text"], type=pa.string()), 2)
    for i, sh in enumerate(shingles):
        want = _oph_sig_row(sh, 64)
        assert (got[i] == want).all(), f"row {i} diverges from reference"


def test_batch_split_invariance():
    df = _random_corpus(seed=12)
    assert (_encode(df) == _encode(df, batch_rows=7)).all()
    assert (_encode(df) == _encode(df, batch_rows=1)).all()


def test_densification_invariants():
    df = _random_corpus(seed=13)
    sigs = _encode(df)
    texts = df["text"].tolist()
    for i, t in enumerate(texts):
        if t.split():
            # any non-empty doc densifies every bin: no sentinel survives
            assert (sigs[i] != _U64_MAX).all(), f"sentinel left in row {i}: {t!r}"
        else:
            assert (sigs[i] == _U64_MAX).all()


def test_identical_docs_identical_sigs():
    df = pd.DataFrame(
        {
            "doc_id": np.arange(4, dtype=np.int64),
            "text": ["alpha beta gamma delta"] * 2 + ["single"] * 2,
        }
    )
    sigs = _encode(df)
    assert (sigs[0] == sigs[1]).all()
    assert (sigs[2] == sigs[3]).all()
    assert (sigs[0] != sigs[2]).any()


def test_estimator_tracks_jaccard():
    """Matching-bin fraction ≈ true shingle Jaccard: build pairs with a
    controlled token overlap and require the MEAN estimate across pairs
    to sit within 3 standard errors of the mean true Jaccard."""
    rng = np.random.default_rng(7)
    vocab = np.array([f"v{i:04d}z" for i in range(4000)])
    n_pairs, n_tok, keep = 60, 120, 0.85
    rows_a, rows_b = [], []
    for _ in range(n_pairs):
        base = rng.choice(vocab, n_tok, replace=False)
        mask = rng.random(n_tok) < keep
        rows_a.append(" ".join(base))
        rows_b.append(" ".join(base[mask]))
    df = pd.DataFrame(
        {
            "doc_id": np.arange(2 * n_pairs, dtype=np.int64),
            "text": rows_a + rows_b,
        }
    )
    sigs = _encode(df)
    sh = _shingle_hashes(pa.array(df["text"], type=pa.string()), 2)
    true_j, est_j = [], []
    for i in range(n_pairs):
        a, b = sh[i], sh[n_pairs + i]
        inter = len(np.intersect1d(a, b))
        true_j.append(inter / (len(a) + len(b) - inter))
        est_j.append((sigs[i] == sigs[n_pairs + i]).mean())
    true_m, est_m = np.mean(true_j), np.mean(est_j)
    # per-pair std ≈ sqrt(J(1-J)/64) ≈ 0.05 → SE of the mean ≈ 0.007
    assert abs(est_m - true_m) < 0.03, (true_m, est_m)


def test_pipeline_finds_planted_dups(ray_session):
    rng = np.random.default_rng(21)
    vocab = np.array([f"p{i:03d}m" for i in range(900)])
    base = [" ".join(rng.choice(vocab, 50)) for _ in range(80)]
    # 20 exact duplicates of the first 20 docs
    docs = base + base[:20]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs})
    pairs = (
        oph_dup_pairs(rd.from_pandas(df), theta=0.7, n_parts=8, concurrency=(1, 2))
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    got = set(zip(pairs["a"], pairs["b"]))
    for i in range(20):
        assert (i, 80 + i) in got, f"planted exact dup {i} missed"
    # exact dups estimate 1.0
    exact = pairs[(pairs["b"] - pairs["a"]) == 80]
    assert (exact["est_jaccard"] == 1.0).all()


def test_signatures_schema(ray_session):
    df = _random_corpus(n=30, seed=14)
    out = oph_signatures(rd.from_pandas(df), concurrency=(1, 2)).to_pandas()
    assert set(out.columns) == {"id", "sig"}
    assert len(out) == len(df)
    assert all(len(s) == 64 * 8 for s in out["sig"])


def test_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        OPHEncoder(n_perm=48)


def test_other_n_perm_matches_reference():
    # guards the top-bits bin shift for n_perm != 64
    df = _random_corpus(n=50, seed=17)
    for n_perm in (16, 128):
        got = _encode(df, n_perm=n_perm)
        sh = _shingle_hashes(pa.array(df["text"], type=pa.string()), 2)
        for i in (0, 7, 20, len(sh) - 1):
            want = _oph_sig_row(sh[i], n_perm)
            assert (got[i] == want).all(), (n_perm, i)
