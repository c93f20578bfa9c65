"""b-bit MinHash: pack/unpack parity, agreement kernel vs naive loop,
exact-integer threshold vs Fraction arithmetic, end-to-end pipeline vs
a naive re-evaluation over the same candidates."""

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from simhash_ray.stages.bbit import (
    agree_threshold_keep,
    bbit_agreement,
    bbit_dup_pairs,
    pack_bbit_matrix,
    unpack_bbit_matrix,
    words_per_row,
)

ALL_B = (1, 2, 4, 8, 16, 32)


def test_pack_unpack_roundtrip_all_b():
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 1 << 63, size=(37, 64), dtype=np.int64).astype(np.uint64)
    for b in ALL_B:
        packed = pack_bbit_matrix(mat, b)
        assert packed.shape == (37, words_per_row(b, 64))
        lanes = unpack_bbit_matrix(packed, b, 64)
        assert (lanes == (mat & np.uint64((1 << b) - 1))).all(), b


def test_agreement_matches_naive_loop():
    rng = np.random.default_rng(1)
    # low-entropy values force plenty of chance collisions per lane
    ma = rng.integers(0, 4, size=(200, 64)).astype(np.uint64)
    mb = rng.integers(0, 4, size=(200, 64)).astype(np.uint64)
    for b in ALL_B:
        wa, wb = pack_bbit_matrix(ma, b), pack_bbit_matrix(mb, b)
        got = bbit_agreement(wa, wb, b, 64)
        mask = np.uint64((1 << b) - 1)
        want = ((ma & mask) == (mb & mask)).sum(axis=1)
        assert (got == want).all(), b


def test_integer_threshold_equals_fraction_rule():
    n_perm = 64
    for b in (1, 2, 4, 8):
        c = Fraction(1, 1 << b)
        for num, den in ((7, 10), (1, 2), (99, 100), (0, 1), (1, 1)):
            agree = np.arange(n_perm + 1)
            got = agree_threshold_keep(agree, b, n_perm, num, den)
            want = np.array(
                [
                    (Fraction(int(a), n_perm) - c) / (1 - c) >= Fraction(num, den)
                    for a in agree
                ]
            )
            assert (got == want).all(), (b, num, den)


def _corpus():
    rng = np.random.default_rng(7)
    words = [f"tok{i}" for i in range(400)]
    base = [" ".join(rng.choice(words, 40)) for _ in range(60)]
    texts = list(base)
    # plant exact dups and one-word edits (high Jaccard)
    for i in range(0, 20, 2):
        texts.append(base[i])
        edited = base[i + 1].split()
        edited[3] = "zzz"
        texts.append(" ".join(edited))
    return pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )


def test_bbit_pipeline_matches_naive_over_same_candidates():
    """End-to-end b=4 pairs == re-deriving agreement + threshold naively
    from per-row reference signatures over the SAME candidate set."""
    from simhash_ray.stages.minhash import minhash_signatures
    from simhash_ray.stages.pairverify import unpack_matrix

    df = _corpus()
    docs = rd.from_pandas(df).repartition(5)
    out = bbit_dup_pairs(docs, theta=(7, 10), b=4, concurrency=(1, 2)).to_pandas()

    # reference: full signatures -> low-4-bit lanes -> agreement per
    # candidate pair; candidates re-derived by running the pipeline's
    # own prefix is avoided — instead verify every output pair and that
    # every planted exact dup pair is present (banding recall for
    # identical sigs is certain).
    sig_tbl = pa.concat_tables(
        minhash_signatures(docs, shingle_k=2, concurrency=(1, 2))
        .materialize()
        .iter_batches(batch_format="pyarrow", batch_size=65536)
    )
    ids = sig_tbl["id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lanes = unpack_matrix(sig_tbl["sig"], 64) & np.uint64(15)
    lane_of = {int(i): lanes[k] for k, i in enumerate(ids)}

    for a, b_, agree in out[["a", "b", "agree"]].itertuples(index=False):
        want = int((lane_of[a] == lane_of[b_]).sum())
        assert agree == want
        assert 10 * (agree * 16 - 64) >= 7 * 64 * 15
    got_pairs = set(map(tuple, out[["a", "b"]].values.tolist()))
    n_base = 60
    # iteration j appended the exact dup of doc 2j at id n_base + 2j
    planted_exact = {(2 * j, n_base + 2 * j) for j in range(10)}
    # exact dups: all 64 lanes agree -> always above threshold
    assert planted_exact <= got_pairs


def test_bbit_deterministic_across_partitionings(monkeypatch):
    import simhash_ray.stages.bbit as bbit

    df = _corpus()
    a = bbit_dup_pairs(rd.from_pandas(df).repartition(7), b=4).to_pandas()
    b_ = bbit_dup_pairs(rd.from_pandas(df).repartition(2), b=4).to_pandas()
    # the hash-join verify regime, forced through the module's limit
    monkeypatch.setattr(bbit, "MINHASH_BROADCAST_LIMIT", 0)
    jn = bbit_dup_pairs(rd.from_pandas(df).repartition(2), b=4, n_parts=2).to_pandas()
    key = ["a", "b", "agree"]
    want = sorted(map(tuple, a[key].values.tolist()))
    assert want == sorted(map(tuple, b_[key].values.tolist()))
    assert want == sorted(map(tuple, jn[key].values.tolist()))
