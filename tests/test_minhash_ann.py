"""MinHash-LSH recall vs the exact Jaccard operator; multimodal stages."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.fixtures import FixtureSpec, generate_fixture
from simhash_ray.stages.minhash import all_pairs_jaccard, minhash_dup_pairs
from simhash_ray.stages.multimodal import (
    AudioFeatureStub,
    ImageResize,
    ImageStats,
    VideoFrameSampleStub,
)


def _paraphrase_corpus(n_base=150, n_dup=60, seed=5, drop=0.04):
    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i:03d}x" for i in range(800)])
    docs = [
        " ".join(rng.choice(vocab, rng.integers(30, 61))) for _ in range(n_base)
    ]
    for i in range(n_dup):
        src = docs[i % n_base].split()
        # drop ~`drop` of tokens → shingle-jaccard stays high
        keep = rng.random(len(src)) > drop
        docs.append(" ".join(np.array(src, dtype=object)[keep]))
    return pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs})


@pytest.fixture(scope="module")
def corpus():
    return _paraphrase_corpus()


def test_flat_shingle_hashes_match_per_row_reference():
    """Property: the whole-batch flat shingle hashing is bit-identical
    to a straightforward per-row implementation, including empty rows,
    whitespace runs, and rows shorter than k (the segment-boundary
    class of bug hypothesis caught in the round-1 encoder)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from simhash_ray.stages.minhash import _MIX, _shingle_hashes

    token = st.text(alphabet="abcXYZ019", min_size=0, max_size=4)
    row = st.lists(token, min_size=0, max_size=12).map(" ".join)

    def slow_reference(texts, k):
        out = []
        for t in texts:
            toks = [w for w in t.lower().split() if w]
            if not toks:
                out.append(np.empty(0, dtype=np.uint64))
                continue
            kk = min(k, len(toks))
            th = pd.util.hash_array(np.array(toks, dtype=object))
            acc = np.full(
                len(th) - kk + 1, np.uint64(0x5851F42D4C957F2D), dtype=np.uint64
            )
            for j in range(kk):
                acc = (acc ^ th[j : j + len(acc)]) * _MIX
            acc ^= acc >> np.uint64(31)
            out.append(np.unique(acc))
        return out

    @settings(max_examples=60, deadline=None)
    @given(st.lists(row, min_size=0, max_size=8), st.integers(1, 4))
    def check(texts, k):
        got = _shingle_hashes(pa.array(texts, type=pa.string()), k)
        want = slow_reference(texts, k)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g == w).all()

    check()


def test_encoder_matches_per_row_reference(corpus):
    """The whole-batch MinHash encoder (flat shingles + reduceat
    minima) is bit-identical to the per-row reference _minhash_sig."""
    from simhash_ray.stages.minhash import (
        MinHashEncoder,
        _default_seeds,
        _minhash_sig,
        _shingle_hashes,
    )

    texts = list(corpus["text"].head(80)) + ["", "one", "two words"]
    batch = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
        }
    )
    out = MinHashEncoder()(batch)
    got = [np.frombuffer(s, dtype=np.uint64) for s in out["sig"].to_pylist()]
    seeds = _default_seeds(64)
    want = [
        _minhash_sig(s, 64, seeds) for s in _shingle_hashes(batch["text"], 2)
    ]
    assert all((a == b).all() for a, b in zip(got, want))


def test_minhash_recall_vs_exact(corpus):
    docs = rd.from_pandas(corpus)
    exact = all_pairs_jaccard(docs, 75, 100, shingle_k=2).to_pandas()
    strong = set(zip(exact["a"], exact["b"]))
    assert len(strong) >= 40  # planted paraphrases are found by the oracle
    found = minhash_dup_pairs(docs, theta=0.6, shingle_k=2, concurrency=(1, 2)).to_pandas()
    found_pairs = set(zip(found["a"], found["b"]))
    recall = len(strong & found_pairs) / len(strong)
    assert recall >= 0.9, f"minhash recall {recall:.3f}"


def test_minhash_band_rows_are_narrow(corpus):
    """Shuffle-diet invariant: the exploded band table carries only
    (id, band, key, part) — the 512-byte signature never enters the
    all-to-all (round-1 replicated it into every band row)."""
    from simhash_ray.stages.minhash import make_band_expander, minhash_signatures

    sig_ds = minhash_signatures(rd.from_pandas(corpus.head(50)), concurrency=(1, 2))
    bands = sig_ds.map_batches(make_band_expander(64, 16, 8), batch_format="pyarrow")
    schema = bands.schema()
    assert sorted(schema.names) == ["band", "id", "key", "part"]
    assert bands.count() == 50 * 16


def test_minhash_join_verify_equals_broadcast(corpus):
    """The hash-join verify (scale path) and the broadcast verify
    produce identical pairs, for the classic and the OPH encoder."""
    from simhash_ray.stages.oph import oph_dup_pairs

    docs = rd.from_pandas(corpus)

    def canon(d):
        return sorted(zip(d["a"], d["b"], np.round(d["est_jaccard"], 9)))

    for dup_pairs in (minhash_dup_pairs, oph_dup_pairs):
        bc = dup_pairs(docs, theta=0.6, concurrency=(1, 2)).to_pandas()
        # small n_parts: the join's shuffle aggregators are actors — at
        # the 4-CPU test session a wide join would starve (memory: 4-CPU
        # deadlocks); production n_parts sizes to the cluster
        jn = dup_pairs(
            docs, theta=0.6, concurrency=(1, 2), broadcast_limit=0, n_parts=2
        ).to_pandas()
        assert canon(bc) == canon(jn), dup_pairs.__name__


def _all_connected_to_zero(pairs, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return all(find(i) == 0 for i in range(n))


def test_minhash_hot_bucket_exact_coverage_and_connectivity():
    """A bucket with >pair_full_threshold members (but ≤
    OVERSIZED_EXACT_CAP) now gets EXACT pair coverage — round-4 recall
    fix: the old head-star lost within-θ pairs far from the min id —
    and every member stays connected."""
    n = 40
    texts = ["alpha beta gamma delta epsilon zeta eta theta"] * n
    df = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})
    out = minhash_dup_pairs(
        rd.from_pandas(df), theta=0.9, concurrency=(1, 2), pair_full_threshold=8
    ).to_pandas()
    assert len(out) == n * (n - 1) // 2  # exact coverage up to the cap
    assert (out["est_jaccard"] == 1.0).all()
    assert _all_connected_to_zero(zip(out["a"], out["b"]), n)


def test_minhash_beyond_cap_star_connectivity(monkeypatch):
    """Above OVERSIZED_EXACT_CAP the generator degrades to the min-id
    star (bounded work, loud warning) — exercised in-process with a
    patched cap so the branch is testable without 4097 docs."""
    import simhash_ray.stages.buckets as K
    import simhash_ray.stages.minhash as M

    monkeypatch.setattr(K, "OVERSIZED_EXACT_CAP", 10)
    n = 40
    group = pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "band": pa.array(np.zeros(n, dtype=np.int64)),
            "key": pa.array(np.zeros(n, dtype=np.int64)),
        }
    )
    out = M.make_pair_generator(pair_full_threshold=8)(group)
    assert out.num_rows == n - 1  # star to the min id
    assert set(out["a"].to_pylist()) == {0}
    assert out["star"].to_pylist() == [True] * (n - 1)
    assert _all_connected_to_zero(
        zip(out["a"].to_pylist(), out["b"].to_pylist()), n
    )


def test_exact_jaccard_thresholds(corpus):
    docs = rd.from_pandas(corpus)
    loose = all_pairs_jaccard(docs, 5, 10, shingle_k=2).to_pandas()
    tight = all_pairs_jaccard(docs, 95, 100, shingle_k=2).to_pandas()
    assert len(tight) <= len(loose)
    # threshold is the exact rational inter/uni >= num/den
    assert (loose["inter"] * 10 >= 5 * loose["uni"]).all()


def test_lsh_cosine_pairs_recall_no_materialize():
    """Banded hyperplane-LSH cosine pairs: recall ≥ 0.95 vs the exact
    broadcast operator on planted near-duplicate vectors, precision 1
    (exact-cosine verify), and the join-verify scale path agrees."""
    from simhash_ray.stages.ann import cosine_dup_pairs, lsh_cosine_dup_pairs

    rng = np.random.default_rng(23)
    base = rng.standard_normal((300, 64))
    # plant 80 near-dups: tiny perturbations of the first 80 vectors
    dups = base[:80] + 0.05 * rng.standard_normal((80, 64))
    mat = np.vstack([base, dups])
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(mat), dtype=np.int64),
            "embedding": [row.astype(np.float32).tolist() for row in mat],
        }
    )
    vecs = rd.from_pandas(df)
    exact = cosine_dup_pairs(vecs, 9, 10).to_pandas()
    truth = set(zip(exact["a"], exact["b"]))
    assert len(truth) >= 70
    approx = lsh_cosine_dup_pairs(vecs, 9, 10, n_parts=8).to_pandas()
    found = set(zip(approx["a"], approx["b"]))
    recall = len(truth & found) / len(truth)
    assert recall >= 0.95, f"lsh cosine recall {recall:.3f}"
    assert found <= truth  # exact verify → no false positives
    joined = lsh_cosine_dup_pairs(
        vecs, 9, 10, n_parts=2, broadcast_limit=0
    ).to_pandas()
    assert set(zip(joined["a"], joined["b"])) == found


def test_lsh_topk_multiprobe_recovers_planted_neighbors():
    """Multi-probe LSH top-k: flipping the lowest-|projection| planes
    recovers most of the recall single-probe loses — the planted
    near-duplicate must surface as a top-1 neighbor for nearly every
    query, and multi-probe must not be worse than single-probe."""
    from simhash_ray.stages.ann import lsh_bucketed_topk

    rng = np.random.default_rng(31)
    base = rng.standard_normal((200, 64))
    dups = base[:40] + 0.05 * rng.standard_normal((40, 64))
    mat = np.vstack([base, dups])
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(mat), dtype=np.int64),
            "embedding": [row.astype(np.float32).tolist() for row in mat],
        }
    )
    vecs = rd.from_pandas(df)
    queries = list(range(40))  # each has a planted dup at id 200+i

    def hit_rate(n_probes):
        out = lsh_bucketed_topk(
            vecs, query_ids=queries, k=3, n_planes=8, n_probes=n_probes
        ).to_pandas()
        hits = 0
        for q in queries:
            nbrs = set(out[out["query_id"] == q]["neighbor_id"])
            hits += (200 + q) in nbrs
        return hits / len(queries)

    single = hit_rate(1)
    multi = hit_rate(4)
    assert multi >= single
    assert multi >= 0.85, f"multi-probe hit rate {multi:.2f}"


def test_dedup_documents_coclusters_paraphrases():
    """Text flagship: near-identical docs (~1-2% token drops, inside
    the SimHash τ ball for almost every draw) co-cluster with their
    source; disjoint docs do not.  (MinHash is the right tool for
    heavier set edits — the 4% corpus sits at its threshold, not
    SimHash's; see test_minhash_recall_vs_exact.)"""
    from simhash_ray.config import DEFAULT_CONFIG
    from simhash_ray.pipelines.dedup_docs import dedup_documents

    from simhash_ray.simhash import hamming64, simhash_batch

    dfc = _paraphrase_corpus(n_base=150, n_dup=60, seed=6, drop=0.015)
    out = (
        dedup_documents(rd.from_pandas(dfc), DEFAULT_CONFIG)
        .to_pandas().set_index("doc_id")
    )
    assert len(out) == len(dfc)
    # certify planted pairs against the operator's actual contract:
    # pairs INSIDE the pinned Hamming ball co-cluster with recall 1.0
    # (the pigeonhole banding guarantee); pairs the edit pushed outside
    # the ball are legitimately not near-dups at this config
    sig = simhash_batch(pa.array(dfc["text"]), DEFAULT_CONFIG.simhash)
    d = hamming64(sig[150:210], sig[np.arange(60) % 150])
    in_ball = d <= DEFAULT_CONFIG.text_lsh.hamming_tau
    assert in_ball.mean() >= 0.8  # the fixture is a meaningful sample
    for i in np.flatnonzero(in_ball):
        assert (
            out.loc[150 + int(i), "cluster_id"] == out.loc[int(i) % 150, "cluster_id"]
        ), f"in-ball pair {i} (d={d[i]}) not co-clustered"
    reps = out[out["is_representative"]]
    assert set(out["cluster_id"]) == set(reps.index)


def test_dedup_documents_distributed_matches_direct():
    """The text flagship's distributed regime (collapse → band groupby
    → distributed pair-gen, text-only space) produces the identical
    assignment to the broadcast regime."""
    from simhash_ray.config import DEFAULT_CONFIG
    from simhash_ray.pipelines.dedup_docs import dedup_documents

    dfc = _paraphrase_corpus(n_base=150, n_dup=60, seed=6, drop=0.015)
    direct = (
        dedup_documents(rd.from_pandas(dfc), DEFAULT_CONFIG)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    dist = (
        dedup_documents(
            rd.from_pandas(dfc), DEFAULT_CONFIG, broadcast_sig_limit=0,
        )
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(direct, dist)


def test_ivf_topk_recovers_planted_neighbors():
    """IVF coarse quantizer: a near-duplicate lands in the same (or a
    probed) centroid list, so planted dups surface as top neighbors."""
    from simhash_ray.stages.ann import ivf_topk

    rng = np.random.default_rng(37)
    base = rng.standard_normal((200, 64))
    dups = base[:40] + 0.05 * rng.standard_normal((40, 64))
    mat = np.vstack([base, dups])
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(mat), dtype=np.int64),
            "embedding": [row.astype(np.float32).tolist() for row in mat],
        }
    )
    vecs = rd.from_pandas(df)
    queries = list(range(40))
    out = ivf_topk(
        vecs, query_ids=queries, k=3, n_centroids=8, n_probe=4, concurrency=(1, 2)
    ).to_pandas()
    hits = sum(
        (200 + q) in set(out[out["query_id"] == q]["neighbor_id"]) for q in queries
    )
    assert hits / len(queries) >= 0.9, f"ivf hit rate {hits / len(queries):.2f}"


def test_bucketed_topk_scan_is_batch_bounded():
    """The bucketed ANN tail is a streamed per-batch scan (no
    groupby(bucket) materialization — round-2 verdict item 2): shrinking
    the batch size, i.e. bounding what any task can ever hold, must not
    change the result, because a final-top-k member is in the top-k of
    every subset containing it."""
    from unittest import mock

    import simhash_ray.stages.ann as ann_mod
    from simhash_ray.stages.ann import lsh_bucketed_topk

    rng = np.random.default_rng(53)
    base = rng.standard_normal((300, 32))
    dups = base[:30] + 0.05 * rng.standard_normal((30, 32))
    mat = np.vstack([base, dups])
    df = pd.DataFrame(
        {
            "vec_id": np.arange(len(mat), dtype=np.int64),
            "embedding": [row.astype(np.float32).tolist() for row in mat],
        }
    )
    queries = list(range(20))

    orig = ann_mod._bucketed_scan_topk
    results = {}
    for bs in (32, 100000):
        def small_batches(bucketed, ref, k, id_col, vec_col, bucket_col, _bs=bs):
            with mock.patch.object(ann_mod, "_TOPK_SCAN_BATCH_SIZE", _bs):
                return orig(bucketed, ref, k, id_col, vec_col, bucket_col)

        with mock.patch.object(ann_mod, "_bucketed_scan_topk", small_batches):
            results[bs] = (
                lsh_bucketed_topk(
                    rd.from_pandas(df), query_ids=queries, k=3, n_planes=4,
                    n_probes=2,
                )
                .to_pandas()
                .sort_values(["query_id", "rank"], ignore_index=True)
            )
    pd.testing.assert_frame_equal(results[32], results[100000])


def test_md5_split_vectorized_matches_hashlib():
    """The split nibble comes from a numpy-vectorized single-block MD5;
    pin it byte-identical to hashlib over edge-case ids."""
    import hashlib

    from simhash_ray.functions.hashing import md5_first_byte_of_int_ids

    rng = np.random.default_rng(11)
    ids = np.concatenate(
        [np.arange(50), rng.integers(-(2**62), 2**62, 300), [0, -1, 2**62, -(2**62)]]
    )
    got = md5_first_byte_of_int_ids(ids)
    exp = np.array(
        [hashlib.md5(str(int(i)).encode()).digest()[0] for i in ids], dtype=np.uint8
    )
    assert (got == exp).all()


def test_image_embeddings_feed_cosine_dedup(request):
    """Multimodal → embedding bridge: decode images to color-histogram
    embeddings (actor pool), then run the banded cosine near-dup
    operator over them — planted exact-dup images must surface as
    cosine-1 pairs."""
    import pyarrow.compute as pc_

    from simhash_ray.stages.ann import lsh_cosine_dup_pairs
    from simhash_ray.stages.multimodal import image_embeddings

    tables = generate_fixture(FixtureSpec(n_rows=200, seed=29))
    images = rd.from_arrow(tables["images"])
    emb = image_embeddings(images, concurrency=(1, 2))

    # numeric ids for the pair machinery: the fixture id is 'img<NNN>'
    def to_int(batch):
        ids = pc_.cast(
            pc_.replace_substring(batch["image_id"], "img", ""), pa.int64()
        )
        return pa.table({"vec_id": ids, "embedding": batch["embedding"]})

    vecs = emb.map_batches(to_int, batch_format="pyarrow")
    pairs = lsh_cosine_dup_pairs(vecs, 999, 1000, n_parts=4).to_pandas()
    found = set(zip(pairs["a"], pairs["b"]))

    tdf = tables["truth"].to_pandas()
    exact = tdf[tdf["kind"] == "exact_dup"]
    originals = tdf.iloc[exact["cluster_id"].values]
    n_hit = 0
    for dup_id, src_id in zip(exact["image_id"], originals["image_id"]):
        a, b = int(src_id[3:]), int(dup_id[3:])
        n_hit += (min(a, b), max(a, b)) in found
    assert len(exact) > 5
    assert n_hit / len(exact) >= 0.95, f"embed dedup hit {n_hit}/{len(exact)}"


@pytest.fixture(scope="module")
def image_fixture():
    return generate_fixture(FixtureSpec(n_rows=120, seed=9))


def test_image_stats_invariant(image_fixture):
    ds = rd.from_arrow(image_fixture["images"])
    out = ds.map_batches(
        ImageStats, batch_format="pyarrow", batch_size=64, concurrency=2
    ).to_pandas()
    assert len(out) == 120
    assert out["phash_matches"].all()
    assert ((out["mean_r"] >= 0) & (out["mean_r"] <= 255)).all()


def test_image_resize(image_fixture):
    ds = rd.from_arrow(image_fixture["images"])
    out = ds.map_batches(
        ImageResize,
        fn_constructor_kwargs={"out_side": 32},
        batch_format="pyarrow",
        batch_size=64,
        concurrency=2,
    ).to_pandas()
    assert (out["w"] == 32).all() and (out["fmt"] == "raw").all()
    assert out["bytes"].map(len).eq(32 * 32 * 3).all()


def test_audio_stub_marks_itself():
    batch = pa.table({"clip_id": pa.array([1, 2]), "bytes": pa.array([b"abc", b""])})
    out = AudioFeatureStub()(batch)
    assert out["stub"].to_pylist() == [True, True]
    assert out["energy_proxy"].to_pylist()[1] == 0.0


def test_video_stub_raises():
    with pytest.raises(NotImplementedError):
        VideoFrameSampleStub()(pa.table({"bytes": pa.array([b""])}))


def test_audio_decoder_injection_through_ray_stage():
    """Round-2 verdict item 10: a user-supplied decoder runs through
    the real actor-pool plumbing (schema, batch size, constructor
    kwargs) without the audio libs — the seam a production deployment
    swaps soundfile/librosa into."""
    from simhash_ray.stages.multimodal import audio_features

    # fake decoder defined INSIDE the test so cloudpickle ships it by
    # value (test modules are unimportable in Ray workers)
    def pcm16(b: bytes):
        return np.frombuffer(b, dtype=np.int16).astype(np.float64) / 32768.0

    clips = pa.table(
        {
            "clip_id": pa.array([1, 2, 3]),
            "bytes": pa.array(
                [
                    np.array([0, 16384, -16384, 0], dtype=np.int16).tobytes(),
                    np.zeros(8, dtype=np.int16).tobytes(),
                    b"",
                ]
            ),
        }
    )
    out = (
        audio_features(rd.from_arrow(clips), decoder=pcm16, concurrency=2)
        .to_pandas()
        .sort_values("clip_id")
        .reset_index(drop=True)
    )
    assert out["stub"].tolist() == [False, False, False]
    assert out["n_samples"].tolist() == [4, 8, 0]
    assert out.loc[0, "rms"] == pytest.approx(0.5 * np.sqrt(2) / 2, rel=1e-12)
    assert out.loc[1, "rms"] == 0.0 and out.loc[2, "rms"] == 0.0
    assert "bytes" not in out.columns


def test_video_frame_decoder_injection_through_ray_stage():
    from simhash_ray.stages.multimodal import video_frames

    def fake_frames(b: bytes):
        # one fake 2-byte "frame" per input byte
        return [(i, bytes([v, v])) for i, v in enumerate(b)]

    vids = pa.table(
        {
            "video_id": pa.array(["a", "b"]),
            "bytes": pa.array([bytes(range(5)), b""]),
        }
    )
    out = (
        video_frames(rd.from_arrow(vids), frame_decoder=fake_frames, every_n=2)
        .to_pandas()
        .sort_values(["video_id", "frame_idx"])
        .reset_index(drop=True)
    )
    # frames 0, 2, 4 of video "a"; video "b" decodes to nothing
    assert out["video_id"].tolist() == ["a", "a", "a"]
    assert out["frame_idx"].tolist() == [0, 2, 4]
    assert out["bytes"].tolist() == [b"\x00\x00", b"\x02\x02", b"\x04\x04"]


def test_minhash_dedup_clusters_match_pairs_both_paths(corpus, ray_session):
    """minhash_dedup's assignment is the union-find closure of
    minhash_dup_pairs' verified pair set — every pair co-clustered,
    every pairless doc its own representative — and the driver
    union-find path equals the distributed-CC + join-attach path
    (broadcast_limit=0)."""
    from simhash_ray.stages.cluster import unionfind_driver
    from simhash_ray.stages.minhash import minhash_dedup

    docs = rd.from_pandas(corpus)
    pairs = minhash_dup_pairs(docs, concurrency=(1, 2)).to_pandas()
    a = (
        minhash_dedup(docs, concurrency=(1, 2))
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    b = (
        minhash_dedup(docs, concurrency=(1, 2), broadcast_limit=0, n_parts=8)
        .to_pandas()
        .sort_values("doc_id", ignore_index=True)
    )
    pd.testing.assert_frame_equal(a, b.astype(a.dtypes.to_dict()))

    assign = a.set_index("doc_id")["cluster_id"]
    assert len(pairs) > 0
    for p in pairs.itertuples():
        assert assign[p.a] == assign[p.b]
    # expected labels from an independent union-find over the pairs
    label_df = unionfind_driver(pairs[["a", "b"]])
    lm = pd.Series(label_df["label"].to_numpy(), index=label_df["node"].to_numpy())
    want = (
        corpus["doc_id"].map(lm).fillna(corpus["doc_id"]).astype(np.int64)
    )
    assert (assign.loc[corpus["doc_id"]].to_numpy() == want.to_numpy()).all()
    reps = a[a["is_representative"]]
    assert (reps["doc_id"] == reps["cluster_id"]).all()
    assert set(a["cluster_id"]) == set(reps["doc_id"])


# ---------------------------------------------------------------------------
# exact edit-distance verify (editdist_dup_pairs)


def test_levenshtein_capped_matches_reference_dp_and_duckdb():
    """Byte-domain semantics (round-4 review finding): the kernel must
    count UTF-8 BYTES exactly like DuckDB's levenshtein(), not
    codepoints — pinned against a byte-domain reference DP AND against
    DuckDB itself on accented/multibyte text."""
    import random

    import duckdb

    from simhash_ray.stages.minhash import levenshtein_capped

    def ref(a, b):
        a, b = a.encode("utf-8"), b.encode("utf-8")
        m = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            m[i][0] = i
        for j in range(len(b) + 1):
            m[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                m[i][j] = min(
                    m[i - 1][j] + 1,
                    m[i][j - 1] + 1,
                    m[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
                )
        return m[len(a)][len(b)]

    rng = random.Random(11)
    alpha = "abcé 字"
    con = duckdb.connect()
    for trial in range(2000):
        a = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randint(0, 10)))
        cap = rng.randint(0, 8)
        r = ref(a, b)
        want = r if r <= cap else cap + 1
        assert levenshtein_capped(a, b, cap) == want, (a, b, cap)
        if trial % 50 == 0:  # duckdb round-trips are slower; spot-pin
            d = con.execute(
                "SELECT levenshtein(?, ?)", [a, b]
            ).fetchone()[0]
            assert d == r, (a, b, d, r)


def test_editdist_pairs_planted_and_paths_equal():
    import random

    from simhash_ray.stages.minhash import editdist_dup_pairs

    rng = random.Random(5)
    vocab = [f"e{i:03d}" for i in range(400)]
    texts = [
        " ".join(rng.choice(vocab) for _ in range(30)) for _ in range(120)
    ]
    planted = {}
    for i in range(20):
        # one-token substitution: char edit distance <= 8 (4-char
        # token + space boundary slack), far under unrelated texts
        toks = texts[i].split()
        j = rng.randrange(len(toks))
        old = toks[j]
        toks[j] = rng.choice(vocab)
        texts.append(" ".join(toks))
        planted[(i, 120 + i)] = len(old)  # bound, not exact
    df = pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}
    )
    ds = rd.from_pandas(df).repartition(6)
    out = editdist_dup_pairs(ds, max_dist=8, shingle_k=2).to_pandas()
    got = set(zip(out["a"], out["b"]))
    assert set(planted) <= got, set(planted) - got
    # every reported distance is the true distance and within the cap
    assert (out["dist"] <= 8).all()
    from simhash_ray.stages.minhash import levenshtein_capped

    txt = dict(zip(df["doc_id"], df["text"]))
    for a, b, d in out[["a", "b", "dist"]].itertuples(index=False):
        assert levenshtein_capped(txt[a], txt[b], 10**6) == d
    # forced join path == broadcast path
    out2 = editdist_dup_pairs(
        rd.from_pandas(df).repartition(6), max_dist=8, shingle_k=2,
        broadcast_limit=0,
    ).to_pandas()
    key = lambda t: sorted(map(tuple, t[["a", "b", "dist"]].to_numpy()))
    assert key(out2) == key(out)


def test_ivf_recall_monotone_in_probes_and_exact_at_full_probe():
    """recall@5 vs brute force: probing MORE centroid lists never hurts,
    and probing ALL lists makes IVF exact (recall 1.0 per query)."""
    from simhash_ray.stages.ann import (
        _bucketed_scan_topk,
        _ivf_probe_plan,
        brute_force_topk,
    )

    rng = np.random.default_rng(23)
    vecs = rng.normal(size=(300, 16)).astype(np.float32)
    df = pd.DataFrame(
        {
            "vec_id": np.arange(300, dtype=np.int64),
            "embedding": list(vecs),
        }
    )
    ds = rd.from_pandas(df)
    exact = brute_force_topk(ds, query_ids=list(range(6)), k=5).to_pandas()
    ex_sets = exact.groupby("query_id")["neighbor_id"].agg(set).to_dict()

    def recall(n_probe: int) -> float:
        assigned, ref = _ivf_probe_plan(
            rd.from_pandas(df), query_ids=list(range(6)),
            n_centroids=6, n_probe=n_probe,
        )
        ap = _bucketed_scan_topk(
            assigned.materialize(), ref, 5, "vec_id", "embedding", "cent"
        ).to_pandas()
        ap_sets = ap.groupby("query_id")["neighbor_id"].agg(set).to_dict()
        hits = sum(
            len(ex_sets[q] & ap_sets.get(q, set())) for q in ex_sets
        )
        return hits / (5 * len(ex_sets))

    r1, r3, r6 = recall(1), recall(3), recall(6)
    assert r1 <= r3 + 1e-9 and r3 <= r6 + 1e-9, (r1, r3, r6)
    assert r6 == 1.0


def test_containment_catches_boilerplate_superset(ray_session):
    """A doc wrapped in heavy boilerplate CONTAINS the original: overlap
    coefficient 1.0 while Jaccard = |small|/|big| is far below 0.9 —
    the containment measure must find the pair, Jaccard must not."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    rng = np.random.default_rng(5)
    core_toks = [f"core{i}" for i in range(20)]
    boiler = [f"nav{i}" for i in range(200)]
    texts = [
        " ".join(core_toks),                      # 0: the original
        " ".join(boiler + core_toks),             # 1: wrapped copy
        " ".join(f"x{i}" for i in range(30)),     # 2: unrelated
    ]
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(range(3), type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )
    cont = all_pairs_jaccard(
        docs, 9, 10, use_token_sets=True, measure="containment"
    ).to_pandas()
    assert [(0, 1)] == sorted(zip(cont["a"], cont["b"]))
    row = cont.iloc[0]
    assert row["inter"] == 20 and row["msize"] == 20
    jac = all_pairs_jaccard(docs, 9, 10, use_token_sets=True).to_pandas()
    assert len(jac) == 0  # Jaccard of the pair is 20/220 — missed


def test_containment_empty_rows_never_pair(ray_session):
    import pyarrow as pa
    import ray.data as rd

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                "text": pa.array(["", "", "a b"], type=pa.string()),
            }
        )
    )
    out = all_pairs_jaccard(
        docs, 9, 10, use_token_sets=True, measure="containment"
    ).to_pandas()
    assert len(out) == 0

    import pytest as _pytest

    with _pytest.raises(ValueError, match="measure"):
        all_pairs_jaccard(docs, 9, 10, measure="dice")


def test_audio_default_path_decodes_wav_without_injection():
    """Round-4 verdict item 7: PCM WAV payloads decode for real via the
    stdlib path (stub=False) with no injected decoder; other payloads
    stay marked stub=True with the byte-energy proxy."""
    import io
    import wave

    from simhash_ray.stages.multimodal import audio_features

    def make_wav(samples: np.ndarray, nch: int = 1, sw: int = 2) -> bytes:
        buf = io.BytesIO()
        with wave.open(buf, "wb") as w:
            w.setnchannels(nch)
            w.setsampwidth(sw)
            w.setframerate(8000)
            if sw == 2:
                w.writeframes(samples.astype("<i2").tobytes())
            else:  # 8-bit unsigned
                w.writeframes((samples + 128).astype(np.uint8).tobytes())
        return buf.getvalue()

    mono = np.array([0, 16384, -16384, 0], dtype=np.int64)
    stereo = np.array([16384, -16384] * 4, dtype=np.int64)  # L/R cancel
    clips = pa.table(
        {
            "clip_id": pa.array([1, 2, 3, 4]),
            "bytes": pa.array(
                [
                    make_wav(mono),
                    make_wav(stereo, nch=2),
                    b"not audio at all" * 4,
                    make_wav(np.zeros(16, dtype=np.int64), sw=1),
                ]
            ),
        }
    )
    out = (
        audio_features(rd.from_arrow(clips), concurrency=2)
        .to_pandas()
        .sort_values("clip_id")
        .reset_index(drop=True)
    )
    assert out["stub"].tolist() == [False, False, True, False]
    assert out.loc[0, "n_samples"] == 4
    assert out.loc[0, "rms"] == pytest.approx(0.5 * np.sqrt(2) / 2, rel=1e-12)
    assert out.loc[1, "n_samples"] == 4  # stereo frames mono-averaged
    assert out.loc[1, "rms"] == 0.0  # L/R cancel exactly
    assert pd.isna(out.loc[2, "n_samples"])  # non-WAV row: proxy only
    assert out.loc[2, "energy_proxy"] > 0
    assert out.loc[3, "n_samples"] == 16 and out.loc[3, "rms"] == 0.0


def test_levenshtein_batched_matches_scalar_fuzz():
    """The grouped-DP batch kernel must agree with the pinned scalar
    levenshtein_capped on every pair, across caps, including accented
    (multi-byte UTF-8) alphabets, empty strings, and equal pairs."""
    from simhash_ray.stages.minhash import (
        levenshtein_capped,
        levenshtein_capped_pairs,
    )

    rng = np.random.default_rng(13)
    alphabet = list("abcde") + ["é", "ü", "中"]

    def mk(n):
        return "".join(rng.choice(alphabet) for _ in range(n))

    pairs = []
    for _ in range(300):
        la = int(rng.integers(0, 12))
        a = mk(la)
        if rng.random() < 0.3:
            b = a  # equal pair
        elif rng.random() < 0.5:
            # near-dup: small perturbation of a
            b = a[: max(0, la - int(rng.integers(0, 3)))] + mk(int(rng.integers(0, 3)))
        else:
            b = mk(int(rng.integers(0, 12)))
        pairs.append((a, b))
    ta = np.array([p[0] for p in pairs], dtype=object)
    tb = np.array([p[1] for p in pairs], dtype=object)
    for cap in (0, 1, 2, 5, 100):
        got = levenshtein_capped_pairs(ta, tb, cap)
        want = np.array(
            [levenshtein_capped(a, b, cap) for a, b in pairs], dtype=np.int64
        )
        assert np.array_equal(got, want), cap


def test_levenshtein_batched_chunked_path_matches(monkeypatch):
    """Forcing a tiny per-chunk frontier budget exercises the chunked
    same-shape DP path; distances must be identical to the unchunked
    run and the scalar kernel."""
    from simhash_ray.stages import minhash as M

    rng = np.random.default_rng(17)
    base = "".join(rng.choice(list("abcdef"), 40))
    ta, tb = [], []
    for i in range(50):  # one shape group of 50 same-length pairs
        s = list(base)
        s[i % 40] = "z"
        ta.append(base)
        tb.append("".join(s))
    ta = np.array(ta, dtype=object)
    tb = np.array(tb, dtype=object)
    full = M.levenshtein_capped_pairs(ta, tb, 3)
    monkeypatch.setattr(M, "_DP_CHUNK_ELEMS", 200)  # chunk = 200//41 = 4
    chunked = M.levenshtein_capped_pairs(ta, tb, 3)
    assert np.array_equal(full, chunked)
    want = np.array([M.levenshtein_capped(a, b, 3) for a, b in zip(ta, tb)])
    assert np.array_equal(chunked, want)


def test_audio_chunked_byte_sums_match(monkeypatch):
    """r5 review finding: the byte-mean proxy walks the payload buffer
    in bounded chunks instead of one whole-buffer int64 cumsum; a tiny
    forced budget (multi-chunk, incl. a row bigger than the budget)
    must give the same energies as the unchunked run."""
    from simhash_ray.stages import multimodal as MM

    rng = np.random.default_rng(23)
    payloads = [
        rng.integers(0, 256, size=n, dtype=np.uint8).tobytes()
        for n in (0, 5, 300, 17, 1000, 3)
    ]
    batch = pa.table(
        {"clip_id": pa.array(range(len(payloads))), "bytes": pa.array(payloads)}
    )
    full = MM.AudioFeatures()(batch)["energy_proxy"].to_pylist()
    monkeypatch.setattr(MM, "_AUDIO_SUM_CHUNK", 64)  # rows 300/1000 > budget
    chunked = MM.AudioFeatures()(batch)["energy_proxy"].to_pylist()
    assert chunked == full
    want = [
        (np.frombuffer(b, dtype=np.uint8).mean() if len(b) else 0.0)
        for b in payloads
    ]
    np.testing.assert_allclose(chunked, want)
