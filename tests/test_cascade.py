"""Tiered cascade dedup (pipelines/cascade.py): tier attribution,
cross-tier keeper-chain composition, and equivalence of the broadcast
and join composition paths — against a naive single-process reference
and the planted fixture."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.config import DEFAULT_CONFIG
from simhash_ray.fixtures import FixtureSpec, generate_fixture
from simhash_ray.pipelines.cascade import DEFAULT_TIERS, dedup_images_cascade
from simhash_ray.pipelines.dedup_images import planted_pair_recall
from simhash_ray.simhash import simhash_oracle

CFG = DEFAULT_CONFIG


# ---------------------------------------------------------------------------
# naive reference: partition by bytes → phash τ-ball CC → simhash τ-ball CC,
# min-id keepers, chain-chase composition


def _cc_min_labels(ids, sigs, tau):
    """Exact τ-ball connected components, min-id label per node."""
    label = {i: i for i in ids}

    def find(x):
        while label[x] != x:
            label[x] = label[label[x]]
            x = label[x]
        return x

    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if bin(sigs[ids[i]] ^ sigs[ids[j]]).count("1") <= tau:
                a, b = find(ids[i]), find(ids[j])
                if a != b:
                    hi, lo = max(a, b), min(a, b)
                    label[hi] = lo
    return {i: find(i) for i in ids}


def naive_cascade(rows, cfg=CFG):
    """rows: list of dicts with image_id, bytes, caption, phash.
    Returns {image_id: (cluster_id, tier)} for tiers exact→phash→caption."""
    out = {}
    # tier 1: exact bytes
    by_bytes = {}
    for r in rows:
        by_bytes.setdefault(r["bytes"], []).append(r["image_id"])
    k1 = {}
    for ids in by_bytes.values():
        keep = min(ids)
        for i in ids:
            k1[i] = keep
    s1 = [r for r in rows if k1[r["image_id"]] == r["image_id"]]
    # tier 2: phash τ-ball CC over s1
    ph = {r["image_id"]: r["phash"] & 0xFFFFFFFFFFFFFFFF for r in s1}
    k2 = _cc_min_labels([r["image_id"] for r in s1], ph, cfg.image_lsh.hamming_tau)
    s2 = [r for r in s1 if k2[r["image_id"]] == r["image_id"]]
    # tier 3: caption simhash τ-ball CC over s2
    sh = {
        r["image_id"]: simhash_oracle(r["caption"], cfg.simhash) & 0xFFFFFFFFFFFFFFFF
        for r in s2
    }
    k3 = _cc_min_labels([r["image_id"] for r in s2], sh, cfg.text_lsh.hamming_tau)
    for r in rows:
        i = r["image_id"]
        c1 = k1[i]
        c2 = k2[c1]
        c3 = k3[c2]
        if i != c1:
            tier = "exact"
        elif i != c2:
            tier = "phash"
        elif i != c3:
            tier = "caption"
        else:
            tier = "survivor"
        out[i] = (c3, tier)
    return out


# ---------------------------------------------------------------------------
# hand-built corpus isolating each tier + a cross-tier chain


def _rows():
    rng = np.random.default_rng(7)

    def blob(k):
        return rng.integers(0, 256, size=64, dtype=np.uint8).tobytes() + bytes([k])

    def far_caption(k):
        # captions pairwise far in simhash space (distinct random words)
        words = [f"w{k}x{j}q{rng.integers(1e6)}" for j in range(12)]
        return " ".join(words)

    rows = []

    def add(i, byts, caption, phash):
        phash = int(phash) & 0xFFFFFFFFFFFFFFFF
        if phash >= 1 << 63:  # wrap to the int64 wire representation
            phash -= 1 << 64
        rows.append(
            {"image_id": f"img{i:08d}", "bytes": byts, "caption": caption,
             "phash": phash}
        )

    # pair A: exact-bytes dup (same bytes, everything else different)
    b0 = blob(0)
    add(0, b0, far_caption(0), 0x1111000011110000)
    add(1, b0, far_caption(1), 0x0F0F0F0F00000000 ^ (1 << 63))
    # pair B: phash near-dup only (distinct bytes/captions, Hamming 2)
    pb = 0x5A5A5A5A5A5A5A5A
    add(2, blob(2), far_caption(2), pb)
    add(3, blob(3), far_caption(3), pb ^ 0b11)
    # pair C: caption near-dup only (identical caption, phash far apart)
    cap = "a breezy harbor town with red roofs and white boats"
    add(4, blob(4), cap, 0x0000FFFF0000FFFF)
    add(5, blob(5), cap, 0x0000FFFF0000FFFF ^ 0xFFFFFFFFFFFFFFFF)
    # chain: img8 exact-dup of img7; img7 phash-near img6 (so img8's
    # final keeper is img6 via the cross-tier chain)
    b7 = blob(7)
    pc_ = 0x00FF00FF00FF00FF
    add(6, blob(6), far_caption(6), pc_)
    add(7, b7, far_caption(7), pc_ ^ 0b101)
    add(8, b7, far_caption(8), pc_ ^ 0b101)
    # singletons
    add(9, blob(9), far_caption(9), 0x123456789ABCDEF0)
    add(10, blob(10), far_caption(10), 0x0FEDCBA987654321)
    return rows


def _table(rows) -> pa.Table:
    return pa.table(
        {
            "image_id": pa.array([r["image_id"] for r in rows], type=pa.string()),
            "bytes": pa.array([r["bytes"] for r in rows], type=pa.large_binary()),
            "caption": pa.array([r["caption"] for r in rows], type=pa.string()),
            "phash": pa.array(
                [int(r["phash"]) for r in rows], type=pa.int64()
            ),
        }
    )


def _run(rows, **kw):
    res = dedup_images_cascade(rd.from_arrow(_table(rows)), CFG, n_parts=8, **kw)
    adf = res.assignment.to_pandas().sort_values("image_id").reset_index(drop=True)
    return res, {r.image_id: (r.cluster_id, r.tier) for r in adf.itertuples()}


def test_tier_attribution_and_chain():
    rows = _rows()
    res, got = _run(rows)
    expected = naive_cascade(rows)
    assert got == expected
    # spot-check the semantics the corpus was built to pin
    assert got["img00000001"] == ("img00000000", "exact")
    assert got["img00000003"] == ("img00000002", "phash")
    assert got["img00000005"] == ("img00000004", "caption")
    # cross-tier chain: img8 dropped at exact → keeper img7, which is
    # dropped at phash → final keeper img6
    assert got["img00000008"] == ("img00000006", "exact")
    assert got["img00000007"] == ("img00000006", "phash")
    assert got["img00000009"] == ("img00000009", "survivor")
    assert res.tier_drops == {"exact": 2, "phash": 2, "caption": 1}


def test_join_path_equivalent_to_broadcast():
    # Force the >limit composition paths (the id_set_filter,
    # _remap_keeper and _attach_final hash joins) and the sig tiers'
    # distributed regime on the planted fixture — same discipline as
    # test_pipeline.test_cluster_scale_attach_and_survivor_join_paths.
    tables = generate_fixture(FixtureSpec(n_rows=400, seed=42))
    images = rd.from_arrow(tables["images"])

    def canon(res):
        return (
            res.assignment.to_pandas()
            .sort_values("image_id", ignore_index=True)
        )

    bc = canon(dedup_images_cascade(images, CFG, n_parts=8))
    jn = canon(dedup_images_cascade(images, CFG, n_parts=2, broadcast_limit=0))
    pd.testing.assert_frame_equal(bc, jn)


def test_precomputed_sigs_equivalent():
    from simhash_ray.pipelines.dedup_images import signatures

    rows = _rows()
    images = rd.from_arrow(_table(rows))
    sigs_all = signatures(
        images.select_columns(["image_id", "caption", "phash"]), CFG
    ).materialize()
    res = dedup_images_cascade(images, CFG, n_parts=8, precomputed_sigs=sigs_all)
    adf = res.assignment.to_pandas().sort_values("image_id").reset_index(drop=True)
    got = {r.image_id: (r.cluster_id, r.tier) for r in adf.itertuples()}
    assert got == naive_cascade(rows)


def test_fixture_recall():
    tables = generate_fixture(FixtureSpec(n_rows=400, seed=42))
    images = rd.from_arrow(tables["images"])
    res = dedup_images_cascade(images, CFG, n_parts=8)
    adf = res.assignment.to_pandas()
    assert len(adf) == tables["images"].num_rows
    assert adf["image_id"].is_unique
    recall, _, n_pairs = planted_pair_recall(adf, tables["truth"].to_pandas())
    assert n_pairs > 20
    assert recall >= 0.99
    # the planted exact dups must be claimed by the exact tier
    truth = tables["truth"].to_pandas()
    exact_ids = set(truth.loc[truth["kind"] == "exact_dup", "image_id"])
    by_tier = adf.set_index("image_id")["tier"]
    assert all(by_tier[i] == "exact" for i in exact_ids)


# ---------------------------------------------------------------------------
# document cascade: exact text → MinHash-LSH


def _doc_table():
    # near-dup family (ids 1, 2): one word swapped, Jaccard(2-shingles)
    # well above θ=0.7; id 3 is an exact copy of id 2 (chain: 3 drops at
    # the exact tier onto 2, 2 drops at the minhash tier onto 1);
    # ids 4/5 exact pair; 6..15 unique filler so band buckets exist
    base = ("the quick brown fox jumps over the lazy dog near the "
            "quiet river bank every single morning")
    near = ("the quick brown fox jumps over the lazy cat near the "
            "quiet river bank every single morning")
    texts = {
        1: base,
        2: near,
        3: near,
        4: "completely different content about distributed shuffles",
        5: "completely different content about distributed shuffles",
    }
    for i in range(6, 16):
        texts[i] = f"unique filler document number {i} with its own words " \
                   f"alpha{i} beta{i} gamma{i} delta{i}"
    ids = sorted(texts)
    return pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array([texts[i] for i in ids], type=pa.string()),
        }
    )


def test_doc_cascade_chain_and_tiers():
    from simhash_ray.pipelines.cascade import dedup_docs_cascade
    from simhash_ray.stages.minhash import minhash_dedup

    tbl = _doc_table()
    docs = rd.from_arrow(tbl)
    res = dedup_docs_cascade(docs, n_parts=8)
    adf = res.assignment.to_pandas().sort_values("doc_id", ignore_index=True)
    got = {r.doc_id: (r.cluster_id, r.tier) for r in adf.itertuples()}

    # reference composition: exact partition in pandas, then the
    # library's own minhash clustering over the exact survivors
    # (minhash semantics are pinned elsewhere; this test pins the
    # TIER COMPOSITION around it)
    df = tbl.to_pandas()
    k1 = df.groupby("text")["doc_id"].transform("min")
    surv = df[df["doc_id"] == k1]
    a2 = minhash_dedup(
        rd.from_arrow(pa.Table.from_pandas(surv, preserve_index=False)),
        n_parts=8,
    ).to_pandas()
    k2 = dict(zip(a2["doc_id"], a2["cluster_id"]))
    expected = {}
    for doc_id, c1 in zip(df["doc_id"], k1):
        c2 = k2[c1]
        tier = ("exact" if doc_id != c1
                else "minhash" if doc_id != c2 else "survivor")
        expected[doc_id] = (c2, tier)
    assert got == expected
    # the corpus pins the chain explicitly
    assert got[3] == (1, "exact")
    assert got[2] == (1, "minhash")
    assert got[5] == (4, "exact")
    assert got[1] == (1, "survivor")
    assert res.tier_drops["exact"] == 2


def test_doc_cascade_join_path():
    # a populated corpus: Ray 2.49 hash joins crash on sparse sides
    # (empty partitions), so the forced-join regime needs enough rows
    from simhash_ray.pipelines.cascade import dedup_docs_cascade

    rng = np.random.default_rng(11)
    words = [f"tok{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(300):
        ids.append(i)
        body = " ".join(rng.choice(words, size=15))
        texts.append(body)
        if i % 7 == 0:  # plant exact dups
            ids.append(1000 + i)
            texts.append(body)
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "text": pa.array(texts, type=pa.string()),
            }
        )
    )
    bc = dedup_docs_cascade(docs, n_parts=8).assignment.to_pandas()
    jn = dedup_docs_cascade(
        docs, n_parts=2, broadcast_limit=0
    ).assignment.to_pandas()
    pd.testing.assert_frame_equal(
        bc.sort_values("doc_id", ignore_index=True),
        jn.sort_values("doc_id", ignore_index=True),
    )


def test_doc_cascade_rejects_string_ids():
    """String doc ids are refused up front with the integer-id contract
    of both tiers, not by an ArrowInvalid deep inside the exact tier."""
    from simhash_ray.pipelines.cascade import dedup_docs_cascade

    ids = [f"d{i}" for i in range(40)]
    texts = [f"body {i % 7} of a document" for i in range(40)]
    for docs in (
        rd.from_pandas(pd.DataFrame({"doc_id": ids, "text": texts})),
        rd.from_arrow(pa.table({"doc_id": ids, "text": texts})),
    ):
        with pytest.raises(
            ValueError, match=r"requires integer 'doc_id' ids.*both tiers"
        ):
            dedup_docs_cascade(docs, n_parts=8)


def test_all_unique_corpus():
    rows = [r for r in _rows() if r["image_id"] in
            {"img00000009", "img00000010"}]
    _, got = _run(rows)
    assert got == {
        "img00000009": ("img00000009", "survivor"),
        "img00000010": ("img00000010", "survivor"),
    }
