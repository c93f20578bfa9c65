"""Unit tests for text operators and LSH internals."""

import numpy as np
import pyarrow as pa

from simhash_ray.config import LSHConfig
from simhash_ray.stages.lsh import make_band_expander, make_pair_generator
from simhash_ray.stages.text import (
    LangIdScorer,
    md5_fingerprint_batch,
    quality_counters_batch,
    rolling_fingerprint_batch,
    token_count_batch,
)

TEXTS = ["a b  c", "", "   ", "one", "x " * 50, "Hello, World! 123", None]


def test_token_count_matches_python_split():
    batch = pa.table({"text": pa.array(TEXTS, type=pa.string())})
    out = token_count_batch(batch)["n_tokens"].to_pylist()
    want = [len((t or "").split()) for t in TEXTS]
    assert out == want


def test_quality_counters():
    batch = pa.table({"text": pa.array(["abc 12 !?", "ABCdef"])})
    out = quality_counters_batch(batch)
    assert out["len_chars"].to_pylist() == [9, 6]
    assert out["alpha_chars"].to_pylist() == [3, 6]
    assert out["digit_chars"].to_pylist() == [2, 0]
    assert out["space_chars"].to_pylist() == [2, 0]


def test_lang_id_heuristic():
    batch = pa.table(
        {
            "text": pa.array(
                [
                    "the cat and the dog sat in a box",
                    "der hund ist nicht auf der couch",
                    "le chat est dans la maison et les jardins",
                    "zzz qqq www",
                ]
            )
        }
    )
    out = LangIdScorer()(batch)["lang_pred"].to_pylist()
    assert out == ["en", "de", "fr", "und"]


def test_fingerprints_deterministic():
    batch = pa.table({"text": pa.array(["hello world", "hello world", "bye"])})
    fp = md5_fingerprint_batch(batch)["fingerprint"].to_pylist()
    assert fp[0] == fp[1] != fp[2]
    assert fp[0] == "5eb63bbbe01eeed093cb22bb8f5acdc3"
    rf = rolling_fingerprint_batch(batch)["rolling_fp"].to_pylist()
    assert rf[0] == rf[1] != rf[2]


def test_rolling_fp_edit_robust():
    """Winnowing property: appending a few tokens usually keeps some of
    the k smallest window hashes — identical docs always match, small
    edits often do, disjoint docs don't."""
    base = " ".join(f"w{i}" for i in range(60))
    edited = base + " extra token"
    other = " ".join(f"z{i}" for i in range(60))
    batch = pa.table({"text": pa.array([base, edited, other])})
    fp = rolling_fingerprint_batch(batch, window=8, keep=4)["rolling_fp"].to_pylist()
    assert fp[0] != fp[2]


def test_pair_generator_oversized_exact_then_star(monkeypatch):
    """Buckets above the full-pair threshold keep EXACT cross-sig pair
    coverage up to OVERSIZED_EXACT_CAP (round-4 recall fix, flagged
    star=True); only beyond the cap do they degrade to the min-head
    star."""
    n = 40
    group = pa.table(
        {
            "id": pa.array([f"img{i:03d}" for i in range(n)]),
            "space": pa.array(np.zeros(n, dtype=np.int32)),
            "band": pa.array(np.zeros(n, dtype=np.int32)),
            "key": pa.array(np.full(n, 7, dtype=np.int64)),
            "sig": pa.array(np.arange(n, dtype=np.int64)),
        }
    )
    full = make_pair_generator(pair_full_threshold=64)(group)
    assert full.num_rows == n * (n - 1) // 2
    assert not any(full["star"].to_pylist())
    over = make_pair_generator(pair_full_threshold=8)(group)
    assert over.num_rows == n * (n - 1) // 2  # exact triu, ≤ cap
    assert all(over["star"].to_pylist())
    import simhash_ray.stages.buckets as K

    monkeypatch.setattr(K, "OVERSIZED_EXACT_CAP", 10)
    star = make_pair_generator(pair_full_threshold=8)(group)
    assert star.num_rows == n - 1
    assert all(star["star"].to_pylist())
    assert set(star["a"].to_pylist()) == {"img000"}


def test_band_expander_pigeonhole():
    """Two sigs within tau must share at least one exact band key."""
    cfg = LSHConfig()  # 8 blocks choose 2, tau=6
    rng = np.random.default_rng(0)
    base = rng.integers(0, 2**63, 20, dtype=np.uint64)
    flips = np.zeros_like(base)
    for i in range(len(base)):
        bits = rng.choice(64, size=cfg.hamming_tau, replace=False)
        for b in bits:
            flips[i] |= np.uint64(1) << np.uint64(b)
    near = base ^ flips
    tbl = pa.table(
        {
            "image_id": pa.array([f"a{i}" for i in range(20)] + [f"b{i}" for i in range(20)]),
            "simhash": pa.array(np.concatenate([base, near]).view(np.int64)),
            "phash": pa.array(np.zeros(40, dtype=np.int64)),
        }
    )
    exp = make_band_expander([(0, "simhash", cfg)], n_parts=8)(tbl)
    df = exp.to_pandas()
    for i in range(20):
        ka = df[df["id"] == f"a{i}"][["band", "key"]]
        kb = df[df["id"] == f"b{i}"][["band", "key"]]
        merged = ka.merge(kb, on=["band", "key"])
        assert len(merged) >= 1, f"pair {i} shares no band"


def test_repetition_counts_planted():
    import pyarrow as pa

    from simhash_ray.stages.text import repetition_counts_batch

    batch = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
            "text": [
                "a b c a b c a b c",  # 9 tokens: 7 windows, 3 distinct
                "x y z w",            # 4 tokens: 2 windows, 2 distinct
                "p q",                # shorter than k: 0 windows
                "",                   # empty: 0 windows
            ],
        }
    )
    out = repetition_counts_batch(batch, k=3).to_pandas()
    assert out["n_windows"].tolist() == [7, 2, 0, 0]
    assert out["n_distinct_windows"].tolist() == [3, 2, 0, 0]


def test_unigram_logprob_planted():
    import math

    import pyarrow as pa
    import ray
    import ray.data as rd

    from simhash_ray.stages.text import make_unigram_scorer, unigram_token_counts

    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2], type=pa.int64()),
                # corpus: 'a' x3, 'b' x2, 'c' x1 → total 6
                "text": ["a a b", "b c", "a"],
            }
        )
    )
    vocab = unigram_token_counts(docs).to_pandas().set_index("token")["cnt"]
    assert vocab.to_dict() == {"a": 3, "b": 2, "c": 1}
    ref = ray.put(vocab)
    out = (
        docs.map_batches(make_unigram_scorer(ref, 6), batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")["avg_logprob"]
    )
    want0 = (2 * math.log(3 / 6) + math.log(2 / 6)) / 3
    want1 = (math.log(2 / 6) + math.log(1 / 6)) / 2
    want2 = math.log(3 / 6)
    assert abs(out[0] - round(want0, 6)) < 1e-9
    assert abs(out[1] - round(want1, 6)) < 1e-9
    assert abs(out[2] - round(want2, 6)) < 1e-9


def test_redact_batch_matches_duckdb_on_planted_pii():
    """The fixture corpus has no PII, so the oracle only checks the
    identity path there; this pins the actual replacement semantics on
    planted emails/numbers against DuckDB's regexp_replace running the
    IDENTICAL patterns (both engines are RE2)."""
    import duckdb
    import pyarrow as pa

    from simhash_ray.stages.text import REDACT_PATTERNS, redact_batch

    texts = [
        "contact me at john.doe+spam@example.co.uk or 12345678 now",
        "two mails a@b.io c.d@e-f.org and digits 1234567 123456",
        "no pii here",
        "",
        None,
        "edge email@x.yz 9999999999999999999 trailing",
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), type=pa.int64()),
         "text": pa.array(texts, type=pa.string())}
    )
    got = redact_batch(batch).to_pandas()
    email, number = dict(REDACT_PATTERNS)["email"], dict(REDACT_PATTERNS)["number"]
    con = duckdb.connect()
    con.register("t", batch)
    want = con.execute(f"""
        WITH s1 AS (
          SELECT doc_id, COALESCE(text, '') AS t0,
                 len(regexp_extract_all(COALESCE(text, ''), '{email}')) AS n1
          FROM t),
        s2 AS (SELECT doc_id, n1,
                      regexp_replace(t0, '{email}', '<email>', 'g') AS t1
               FROM s1)
        SELECT doc_id,
               CAST(n1 + len(regexp_extract_all(t1, '{number}')) AS BIGINT) AS n_redacted,
               regexp_replace(t1, '{number}', '<number>', 'g') AS redacted
        FROM s2 ORDER BY doc_id
    """).fetchdf()
    assert got["n_redacted"].tolist() == want["n_redacted"].tolist()
    assert got["redacted"].tolist() == want["redacted"].tolist()
    assert got["n_redacted"].sum() >= 7  # the planted PII was actually hit


def test_nfc_normalize_matches_unicodedata():
    """The doc_normalize kernel must agree with unicodedata AND
    DuckDB's nfc_normalize on combining marks and ligatures — the
    ASCII driver fixture can't exercise this (and pyarrow 16.1's own
    utf8_normalize NFC emits decomposed output, which this kernel
    deliberately avoids)."""
    import unicodedata

    import duckdb
    import pyarrow as pa

    from simhash_ray.stages.text import nfc_normalize_batch

    cases = [
        "e\u0301cole",   # decomposed: e + combining acute
        "\u00e9cole",    # precomposed
        "\ufb01n",       # ligature fi (NFC keeps it; only NFKC folds)
        "a\u030a",       # a + combining ring
        "",
        "ascii only",
        None,  # null text: text_nfc/changed stay null (SQL semantics)
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(len(cases)), type=pa.int64()),
         "text": pa.array(cases, type=pa.string())}
    )
    out = nfc_normalize_batch(batch)
    got = out["text_nfc"].to_pylist()
    assert got == [
        unicodedata.normalize("NFC", c) if c is not None else None
        for c in cases
    ]
    assert out["changed"].to_pylist() == [
        True, False, False, True, False, False, None
    ]
    cases = cases[:-1]
    got = got[:-1]
    con = duckdb.connect()
    duck = [con.execute("SELECT nfc_normalize(?)", [c]).fetchone()[0]
            for c in cases]
    assert got == duck


def test_dsir_weights_prefer_target_like_docs(ray_session):
    """Docs made of target-domain (lang='en') tokens must score higher
    than docs made of off-domain tokens; weights partition-invariant."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from simhash_ray.stages.text import make_dsir_scorer, unigram_target_counts
    import pandas as pd
    import ray

    en_toks = ["the", "of", "and", "to", "in"]
    de_toks = ["der", "und", "das", "ist", "ein"]
    rows = []
    rng = np.random.default_rng(2)
    for i in range(20):
        rows.append((i, " ".join(rng.choice(en_toks, 30)), "en"))
    for i in range(20, 40):
        rows.append((i, " ".join(rng.choice(de_toks, 30)), "de"))
    # held-out probes: one en-like, one de-like, labelled neither
    rows.append((100, " ".join(en_toks * 6), "xx"))
    rows.append((101, " ".join(de_toks * 6), "xx"))
    docs = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
                "text": pa.array([r[1] for r in rows], type=pa.string()),
                "lang": pa.array([r[2] for r in rows], type=pa.string()),
            }
        )
    ).repartition(4)
    counts = unigram_target_counts(docs, "lang", "en").to_pandas()
    v = len(counts)
    t_all, t_t = int(counts["cnt"].sum()), int(counts["cnt_t"].sum())
    lam = (
        np.log(counts["cnt_t"].to_numpy() + 1.0) - np.log(t_t + v)
        - np.log(counts["cnt"].to_numpy() + 1.0) + np.log(t_all + v)
    )
    lam_ref = ray.put(pd.Series(lam, index=counts["token"].to_numpy()))
    out = (
        docs.map_batches(make_dsir_scorer(lam_ref), batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")["dsir_weight"]
    )
    assert out.loc[100] > out.loc[101]
    assert out.loc[list(range(20))].min() > out.loc[list(range(20, 40))].max()
    # partition invariance
    out2 = (
        docs.repartition(9)
        .map_batches(make_dsir_scorer(lam_ref), batch_format="pyarrow")
        .to_pandas()
        .set_index("doc_id")["dsir_weight"]
    )
    assert out.sort_index().equals(out2.sort_index())


# ---------------------------------------------------------------------------
# normalized-text ("fuzzy-exact") dedup


def _norm_ref(s: str) -> str:
    """Python reference of the norm_key rule; re.ASCII pins \\s to the
    ASCII class exactly like RE2 on both engines."""
    import re

    s = s.lower()
    s = re.sub(r"[!-/:-@\[-`{-~]", "", s, flags=re.ASCII)
    s = re.sub(r"\s+", " ", s, flags=re.ASCII)
    return s.strip(" ")


def test_norm_key_matches_python_reference():
    from simhash_ray.stages.text import norm_key_batch

    texts = [
        "Hello, World!",
        "hello world",
        "HELLO   world.",
        "  spaced\tout\n text ",
        "digits 123; stay!",
        "¡Olé! Café — déjà vu",
        "中文 标点,保留 中文",
        "***",
        "",
    ]
    out = norm_key_batch(pa.table({"text": pa.array(texts)}))
    got = out["norm_key"].to_pylist()
    assert got == [_norm_ref(t) for t in texts]


def test_normalized_dedup_collapses_variants():
    import pandas as pd
    import ray.data as rd

    from simhash_ray.stages.text import normalized_dedup

    df = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "Hello, World!",
                "hello world",
                "HELLO   world.",
                "a different doc",
                "A different DOC",
                "unique survivor",
            ],
        }
    )
    out = (
        normalized_dedup(rd.from_pandas(df).repartition(3))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # 3 variants of "hello world" -> keeper 0 ×3; 2 of "a different
    # doc" -> keeper 3 ×2; plus the singleton
    assert out["doc_id"].tolist() == [0, 3, 5]
    assert out["n_copies"].tolist() == [3, 2, 1]
