"""Shared-substring dedup: planted copied-passage recall."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.stages.substring import shared_substring_pairs


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(17)
    vocab = np.array([f"v{i:03d}" for i in range(900)])
    docs = [" ".join(rng.choice(vocab, 60)) for _ in range(200)]
    # plant: 40 docs copy a 20-token passage from a source doc into
    # otherwise-random text (a verbatim substring, the suffix-array case)
    planted = []
    for i in range(40):
        src_tokens = docs[i].split()
        passage = src_tokens[10:30]
        filler = list(rng.choice(vocab, 35))
        docs.append(" ".join(filler[:15] + passage + filler[15:]))
        planted.append((i, 200 + i))
    return pd.DataFrame(
        {"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs}
    ), set(planted)


def test_planted_passages_found(corpus):
    df, planted = corpus
    out = shared_substring_pairs(
        rd.from_pandas(df), window=8, min_shared=3, n_parts=16
    ).to_pandas()
    found = set(zip(out["a"], out["b"]))
    assert planted <= found, f"missed {planted - found}"
    # a 20-token shared passage yields exactly 13 shared 8-windows
    sub = out.set_index(["a", "b"]).loc[list(planted)]
    assert (sub["n_shared"] == 13).all()
    # no random pair shares ≥3 windows in this corpus
    assert len(found - planted) == 0


def test_short_docs_no_windows():
    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b c", "a b c"]})
    out = shared_substring_pairs(rd.from_pandas(df), window=8).to_pandas()
    assert len(out) == 0


def test_hot_window_df_guard_matches_oracle():
    """Boilerplate windows (df > max_df) are excluded on BOTH the Ray
    and the SQL side: a 10-token blurb shared by 300 docs (> max_df
    256) produces zero pairs, while a genuine 2-doc shared passage
    survives — and the two engines agree exactly (the round-1 silent
    256-doc cap would have diverged here)."""
    import duckdb

    from simhash_ray.pipelines.queries import SQL_DOC_SUBSTRING_PAIRS

    rng = np.random.default_rng(3)
    vocab = np.array([f"v{i:03d}" for i in range(900)])
    # one hot 10-token passage = three 8-token windows, df=300 > 256
    boiler = " ".join(f"b{i}" for i in range(10))
    docs = [boiler + " " + " ".join(rng.choice(vocab, 30)) for _ in range(300)]
    # one genuine pair sharing the same-shape 10-token passage (df=2)
    passage = " ".join(f"p{i}" for i in range(10))
    docs.append(passage + " " + " ".join(rng.choice(vocab, 30)))
    docs.append(" ".join(rng.choice(vocab, 30)) + " " + passage)
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64), "text": docs})

    out = shared_substring_pairs(
        rd.from_pandas(df), window=8, min_shared=3, n_parts=8
    ).to_pandas()
    con = duckdb.connect()
    con.register("documents", df)
    oracle = con.execute(SQL_DOC_SUBSTRING_PAIRS).df()
    con.close()

    def canon(d):
        return sorted(map(tuple, d[["a", "b", "n_shared"]].to_numpy()))

    assert canon(out) == canon(oracle)
    assert set(zip(out["a"], out["b"])) == {(300, 301)}
    assert out["n_shared"].tolist() == [3]


# ---------------------------------------------------------------------------
# remove_duplicate_spans (cross-doc sliding-window span REMOVAL)


def _naive_span_removal(rows, w):
    """Direct implementation of the declared semantics: every w-token
    window occurring >= 2 times keeps only its min-(doc, pos)
    occurrence; other occurrences' [pos, pos+w) intervals are cut."""
    from collections import defaultdict

    toks = {d: (t or "").split() for d, t in rows}
    groups = defaultdict(list)
    for d in sorted(toks):
        tk = toks[d]
        for p in range(len(tk) - w + 1):
            groups[" ".join(tk[p : p + w])].append((d, p))
    removed = defaultdict(set)
    for lst in groups.values():
        if len(lst) >= 2:
            lst.sort()
            for d, p in lst[1:]:
                removed[d].update(range(p, p + w))
    return {
        d: (
            " ".join(t for i, t in enumerate(tk) if i not in removed[d]),
            len(tk) - len(removed[d]),
            len(removed[d]),
        )
        for d, tk in toks.items()
    }


@pytest.fixture(scope="module")
def span_corpus():
    import random

    rng = random.Random(3)
    vocab = [f"s{i:02d}" for i in range(40)]
    shared = " ".join(rng.choice(vocab) for _ in range(20))
    rows = []
    for d in range(60):
        if d % 4 == 0:
            # plant the shared run at a RANDOM offset (alignment-robust
            # case disjoint chunking misses)
            pre = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 13)))
            post = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 13)))
            rows.append((d, f"{pre} {shared} {post}".strip()))
        else:
            rows.append(
                (d, " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 30))))
            )
    rows += [(100, ""), (101, None), (102, "  x   y  "), (103, shared)]
    return rows


def test_span_removal_matches_naive(span_corpus):
    from simhash_ray.stages.substring import remove_duplicate_spans

    rows = span_corpus
    ds = rd.from_pandas(
        pd.DataFrame({"doc_id": [d for d, _ in rows], "text": [t for _, t in rows]})
    ).repartition(7)
    out = (
        remove_duplicate_spans(ds, window=8, n_parts=8)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    ref = _naive_span_removal(rows, 8)
    assert len(out) == len(rows)
    for d, (txt, nk, nr) in ref.items():
        r = out.loc[d]
        assert (r["text"], r["n_kept"], r["n_removed"]) == (txt, nk, nr), d
    # the planted copies actually lost their spans (operator is not a no-op)
    assert (out["n_removed"] > 0).sum() >= 14


def test_span_removal_paths_and_layout_equivalent(span_corpus):
    """broadcast / forced-join / forced-Bloom paths and a different
    block layout all produce identical output."""
    from simhash_ray.stages.substring import remove_duplicate_spans

    rows = span_corpus
    df = pd.DataFrame(
        {"doc_id": [d for d, _ in rows], "text": [t for _, t in rows]}
    )
    base = (
        remove_duplicate_spans(rd.from_pandas(df).repartition(7), window=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for kw in ({"removal_limit": 0}, {"candidate_limit": 0}):
        alt = (
            remove_duplicate_spans(
                rd.from_pandas(df).repartition(7), window=8, **kw
            )
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        assert alt.equals(base), kw
    relaid = (
        remove_duplicate_spans(rd.from_pandas(df).repartition(23), window=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert relaid.equals(base)


def test_span_removal_no_duplicates_is_identity_modulo_whitespace():
    from simhash_ray.stages.substring import remove_duplicate_spans

    df = pd.DataFrame(
        {
            "doc_id": np.arange(5, dtype=np.int64),
            "text": [
                " ".join(f"u{d}t{i}" for i in range(12)) for d in range(5)
            ],
        }
    )
    out = (
        remove_duplicate_spans(rd.from_pandas(df), window=8)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (out["n_removed"] == 0).all()
    assert list(out["text"]) == list(df["text"])
    assert list(out["n_kept"]) == [12] * 5


def test_span_removal_seeded_stress_vs_naive():
    """30 random corpora (varying vocab size, window, doc shapes,
    whitespace edge cases) — the operator must match the naive
    semantics on every one."""
    import random

    from simhash_ray.stages.substring import remove_duplicate_spans

    for trial in range(30):
        rng = random.Random(1000 + trial)
        w = rng.choice([2, 3, 5, 8])
        vocab = [f"v{i}" for i in range(rng.choice([5, 30, 200]))]
        rows = []
        for d in range(rng.randint(5, 40)):
            L = rng.randint(0, 30)
            toks = [rng.choice(vocab) for _ in range(L)]
            txt = " ".join(toks)
            if rng.random() < 0.2:
                txt = "  " + txt + "   "  # whitespace canonicalization
            rows.append((d, txt))
        if rng.random() < 0.3:
            rows.append((99, None))
        out = (
            remove_duplicate_spans(
                rd.from_pandas(
                    pd.DataFrame(
                        {"doc_id": [d for d, _ in rows],
                         "text": [t for _, t in rows]}
                    )
                ).repartition(rng.randint(1, 6)),
                window=w,
                n_parts=4,
            )
            .to_pandas()
            .set_index("doc_id")
        )
        ref = _naive_span_removal(rows, w)
        for d, (txt, nk, nr) in ref.items():
            r = out.loc[d]
            assert (r["text"], r["n_kept"], r["n_removed"]) == (txt, nk, nr), (
                trial, w, d,
            )


# ---------------------------------------------------------------------------
# suffix-array substring (r5: the north rule's third named technique)


def test_suffix_array_matches_brute():
    from simhash_ray.stages.substring import suffix_array

    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 7, 50, 200):
        s = rng.integers(0, 4, size=n)  # small alphabet -> deep ties
        got = suffix_array(s).tolist()
        want = sorted(range(n), key=lambda i: tuple(s[i:]))
        assert got == want, n


def test_lcp_kasai_matches_brute():
    from simhash_ray.stages.substring import lcp_kasai, suffix_array

    rng = np.random.default_rng(6)
    for n in (1, 2, 13, 120):
        s = rng.integers(0, 3, size=n)
        sa = suffix_array(s)
        lcp = lcp_kasai(s, sa)
        assert lcp[0] == 0

        def brute_lcp(i, j):
            k = 0
            while i + k < n and j + k < n and s[i + k] == s[j + k]:
                k += 1
            return k

        for r in range(1, n):
            assert lcp[r] == brute_lcp(sa[r - 1], sa[r]), (n, r)


def test_max_common_substring_matches_brute_dp():
    from simhash_ray.stages.substring import max_common_substring_chars

    rng = np.random.default_rng(7)
    alpha = list("abcd") + ["é", "中"]

    def brute(a, b):
        best = 0
        for i in range(len(a)):
            for j in range(len(b)):
                k = 0
                while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                    k += 1
                best = max(best, k)
        return best

    for _ in range(60):
        a = "".join(rng.choice(alpha, size=rng.integers(0, 25)))
        b = "".join(rng.choice(alpha, size=rng.integers(0, 25)))
        assert max_common_substring_chars(a, b) == brute(a, b), (a, b)
    # planted long shared span
    core = "the quick brown fox jumps"
    assert max_common_substring_chars("xx" + core + "yy", "AA" + core) == len(core)


def test_sa_max_span_pairs_operator():
    """Planted shared spans: pairs sharing >= min_len chars are found
    with the exact max length; sub-threshold overlaps are not."""
    from simhash_ray.stages.substring import (
        max_common_substring_chars,
        sa_max_span_pairs,
    )

    span = "a long enough shared span of text that exceeds the window"
    docs = pd.DataFrame(
        {
            "doc_id": np.arange(6, dtype=np.int64),
            "text": [
                "prefix one " + span + " suffix one",
                "other start " + span + " other end",
                "completely unrelated content here with nothing shared",
                "short overlap only: " + span[:10],
                span,  # exact containment
                "yet another unrelated document body text",
            ],
        }
    )
    out = (
        sa_max_span_pairs(rd.from_pandas(docs).repartition(3), min_len=24)
        .to_pandas()
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    got = {(r.a, r.b): r.max_span_len for r in out.itertuples()}
    assert set(got) == {(0, 1), (0, 4), (1, 4)}
    # exact lengths cross-checked against the pinned kernel
    for (a, b), v in got.items():
        assert v == max_common_substring_chars(
            docs.loc[a, "text"], docs.loc[b, "text"]
        )
        assert v >= len(span)  # the planted span (+ possible flanks)


def test_sa_max_span_pairs_join_path_matches_broadcast():
    """broadcast_limit=0 forces the hash-join text attach (the
    cluster-scale path); output must equal the broadcast path's."""
    from simhash_ray.stages.substring import sa_max_span_pairs

    span = "another sufficiently long shared span used for the join test"
    rng = np.random.default_rng(9)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    texts = []
    for i in range(40):
        body = " ".join(rng.choice(words, size=12))
        if i % 7 == 0:
            body = body[:20] + " " + span + " " + body[20:]
        texts.append(body)
    docs = pd.DataFrame(
        {"doc_id": np.arange(40, dtype=np.int64), "text": texts}
    )
    ds = rd.from_pandas(docs).repartition(4)
    broad = sa_max_span_pairs(ds, min_len=24).to_pandas()
    joinp = sa_max_span_pairs(
        ds, min_len=24, broadcast_limit=0, n_parts=2
    ).to_pandas()
    key = lambda df: sorted(
        map(tuple, df[["a", "b", "max_span_len"]].values.tolist())
    )
    assert key(broad) == key(joinp)
    assert len(broad) >= 6 * 5 // 2  # the planted-span clique


def test_sa_max_span_pairs_no_overflow_warning():
    """The window-hash powers B^j must wrap mod 2^64 without numpy's
    scalar-overflow RuntimeWarning (raised on every call before)."""
    import warnings

    from simhash_ray.stages.substring import sa_max_span_pairs

    span = "a long enough shared span of text that exceeds the window"
    docs = pd.DataFrame(
        {"doc_id": np.arange(2, dtype=np.int64), "text": ["x " + span, span]}
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = sa_max_span_pairs(
            rd.from_pandas(docs), min_len=24, n_parts=4
        ).to_pandas()
    assert list(zip(out["a"], out["b"])) == [(0, 1)]


def test_char_window_hashes_values_and_memory_bound():
    """The flat rolling hash equals Σ cp[i+j]·B^j mod 2^64 per window
    (distinct per row, cross-row windows excluded), and a 2M-character
    document — ASCII or not — peaks below 40 B per character, not the
    O(text × window) of a dense window matrix."""
    import tracemalloc

    import pyarrow as pa

    from simhash_ray.stages.substring import _char_window_hashes

    w = 5
    texts = ["abcabcabcab", None, "abc", "", "héllo 日本語 héllo 日本語"]
    rows, h = _char_window_hashes(pa.array(texts), w)
    want = set()
    for r, t in enumerate(texts):
        cps = [ord(c) for c in (t or "")]
        for i in range(len(cps) - w + 1):
            want.add(
                (r, sum(c * 1099511628211**j for j, c in enumerate(cps[i : i + w]))
                 % (1 << 64))
            )
    got = list(zip(rows.tolist(), h.tolist()))
    assert len(got) == len(set(got)) and set(got) == want

    rng = np.random.default_rng(0)
    n = 2_000_000
    for alphabet in ("abcdefgh", "aé日ß€\U0001f600"):
        text = "".join(rng.choice(list(alphabet), size=n))
        col = pa.array([text])
        tracemalloc.start()
        rows, h = _char_window_hashes(col, 24)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert len(h) > n // 2  # random text: mostly distinct windows
        assert peak / n < 40, (alphabet, peak / n)
