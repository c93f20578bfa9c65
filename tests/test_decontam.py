"""Decontamination: planted eval-overlap truth + path equivalence."""

import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.stages.decontam import decontaminate


@pytest.fixture(scope="module")
def corpus_and_eval():
    rng = np.random.default_rng(23)
    vocab = np.array([f"w{i:03d}" for i in range(800)])
    corpus = [" ".join(rng.choice(vocab, 50)) for _ in range(150)]
    evals = [" ".join(rng.choice(vocab, 40)) for _ in range(20)]
    # plant: corpus docs 0..29 each embed a 12-token verbatim passage
    # from eval doc (i % 20) → exactly 5 shared 8-token windows each
    truth = {}
    for i in range(30):
        passage = evals[i % 20].split()[5:17]
        toks = corpus[i].split()
        corpus[i] = " ".join(toks[:20] + passage + toks[20:])
        truth[i] = 5
    corpus_df = pd.DataFrame(
        {"doc_id": np.arange(len(corpus), dtype=np.int64), "text": corpus}
    )
    eval_df = pd.DataFrame(
        {"doc_id": np.arange(1000, 1000 + len(evals), dtype=np.int64),
         "text": evals}
    )
    return corpus_df, eval_df, truth


def test_planted_contamination_flagged(corpus_and_eval):
    corpus_df, eval_df, truth = corpus_and_eval
    out = decontaminate(
        rd.from_pandas(corpus_df), rd.from_pandas(eval_df), window=8
    ).to_pandas()
    got = dict(zip(out["doc_id"], out["n_hits"]))
    # every planted doc flagged with the exact distinct-window count;
    # random 50-token docs share no 8-gram with the eval set
    assert got == truth


def test_join_path_equals_broadcast(corpus_and_eval):
    corpus_df, eval_df, _ = corpus_and_eval
    a = decontaminate(
        rd.from_pandas(corpus_df), rd.from_pandas(eval_df), window=8
    ).to_pandas()
    b = decontaminate(
        rd.from_pandas(corpus_df), rd.from_pandas(eval_df), window=8,
        broadcast_limit=0,
    ).to_pandas()
    key = ["doc_id", "n_hits"]
    assert sorted(map(tuple, a[key].values.tolist())) == sorted(
        map(tuple, b[key].values.tolist())
    )


def test_clean_corpus_join_path_flags_nothing(corpus_and_eval):
    """A corpus sharing no window with the eval set, on the join path:
    no corpus window passes the Bloom prefilter, and the join over that
    empty side returns no rows (a Ray hash join fails on a side with
    no rows)."""
    corpus_df, eval_df, _ = corpus_and_eval
    clean = corpus_df.iloc[30:]  # docs 0..29 carry the planted passages
    out = decontaminate(
        rd.from_pandas(clean), rd.from_pandas(eval_df), window=8,
        broadcast_limit=0,
    ).to_pandas()
    assert len(out) == 0


def test_short_rows_contribute_nothing():
    corpus = pd.DataFrame({"doc_id": [0], "text": ["a b c"]})
    evals = pd.DataFrame({"doc_id": [1], "text": ["a b c"]})
    out = decontaminate(
        rd.from_pandas(corpus), rd.from_pandas(evals), window=8
    ).to_pandas()
    assert len(out) == 0


def test_string_doc_ids_preserved():
    """String id columns flow through both decontaminate paths with
    their Arrow type intact (round-3 advice item 4)."""
    corpus = rd.from_pandas(pd.DataFrame({
        "doc_id": ["docA", "docB", "docC"],
        "text": [
            "alpha beta gamma delta epsilon zeta eta theta iota",
            "totally different words with no overlap at all here",
            "alpha beta gamma delta epsilon zeta eta theta kappa",
        ],
    }))
    eval_ds = rd.from_pandas(pd.DataFrame({
        "doc_id": ["e1"],
        "text": ["alpha beta gamma delta epsilon zeta eta theta"],
    }))
    got = decontaminate(corpus, eval_ds, window=8).to_pandas()
    assert set(got["doc_id"]) == {"docA", "docC"}
    assert got["doc_id"].dtype == object
    got_join = decontaminate(
        corpus, eval_ds, window=8, broadcast_limit=0
    ).to_pandas()
    assert set(got_join["doc_id"]) == {"docA", "docC"}
