"""stages/pairverify: the one pair-verify gather behind every
candidate-pair operator — typed empty results, no join over an empty
candidate set, and one absent-id policy (drop the pair) in both the
broadcast and the hash-join regime."""

import inspect
import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.stages import bbit


def _distinct_docs(n=40, n_words=30, seed=8):
    """n random documents of random 6-letter words: no shared token,
    shingle or 24-char span, so no operator finds a candidate pair."""
    rng = np.random.default_rng(seed)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    texts = [
        " ".join("".join(rng.choice(letters, 6)) for _ in range(n_words))
        for _ in range(n)
    ]
    return pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "text": texts})


_I64 = pa.int64()


def _minhash(docs, lim):
    from simhash_ray.stages.minhash import minhash_dup_pairs

    return minhash_dup_pairs(docs, concurrency=(1, 2), n_parts=2, broadcast_limit=lim)


def _oph(docs, lim):
    from simhash_ray.stages.oph import oph_dup_pairs

    return oph_dup_pairs(docs, concurrency=(1, 2), n_parts=2, broadcast_limit=lim)


def _simjoin(docs, lim):
    from simhash_ray.stages.minhash import minhash_similarity_join

    left = docs.filter(expr="doc_id < 20")
    right = docs.filter(expr="doc_id >= 20")
    return minhash_similarity_join(
        left, right, concurrency=(1, 2), n_parts=2, broadcast_limit=lim
    )


def _editdist(docs, lim):
    from simhash_ray.stages.minhash import editdist_dup_pairs

    return editdist_dup_pairs(docs, concurrency=(1, 2), n_parts=2, broadcast_limit=lim)


def _ssjoin(docs, lim):
    from simhash_ray.stages.ssjoin import prefix_jaccard_pairs

    kw = {} if lim is None else {"broadcast_limit": lim}
    return prefix_jaccard_pairs(docs, 7, 10, n_parts=2, **kw)


def _sa(docs, lim):
    from simhash_ray.stages.substring import sa_max_span_pairs

    kw = {} if lim is None else {"broadcast_limit": lim}
    return sa_max_span_pairs(docs, min_len=24, n_parts=2, **kw)


def _bbit(docs, lim, monkeypatch):
    if lim is not None:
        monkeypatch.setattr(bbit, "MINHASH_BROADCAST_LIMIT", lim)
    return bbit.bbit_dup_pairs(docs, concurrency=(1, 2), n_parts=2)


def _cosine(docs, lim):
    from simhash_ray.stages.ann import lsh_cosine_dup_pairs

    rng = np.random.default_rng(4)
    vecs = rd.from_pandas(
        pd.DataFrame(
            {
                "vec_id": np.arange(40, dtype=np.int64),
                "embedding": [r.tolist() for r in rng.standard_normal((40, 8))],
            }
        )
    )
    no_pairs = rd.from_arrow(
        pa.table({"a": pa.array([], _I64), "b": pa.array([], _I64)})
    )
    kw = {} if lim is None else {"broadcast_limit": lim}
    return lsh_cosine_dup_pairs(vecs, 9, 10, n_parts=2, candidates=no_pairs, **kw)


_OPERATORS = {
    "minhash": (_minhash, {"a": _I64, "b": _I64, "est_jaccard": pa.float64()}),
    "oph": (_oph, {"a": _I64, "b": _I64, "est_jaccard": pa.float64()}),
    "simjoin": (_simjoin, {"a": _I64, "b": _I64, "est_jaccard": pa.float64()}),
    "editdist": (_editdist, {"a": _I64, "b": _I64, "dist": _I64}),
    "ssjoin": (_ssjoin, {"a": _I64, "b": _I64, "inter": _I64, "uni": _I64}),
    "sa": (_sa, {"a": _I64, "b": _I64, "max_span_len": _I64}),
    "bbit": (_bbit, {"a": _I64, "b": _I64, "agree": _I64}),
    "cosine": (_cosine, {"a": _I64, "b": _I64}),
}


@pytest.mark.parametrize("regime", ["broadcast", "join"])
@pytest.mark.parametrize("op", sorted(_OPERATORS))
def test_no_candidate_pair_gives_typed_empty(op, regime, monkeypatch):
    """No candidate pair → a zero-row result whose schema still names
    the operator's columns and types (it used to carry no schema: the
    verify map never saw a batch).  Ray's ``to_pandas()`` drops the
    columns of any zero-row dataset, so the schema is read directly."""
    fn, want = _OPERATORS[op]
    docs = rd.from_pandas(_distinct_docs())
    lim = None if regime == "broadcast" else 0
    out = fn(docs, lim, monkeypatch) if op == "bbit" else fn(docs, lim)
    assert out.count() == 0
    schema = out.schema()
    assert schema is not None
    assert dict(zip(schema.names, schema.types)) == want


def test_join_regime_returns_on_empty_candidate_set():
    """The hash-join regime over an empty candidate set returns at
    once (it used to start two joins over an empty side that never
    finished).  Own Ray session in a subprocess, killed on timeout."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = textwrap.dedent(
        """
        import numpy as np, pandas as pd, ray, ray.data as rd
        ray.init(address="local", num_cpus=2, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=200 << 20)
        from simhash_ray.stages.minhash import minhash_dup_pairs
        """
    ) + inspect.getsource(_distinct_docs) + textwrap.dedent(
        """
        out = minhash_dup_pairs(rd.from_pandas(_distinct_docs()),
                                concurrency=(1, 2), n_parts=2,
                                broadcast_limit=0)
        print("ROWS", out.count())
        ray.shutdown()
        """
    )
    env = dict(os.environ)
    env.pop("RAY_ADDRESS", None)
    env["PYTHONPATH"] = root
    proc = subprocess.Popen(
        [sys.executable, "-c", code], cwd=root, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the session's raylet/gcs too
        proc.communicate()
        pytest.fail("the join regime did not return on an empty candidate set")
    assert proc.returncode == 0, err[-2000:]
    assert out.strip().splitlines()[-1] == "ROWS 0"


def test_stale_candidates_dropped_in_both_regimes():
    """A candidate naming an id absent from the vector table is dropped
    in both regimes (inner-join semantics); the broadcast regime used
    to raise while the join regime dropped it."""
    from simhash_ray.stages.ann import lsh_cosine_dup_pairs

    rng = np.random.default_rng(12)
    base = rng.standard_normal((30, 8))
    mat = np.vstack([base, base[:10] + 0.01 * rng.standard_normal((10, 8))])
    vecs = rd.from_pandas(
        pd.DataFrame(
            {
                "vec_id": np.arange(40, dtype=np.int64),
                "embedding": [r.tolist() for r in mat],
            }
        )
    )
    valid = [(i, 30 + i) for i in range(10)] + [(0, 1), (2, 3)]
    stale = [(5, 400), (401, 7), (402, 403)]
    a, b = zip(*(valid + stale))
    cands = rd.from_arrow(
        pa.table({"a": pa.array(a, _I64), "b": pa.array(b, _I64)})
    )
    unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    want = sorted((x, y) for x, y in valid if 10 * unit[x] @ unit[y] >= 9)
    assert len(want) == 10  # the planted pairs, not the random ones
    for lim in (2_000_000, 0):
        out = lsh_cosine_dup_pairs(
            vecs, 9, 10, n_parts=2, broadcast_limit=lim, candidates=cands
        ).to_pandas()
        assert sorted(zip(out["a"], out["b"])) == want, lim


@pytest.mark.parametrize("broadcast", [True, False])
def test_gather_widens_text_and_drops_absent_or_null(broadcast):
    """The gather hands a text feature to the check with 64-bit offsets
    (32-bit ones overflow once a gather passes 2 GiB of text), row-
    aligned with its pair, and drops a pair whose id is absent or whose
    feature is null.  A candidate set whose every ``a`` is absent
    returns the typed empty result in both regimes."""
    from simhash_ray.stages.pairverify import verify_pairs

    feats = rd.from_arrow(
        pa.table(
            {
                "id": pa.array([1, 2, 3, 4], _I64),
                "text": pa.array(["w", "x", None, "z"], pa.string()),
            }
        )
    )
    txt = pa.large_string()
    empty = pa.table(
        {"a": pa.array([], _I64), "b": pa.array([], _I64),
         "ta": pa.array([], txt), "tb": pa.array([], txt)}
    )

    def check(a, b, fa, fb):
        return pa.table(
            {"a": pa.array(a, _I64), "b": pa.array(b, _I64), "ta": fa, "tb": fb}
        )

    def run(a, b):
        pairs = rd.from_arrow(
            pa.table({"a": pa.array(a, _I64), "b": pa.array(b, _I64)})
        )
        out = verify_pairs(pairs, feats, check, empty, broadcast)
        schema = out.schema()
        assert dict(zip(schema.names, schema.types)) == {
            "a": _I64, "b": _I64, "ta": txt, "tb": txt
        }
        return sorted(tuple(r.values()) for r in out.take_all())

    got = run([1, 1, 3, 9, 2, 4], [2, 4, 1, 2, 8, 2])
    assert got == [(1, 2, "w", "x"), (1, 4, "w", "z"), (4, 2, "z", "x")]
    assert run([9, 10], [1, 2]) == []
