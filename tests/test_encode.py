"""The SimHash encode stage: a task-based ``map_batches`` over the
process-held encoder (stages/encode.process_encoder)."""

import os

import numpy as np
import pandas as pd
import ray
import ray.data as rd

from simhash_ray.config import SimHashConfig
from simhash_ray.simhash import simhash_oracle
from simhash_ray.stages import encode
from simhash_ray.stages.encode import encode_signatures, process_encoder

CFG_B = SimHashConfig(hash_seed=99, lowercase=False, char_ngram=2)


def _texts(n=120, seed=3):
    rng = np.random.default_rng(seed)
    vocab = np.array([f"Tok{i}" for i in range(40)] + ["the", "THE", "fox"])
    texts = [" ".join(rng.choice(vocab, rng.integers(0, 12))) for _ in range(n)]
    return texts + ["", "   ", "x" * 260]


def test_process_encoder_holds_one_config():
    """In one process: the same config returns the same encoder, and a
    different config replaces it (never two caches held)."""
    a = process_encoder(SimHashConfig())
    assert process_encoder(SimHashConfig()) is a
    b = process_encoder(CFG_B)
    assert b is not a and b.cfg == CFG_B
    assert list(encode._PROCESS_ENCODER) == [CFG_B.config_hash()]
    assert process_encoder(SimHashConfig()) is not a
    assert len(encode._PROCESS_ENCODER) == 1


def test_worker_encoders_keyed_by_config():
    """One session encodes the same rows under the default config, a
    config differing in hash_seed, lowercase and char_ngram, then the
    default again: every row equals the oracle under its config, the
    repeated passes agree, and no worker process holds two encoders."""
    texts = _texts()
    df = pd.DataFrame({"doc_id": np.arange(len(texts)), "text": texts})

    def run(cfg):
        ds = rd.from_pandas(df).repartition(6)
        out = encode_signatures(ds, cfg, text_col="text").to_pandas()
        return out.sort_values("doc_id")["simhash"].to_numpy().view(np.uint64)

    first = run(SimHashConfig())
    other = run(CFG_B)
    again = run(SimHashConfig())
    np.testing.assert_array_equal(
        first, np.array([simhash_oracle(t) for t in texts], dtype=np.uint64)
    )
    np.testing.assert_array_equal(
        other, np.array([simhash_oracle(t, CFG_B) for t in texts], dtype=np.uint64)
    )
    np.testing.assert_array_equal(first, again)

    def held(batch):
        return pd.DataFrame(
            {"pid": [os.getpid()], "keys": [",".join(encode._PROCESS_ENCODER)]}
        )

    probe = (
        rd.range(32, override_num_blocks=16)
        .map_batches(held, batch_format="pandas", batch_size=None)
        .to_pandas()
    )
    allowed = {"", SimHashConfig().config_hash(), CFG_B.config_hash()}
    assert set(probe["keys"]) <= allowed, probe


def test_encode_signatures_starts_no_actors():
    rd.range(4).materialize()  # Ray Data's own helper actors start here
    before = len(ray._private.state.actors())
    df = pd.DataFrame({"caption": _texts(40)})
    encode_signatures(rd.from_pandas(df).repartition(3)).materialize()
    assert len(ray._private.state.actors()) == before
