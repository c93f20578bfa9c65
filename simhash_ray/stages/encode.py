"""SimHash encoder stage — the flagship ``map_batches`` (SURVEY.md §2.2 M4).

Mirrors the reference's runner pattern: N model replicas each owning
private hasher state behind a queue
(/root/reference/src/Htm/Runner.hs:37-71, pool wiring
/root/reference/app/simhash-runner.hs:163-170).  Here a replica is one
Ray worker process: ``encode_signatures`` is a task-based
``map_batches`` whose function builds the process's
:class:`SimHashEncoder` (the token-hash cache + config) on first use
and keeps it for every later batch, pass and pipeline the process
runs.  Ray reuses task worker processes, so no pass spawns a process
or rebuilds a cache, and the stage reserves no CPU beyond the task it
runs.  Per-batch work is zero-copy Arrow in, Arrow out.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from ..config import SimHashConfig
from ..simhash import TokenHashCache, simhash_batch


class SimHashEncoder:
    """Holder of the encoder's per-process state (config + token-hash
    cache) and callable for ``map_batches``: adds an int64 ``simhash``
    column computed from a text column.  Conforms to the ``Stage``
    protocol (stages/base.py) — ``setup``/``process_batch``/
    ``checkpoint`` — so it is pluggable through ``compile_pipeline``
    as well as usable directly."""

    def __init__(
        self,
        cfg: SimHashConfig = SimHashConfig(),
        text_col: str = "caption",
        out_col: str = "simhash",
    ):
        self.cfg = cfg
        self.text_col = text_col
        self.out_col = out_col
        self.cache = TokenHashCache(cfg)

    def setup(self) -> None:  # state already built in __init__
        pass

    def checkpoint(self) -> dict:
        return {"config_hash": self.cfg.config_hash()}

    def encode(self, batch: pa.Table, text_col: str, out_col: str) -> pa.Table:
        sigs = simhash_batch(batch[text_col], self.cfg, self.cache)
        return batch.append_column(
            out_col, pa.array(sigs.view(np.int64), type=pa.int64())
        )

    def process_batch(self, batch: pa.Table) -> pa.Table:
        return self.encode(batch, self.text_col, self.out_col)

    __call__ = process_batch


# The worker process's encoder, keyed by ``cfg.config_hash()``.  One
# entry at most: a batch under another config replaces it, so a
# process never holds two caches.
_PROCESS_ENCODER: dict[str, SimHashEncoder] = {}


def process_encoder(cfg: SimHashConfig) -> SimHashEncoder:
    """This process's encoder for ``cfg``, built on first use."""
    key = cfg.config_hash()
    enc = _PROCESS_ENCODER.get(key)
    if enc is None:
        _PROCESS_ENCODER.clear()
        enc = _PROCESS_ENCODER[key] = SimHashEncoder(cfg)
    return enc


def _encode_batch(
    batch: pa.Table, cfg: SimHashConfig, text_col: str, out_col: str
) -> pa.Table:
    return process_encoder(cfg).encode(batch, text_col, out_col)


def encode_signatures(
    ds: rd.Dataset,
    cfg: SimHashConfig = SimHashConfig(),
    text_col: str = "caption",
    out_col: str = "simhash",
    batch_size: int = 4096,
) -> rd.Dataset:
    """Attach the 64-bit SimHash signature column: a task-based
    ``map_batches`` on the process-held encoder
    (:func:`process_encoder`).  batch_size ~4k keeps per-batch numpy
    intermediates (n_digests × 64 lanes) in cache."""
    return ds.map_batches(
        _encode_batch,
        fn_kwargs={"cfg": cfg, "text_col": text_col, "out_col": out_col},
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=batch_size,
    )


# ---------------------------------------------------------------------------
IDF_WEIGHT_CAP = 1_000_000  # keeps cnt·w·digests/doc < 2^63 at any corpus
IDF_BROADCAST_LIMIT = 50_000_000  # distinct digests in the ray.put table


def simhash_digest_projection(
    batch: pa.Table,
    cfg: SimHashConfig,
    id_col: str = "doc_id",
    text_col: str = "text",
    include_empty: bool = False,
) -> pa.Table:
    """The (id, digest uint64, cnt) staging/operator projection of the
    encoder's per-doc digest multiset (simhash.simhash_digest_rows) —
    THE one shared body behind the doc_simhash_sigs /
    doc_simhash_idf_sigs oracles and the IDF operator passes (round-4
    review: two byte-identical closures had drifted into being).

    ``include_empty=True`` appends a (doc, digest=0, cnt=0) sentinel
    row per digest-less doc so every input row appears downstream; a
    cnt=0 row contributes ±0 to any fold and is harmless to df counts
    (weight multiplies a zero), on BOTH engines."""
    from ..simhash import simhash_digest_rows

    rows, digs, cnt = simhash_digest_rows(batch[text_col], cfg)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    out_ids = ids[rows]
    if include_empty:
        seen = np.zeros(batch.num_rows, dtype=bool)
        seen[rows] = True
        missing = np.flatnonzero(~seen)
        if len(missing):
            out_ids = np.concatenate([out_ids, ids[missing]])
            digs = np.concatenate(
                [digs, np.zeros(len(missing), dtype=np.uint64)]
            )
            cnt = np.concatenate(
                [cnt, np.zeros(len(missing), dtype=np.int64)]
            )
            order = np.argsort(out_ids, kind="stable")
            out_ids, digs, cnt = out_ids[order], digs[order], cnt[order]
    return pa.table(
        {
            id_col: pa.array(out_ids, type=pa.int64()),
            "digest": pa.array(digs, type=pa.uint64()),
            "cnt": pa.array(cnt, type=pa.int64()),
        }
    )


def idf_weighted_signatures(
    docs: rd.Dataset,
    cfg: SimHashConfig = SimHashConfig(),
    text_col: str = "text",
    id_col: str = "doc_id",
    weight_cap: int = IDF_WEIGHT_CAP,
    broadcast_limit: int = IDF_BROADCAST_LIMIT,
    digests: rd.Dataset | None = None,
) -> rd.Dataset:
    """(id, simhash) with each feature digest weighted by the exact
    integer IDF surrogate ``min(n_docs // df, weight_cap)`` — rare
    features dominate the sign fold, boilerplate features are damped
    (Charikar's weighted SimHash; the uniform encoder is the w ≡ 1
    special case, pinned by test at weight_cap=1).

    Exact-integer discipline: a float idf (ln-based) would make the
    ``adder > 0`` sign threshold depend on summation order and the
    engine's libm; the integer-rational weight makes every lane fold
    bit-reproducible, so the SQL oracle re-derives df, the weights and
    every signature from the staged digest multiset independently.

    The corpus tokenizes ONCE: the digest projection (with empty-doc
    sentinel rows — see :func:`simhash_digest_projection`) is
    materialized and BOTH passes read it; pass 1 folds per-block
    distinct-df partials through one digest groupby into the weight
    table (ray.put below ``broadcast_limit`` distinct digests; above
    it this raises — the hash-join scoring variant is the documented
    scale follow-up), pass 2 folds all 64 lanes per block with the
    weights applied.  Pass 2 relies on each doc's digest rows being
    contiguous within one block — true by construction for the
    internal projection and REQUIRED of a caller-supplied ``digests``
    (pass the table produced by ``simhash_digest_projection`` with
    ``include_empty=True``, unshuffled).
    """
    import ray

    from ..functions.hashing import part_of_ints
    from .base import map_groups_typed

    n_docs = docs.count()
    n_parts = 64
    if digests is None:
        narrow = docs.select_columns([id_col, text_col])
        digests = narrow.map_batches(
            lambda t: simhash_digest_projection(
                t, cfg, id_col, text_col, include_empty=True
            ),
            batch_format="pyarrow",
        )
    digests = digests.materialize()

    def df_partial(batch: pa.Table) -> pa.Table:
        digs = batch["digest"].to_numpy(zero_copy_only=False).view(np.uint64)
        if len(digs) == 0:
            return pa.table(
                {"digest": pa.array([], type=pa.int64()),
                 "df": pa.array([], type=pa.int64()),
                 "part": pa.array([], type=pa.int32())}
            )
        # (doc, digest) rows are distinct by construction, so the
        # per-block df partial is one run-length pass over sorted digs
        ds_ = np.sort(digs)
        first = np.ones(len(ds_), dtype=bool)
        first[1:] = ds_[1:] != ds_[:-1]
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, len(ds_)))
        dd = ds_[starts].view(np.int64)
        return pa.table(
            {"digest": pa.array(dd, type=pa.int64()),
             "df": pa.array(cnt.astype(np.int64)),
             "part": pa.array(part_of_ints(n_parts, dd), type=pa.int32())}
        )

    def fold_df(group: pa.Table) -> pa.Table:
        d = group["digest"].to_numpy(zero_copy_only=False)
        c = group["df"].to_numpy(zero_copy_only=False)
        order = np.argsort(d, kind="stable")
        d, c = d[order], c[order]
        first = np.ones(len(d), dtype=bool)
        first[1:] = d[1:] != d[:-1]
        total = np.add.reduceat(c, np.flatnonzero(first))
        return pa.table(
            {"digest": pa.array(d[first], type=pa.int64()),
             "df": pa.array(total.astype(np.int64))}
        )

    df_ds = map_groups_typed(
        digests.map_batches(df_partial, batch_format="pyarrow"),
        "part",
        fold_df,
        pa.table({"digest": pa.array([], type=pa.int64()),
                  "df": pa.array([], type=pa.int64())}),
    ).materialize()
    n_distinct = df_ds.count()
    if n_distinct > broadcast_limit:
        raise ValueError(
            f"{n_distinct} distinct feature digests exceed the broadcast "
            f"limit {broadcast_limit}; shard the corpus or add the "
            "hash-join scoring path"
        )
    pdf = df_ds.to_pandas()
    dig_sorted = pdf["digest"].to_numpy().view(np.uint64)
    order = np.argsort(dig_sorted, kind="stable")
    dig_sorted = dig_sorted[order]
    w_sorted = np.minimum(
        n_docs // pdf["df"].to_numpy()[order], weight_cap
    ).astype(np.int64)
    ref = ray.put((dig_sorted, w_sorted))

    def weighted_fold(block: pa.Table) -> pa.Table:
        ids_all = block[id_col].to_numpy(zero_copy_only=False)
        digs = block["digest"].to_numpy(zero_copy_only=False).view(np.uint64)
        cnt = block["cnt"].to_numpy(zero_copy_only=False)
        if len(digs) == 0:
            return pa.table(
                {id_col: pa.array([], type=pa.int64()),
                 "simhash": pa.array([], type=pa.int64())}
            )
        dig_s, w_s = ray.get(ref)
        pos = np.searchsorted(dig_s, digs)
        # membership guard (round-4 review): both passes read the SAME
        # materialized table, so a miss means a corrupted/foreign
        # digests input — fail loudly, never gather a wrong weight
        if not (pos < len(dig_s)).all() or not (dig_s[pos] == digs).all():
            raise ValueError(
                "digest absent from the df table — pass a digests "
                "table produced by simhash_digest_projection, unshuffled"
            )
        cw = cnt * w_s[pos]
        starts = np.flatnonzero(
            np.concatenate([[True], ids_all[1:] != ids_all[:-1]])
        )
        row_ids = ids_all[starts]
        sig = np.zeros(len(row_ids), dtype=np.uint64)
        for j in range(64):
            bit = ((digs >> np.uint64(j)) & np.uint64(1)).view(np.int64)
            contrib = np.where(bit == 1, cw, -cw)
            adder = np.add.reduceat(contrib, starts)
            sig[adder > 0] |= np.uint64(1) << np.uint64(j)
        return pa.table(
            {
                id_col: pa.array(row_ids, type=pa.int64()),
                "simhash": pa.array(sig.view(np.int64), type=pa.int64()),
            }
        )

    return digests.map_batches(
        weighted_fold, batch_size=None, batch_format="pyarrow",
        zero_copy_batch=True,
    )
