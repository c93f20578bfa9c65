"""Traced run: per-layer spans around calls into the program's layers,
and in-process kernel microbenchmarks.

The traced pass composes the flagship pipeline from its public stage
functions in the order ``pipelines.dedup_images.dedup_images`` runs
them, materializing each layer's output inside its span so that lazy
Ray Data plans execute where they are timed.  Eager helpers the
pipeline calls internally (band verification and union-find) are
wrapped in place for the duration of the pass.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time

import numpy as np


class Tracer:
    """In-memory spans (name, start, end, parent) plus named counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"id": sid, "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self, root_id: int) -> dict[str, float]:
        """Self seconds per span name under ``root_id`` (the root
        included): duration minus the time its children cover."""
        kids: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                kids.setdefault(s["parent"], []).append(s)
        out: dict[str, float] = {}

        def walk(s):
            child_time = sum(c["end"] - c["start"] for c in kids.get(s["id"], []))
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child_time
            for c in kids.get(s["id"], []):
                walk(c)

        walk(self.spans[root_id])
        return out

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as f:
            json.dump({"meta": meta, "spans": self.spans, "counters": self.counters}, f)


@contextlib.contextmanager
def _patched(module, attr: str, replacement):
    original = getattr(module, attr)
    setattr(module, attr, replacement)
    try:
        yield
    finally:
        setattr(module, attr, original)


def traced_encode(tr: Tracer, fixture_dir: str):
    """read → encode, each materialized in its own span."""
    from simhash_ray.pipelines.dedup_images import signatures
    from simhash_ray.sources.tables import read_table

    with tr.span("read"):
        images = read_table(fixture_dir, "images",
                            columns=["image_id", "caption", "phash"]).materialize()
    n_rows = images.count()
    tr.count("read.rows", n_rows)
    with tr.span("encode"):
        sigs = signatures(images).materialize()
    return sigs, n_rows


def traced_direct_tail(tr: Tracer, sigs, cfg):
    """The direct regime after encode: collect → broadcast band verify →
    driver union-find → attach by own id."""
    from simhash_ray.pipelines import dedup_images as di

    with tr.span("collect"):
        sig_df = sigs.to_pandas()
        ids = sig_df["image_id"].to_numpy(dtype=object)
        space_sigs = {
            di.TEXT_SPACE: sig_df["simhash"].to_numpy().view(np.uint64),
            di.IMAGE_SPACE: sig_df["phash"].to_numpy().view(np.uint64),
        }

    broadcast = di.broadcast_candidate_edges

    def band_verify(*args, **kwargs):
        with tr.span("band_verify"):
            ai, bi = broadcast(*args, **kwargs)
        tr.count("band_verify.edges", len(ai))
        return ai, bi

    with _patched(di, "broadcast_candidate_edges", band_verify), \
            _patched(di, "unionfind_driver", tr.wrap("unionfind", di.unionfind_driver)), \
            tr.span("edge_canon"):
        # edge_canon's self time is the index → id canonicalization and
        # dedupe between band verification and union-find
        _, label_df, edges = di._direct_regime_cluster(
            ids, space_sigs,
            [(di.TEXT_SPACE, cfg.text_lsh), (di.IMAGE_SPACE, cfg.image_lsh)],
            taus={di.TEXT_SPACE: cfg.text_lsh.hamming_tau,
                  di.IMAGE_SPACE: cfg.image_lsh.hamming_tau},
            pair_full_threshold=min(cfg.text_lsh.pair_full_threshold,
                                    cfg.image_lsh.pair_full_threshold),
        )
    tr.count("unionfind.nodes", len(label_df))
    with tr.span("attach"):
        assignment = di._attach_by_own_id(sigs, label_df).materialize()
        len(set(label_df["label"]))  # the pipeline's n_clusters
    return assignment, edges


def traced_distributed_tail(tr: Tracer, sigs, cfg, n_rows: int):
    """The cluster-scale regime after encode: exact collapse → band
    expansion → pair generation, then verification (unfused, so the
    candidate count is visible) → edge dedupe → attach (driver
    union-find inside)."""
    import ray

    from simhash_ray.pipelines import dedup_images as di
    from simhash_ray.stages import cluster
    from simhash_ray.stages.collapse import collapse_exact
    from simhash_ray.stages.lsh import candidate_pairs, make_band_expander, make_verifier

    n_parts = di.choose_n_parts(n_rows)
    with tr.span("collapse"):
        collapsed = collapse_exact(sigs, n_parts).materialize()
    tr.count("collapse.rows", collapsed.count())

    spaces, n_bands, band_parts = di._band_plan(collapsed, cfg)
    with tr.span("band_expand"):
        cpus = int(ray.cluster_resources().get("CPU", 32))
        reps = (
            collapsed.filter(expr="is_rep == True")
            .select_columns(["image_id", *sorted({c for _, c, _ in spaces})])
            .repartition(max(32, cpus))
        )
        bands = reps.map_batches(
            make_band_expander(spaces, id_col="image_id", n_parts=band_parts),
            batch_format="pyarrow",
        ).materialize()
    tr.count("band_expand.rows", bands.count())
    tr.count("collapse.reps", bands.count() // n_bands)  # one row per rep and band
    taus = {sp: c.hamming_tau for sp, _, c in spaces}
    with tr.span("pair_verify"):
        cands = candidate_pairs(
            bands,
            pair_full_threshold=min(c.pair_full_threshold for _, _, c in spaces),
            taus=None,
            shuffle_blocks=None,
        ).materialize()
        verified = cands.map_batches(make_verifier(taus), batch_format="pyarrow").materialize()
    tr.count("pair_verify.candidates", cands.count())
    tr.count("pair_verify.verified", verified.count())
    tr.count("edge_dedupe.rows_in", verified.count())
    with tr.span("edge_dedupe"):
        edges = cluster.dedupe_edges(verified.select_columns(["a", "b"]), n_parts).materialize()
    tr.count("edge_dedupe.edges", edges.count())

    driver_uf = cluster.unionfind_driver

    def unionfind(edge_df):
        with tr.span("unionfind"):
            label_df = driver_uf(edge_df)
        tr.count("unionfind.nodes", len(label_df))
        return label_df

    with _patched(cluster, "unionfind_driver", unionfind), \
            tr.span("attach"):
        assignment, _, _ = di.attach_clusters(collapsed, edges, cfg, n_parts)
        assignment = assignment.materialize()
    return assignment, edges


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_metrics(captions: list[str], seed: int, reps: int = 7) -> dict[str, tuple]:
    """In-process kernel timings on a fixed caption batch, no Ray:
    {metric name: (value, unit)}, each the median of ``reps`` calls."""
    import pyarrow as pa

    from simhash_ray.config import SimHashConfig
    from simhash_ray.functions.tokenize import tokens_flat
    from simhash_ray.simhash import TokenHashCache, hamming64, simhash_batch

    cfg = SimHashConfig()
    texts = pa.array(captions, type=pa.string())
    n = len(captions)
    out = {}

    warm = TokenHashCache(cfg)
    simhash_batch(texts, cfg, warm)
    out["simhash_batch.rows_per_s"] = (
        n / _median_time(lambda: simhash_batch(texts, cfg, warm), reps), "rows/s")
    out["tokenize.rows_per_s"] = (
        n / _median_time(lambda: tokens_flat(texts, lower=False), reps), "rows/s")

    uniq = tokens_flat(texts, lower=False).flat.unique().to_pylist()
    out["token_cache.miss_s"] = (
        _median_time(lambda: TokenHashCache(cfg).lookup(uniq), reps), "s")
    out["token_cache.hit_s"] = (_median_time(lambda: warm.lookup(uniq), reps), "s")

    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 63, 1 << 20, dtype=np.uint64)
    b = rng.integers(0, 1 << 63, 1 << 20, dtype=np.uint64)
    out["hamming64.pairs_per_s"] = (
        len(a) / _median_time(lambda: hamming64(a, b), reps), "pairs/s")
    return out


LAYERS = (
    "read", "encode", "collect", "band_verify", "edge_canon", "collapse",
    "band_expand", "pair_verify", "edge_dedupe", "unionfind", "attach",
)
COUNTERS = (
    "read.rows", "band_verify.edges", "collapse.rows", "collapse.reps",
    "band_expand.rows", "pair_verify.candidates", "pair_verify.verified",
    "edge_dedupe.rows_in", "edge_dedupe.edges", "unionfind.nodes",
)
# layers that run in only one regime; every other layer runs in both
DIRECT_ONLY = ("collect", "band_verify", "edge_canon")
DISTRIBUTED_ONLY = ("collapse", "band_expand", "pair_verify", "edge_dedupe")
