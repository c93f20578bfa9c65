"""Distributed connected components: iterative min-label propagation
with pointer-jumping (label shortcutting) for logarithmic convergence.

The north rule's "distributed union-find implemented as iterative
groupby/min-label-propagation rounds".  Design follows the logarithmic-
round map-reduce CC literature (Rastogi et al., "Finding connected
components in map-reduce in logarithmic rounds", ICDE 2013 — see
/root/repo/PAPERS.md).

Each round is three coarse-partition groupby shuffles over *narrow*
tables (node, label), ids in their own Arrow type (string or integer —
the min label is the id order's min either way):

  stage 1  partition by node: join labels→edges within the partition,
           emit (neighbor, my_label) messages + the self row
  stage 2  partition by target: new_label = min(messages ∪ {old}),
           changed = new < old
  stage 3  pointer jumping: label[v] ← label[label[v]] (each node asks
           its label-node for THAT node's label) — this doubles the
           shortcut depth per round, so chain-shaped components of
           diameter d converge in O(log d) rounds instead of O(d)
           (plain propagation would hit ``max_rounds`` on deep chains).

The changed-count aggregate drives the fixpoint loop on the driver
(labels are min-monotone under both stages, so a zero-change minimize
round is a true fixpoint).  Only nodes that appear in at least one
verified edge participate — singleton rows never enter the shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.hashing import part_of_ids, part_of_pairs
from .base import map_groups_typed
from .joins import keyed_take


def _ids(col) -> np.ndarray:
    """Native numpy view of an id column: int64 for integer ids, object
    for strings (so min/compare/partition follow the id's own order)."""
    return np.asarray(col.to_numpy(zero_copy_only=False))


def _empty_labels(id_type: pa.DataType) -> pa.Table:
    return pa.table(
        {"node": pa.array([], type=id_type), "label": pa.array([], type=id_type)}
    )


def _empty_edges(id_type: pa.DataType) -> pa.Table:
    return pa.table({"a": pa.array([], type=id_type), "b": pa.array([], type=id_type)})


def distinct_edges(batch: pa.Table, id_type: pa.DataType) -> pa.Table:
    """Batch-local exact (a, b) dedupe — Arrow hash-distinct, typed
    empty on empty input (an untyped empty block is schema drift)."""
    if batch.num_rows == 0:
        return _empty_edges(id_type)
    t = batch.select(["a", "b"]).group_by(["a", "b"]).aggregate([])
    return pa.table({"a": t["a"].cast(id_type), "b": t["b"].cast(id_type)})


def dedupe_edges(
    edges: rd.Dataset, n_parts: int = 64, id_type: pa.DataType = pa.string()
) -> rd.Dataset:
    """Distributed exact dedupe of the (a, b) edge multiset — the one
    pair reduce of every candidate-pair operator (SimHash, MinHash,
    OPH, similarity join, cosine LSH, prefix-Jaccard, substring SA).

    The same pair surfaces from up to every matching band (28 text +
    15 image) — collapse duplicates BEFORE any driver collect or
    clustering round so downstream work is proportional to *distinct*
    edges.  Batch-local dedupe first (cheap, kills same-partition
    copies), then one coarse hash-partition groupby with vectorized
    within-partition dedupe.  Ids keep their Arrow type ``id_type``."""

    def local(batch: pa.Table) -> pa.Table:
        # Arrow hash-distinct (C++) beats the old object-array lexsort
        # ~2× at millions of rows (r5 distributed-premium work)
        t = distinct_edges(batch, id_type)
        part = part_of_pairs(_ids(t["a"]), _ids(t["b"]), n_parts)
        return t.append_column("part", pa.array(part, type=pa.int32()))

    return (
        edges.map_batches(local, batch_format="pyarrow")
        .repartition(n_parts)
        .groupby("part")
        .map_groups(lambda g: distinct_edges(g, id_type), batch_format="pyarrow")
    )


def init_labels(
    edges: rd.Dataset, n_parts: int = 64, id_type: pa.DataType = pa.string()
) -> rd.Dataset:
    """Distinct nodes of the edge set, labelled with themselves."""

    def explode(batch: pa.Table) -> pa.Table:
        nodes = np.unique(np.concatenate([_ids(batch["a"]), _ids(batch["b"])]))
        return pa.table(
            {
                "node": pa.array(nodes, type=id_type),
                "part": pa.array(part_of_ids(nodes, n_parts), type=pa.int32()),
            }
        )

    def distinct(group: pa.Table) -> pa.Table:
        nodes = np.unique(_ids(group["node"]))
        return pa.table(
            {
                "node": pa.array(nodes, type=id_type),
                "label": pa.array(nodes, type=id_type),
            }
        )

    return map_groups_typed(
        edges.map_batches(explode, batch_format="pyarrow"),
        "part", distinct, _empty_labels(id_type),
    )


def _tag_labels(n_parts: int, id_type: pa.DataType):
    def fn(batch: pa.Table) -> pa.Table:
        node = _ids(batch["node"])
        return pa.table(
            {
                "node": pa.array(node, type=id_type),
                "payload": batch["label"].cast(id_type),
                "is_label": pa.array(np.ones(len(node), dtype=bool)),
                "part": pa.array(part_of_ids(node, n_parts), type=pa.int32()),
            }
        )

    return fn


def _tag_edges(n_parts: int, id_type: pa.DataType):
    def fn(batch: pa.Table) -> pa.Table:
        a, b = _ids(batch["a"]), _ids(batch["b"])
        node = np.concatenate([a, b])  # both directions
        payload = np.concatenate([b, a])
        return pa.table(
            {
                "node": pa.array(node, type=id_type),
                "payload": pa.array(payload, type=id_type),
                "is_label": pa.array(np.zeros(len(node), dtype=bool)),
                "part": pa.array(part_of_ids(node, n_parts), type=pa.int32()),
            }
        )

    return fn


def _rank_codes(*arrays):
    """Factorize id arrays into ORDER-RANK int codes.

    One hash-based factorize over the concatenation (C-speed), then a
    sort over only the DISTINCT values to make code order == id order
    (lexicographic for strings, numeric for integers) — all downstream
    joins/mins run in int space (the round-3 verdict item 9
    vectorization: per-group pandas merges and object-array lexsorts
    were the CC rounds' constant).  Returns ([ranked codes per input
    array], sorted distinct values)."""
    flat = np.concatenate(arrays)
    codes, uniq = pd.factorize(flat)
    order = np.argsort(uniq, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    ranked = rank[codes]
    splits = np.cumsum([len(a) for a in arrays])[:-1]
    return np.split(ranked, splits), uniq[order]


def _propagate(n_parts: int, id_type: pa.DataType):
    """Stage 1: within a node-partition, send my label to my neighbors.
    Vectorized: factorize once, label lookup is an int scatter+gather
    (no pandas merge)."""

    def fn(group: pa.Table) -> pa.Table:
        node = _ids(group["node"])
        payload = _ids(group["payload"])
        is_label = group["is_label"].to_numpy(zero_copy_only=False)
        (node_c, pay_c), uniq = _rank_codes(node, payload)
        # label-of-node lookup table in code space (every node with a
        # label row gets one; edge endpoints without one drop out, the
        # inner-merge semantics of the original)
        lab_of = np.full(len(uniq), -1, dtype=np.int64)
        lab_of[node_c[is_label]] = pay_c[is_label]
        e_node = node_c[~is_label]
        e_nbr = pay_c[~is_label]
        msg_lab = lab_of[e_node]
        valid = msg_lab >= 0
        out_node_c = np.concatenate([e_nbr[valid], node_c[is_label]])
        out_label_c = np.concatenate([msg_lab[valid], pay_c[is_label]])
        n_msgs = int(valid.sum())
        is_self = np.zeros(len(out_node_c), dtype=bool)
        is_self[n_msgs:] = True
        out_node = uniq[out_node_c]
        return pa.table(
            {
                "node": pa.array(out_node, type=id_type),
                "label": pa.array(uniq[out_label_c], type=id_type),
                "is_self": pa.array(is_self),
                "part": pa.array(part_of_ids(out_node, n_parts), type=pa.int32()),
            }
        )

    return fn


def _minimize(id_type: pa.DataType):
    """Stage 2: new label = min(messages ∪ {old}); flag changes.
    Min/compare run in rank-code space (one factorize, int lexsort)."""

    def fn(group: pa.Table) -> pa.Table:
        node = _ids(group["node"])
        label = _ids(group["label"])
        is_self = group["is_self"].to_numpy(zero_copy_only=False)
        (node_c, label_c), uniq = _rank_codes(node, label)
        order = np.lexsort((label_c, node_c))
        node_c, label_c, is_self = node_c[order], label_c[order], is_self[order]
        new_run = np.ones(len(node_c), dtype=bool)
        new_run[1:] = node_c[1:] != node_c[:-1]
        run_id = np.cumsum(new_run) - 1
        new_label_c = label_c[new_run][run_id]  # min label per node (label-sorted)
        old_rows = np.flatnonzero(is_self)
        out_new_c = new_label_c[old_rows]
        changed = out_new_c < label_c[old_rows]
        return pa.table(
            {
                "node": pa.array(uniq[node_c[old_rows]], type=id_type),
                "label": pa.array(uniq[out_new_c], type=id_type),
                "changed": pa.array(changed.astype(np.int64)),
            }
        )

    return fn


def _shortcut(labels: rd.Dataset, n_parts: int, id_type: pa.DataType) -> rd.Dataset:
    """One pointer-jumping pass: label[v] ← label[label[v]].

    Every label value is the id of a node that has its own label row
    (labels start as ids and min-propagation only moves existing ids),
    so partitioning requests by the label's node id co-locates each
    request with the one self row that answers it."""

    def tag(batch: pa.Table) -> pa.Table:
        node = _ids(batch["node"])
        label = _ids(batch["label"])
        # self rows answer (key=node → label); request rows ask for
        # label[label[v]] (key=label, payload=the asking node v)
        key = np.concatenate([node, label])
        payload = np.concatenate([label, node])
        is_self = np.concatenate(
            [np.ones(len(node), dtype=bool), np.zeros(len(node), dtype=bool)]
        )
        return pa.table(
            {
                "key": pa.array(key, type=id_type),
                "payload": pa.array(payload, type=id_type),
                "is_self": pa.array(is_self),
                "part": pa.array(part_of_ids(key, n_parts), type=pa.int32()),
            }
        )

    def resolve(group: pa.Table) -> pa.Table:
        key = _ids(group["key"])
        payload = _ids(group["payload"])
        is_self = group["is_self"].to_numpy(zero_copy_only=False)
        (key_c, pay_c), uniq = _rank_codes(key, payload)
        ans = np.full(len(uniq), -1, dtype=np.int64)
        ans[key_c[is_self]] = pay_c[is_self]
        req_key = key_c[~is_self]
        req_node = pay_c[~is_self]
        lab = ans[req_key]
        # every label value has a self row in this partition (labels
        # start as node ids and min-propagation only moves existing
        # ids); a miss would mean a partitioning bug, not data
        assert (lab >= 0).all(), "pointer-jump request missed its label row"
        return pa.table(
            {
                "node": pa.array(uniq[req_node], type=id_type),
                "label": pa.array(uniq[lab], type=id_type),
            }
        )

    return map_groups_typed(
        labels.map_batches(tag, batch_format="pyarrow"),
        "part", resolve, _empty_labels(id_type),
    )


def unionfind_driver(edges_df) -> "pd.DataFrame":
    """Driver-local union-find (path-halving + union-by-min) for edge
    sets small enough to collect — the ray_guide's sanctioned shortcut
    ("union-find on the driver only if the candidate set is provably
    small").  The verified-dup edge set is orders of magnitude smaller
    than the input; the distributed rounds below remain the scale path
    and are tested for identical output.

    Implementation is VECTORIZED min-label propagation with pointer
    jumping in index space (numpy `minimum.at` scatter + `l[l]`
    shortcut per round, O(log d) rounds) — ~10× the old per-edge
    Python union-find loop, which was a measurable slice of the direct
    regime's fixed driver tail."""
    if len(edges_df) == 0:  # no dups at all (empty frames lose columns)
        return pd.DataFrame(
            {"node": pd.Series([], dtype=object), "label": pd.Series([], dtype=object)}
        )
    a = np.asarray(edges_df["a"])
    b = np.asarray(edges_df["b"])
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = inv[: len(a)], inv[len(a) :]
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        nxt = label.copy()
        np.minimum.at(nxt, ai, label[bi])
        np.minimum.at(nxt, bi, label[ai])
        nxt = nxt[nxt]  # pointer jump
        if np.array_equal(nxt, label):
            break
        label = nxt
    return pd.DataFrame({"node": nodes, "label": nodes[label]})


def label_table(label_df, id_type: pa.DataType, key: str = "node") -> pa.Table:
    """:func:`unionfind_driver`'s (node, label) frame as an Arrow
    (``key``, label) table of ``id_type`` — exact for every id type (a
    pandas map widens int64 ids above 2^53 to float64)."""
    return pa.table(
        {
            key: pa.array(np.asarray(label_df["node"]), type=id_type),
            "label": pa.array(np.asarray(label_df["label"]), type=id_type),
        }
    )


def label_or_self(label, key, id_type: pa.DataType):
    """Each row's cluster id: its looked-up ``label``, else its own
    ``key`` (a node no edge reached is its own cluster)."""
    return pc.coalesce(label.cast(id_type), key.cast(id_type))


def cluster_of(keys: pa.Array, label_df) -> pa.Array:
    """Driver-side label attach: each key's label in
    :func:`unionfind_driver`'s frame, else the key itself, typed as
    ``keys`` (one Arrow ``index_in`` + ``take``, exact for every id
    type)."""
    labels = label_table(label_df, keys.type)
    return label_or_self(keyed_take(keys, labels, "node")["label"], keys, keys.type)


def connected_components(
    edges: rd.Dataset,
    max_rounds: int = 12,
    n_parts: int = 64,
    id_type: pa.DataType = pa.string(),
) -> rd.Dataset:
    """(a, b) edge Dataset → (node, label) with label = min node id of
    the component, ids of Arrow type ``id_type`` throughout.  Raises
    if not converged within ``max_rounds``.  Empty edge sets return a
    typed empty (node, label) table — an all-empty Dataset would
    otherwise lose its schema entirely."""
    edges = edges.map_batches(
        lambda t: distinct_edges(t, id_type), batch_format="pyarrow"
    ).materialize()
    if edges.count() == 0:
        return rd.from_arrow(_empty_labels(id_type))
    labels = init_labels(edges, n_parts, id_type).materialize()
    # materialized: the union below re-consumes the tagged edges every
    # round — without this the tag map (id hash over both endpoint
    # columns) would re-execute up to max_rounds times
    tagged_edges = edges.map_batches(
        _tag_edges(n_parts, id_type), batch_format="pyarrow"
    ).materialize()
    empty_msgs = pa.table(
        {
            "node": pa.array([], type=id_type),
            "label": pa.array([], type=id_type),
            "is_self": pa.array([], type=pa.bool_()),
            "part": pa.array([], type=pa.int32()),
        }
    )
    empty_minimized = _empty_labels(id_type).append_column(
        "changed", pa.array([], type=pa.int64())
    )
    for _ in range(max_rounds):
        tagged = labels.map_batches(
            _tag_labels(n_parts, id_type), batch_format="pyarrow"
        ).union(tagged_edges)
        msgs = map_groups_typed(
            tagged, "part", _propagate(n_parts, id_type), empty_msgs
        )
        new_labels = map_groups_typed(
            msgs, "part", _minimize(id_type), empty_minimized
        ).materialize()
        n_changed = new_labels.sum("changed") or 0
        labels = new_labels.drop_columns(["changed"]).materialize()
        if n_changed == 0:
            return labels
        # pointer jumping: O(log d) convergence on chain-shaped
        # components (a plain-propagation round only moves 1 hop)
        labels = _shortcut(labels, n_parts, id_type).materialize()
    raise RuntimeError(
        f"connected_components did not converge in {max_rounds} rounds"
    )


def assign_clusters(
    ids_ds,
    pairs,
    id_col: str = "doc_id",
    n_parts: int = 64,
    broadcast_limit: int = 2_000_000,
):
    """(id, cluster_id, is_representative) from a VERIFIED near-dup
    pair table — the pairs→assignment tail of the dedup modalities
    that verify their own pairs (MinHash, embedding-cosine).  It is
    the SimHash dedup core's attach tail
    (pipelines.dedup_images.attach_clusters) with every id its own
    key: driver union-find + broadcast attach below
    ``broadcast_limit`` pairs, distributed min-label rounds + hash join
    above it (force with ``broadcast_limit=0``).  Ids keep their Arrow
    type end to end.  ``ids_ds`` must carry every corpus id exactly
    once (project upstream)."""
    from ..pipelines.dedup_images import attach_clusters

    ids_ds = ids_ds.select_columns([id_col])
    schema = ids_ds.schema()
    assignment, _, _ = attach_clusters(
        ids_ds,
        pairs.materialize(),
        n_parts=n_parts,
        broadcast_limit=broadcast_limit,
        id_col=id_col,
        key_col=id_col,
        id_type=dict(zip(schema.names, schema.types))[id_col],
    )
    return assignment
