"""Joins the Dataset API lacks or gets wrong, composed Ray-Data-first.

Equi-joins.  Every equi-join decision in the package is made here:

- :func:`hash_join` is the only ``Dataset.join`` call.  It has one
  width rule (:func:`join_partitions`), aggregators at 0.5 CPU, and one
  empty-side guard, because a Ray 2.49 hash join takes a side's schema
  from that side's first block (``No match for FieldRef`` when it is
  empty) and fails over a side with no rows.  The guard materializes
  the right side (the keyed, feature or id table) and drops its empty
  blocks, and reads a left side that is already materialized the same
  way; a zero-row side returns the typed result without starting a
  join.  A lazily built left side streams into the join unstored.
- :func:`lookup` adds a keyed table's value columns to every row of a
  dataset ("broadcast the small map, else hash join"): at or below its
  ``limit`` the table is collected once as Arrow, ``ray.put``, and each
  batch runs the exact Arrow kernel :func:`keyed_take`
  (``index_in`` + ``take``, no float widening of int64 ids); above it a
  left-outer :func:`hash_join` runs.  Label attach, the id-set filters
  and the cascade's keeper maps are built on it.

Temporal joins.

``asof_join`` — for every left row, attach the nearest earlier (or
exactly simultaneous) right row within the same ``by`` key: the
standard event-attribution / point-in-time-lookup primitive of a
training-data pipeline (e.g. "which click preceded this purchase").

``range_join`` — inner-join point rows to every interval row whose
``[lo, hi]`` contains the point: the windowed-attribution primitive
("all errors in the hour before each purchase").  Keyed mode groups
by an equality key; keyless mode bins time into fixed-width buckets,
replicating each interval to every bucket it overlaps while each
point lands in exactly one bucket — so every (point, interval) pair
meets exactly once and no cross-bucket dedup pass is needed.

Composition (the brief's custom-operator option (a)): tag-union the
two sides into one narrow stream → ONE ``groupby(by)`` shuffle (via
``map_groups_typed`` so empty partitions stay typed) → per-group
numpy ``searchsorted`` backward match.  Scale/partitioning
assumptions, documented per the brief:

- the single shuffle moves only ``by`` + ``on`` + the requested
  payload columns — prune before calling;
- per-``by``-group rows must fit one task (same bound as any keyed
  groupby here); a hot key (one user with ~10^8 events) needs
  pre-splitting by time range before this operator;
- right-side ties on ``on`` within a ``by`` group are resolved by the
  ``tie_break`` column (the MAX ``tie_break`` row wins — deterministic
  regardless of block arrival order); without one the winner depends
  on union block order, so pass ``tie_break`` whenever ties are
  possible.  DuckDB's ASOF JOIN leaves ties unspecified, so oracle
  queries pre-dedupe the right side with a window-``QUALIFY`` that
  mirrors the same max-``tie_break`` rule.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.dataset import MaterializedDataset

from .base import map_groups_typed


def asof_join(
    left: rd.Dataset,
    right: rd.Dataset,
    on: str,
    by: str,
    suffix: str = "_r",
    tie_break: str | None = None,
) -> rd.Dataset:
    """Backward (inclusive) as-of join: every left row + the columns of
    the right row with the greatest ``on`` ≤ left's ``on`` and the same
    ``by`` value; right columns are null where no such row exists.

    Left payload columns keep their names; right payload columns (and
    the matched right ``on``) get ``suffix``.  Output schema is fixed
    up front from the two input schemas, so empty partitions stay
    typed."""
    lschema = left.schema()
    rschema = right.schema()
    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    for col in (on, by):
        if col not in ltypes or col not in rtypes:
            raise ValueError(f"both sides need column {col!r}")
    lpay = [c for c in lschema.names if c not in (on, by)]
    rpay = [c for c in rschema.names if c not in (on, by)]
    if tie_break is not None and tie_break not in rpay:
        raise ValueError(f"tie_break {tie_break!r} must be a right payload column")
    out_fields = (
        [(by, ltypes[by]), (on, ltypes[on])]
        + [(c, ltypes[c]) for c in lpay]
        + [(on + suffix, rtypes[on])]
        + [(c + suffix, rtypes[c]) for c in rpay]
    )
    out_schema = pa.schema(out_fields)
    empty = out_schema.empty_table()

    def tag(side: int):
        # both sides emit the SAME canonical column order (by, on,
        # side, L_*, R_*, R_<on>) — union requires identical schemas
        def fn(t: pa.Table) -> pa.Table:
            n = t.num_rows
            cols = {
                by: t[by],
                on: t[on],
                "side": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in lpay:
                cols["L_" + c] = t[c] if side == 0 else pa.nulls(n, type=ltypes[c])
            for c in rpay:
                cols["R_" + c] = t[c] if side == 1 else pa.nulls(n, type=rtypes[c])
            # the right side's `on` travels as a payload too (it lands
            # in the output as on+suffix)
            cols["R_" + on] = t[on] if side == 1 else pa.nulls(n, type=rtypes[on])
            return pa.table(cols)

        return fn

    tagged = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow")
    )

    def per_group(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        on_np = g[on].to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(side == 0)
        r_idx = np.flatnonzero(side == 1)
        if len(l_idx) == 0:
            return empty
        l_on = on_np[l_idx]
        cols: dict = {
            by: g[by].take(pa.array(l_idx)),
            on: g[on].take(pa.array(l_idx)),
        }
        for c in lpay:
            cols[c] = g["L_" + c].take(pa.array(l_idx))
        if len(r_idx) == 0:
            n = len(l_idx)
            cols[on + suffix] = pa.nulls(n, type=rtypes[on])
            for c in rpay:
                cols[c + suffix] = pa.nulls(n, type=rtypes[c])
            return pa.table(cols, schema=out_schema)
        # sort right rows by (on, tie_break) ascending; searchsorted's
        # side="right" - 1 then lands on the max-tie_break row among
        # equal `on` values (see module docstring)
        if tie_break is not None:
            tb = g["R_" + tie_break].to_numpy(zero_copy_only=False)[r_idx]
            r_order = r_idx[np.lexsort((tb, on_np[r_idx]))]
        else:
            r_order = r_idx[np.argsort(on_np[r_idx], kind="stable")]
        r_on_sorted = on_np[r_order]
        pos = np.searchsorted(r_on_sorted, l_on, side="right") - 1
        matched = pos >= 0
        gather = np.where(matched, r_order[np.clip(pos, 0, None)], -1)
        take_idx = pa.array(
            np.where(matched, gather, np.int64(0)), type=pa.int64()
        )
        mask = pa.array(~matched)

        def gathered(col: pa.ChunkedArray | pa.Array, typ) -> pa.Array:
            taken = col.take(take_idx)
            if isinstance(taken, pa.ChunkedArray):
                taken = taken.combine_chunks()
            return pa.compute.if_else(mask, pa.nulls(len(l_idx), type=typ), taken)

        cols[on + suffix] = gathered(g["R_" + on], rtypes[on])
        for c in rpay:
            cols[c + suffix] = gathered(g["R_" + c], rtypes[c])
        return pa.table(cols, schema=out_schema)

    return map_groups_typed(tagged, by, per_group, empty)


def _emit_pairs(p_on, i_lo, i_hi):
    """Vectorized (point, interval) containment pairs within one group.

    ``p_on`` must be sorted ascending.  Returns (point_pos, interval_pos)
    index arrays into the sorted points / the intervals as given."""
    start = np.searchsorted(p_on, i_lo, side="left")
    end = np.searchsorted(p_on, i_hi, side="right")
    counts = np.maximum(end - start, 0)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    itake = np.repeat(np.arange(len(i_lo)), counts)
    first = np.repeat(start, counts)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    ptake = first + (np.arange(total) - offsets)
    return ptake, itake


def range_join(
    points: rd.Dataset,
    intervals: rd.Dataset,
    on: str,
    lo: str,
    hi: str,
    by: str | None = None,
    suffix: str = "_r",
    bucket_width: int | None = None,
) -> rd.Dataset:
    """Inner join: every (point row, interval row) pair with
    ``interval[lo] <= point[on] <= interval[hi]`` (and equal ``by``
    values in keyed mode).  Point columns keep their names; interval
    columns get ``suffix``.

    Scale/partitioning assumptions (brief's custom-operator contract):

    - **keyed mode** (``by`` given): ONE ``groupby(by)`` shuffle of the
      pruned tag-union; per-``by``-group rows must fit one task — a
      hot key needs the keyless bucketed mode instead.
    - **keyless mode** (``by=None``): requires ``bucket_width`` in the
      units of ``on`` (µs for timestamps).  Each interval is
      replicated to ``(hi - lo) / bucket_width + 1`` buckets — pick a
      width near the typical interval length so the replication
      factor stays small; a pathological interval spanning the whole
      time axis replicates everywhere (same hazard class as a hot
      groupby key, visible in the band-row count).
    """
    pschema, ischema = points.schema(), intervals.schema()
    ptypes = dict(zip(pschema.names, pschema.types))
    ityps = dict(zip(ischema.names, ischema.types))
    if on not in ptypes:
        raise ValueError(f"points need column {on!r}")
    for col in (lo, hi):
        if col not in ityps:
            raise ValueError(f"intervals need column {col!r}")
    if by is None and bucket_width is None:
        raise ValueError("keyless mode requires bucket_width")
    if by is not None:
        if by not in ptypes or by not in ityps:
            raise ValueError(f"both sides need column {by!r}")
    ppay = [c for c in pschema.names if c not in (on, by)]
    ipay = [c for c in ischema.names if c not in (lo, hi, by)]
    key = by if by is not None else "__bucket"
    key_type = ptypes[by] if by is not None else pa.int64()
    out_fields = (
        ([(by, ptypes[by])] if by is not None else [])
        + [(on, ptypes[on])]
        + [(c, ptypes[c]) for c in ppay]
        + [(lo + suffix, ityps[lo]), (hi + suffix, ityps[hi])]
        + [(c + suffix, ityps[c]) for c in ipay]
    )
    out_schema = pa.schema(out_fields)
    empty = out_schema.empty_table()

    def _as_np(arr: pa.ChunkedArray | pa.Array) -> np.ndarray:
        np_vals = arr.to_numpy(zero_copy_only=False)
        if np_vals.dtype.kind == "M":  # datetime64 → integer units (µs)
            return np_vals.astype("int64")
        return np_vals  # ints/floats compare natively — no cast

    def _bucket_of(vals: np.ndarray) -> np.ndarray:
        return np.floor_divide(vals, bucket_width).astype(np.int64)

    # canonical tagged layout both sides emit: key, side, P_on, P_*,
    # I_lo, I_hi, I_* (union needs identical schemas)
    def tag_points(t: pa.Table):
        n = t.num_rows
        cols = {
            key: t[by] if by is not None else pa.array(_bucket_of(_as_np(t[on]))),
            "side": pa.array(np.zeros(n, dtype=np.int8)),
            "P_" + on: t[on],
        }
        for c in ppay:
            cols["P_" + c] = t[c]
        cols["I_" + lo] = pa.nulls(n, type=ityps[lo])
        cols["I_" + hi] = pa.nulls(n, type=ityps[hi])
        for c in ipay:
            cols["I_" + c] = pa.nulls(n, type=ityps[c])
        return pa.table(cols)

    def tag_intervals(t: pa.Table):
        if by is not None:
            n = t.num_rows
            key_col = t[by]
            pick = lambda c: t[c]  # no replication in keyed mode
        else:
            lo_b = _bucket_of(_as_np(t[lo]))
            hi_b = _bucket_of(_as_np(t[hi]))
            counts = np.maximum(hi_b - lo_b + 1, 0)
            n = int(counts.sum())
            offs = np.repeat(np.cumsum(counts) - counts, counts)
            key_col = pa.array(np.repeat(lo_b, counts) + (np.arange(n) - offs))
            take = pa.array(np.repeat(np.arange(t.num_rows), counts), type=pa.int64())
            pick = lambda c: t[c].take(take)
        cols = {
            key: key_col,
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "P_" + on: pa.nulls(n, type=ptypes[on]),
        }
        for c in ppay:
            cols["P_" + c] = pa.nulls(n, type=ptypes[c])
        cols["I_" + lo] = pick(lo)
        cols["I_" + hi] = pick(hi)
        for c in ipay:
            cols["I_" + c] = pick(c)
        return pa.table(cols)

    tagged = points.map_batches(tag_points, batch_format="pyarrow").union(
        intervals.map_batches(tag_intervals, batch_format="pyarrow")
    )

    def per_group(g: pa.Table) -> pa.Table:
        side = g["side"].to_numpy(zero_copy_only=False)
        p_idx = np.flatnonzero(side == 0)
        i_idx = np.flatnonzero(side == 1)
        if len(p_idx) == 0 or len(i_idx) == 0:
            return empty
        p_on = _as_np(g["P_" + on])[p_idx]
        order = np.argsort(p_on, kind="stable")
        p_sorted = p_idx[order]
        ptake, itake = _emit_pairs(
            p_on[order], _as_np(g["I_" + lo])[i_idx], _as_np(g["I_" + hi])[i_idx]
        )
        if len(ptake) == 0:
            return empty
        p_rows = pa.array(p_sorted[ptake], type=pa.int64())
        i_rows = pa.array(i_idx[itake], type=pa.int64())
        cols: dict = {}
        if by is not None:
            cols[by] = g[key].take(p_rows)
        cols[on] = g["P_" + on].take(p_rows)
        for c in ppay:
            cols[c] = g["P_" + c].take(p_rows)
        cols[lo + suffix] = g["I_" + lo].take(i_rows)
        cols[hi + suffix] = g["I_" + hi].take(i_rows)
        for c in ipay:
            cols[c + suffix] = g["I_" + c].take(i_rows)
        return pa.table(cols, schema=out_schema)

    return map_groups_typed(tagged, key, per_group, empty)


# --------------------------------------------------------------------------
# equi-joins

# aggregators at 0.5 CPU: join aggregator actors must not starve the
# map side on small clusters (and joins often run back-to-back)
_AGG_ARGS = {"num_cpus": 0.5}


def join_partitions() -> int:
    """Hash-join width: half the cluster's CPUs, 2 to 64 partitions.
    The aggregators run at 0.5 CPU each, so one join holds at most a
    quarter of the cluster and the map side is not starved."""
    return int(max(2, min(64, ray.cluster_resources().get("CPU", 8) // 2)))


def hash_join(
    left: rd.Dataset, right: rd.Dataset, on: str, join_type: str
) -> rd.Dataset:
    """``left`` ⋈ ``right`` on the key column ``on`` of both sides: the
    package's one ``Dataset.join`` (module docstring).
    ``join_type`` is "inner" or "left_outer", so a zero-row left side
    gives a zero-row result.  The output holds the left columns, then
    the right columns other than the key, as Arrow's join lays them
    out.

    The right side (the keyed table, feature table or id set) is
    materialized and guarded; a left side that is already materialized
    is guarded the same way at no cost.  A lazily built left side, the
    bulk of the join, streams in unstored: it must have rows and must
    not start with an empty block, so a caller whose left side may have
    none materializes it first."""
    if not isinstance(right, MaterializedDataset):
        right = right.materialize()
    rrefs = _nonempty_blocks(right)
    how = join_type.replace("_", " ")
    if isinstance(left, MaterializedDataset):
        lrefs = _nonempty_blocks(left)
        if not lrefs:
            lschema = _arrow_schema(left.schema())
            rschema = _arrow_schema(right.schema())
            if lschema is None or rschema is None:
                return left  # no rows, and no schema to give them
            return rd.from_arrow(
                lschema.empty_table().join(
                    rschema.empty_table(), keys=on, join_type=how
                )
            )
        left = rd.from_arrow_refs(lrefs)
    if rrefs:
        return left.join(
            rd.from_arrow_refs(rrefs),
            join_type=join_type,
            num_partitions=join_partitions(),
            on=(on,),
            aggregator_ray_remote_args=_AGG_ARGS,
        )
    rschema = _arrow_schema(right.schema())
    if rschema is None:
        raise ValueError(
            f"hash_join: the zero-row right side of a join on {on!r} has no schema"
        )
    rempty = rschema.empty_table()
    return left.map_batches(
        lambda t: t.join(rempty, keys=on, join_type=how), batch_format="pyarrow"
    )


def keyed_take(
    keys: pa.Array | pa.ChunkedArray, table: pa.Table, key: str
) -> pa.Table:
    """``table``'s columns other than ``key``, row-aligned with ``keys``:
    the row whose ``key`` equals each key (the first such row), nulls
    where there is none.  Exact for every key type."""
    value_set = table[key]
    if value_set.type != keys.type:
        value_set = value_set.cast(keys.type)
    return table.drop_columns([key]).take(pc.index_in(keys, value_set=value_set))


def lookup(
    ds: rd.Dataset, key: str, table: rd.Dataset | pa.Table, limit: int
) -> rd.Dataset:
    """Every row of ``ds`` with ``table``'s value columns appended,
    matched on ``key`` (unique in ``table``), null where the key is
    absent.  At or below ``limit`` table rows the table is collected
    once as Arrow (an Arrow ``table`` already is), ``ray.put``, and
    each batch runs :func:`keyed_take`; above it a left-outer
    :func:`hash_join` runs.  Both regimes give the same rows and
    columns."""
    if isinstance(table, rd.Dataset):
        if not isinstance(table, MaterializedDataset):
            table = table.materialize()
        if table.count() > limit:
            return hash_join(ds, table, key, "left_outer")
        table = _collect(table)
    elif table.num_rows > limit:
        return hash_join(ds, rd.from_arrow(table), key, "left_outer")
    ref = ray.put(table.combine_chunks())

    def attach(batch: pa.Table) -> pa.Table:
        # the key in one chunk, as the taken columns are: callers
        # coalesce a looked-up column with the key, and pyarrow 16's
        # coalesce over columns chunked differently returns wrong
        # values; the other (possibly wide) columns are not copied
        keys = batch[key].combine_chunks()
        batch = batch.set_column(batch.schema.get_field_index(key), key, keys)
        vals = keyed_take(keys, ray.get(ref), key)
        for name, col in zip(vals.column_names, vals.columns):
            batch = batch.append_column(name, col)
        return batch

    if isinstance(ds, MaterializedDataset) and ds.count() == 0:
        # a map over no rows yields no schema; a union would keep it but
        # stop the caller's next map from fusing with this one
        schema = _arrow_schema(ds.schema())
        if schema is not None:
            return rd.from_arrow(attach(schema.empty_table()))
    return ds.map_batches(attach, batch_format="pyarrow")


def _collect(table: rd.Dataset) -> pa.Table:
    """A materialized dataset as one Arrow table, read block by block
    (``to_pandas()`` of a zero-row dataset drops its columns)."""
    parts = [
        t for t in table.iter_batches(batch_format="pyarrow", batch_size=None)
        if t.num_rows
    ]
    if parts:
        return pa.concat_tables(parts)
    schema = _arrow_schema(table.schema())
    if schema is None:
        raise ValueError("lookup: a zero-row table needs a schema")
    return schema.empty_table()


def _arrow_schema(schema) -> pa.Schema | None:
    schema = getattr(schema, "base_schema", schema)
    return schema if isinstance(schema, pa.Schema) else None


def _nonempty_blocks(ds: rd.Dataset) -> list:
    """The refs of a materialized ``ds``'s non-empty blocks (no copy)."""
    return [
        ref
        for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks
        if meta.num_rows
    ]
