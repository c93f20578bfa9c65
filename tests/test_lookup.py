"""stages.joins: ``lookup`` and ``hash_join`` on degenerate inputs in
both regimes, and the package's one ``Dataset.join`` call."""

import ast
from pathlib import Path

import pyarrow as pa
import pytest
import ray.data as rd

import simhash_ray
from simhash_ray.stages.joins import lookup

BIG = 2**60  # int64 ids above 2^53 are not representable in float64


def _ids(id_type: pa.DataType, idx) -> pa.Array:
    if id_type == pa.string():
        return pa.array([f"d{i}" for i in idx], type=id_type)
    return pa.array([BIG + 2 * i + 1 for i in idx], type=id_type)


def _inputs(id_type: pa.DataType, case: str) -> tuple[rd.Dataset, rd.Dataset]:
    rows = pa.table({"k": _ids(id_type, range(40)), "x": pa.array(range(40))})
    # keys 0, 3, …, 39 plus keys the rows do not have
    idx = [*range(0, 40, 3), 41, 43]
    tbl = pa.table(
        {
            "k": _ids(id_type, idx),
            "label": _ids(id_type, [i // 6 for i in idx]),
            "w": pa.array([i * 10 for i in idx], type=pa.int64()),
        }
    )
    ds = rd.from_arrow([rows.slice(0, 10), rows.slice(10, 15), rows.slice(25)])
    if case == "zero_row_ds":
        return rd.from_arrow(rows.slice(0, 0)), rd.from_arrow(tbl)
    if case == "empty_first_block":
        return ds, rd.from_arrow([tbl.slice(0, 0), tbl.slice(0, 5), tbl.slice(5)])
    if case == "zero_row_table":
        return ds, rd.from_arrow(tbl.slice(0, 0))
    return ds, rd.from_arrow(tbl)


def _rows(ds: rd.Dataset) -> list:
    parts = [t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)]
    return sorted(r for t in parts for r in zip(*(c.to_pylist() for c in t.columns)))


@pytest.mark.parametrize("id_type", [pa.string(), pa.int64()], ids=["string", "int64"])
@pytest.mark.parametrize(
    "case", ["table", "empty_first_block", "zero_row_table", "zero_row_ds"]
)
def test_lookup_regimes_agree_on_degenerate_inputs(id_type, case):
    """Broadcast (limit above the table) and hash join (limit -1, so
    even a zero-row table takes it) give the same rows and the same
    typed schema, on a table whose first block is empty, a zero-row
    table and a zero-row ``ds`` — Ray's join alone fails on the first
    two (``No match for FieldRef``) and does not finish on the last."""
    want_schema = pa.schema(
        [("k", id_type), ("x", pa.int64()), ("label", id_type), ("w", pa.int64())]
    )
    results = []
    for limit in (10**9, -1):
        ds, table = _inputs(id_type, case)
        out = lookup(ds, "k", table, limit).materialize()
        schema = out.schema()
        assert list(schema.names) == want_schema.names
        assert list(schema.types) == want_schema.types
        results.append(_rows(out))
    assert results[0] == results[1]
    n_rows = 0 if case == "zero_row_ds" else 40
    assert len(results[0]) == n_rows
    matched = [r for r in results[0] if r[2] is not None]
    assert len(matched) == (0 if case in ("zero_row_table", "zero_row_ds") else 14)
    if id_type == pa.int64():
        # exact: every key and label round-trips at full int64 width
        assert all(r[0] > BIG and (r[2] is None or r[2] >= BIG) for r in results[0])


def test_lookup_columns_share_one_chunk_layout():
    """A batch that spans several blocks has multi-chunk columns, and
    pyarrow 16's ``coalesce`` over two columns chunked differently
    returns wrong values (zeros) — so the looked-up columns must come
    back chunked like the batch's own, and label attach
    (``coalesce(label, key)``) stays exact."""
    import pyarrow.compute as pc

    keys = pa.array([55, 82, 80, 115, 59])
    # one block whose column has two chunks, as a batch spanning blocks has
    ds = rd.from_arrow(
        pa.Table.from_batches(
            [pa.record_batch([keys[:1]], ["k"]), pa.record_batch([keys[1:]], ["k"])]
        )
    )
    table = rd.from_arrow(pa.table({"k": pa.array([55, 59]), "label": pa.array([1, 2])}))
    out = lookup(ds, "k", table, 10**9).map_batches(
        lambda t: t.append_column("cluster", pc.coalesce(t["label"], t["k"])),
        batch_format="pyarrow",
    )
    got = dict(_rows(out.select_columns(["k", "cluster"])))
    assert got == {55: 1, 82: 82, 80: 80, 115: 115, 59: 2}


def _calls(fn) -> list:
    """(module path, innermost enclosing function) of every call in the
    package that ``fn(call)`` accepts."""
    root = Path(simhash_ray.__file__).parent
    found = []

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.stack = module, ["<module>"]

        def visit_FunctionDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            if fn(node):
                found.append((self.module, self.stack[-1]))
            self.generic_visit(node)

    for path in sorted(root.rglob("*.py")):
        Visitor(path.relative_to(root).as_posix()).visit(ast.parse(path.read_text()))
    return found


def test_one_dataset_join_call():
    """Every equi-join goes through stages/joins.py: the only ``.join``
    calls with a ``join_type`` are there (Ray's, in ``hash_join``, and
    Arrow's typed empty results), and no other module sizes a join from
    ``cluster_resources()``."""

    def is_join(call):
        return (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "join"
            and any(k.arg == "join_type" for k in call.keywords)
        )

    def is_dataset_join(call):
        return is_join(call) and any(k.arg == "num_partitions" for k in call.keywords)

    assert {m for m, _ in _calls(is_join)} == {"stages/joins.py"}
    assert set(_calls(is_dataset_join)) == {("stages/joins.py", "hash_join")}
    assert len(_calls(is_dataset_join)) == 1

    def reads_cpus(call):
        return isinstance(call.func, ast.Attribute) and call.func.attr == "cluster_resources"

    # the other CPU reads size things that are not joins: the broadcast
    # band tasks, the pre-band repartition and the shuffle part count
    assert set(_calls(reads_cpus)) == {
        ("stages/joins.py", "join_partitions"),
        ("stages/lsh.py", "broadcast_candidate_edges"),
        ("pipelines/dedup_images.py", "_narrow_repartition"),
        ("pipelines/dedup_images.py", "choose_n_parts"),
    }
