"""Line-format source tests: the parse must match the reference's
``splitLabelAndMsg`` / ``readLineAndDo`` semantics exactly
(reference ``src/Htm/Utils.hs:38-54``), including the stripped-length
drop quirk and the skip rules."""

import os

import pandas as pd
import pytest
import ray.data as rd

from simhash_ray.sources.textlines import (
    _split_label_msg,
    parse_label_lines,
    read_csv_table,
    read_jsonl,
    read_label_lines,
    write_jsonl,
    write_label_lines,
)


def ref_split(line: str):
    """Per-row transliteration of Utils.hs:38-42 (the oracle)."""
    label = ""
    for ch in line:
        if ch == ",":
            break
        label += ch
    label = label.strip()
    msg = line[len(label) + 1 :].strip()
    return label, msg


CASES = [
    "label1, some data 1",          # sample/train_data.txt shape
    "label2,no space",
    "a, msg, with, commas",         # split at FIRST comma only
    "  spaced , quirk row",         # stripped-length drop quirk
    "tab\t, weird ws ",
    "",                             # blank → skipped
    "nocomma here",                 # no comma → empty msg → skipped
    ",leading comma",               # empty label → skipped
    "label3,   ",                   # empty msg → skipped
    "Ünïcode, çödé pöints ",        # code-point (not byte) lengths
    " , ",                          # both empty → skipped
    "x,y",
]


def test_split_matches_reference_per_row():
    got = _split_label_msg(pd.Series(CASES))
    want = [(l, m) for l, m in map(ref_split, CASES) if l and m]
    assert list(zip(got["label"], got["text"])) == want
    # the quirk row is present and carries the reference's exact bytes
    lab, msg = ref_split("  spaced , quirk row")
    assert (lab, msg) in want and msg == "d , quirk row"


def test_read_label_lines_roundtrip(tmp_path):
    p = tmp_path / "train_data.txt"
    p.write_text("\n".join(CASES) + "\n", encoding="utf-8")
    out = read_label_lines(str(p)).to_pandas().sort_values("text")
    want = (
        pd.DataFrame(
            [(l, m) for l, m in map(ref_split, CASES) if l and m],
            columns=["label", "text"],
        )
        .sort_values("text")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(out.reset_index(drop=True), want)


def test_parse_label_lines_over_dataset():
    ds = rd.from_items([{"text": c} for c in CASES])
    n_valid = sum(1 for l, m in map(ref_split, CASES) if l and m)
    assert parse_label_lines(ds).count() == n_valid


def test_write_label_lines_roundtrip(tmp_path):
    df = pd.DataFrame(
        {
            "label": ["spam", "ham", "spam"],
            "text": ["hello world", "multi\nline\ntext", "trailing ok "],
        }
    )
    out_dir = str(tmp_path / "lines")
    write_label_lines(rd.from_pandas(df), out_dir)
    back = read_label_lines(out_dir).to_pandas().sort_values("text")
    assert sorted(back["label"]) == ["ham", "spam", "spam"]
    # newlines collapsed to spaces; outer whitespace stripped by parse
    assert "multi line text" in set(back["text"])
    assert "trailing ok" in set(back["text"])


def test_write_label_lines_rejects_comma_labels(tmp_path):
    df = pd.DataFrame({"label": ["a,b"], "text": ["x"]})
    with pytest.raises(Exception, match="cannot round-trip"):
        write_label_lines(rd.from_pandas(df), str(tmp_path / "bad"))


def test_jsonl_roundtrip_with_pruning(tmp_path):
    df = pd.DataFrame(
        {"doc_id": [1, 2, 3], "text": ["a", "b", "c"], "extra": [9, 9, 9]}
    )
    out = str(tmp_path / "jl")
    write_jsonl(rd.from_pandas(df), out)
    back = read_jsonl(out, columns=["doc_id", "text"]).to_pandas()
    assert sorted(back.columns) == ["doc_id", "text"]
    assert sorted(back["doc_id"]) == [1, 2, 3]
    assert len(os.listdir(out)) >= 1


def test_csv_reader(tmp_path):
    p = tmp_path / "t.csv"
    pd.DataFrame({"a": [1, 2], "b": ["x", "y"], "c": [0.5, 1.5]}).to_csv(
        p, index=False
    )
    back = read_csv_table(str(p), columns=["a", "b"]).to_pandas()
    assert list(back.columns) == ["a", "b"] and len(back) == 2


def test_label_lines_feed_text_pipeline(tmp_path):
    """A reference user's line corpus drives the engine's text stages
    unchanged (label distinct = T8 vocab; simhash encode runs on the
    parsed text column)."""
    p = tmp_path / "corpus.txt"
    p.write_text(
        "\n".join(f"lab{i % 3}, document body number {i} repeated words" for i in range(50)),
        encoding="utf-8",
    )
    ds = read_label_lines(str(p))
    labels = sorted(ds.unique("label"))
    assert labels == ["lab0", "lab1", "lab2"]
    from simhash_ray.config import DEFAULT_CONFIG
    from simhash_ray.stages.encode import encode_signatures

    sigs = encode_signatures(
        ds.map_batches(
            lambda t: t.rename_columns(["label", "text"]), batch_format="pyarrow"
        ),
        DEFAULT_CONFIG.simhash,
        text_col="text",
    )
    assert sigs.count() == 50
