"""Survivor per-row invariant verification (stages/invariant.py):
clean pass-through survivors verify green; planted corruptions
(caption edit, payload pixel flip, container re-encode, truncation,
foreign id) each trip exactly the right verdict columns; psnr_db is the
lossy-branch kernel."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from simhash_ray.imgcodec import decode_image, encode_image
from simhash_ray.stages.invariant import psnr_db, row_digests, survivor_invariant


def _mini_images(n=24, seed=7):
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        w = h = 16
        fmt = ("raw", "bmp", "png")[i % 3]
        rgb = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        rows.append(
            {
                "image_id": f"img{i:04d}",
                "bytes": encode_image(rgb, fmt),
                "w": np.int32(w),
                "h": np.int32(h),
                "fmt": fmt,
                "caption": f"caption number {i}",
                "phash": np.int64(i),
            }
        )
    return pd.DataFrame(rows)


@pytest.fixture(scope="module")
def images():
    return _mini_images()


def _verdicts(images_df, survivors_df):
    out = survivor_invariant(
        rd.from_pandas(images_df), rd.from_pandas(survivors_df)
    ).to_pandas()
    return out.set_index("image_id").sort_index()


def test_clean_survivors_all_green(images):
    surv = images.iloc[::2]  # any subset of untouched rows
    v = _verdicts(images, surv)
    assert len(v) == len(surv)
    assert v[["found", "caption_ok", "bytes_ok", "pixels_ok"]].all().all()


def test_caption_corruption_flagged(images):
    surv = images.head(4).copy()
    surv.loc[surv.index[1], "caption"] = "tampered"
    v = _verdicts(images, surv)
    bad = v.loc["img0001"]
    assert bool(bad["found"]) and bool(bad["bytes_ok"]) and bool(bad["pixels_ok"])
    assert not bool(bad["caption_ok"])
    assert v.drop("img0001")["caption_ok"].all()


def test_pixel_corruption_flagged(images):
    surv = images.head(3).copy()
    # decode row 0 (raw fmt), flip one pixel, re-encode: bytes AND pixels differ
    row = surv.iloc[0]
    rgb = decode_image(row["bytes"], row["fmt"], int(row["w"]), int(row["h"])).copy()
    rgb[0, 0, 0] ^= 0xFF
    surv.loc[surv.index[0], "bytes"] = encode_image(rgb, row["fmt"])
    v = _verdicts(images, surv)
    bad = v.loc["img0000"]
    assert bool(bad["found"]) and bool(bad["caption_ok"])
    assert not bool(bad["bytes_ok"]) and not bool(bad["pixels_ok"])


def test_container_reencode_keeps_pixels_ok(images):
    # same pixels, different container (raw → png): bytes differ, pixels equal
    surv = images.head(3).copy()
    row = surv.iloc[0]
    rgb = decode_image(row["bytes"], row["fmt"], int(row["w"]), int(row["h"]))
    surv.loc[surv.index[0], "bytes"] = encode_image(rgb, "png")
    surv.loc[surv.index[0], "fmt"] = "png"
    v = _verdicts(images, surv)
    moved = v.loc["img0000"]
    assert not bool(moved["bytes_ok"])
    assert bool(moved["pixels_ok"]) and bool(moved["caption_ok"])


def test_undecodable_payload_flagged(images):
    surv = images.head(2).copy()
    surv.loc[surv.index[0], "bytes"] = b"\x00\x01"  # truncated: decode fails
    v = _verdicts(images, surv)
    bad = v.loc["img0000"]
    assert not bool(bad["pixels_ok"]) and not bool(bad["bytes_ok"])


def test_foreign_survivor_not_found(images):
    surv = images.head(2).copy()
    surv.loc[surv.index[0], "image_id"] = "imgZZZZ"
    v = _verdicts(images, surv)
    ghost = v.loc["imgZZZZ"]
    assert not ghost[["found", "caption_ok", "bytes_ok", "pixels_ok"]].any()


def test_row_digests_pixel_digest_is_container_independent(images):
    row = images.iloc[0]
    rgb = decode_image(row["bytes"], row["fmt"], int(row["w"]), int(row["h"]))
    alt = images.head(1).copy()
    alt["bytes"] = [encode_image(rgb, "bmp")]
    alt["fmt"] = ["bmp"]
    d1 = row_digests(rd.from_pandas(images.head(1))).to_pandas()
    d2 = row_digests(rd.from_pandas(alt)).to_pandas()
    assert d1.loc[0, "pix_md5"] == d2.loc[0, "pix_md5"]
    assert d1.loc[0, "byte_md5"] != d2.loc[0, "byte_md5"]


def test_psnr_db_kernel():
    a = np.zeros((8, 8, 3), dtype=np.uint8)
    assert psnr_db(a, a) == float("inf")
    b = a.copy()
    b[0, 0, 0] = 255  # one max-error pixel in 192: MSE = 255^2/192
    expect = 10 * np.log10(192.0)
    assert abs(psnr_db(a, b) - expect) < 1e-9
    # the north rule's acceptance bound: tiny noise passes, gross fails
    rng = np.random.default_rng(0)
    noisy = np.clip(
        a.astype(np.int16) + rng.integers(-1, 2, a.shape), 0, 255
    ).astype(np.uint8)
    assert psnr_db(a, noisy) >= 40.0
    with pytest.raises(ValueError, match="shape mismatch"):
        psnr_db(a, np.zeros((4, 4, 3), dtype=np.uint8))


def test_pixel_exact_dedup_catches_reencodes_and_isolates_corrupt():
    from simhash_ray.stages.invariant import pixel_exact_dedup

    rng = np.random.default_rng(7)
    rows = []
    for i in range(6):
        rgb = rng.integers(0, 256, (32, 32, 3), dtype=np.uint8)
        rows.append(
            {"image_id": f"img{i:03d}", "bytes": encode_image(rgb, "bmp"),
             "caption": f"cap {i}", "w": 32, "h": 32, "fmt": "bmp"}
        )
        if i < 3:  # same pixels + caption, DIFFERENT container bytes
            rows.append(
                {"image_id": f"img{i:03d}r", "bytes": encode_image(rgb, "raw"),
                 "caption": f"cap {i}", "w": 32, "h": 32, "fmt": "raw"}
            )
    # same pixels as img000 but a different caption: NOT a duplicate
    rgb0 = decode_image(rows[0]["bytes"], "bmp", 32, 32)
    rows.append(
        {"image_id": "imgzzz", "bytes": encode_image(rgb0, "raw"),
         "caption": "other", "w": 32, "h": 32, "fmt": "raw"}
    )
    # two corrupt payloads must each stay their own cluster
    for j in range(2):
        rows.append(
            {"image_id": f"imgbad{j}", "bytes": b"\x00\x01", "caption": "x",
             "w": 32, "h": 32, "fmt": "bmp"}
        )
    out = (
        pixel_exact_dedup(rd.from_items(rows), concurrency=(1, 2))
        .to_pandas()
        .set_index("image_id")
    )
    assert len(out) == len(rows)
    for i in range(3):  # re-encodes merged, min-id rep
        assert out.loc[f"img{i:03d}r", "rep_id"] == f"img{i:03d}"
        assert not out.loc[f"img{i:03d}r", "is_rep"]
    assert out.loc["imgzzz", "is_rep"]          # caption differs → kept
    for j in range(2):                          # corrupt rows isolated
        assert out.loc[f"imgbad{j}", "is_rep"]
        assert out.loc[f"imgbad{j}", "rep_id"] == f"imgbad{j}"
    # byte-level dedup cannot merge a bmp with its raw re-encode (the
    # containers differ) — pixel dedup's extra recall is real
    from simhash_ray.stages.collapse import dedup_exact_bytes

    bt = (
        dedup_exact_bytes(
            rd.from_items(rows).select_columns(["image_id", "bytes"])
        )
        .to_pandas()
        .set_index("image_id")
    )
    for i in range(3):
        assert bt.loc[f"img{i:03d}r", "rep_id"] != f"img{i:03d}"
