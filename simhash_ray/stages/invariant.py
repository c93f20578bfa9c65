"""Per-row survivor invariant verification (the north rule's output
contract: every surviving representative row must exist in the input
with an EQUAL caption and a byte payload that decodes to the same
pixels — exact equality for lossless formats, PSNR ≥ 40 dB acceptance
for lossy ones; reference analogue: the valid pass of
/root/reference/src/Htm/Model.hs:58-69, a full scoring sweep over an
output artifact).

Ray-Data shape — bytes never shuffle: each side (input table, survivor
table) is independently reduced to a NARROW digest row per image
(md5 of the raw payload + md5 of the DECODED pixel array, ~100 B) by an
actor-pool decode pass; the two digest tables hash-join on ``image_id``
and a final streaming pass emits per-row verdicts.  At 100 TB the only
shuffle is the digest join (rows × ~100 B), while the decode cost is
embarrassingly parallel over the survivors.

Lossy-format seam: the in-sandbox codecs (imgcodec.py) are all
lossless, so pixel equality ≡ digest equality and the PSNR ≥ 40 dB
branch cannot trigger (imgcodec module docstring).  :func:`psnr_db` is
the acceptance rule's pure kernel, unit-tested directly; wiring it in
requires joining the two PAYLOADS instead of digests (double the byte
movement) — the documented trade if a lossy codec ever lands.
"""

from __future__ import annotations

import hashlib
import logging

import numpy as np
import pyarrow as pa
import ray.data as rd

from .joins import hash_join

logger = logging.getLogger(__name__)


def psnr_db(a: np.ndarray, b: np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio between two uint8 pixel arrays;
    +inf for identical arrays (the lossless case)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    mse = np.mean(
        (a.astype(np.float64) - b.astype(np.float64)) ** 2
    )
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(peak * peak / mse))


class RowDigests:
    """Actor stage: (image_id, caption, bytes, w, h, fmt) →
    (image_id, caption, byte_md5, pix_md5, decode_ok).  The pixel
    digest is md5 of the DECODED C-order RGB array, so two payloads
    that decode identically digest identically regardless of their
    container bytes (e.g. the same pixels as png vs bmp)."""

    def __init__(self) -> None:
        from ..imgcodec import decode_image

        self._decode = decode_image

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["image_id"]
        caps = batch["caption"]
        blobs = batch["bytes"].to_pylist()
        ws = batch["w"].to_numpy(zero_copy_only=False)
        hs = batch["h"].to_numpy(zero_copy_only=False)
        fmts = batch["fmt"].to_pylist()
        byte_md5, pix_md5, ok = [], [], []
        for blob, w, h, fmt in zip(blobs, ws, hs, fmts):
            byte_md5.append(hashlib.md5(blob).hexdigest())
            try:
                rgb = self._decode(blob, fmt, int(w), int(h))
                pix_md5.append(
                    hashlib.md5(np.ascontiguousarray(rgb, dtype=np.uint8)).hexdigest()
                )
                ok.append(True)
            except Exception:  # noqa: BLE001 — a corrupt payload is a verdict, not a crash
                pix_md5.append("")
                ok.append(False)
        return pa.table(
            {
                "image_id": ids,
                "caption": caps,
                "byte_md5": pa.array(byte_md5, type=pa.string()),
                "pix_md5": pa.array(pix_md5, type=pa.string()),
                "decode_ok": pa.array(ok, type=pa.bool_()),
            }
        )


def row_digests(
    ds: rd.Dataset, concurrency=None
) -> rd.Dataset:
    """The narrow digest table of a byte-bearing image dataset."""
    return ds.select_columns(
        ["image_id", "caption", "bytes", "w", "h", "fmt"]
    ).map_batches(
        RowDigests,
        batch_format="pyarrow",
        batch_size=512,  # wide binary rows: keep batches small
        concurrency=concurrency or (1, 8),
    )


def survivor_invariant(
    images: rd.Dataset,
    survivors: rd.Dataset,
    concurrency=None,
) -> rd.Dataset:
    """Per-survivor verdicts: (image_id, found, caption_ok, bytes_ok,
    pixels_ok).  ``found`` = the id exists in the input at all;
    ``pixels_ok`` = both payloads decode and their decoded arrays are
    byte-identical (≡ allclose for the lossless sandbox codecs — see
    module docstring for the lossy PSNR seam)."""
    return invariant_verdicts(
        row_digests(survivors, concurrency),
        row_digests(images, concurrency),
    )


def invariant_verdicts(sur: rd.Dataset, src: rd.Dataset) -> rd.Dataset:
    """Verdict join over two precomputed digest tables (exposed so the
    oracle-staged query can reuse the exact digest datasets it stages)."""
    src = src.map_batches(
        lambda t: t.rename_columns(
            ["image_id", "src_caption", "src_byte_md5", "src_pix_md5",
             "src_decode_ok"]
        ),
        batch_format="pyarrow",
    )
    joined = hash_join(sur, src, "image_id", "left_outer")

    def verdict(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        found = pc.is_valid(batch["src_byte_md5"])
        cap_ok = pc.and_kleene(
            found, pc.equal(batch["caption"], batch["src_caption"])
        )
        byte_ok = pc.and_kleene(
            found, pc.equal(batch["byte_md5"], batch["src_byte_md5"])
        )
        pix_ok = pc.and_kleene(
            pc.and_kleene(found, pc.and_(batch["decode_ok"],
                                         pc.coalesce(batch["src_decode_ok"],
                                                     pa.scalar(False)))),
            pc.equal(batch["pix_md5"], batch["src_pix_md5"]),
        )
        def as_bool(col):
            return pc.coalesce(col, pa.scalar(False)).cast(pa.bool_())

        return pa.table(
            {
                "image_id": batch["image_id"],
                "found": as_bool(found),
                "caption_ok": as_bool(cap_ok),
                "bytes_ok": as_bool(byte_ok),
                "pixels_ok": as_bool(pix_ok),
            }
        )

    return joined.map_batches(verdict, batch_format="pyarrow")


def pixel_exact_dedup(
    images: rd.Dataset,
    concurrency=None,
    n_parts: int = 64,
) -> rd.Dataset:
    """Exact dedup on DECODED pixels + caption: two rows are duplicates
    iff their payloads decode to identical pixel arrays AND their
    captions are equal — the format-robust exact pass (a png and a bmp
    of the same pixels collapse; ``dedup_exact_bytes`` on the raw
    payload cannot see that).  Rows whose payload fails to decode are
    never merged (each keeps a row-unique key) — a corrupt blob must
    not collapse into a cluster by accident.

    Ray shape: the decode runs ONCE per row in the RowDigests actor
    pool (bytes never shuffle); the dedup then rides
    :func:`stages.collapse.dedup_exact_bytes` over the narrow
    (pix_md5 ⊕ caption) key column — only ~100-byte digest rows cross
    the election shuffle.  Output: (image_id, rep_id, is_rep)."""
    return pixel_dedup_from_digests(
        row_digests(images, concurrency), n_parts=n_parts
    )


def pixel_dedup_from_digests(
    dig: rd.Dataset, n_parts: int = 64
) -> rd.Dataset:
    """The digest-table half of :func:`pixel_exact_dedup` — exposed so
    the oracle-staged query dedups the EXACT digest dataset it stages
    (same split as :func:`invariant_verdicts`; the key scheme lives in
    one place)."""
    import pyarrow.compute as pc

    from .collapse import dedup_exact_bytes

    def keyed(t: pa.Table) -> pa.Table:
        # decode failures get a row-unique key (never grouped)
        key = pc.binary_join_element_wise(
            t["pix_md5"], t["caption"].cast(pa.string()).fill_null(""), "\x1f"
        )
        fallback = pc.binary_join_element_wise("!", t["image_id"], "")
        key = pc.if_else(t["decode_ok"], key, fallback)
        return pa.table({"image_id": t["image_id"], "key": key})

    keyed_ds = dig.map_batches(keyed, batch_format="pyarrow")
    return dedup_exact_bytes(
        keyed_ds, id_col="image_id", bytes_col="key", n_parts=n_parts
    )
