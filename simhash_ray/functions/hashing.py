"""Vectorized, process-stable hash helpers for partitioning keys.

Python's builtin ``hash`` is salted per process — never use it for a
shuffle key.  ``pandas.util.hash_array`` (SipHash with a pinned key) is
deterministic across processes and vectorized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_MIX = np.uint64(0x9E3779B97F4A7C15)


def hash_strings(values: np.ndarray) -> np.ndarray:
    """Deterministic u64 hash of an object/str ndarray."""
    return pd.util.hash_array(np.asarray(values, dtype=object), categorize=False)


def part_of_strings(values: np.ndarray, n_parts: int) -> np.ndarray:
    return (hash_strings(values) % np.uint64(n_parts)).astype(np.int32)


def part_of_ids(values: np.ndarray, n_parts: int) -> np.ndarray:
    """Partition of native id values: integer arrays hash as ints,
    anything else (string ids) as strings."""
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return part_of_ints(n_parts, values)
    return part_of_strings(values, n_parts)


def mix_ints(*cols: np.ndarray) -> np.ndarray:
    """Combine int64/uint64 columns into one u64 key (order-sensitive)."""
    acc = np.zeros(len(cols[0]), dtype=np.uint64)
    for c in cols:
        acc = (acc ^ np.asarray(c).astype(np.int64).view(np.uint64)) * _MIX
    acc ^= acc >> np.uint64(31)
    return acc


def part_of_ints(n_parts: int, *cols: np.ndarray) -> np.ndarray:
    return (mix_ints(*cols) % np.uint64(n_parts)).astype(np.int32)


def part_of_pairs(a: np.ndarray, b: np.ndarray, n_parts: int) -> np.ndarray:
    """Partition of native (a, b) id pairs — THE pair-reduce partition
    (stages/cluster.dedupe_edges and the tile count reduce share it)."""
    return (
        (part_of_ids(a, 1 << 30).astype(np.int64) * 31 + part_of_ids(b, 1 << 30))
        % n_parts
    ).astype(np.int32)


# ---------------------------------------------------------------------------
# Vectorized single-block MD5 (RFC 1321) over short fixed-width messages.
# Used for the deterministic train/valid/test split: the split nibble is
# the first hex digit of md5(str(id)), which a SQL oracle reproduces with
# DuckDB's md5().  Messages here are ≤ 55 bytes (a decimal int64 is ≤ 20
# chars) so every message fits one 64-byte block and the whole compress
# runs as 64 rounds of numpy uint32 ops over the batch — no per-row
# hashlib loop (round-2 verdict item 8).

_MD5_K = np.array(
    [int(abs(__import__("math").sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64)],
    dtype=np.uint32,
)
_MD5_S = np.array(
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4
    + [6, 10, 15, 21] * 4,
    dtype=np.uint32,
)
_MD5_INIT = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)


def _rotl32(x: np.ndarray, s: int) -> np.ndarray:
    s = np.uint32(s)
    return (x << s) | (x >> (np.uint32(32) - s))


def md5_first_byte_of_int_ids(ids: np.ndarray) -> np.ndarray:
    """First digest byte of md5(decimal-string of each int) — vectorized.

    Equal to ``hashlib.md5(str(i).encode()).digest()[0]`` for every i
    (pinned by test); the high nibble of this byte is hexdigest()[0]."""
    word = _md5_first_word_of_int_ids(ids)
    return (word & np.uint32(0xFF)).astype(np.uint8)


def md5_u32_of_int_ids(ids: np.ndarray) -> np.ndarray:
    """First 8 hexdigest chars of md5(decimal-string of each int), as a
    uint32 — exactly DuckDB's
    ``CAST(('0x' || substr(md5(CAST(id AS VARCHAR)), 1, 8)) AS BIGINT)``.

    The deterministic uniform-[0, 2^32) variate behind the sampling
    operators: digest bytes 0..3 read big-endian = byteswap of the
    little-endian first state word."""
    return _md5_first_word_of_int_ids(ids).byteswap()


def _md5_first_word_of_int_ids(ids: np.ndarray) -> np.ndarray:
    """Final (A + INIT_A) md5 state word per id — little-endian digest
    bytes 0..3."""
    ids = np.asarray(ids, dtype=np.int64)
    n = len(ids)
    if n == 0:
        return np.empty(0, dtype=np.uint32)
    s_arr = ids.astype("S21")  # decimal ASCII, NUL-padded to 21 bytes
    view = np.frombuffer(s_arr.tobytes(), dtype=np.uint8).reshape(n, 21)
    lens = (view != 0).sum(axis=1)
    block = np.zeros((n, 64), dtype=np.uint8)
    block[:, :21] = view
    block[np.arange(n), lens] = 0x80
    block[:, 56:64] = (lens * 8).astype("<u8").view(np.uint8).reshape(n, 8)
    M = block.view("<u4")  # (n, 16) little-endian message words
    A = np.full(n, _MD5_INIT[0], dtype=np.uint32)
    B = np.full(n, _MD5_INIT[1], dtype=np.uint32)
    C = np.full(n, _MD5_INIT[2], dtype=np.uint32)
    D = np.full(n, _MD5_INIT[3], dtype=np.uint32)
    for i in range(64):
        if i < 16:
            F = (B & C) | (~B & D)
            g = i
        elif i < 32:
            F = (D & B) | (~D & C)
            g = (5 * i + 1) % 16
        elif i < 48:
            F = B ^ C ^ D
            g = (3 * i + 5) % 16
        else:
            F = C ^ (B | ~D)
            g = (7 * i) % 16
        F = F + A + _MD5_K[i] + M[:, g]
        A, D, C = D, C, B
        B = B + _rotl32(F, int(_MD5_S[i]))
    return A + np.uint32(_MD5_INIT[0])
