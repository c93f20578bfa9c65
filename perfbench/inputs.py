"""Seeded benchmark inputs, generated apart from the program under test.

The benchmark builds each workload's table with the repository's own
fixture generator (``simhash_ray.fixtures``) at the run's seed and
writes it once into a cache inside the checkout, keyed by the spec
(seed included) and the generator's source.  Generation runs in a child
process, and the parent never imports the program here, so neither the
generator's time nor its memory counts against the run's set-up time
or the driver's peak RSS.

Run directly to (re)generate one input set::

    PYTHONPATH=. python3 perfbench/inputs.py --seed 7 --hot-frac 0.1 --out DIR
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import asdict

# Every workload reads the same planted mix at this size; hot_caption
# adds the FIXTURES.md skew stressor on top.  32x32 images in two
# lossless formats keep generation cheap.  The pipeline reads only
# (image_id, caption, phash), so the cached table drops the encoded
# image bytes (97% of its size).
N_ROWS = 20_000
IMAGE_SIZES = (32,)
IMAGE_FORMATS = ("raw", "bmp")
CACHE_KEEP = 40  # input sets kept in the cache (about 1 MB each)
DONE = "perfbench-inputs.json"  # written last: the set is complete


def spec_args(seed: int, hot_frac: float) -> dict:
    """The ``FixtureSpec`` fields this benchmark sets; the planted mix
    fractions keep their defaults."""
    return {"n_rows": N_ROWS, "seed": seed, "sizes": IMAGE_SIZES,
            "formats": IMAGE_FORMATS, "hot_frac": hot_frac}


def _generate(seed: int, hot_frac: float, out_dir: str) -> dict:
    import pyarrow.parquet as pq

    from simhash_ray.fixtures import FixtureSpec, write_fixture

    spec = FixtureSpec(**spec_args(seed, hot_frac))
    write_fixture(out_dir, spec)
    path = os.path.join(out_dir, "images.parquet")
    f = pq.ParquetFile(path)
    group_rows = f.metadata.row_group(0).num_rows  # keep the read parallelism
    pq.write_table(f.read().drop(["bytes"]), path + ".tmp", row_group_size=group_rows)
    os.replace(path + ".tmp", path)
    with open(os.path.join(out_dir, DONE), "w") as out:
        json.dump(asdict(spec), out, default=list)
    return asdict(spec)


def ensure_inputs(root: str, cache_dir: str, seed: int, hot_frac: float) -> str:
    """Directory holding ``images.parquet`` and ``truth.parquet`` for
    (seed, hot_frac), generating it in a child process on a cache miss."""
    h = hashlib.sha256(json.dumps(spec_args(seed, hot_frac)).encode())
    for src in ("fixtures.py", "config.py", "phash.py", "simhash.py"):
        with open(os.path.join(root, "simhash_ray", src), "rb") as f:
            h.update(f.read())
    out_dir = os.path.join(cache_dir, f"seed{seed}-{h.hexdigest()[:12]}")
    marker = os.path.join(out_dir, DONE)
    if not os.path.exists(marker):
        os.makedirs(cache_dir, exist_ok=True)
        env = dict(os.environ, PYTHONPATH=root)
        subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--seed", str(seed), "--hot-frac", repr(hot_frac),
                "--out", out_dir,
            ],
            check=True, env=env, stdout=sys.stderr,
        )
    os.utime(out_dir)  # mark as recently used for the eviction below
    _evict(cache_dir, keep=CACHE_KEEP)
    return out_dir


def _evict(cache_dir: str, keep: int) -> None:
    dirs = [
        os.path.join(cache_dir, d) for d in os.listdir(cache_dir)
        if os.path.isdir(os.path.join(cache_dir, d))
    ]
    dirs.sort(key=os.path.getmtime, reverse=True)
    for d in dirs[keep:]:
        shutil.rmtree(d, ignore_errors=True)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--hot-frac", type=float, default=0.0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    print(json.dumps(_generate(args.seed, args.hot_frac, args.out), default=list))


if __name__ == "__main__":
    main()
