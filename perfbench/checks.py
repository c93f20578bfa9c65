"""Output checks that do not trust the program.

Everything here is computed from the input table, the fixture's truth
table and the benchmark's own code: a reimplementation of the SimHash
spec pinned in ``simhash_ray/simhash.py``'s docstring, a lookup-table
popcount, and a plain union-find.  Nothing calls ``simhash_oracle``,
``hamming64`` or ``planted_pair_recall``.

Each check returns a list of failure strings (empty when it holds).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

TEXT_TAU = 6
IMAGE_TAU = 4
_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)


class SpecSimHash:
    """The pinned encoder spec: keyed blake2b token and char-gram
    hashes, word 2-gram shingles folded with the golden-ratio constant
    and finished with splitmix64, +-1 per digest bit, sign threshold."""

    def __init__(self, hash_seed: int = 0x5173_4861, shingle_k: int = 2,
                 char_ngram: int = 3):
        self.key = hash_seed.to_bytes(8, "little")
        self.k = shingle_k
        self.n = char_ngram
        self.fold_seed = self._h(b"fold")
        self._tok: dict[str, int] = {}
        self._grams: dict[str, list[int]] = {}

    def _h(self, data: bytes, person: bytes = b"") -> int:
        d = hashlib.blake2b(data, digest_size=8, key=self.key, person=person)
        return int.from_bytes(d.digest(), "little")

    @staticmethod
    def _splitmix(z: int) -> int:
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def digests(self, text: str) -> list[int]:
        toks = [t.lower() for t in text.split()]
        if not toks:
            return []
        for t in toks:
            if t not in self._tok:
                self._tok[t] = self._h(t.encode())
                grams = [t[i:i + self.n] for i in range(max(1, len(t) - self.n + 1))]
                self._grams[t] = [self._h(g.encode(), b"cg") for g in grams]
        th = [self._tok[t] for t in toks]
        k = min(self.k, len(toks))
        out = []
        for i in range(len(th) - k + 1):
            acc = self.fold_seed
            for h in th[i:i + k]:
                acc = ((acc ^ h) * _GOLDEN) & _MASK
            out.append(self._splitmix(acc))
        for t in toks:
            out.extend(self._grams[t])
        return out

    def signatures(self, texts: list[str]) -> np.ndarray:
        """uint64 signature per text (distinct texts are hashed once)."""
        uniq = list(dict.fromkeys(texts))
        sig_of = {}
        for lo in range(0, len(uniq), 2048):
            chunk = uniq[lo:lo + 2048]
            dig = [self.digests(t) for t in chunk]
            counts = np.array([len(d) for d in dig], dtype=np.int64)
            flat = np.array([h for d in dig for h in d], dtype="<u8")
            bits = np.unpackbits(flat.view(np.uint8).reshape(-1, 8), axis=1,
                                 bitorder="little")
            # per-text set-bit counts; texts without digests stay 0
            ones = np.zeros((len(chunk), 64), dtype=np.int64)
            has = counts > 0
            if has.any():
                starts = (np.cumsum(counts) - counts)[has]
                ones[has] = np.add.reduceat(bits, starts, axis=0, dtype=np.int64)
            adder = 2 * ones - counts[:, None]
            weights = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
            sigs = ((adder > 0).astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)
            sig_of.update(zip(chunk, sigs.tolist()))
        return np.array([sig_of[t] for t in texts], dtype=np.uint64)


def popcount_xor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamming distance of uint64 arrays (broadcasting) via a 16-bit table."""
    x = np.bitwise_xor(a.astype(np.uint64), b.astype(np.uint64))
    words = np.ascontiguousarray(x).view(np.uint16).reshape(*x.shape, 4)
    return _POP16[words].sum(axis=-1, dtype=np.int64)


class Reference:
    """Input rows indexed by sorted image id, with the benchmark's own
    signatures: the ground the checks below stand on."""

    def __init__(self, images: pd.DataFrame, truth: pd.DataFrame):
        images = images.sort_values("image_id", ignore_index=True)
        self.ids = images["image_id"].to_numpy(dtype=object)
        self.index = pd.Index(self.ids)
        self.phash = images["phash"].to_numpy().astype(np.int64).view(np.uint64)
        self.simhash = SpecSimHash().signatures(images["caption"].tolist())
        self.truth = truth.set_index("image_id").reindex(self.ids)

    def positions(self, ids) -> np.ndarray:
        pos = self.index.get_indexer(pd.Index(ids))
        if (pos < 0).any():
            raise KeyError("ids not in the input table")
        return pos


def check_partition(ref: Reference, assignment: pd.DataFrame) -> list[str]:
    """(a) every input id once; one representative per cluster, whose id
    is the cluster id and the smallest id in the cluster."""
    n = len(ref.ids)
    pos = ref.index.get_indexer(pd.Index(assignment["image_id"]))
    if len(pos) != n or (pos < 0).any() or np.bincount(pos, minlength=n).max() != 1:
        return [f"partition: {len(pos)} assigned rows do not cover the {n} "
                "input ids exactly once"]
    cl = ref.index.get_indexer(pd.Index(assignment["cluster_id"]))
    if (cl < 0).any():
        return ["partition: a cluster id is not an input id"]
    rep = assignment["is_representative"].to_numpy(dtype=bool)
    clusters = np.unique(cl)
    fails = []
    bad = int((np.bincount(cl[rep], minlength=n)[clusters] != 1).sum())
    if bad:
        fails.append(f"partition: {bad} clusters without exactly one representative")
    if (pos[rep] != cl[rep]).any():
        fails.append("partition: a representative's id differs from its cluster id")
    smallest = np.full(n, n, dtype=np.int64)
    np.minimum.at(smallest, cl, pos)
    if (smallest[clusters] != clusters).any():
        fails.append("partition: a cluster id is not its smallest member id")
    return fails


def check_signatures(ref: Reference, sample_ids, program_sigs: pd.DataFrame) -> list[str]:
    """(b) the program's simhash equals the spec reimplementation on a
    seeded sample of rows."""
    got = program_sigs.set_index("image_id").reindex(sample_ids)
    if got["simhash"].isna().any():
        return ["signatures: sampled rows missing from the program's output"]
    prog = got["simhash"].to_numpy().astype(np.int64).view(np.uint64)
    mine = ref.simhash[ref.positions(sample_ids)]
    bad = int((prog != mine).sum())
    return [f"signatures: {bad} of {len(mine)} sampled simhashes differ"] if bad else []


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest member index of each node's component (plain union-find)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    return np.array([find(x) for x in range(n)], dtype=np.int64)


def cluster_index(ref: Reference, assignment: pd.DataFrame) -> np.ndarray:
    """Per input position, the position of its assigned cluster id."""
    a = assignment.set_index("image_id").reindex(ref.ids)
    return ref.positions(a["cluster_id"].to_numpy(dtype=object))


def check_edges(ref: Reference, edges: pd.DataFrame, assignment: pd.DataFrame) -> list[str]:
    """(c) every edge is within tau in a space, and edges plus exact
    (simhash, phash) groups reproduce the assignment's partition."""
    fails = []
    ea, eb = ref.positions(edges["a"]), ref.positions(edges["b"])
    dt = popcount_xor(ref.simhash[ea], ref.simhash[eb])
    di = popcount_xor(ref.phash[ea], ref.phash[eb])
    far = int(((dt > TEXT_TAU) & (di > IMAGE_TAU)).sum())
    if far:
        fails.append(f"edges: {far} of {len(ea)} edges beyond tau in both spaces")
    groups = pd.DataFrame({"s": ref.simhash, "p": ref.phash}).groupby(["s", "p"]).ngroup()
    first = pd.Series(np.arange(len(ref.ids))).groupby(groups.to_numpy()).transform("min")
    ga = np.arange(len(ref.ids))
    comp = _components(
        len(ref.ids),
        np.concatenate([ea, ga]),
        np.concatenate([eb, first.to_numpy()]),
    )
    got = cluster_index(ref, assignment)
    bad = int((comp != got).sum())
    if bad:
        fails.append(f"edges: union-find over edges + exact groups disagrees "
                     f"with the assignment on {bad} rows")
    return fails


def check_completeness(ref: Reference, query_pos: np.ndarray,
                       assignment: pd.DataFrame) -> list[str]:
    """(d) brute-force Hamming scan: every row within tau of a sampled
    query, in either space, shares the query's cluster."""
    got = cluster_index(ref, assignment)
    missed, found = 0, 0
    for lo in range(0, len(query_pos), 64):
        q = query_pos[lo:lo + 64]
        dt = popcount_xor(ref.simhash[q][:, None], ref.simhash[None, :])
        di = popcount_xor(ref.phash[q][:, None], ref.phash[None, :])
        near = (dt <= TEXT_TAU) | (di <= IMAGE_TAU)
        near[np.arange(len(q)), q] = False
        qi, ni = np.nonzero(near)
        found += len(qi)
        missed += int((got[q[qi]] != got[ni]).sum())
    return [f"completeness: {missed} of {found} within-tau neighbours of "
            f"{len(query_pos)} sampled rows lie in another cluster"] if missed else []


def check_truth(ref: Reference, assignment: pd.DataFrame) -> list[str]:
    """(e) every planted cluster lies inside one output cluster (checked
    per cluster, without enumerating pairs)."""
    got = cluster_index(ref, assignment)
    per = pd.Series(got).groupby(ref.truth["cluster_id"].to_numpy()).nunique()
    split = int((per > 1).sum())
    return [f"truth: {split} of {len(per)} planted clusters are split"] if split else []


def same_partition(a: pd.DataFrame, b: pd.DataFrame) -> bool:
    """Two assignments give every id the same cluster id."""
    x = a.set_index("image_id")["cluster_id"].sort_index()
    y = b.set_index("image_id")["cluster_id"].sort_index()
    return x.index.equals(y.index) and bool((x.to_numpy() == y.to_numpy()).all())
