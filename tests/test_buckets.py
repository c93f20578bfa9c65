"""The bucket-pairing kernel (stages/buckets) under the LSH policy
(stages/lsh.lsh_bucket_pairs) against a brute-force per-bucket
enumeration of the documented rules."""

import itertools

import numpy as np
import pytest

import simhash_ray.stages.buckets as K
from simhash_ray.stages.lsh import lsh_bucket_pairs

THRESHOLD = 4  # pair_full_threshold
HEAD_CAP = 6  # patched OVERSIZED_EXACT_CAP


def _brute(band, key, sig, exact_identical_cap, branches):
    """Per-bucket enumeration straight from the policy's definition,
    over positions of the (band, key)-sorted arrays."""
    buckets: dict = {}
    for p in range(len(key)):
        buckets.setdefault((band[p], key[p]), []).append(p)
    out = []
    for (b, _), members in buckets.items():
        if len(members) <= THRESHOLD:
            if len(members) >= 2:
                branches.add("full")
            out += [(x, y, False) for x, y in itertools.combinations(members, 2)]
            continue
        groups: dict = {}
        for p in members:  # member order kept inside each identical group
            groups.setdefault(sig[p], []).append(p)
        for s in sorted(groups):
            g = groups[s]
            if len(g) < 2:
                continue
            if exact_identical_cap == 0:
                branches.add("identical-chain")
                out += [(x, y, True) for x, y in zip(g, g[1:])]
            elif b != 0:
                pass  # identical runs enumerate from band 0 only
            elif len(g) * (len(g) - 1) // 2 <= exact_identical_cap:
                branches.add("identical-exact")
                out += [(x, y, False) for x, y in itertools.combinations(g, 2)]
            else:
                branches.add("identical-chain")
                out += [(x, y, True) for x, y in zip(g, g[1:])]
        heads = [groups[s][0] for s in sorted(groups)]
        if len(heads) > HEAD_CAP:
            branches.add("head-star")
            out += [(heads[0], y, True) for y in heads[1:]]
        else:
            if len(heads) >= 2:
                branches.add("exact-heads")
            out += [(x, y, True) for x, y in itertools.combinations(heads, 2)]
    return sorted((min(x, y), max(x, y), st) for x, y, st in out)


@pytest.mark.parametrize("exact_identical_cap", [0, 3])
@pytest.mark.parametrize("seed", range(4))
def test_lsh_pairing_matches_brute_force(monkeypatch, seed, exact_identical_cap):
    monkeypatch.setattr(K, "OVERSIZED_EXACT_CAP", HEAD_CAP)
    rng = np.random.default_rng(seed)
    band_l, key_l, sig_l = [], [], []
    for _ in range(80):
        g = int(rng.integers(1, 3 * THRESHOLD + 1))
        # a small sig pool plants identical-signature twins; a large
        # one gives many distinct heads (head-star territory)
        pool = int(rng.choice([2, 4, 1 << 40]))
        band_l += [int(rng.integers(0, 3))] * g
        key_l += [int(rng.integers(0, 1 << 62))] * g
        sig_l += rng.integers(0, pool, size=g).tolist()
    perm = rng.permutation(len(key_l))
    band = np.array(band_l, dtype=np.int32)[perm]
    key = np.array(key_l, dtype=np.int64)[perm]
    sig = np.array(sig_l, dtype=np.int64)[perm]
    order = np.lexsort((key, band))
    band, key, sig = band[order], key[order], sig[order]

    starts, lengths = K.runs(band, key)
    ai, bi, star = lsh_bucket_pairs(
        starts, lengths, sig, band[starts], THRESHOLD, exact_identical_cap
    )
    got = sorted(
        (int(min(x, y)), int(max(x, y)), bool(s)) for x, y, s in zip(ai, bi, star)
    )
    branches: set = set()
    assert got == _brute(band, key, sig, exact_identical_cap, branches)
    expected = {"full", "exact-heads", "identical-chain", "head-star"}
    if exact_identical_cap:
        expected.add("identical-exact")
    assert branches >= expected


def test_runs_and_all_pairs_edges():
    starts, lengths = K.runs(np.array([], dtype=np.int64))
    assert len(starts) == 0 and len(lengths) == 0
    ai, bi = K.all_pairs(starts, lengths)
    assert len(ai) == 0 and len(bi) == 0
    starts, lengths = K.runs(np.array([1, 1, 2, 2, 2]), np.array([0, 0, 0, 1, 1]))
    assert starts.tolist() == [0, 2, 3] and lengths.tolist() == [2, 1, 2]
    ai, bi = K.all_pairs(starts, lengths)
    assert sorted(zip(ai.tolist(), bi.tolist())) == [(0, 1), (3, 4)]
