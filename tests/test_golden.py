"""Golden differential test: peel traces and an elder barcode pinned by hash.

The hashes were taken from the engine before its duplicate code paths were
merged, so any engine rewrite must reproduce those traces byte for byte.
KDE inputs are left out: their float sums make the hashes fragile.
"""

import hashlib

import numpy as np
import pytest

from rootpeel import pset, rooted
from rootpeel.space import AugmentedMetricSpace, load_points


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _random(n, d):
    rng = np.random.default_rng(n)
    return AugmentedMetricSpace(points=rng.random((n, d)), density=rng.random(n))


def _ties(n, d, levels):
    rng = np.random.default_rng(n + 1)
    dens = rng.integers(0, levels, n).astype(float)
    return AugmentedMetricSpace(points=rng.random((n, d)), density=dens)


def _constant(n, d):
    rng = np.random.default_rng(n + 2)
    return AugmentedMetricSpace(points=rng.random((n, d)), density=np.zeros(n))


def _duplicates(n, d):
    rng = np.random.default_rng(n + 3)
    pts = rng.random((n, d))
    k = n // 4
    pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
    dens = rng.integers(0, n // 3, n).astype(float)
    return AugmentedMetricSpace(points=pts, density=dens)


def _matrix(n):
    # small integer distances: many distance ties, no triangle inequality
    rng = np.random.default_rng(n + 4)
    d = rng.integers(1, 10, (n, n))
    d = np.triu(d, 1)
    d = d + d.T
    text = f"#matrix {n}\n" + "\n".join(",".join(str(int(v)) for v in row) for row in d)
    space = load_points(text)
    return space.with_density(rng.integers(0, 6, n).astype(float))


PEEL_CASES = {
    "random-n40-d2": (
        lambda: _random(40, 2),
        "989281fb9a55a9295e50fd01d93613d65f76405b842d9b86457ef197c8edbe46",
    ),
    "random-n120-d3": (
        lambda: _random(120, 3),
        "b5543e04f14eade37442f5a4692a3192423d246e1b82f3d3caeefea1a4d186da",
    ),
    "ties-n300-d2": (
        lambda: _ties(300, 2, 10),
        "ccb98128e25a7ce5c468edef06804eb06c97525d9196a3f303ba8302454d758e",
    ),
    "constant-n300-d2": (
        lambda: _constant(300, 2),
        "fa4f4de9d095dd6f85c21835a42913bcc0cbd0a42425e28237b1b59eac9aad1f",
    ),
    "duplicates-n90-d2": (
        lambda: _duplicates(90, 2),
        "a1795ad8130e996d24a3c4ac37a9fe09ef78e10ba23714252a91000a165169a1",
    ),
    "matrix-n30": (
        lambda: _matrix(30),
        "efb38cb7bc0f82aee4b2c384f9c557ca8db76884508f10303846e5d860fb5d17",
    ),
}

BARCODE_SHA = "0c69192c9460dbdb684a55d86dfec77e75e268f9f526164b36e85e8ca7466554"


@pytest.mark.parametrize("name", sorted(PEEL_CASES))
def test_peel_trace_matches_golden_hash(name):
    make, want = PEEL_CASES[name]
    assert _sha(rooted.peel_all(make()).to_json()) == want


def test_elder_barcode_matches_golden_hash():
    rng = np.random.default_rng(400)
    space = AugmentedMetricSpace(points=rng.random((400, 2)), density=np.zeros(400))
    merges = pset.LeveledMergeForest(space).merge_events(0)
    bars = rooted.elder_barcode_1d([0.0] * 400, merges)
    assert _sha(rooted.barcode_csv(bars)) == BARCODE_SHA
