import os
from pathlib import Path

import numpy as np
import pytest

import rootpeel
from rootpeel.space import AugmentedMetricSpace


def cli_env(**extra):
    """Environment for CLI subprocesses that import the ``rootpeel`` under
    test, also when it reached this process through pytest's ``pythonpath``."""
    src = str(Path(rootpeel.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture
def line4():
    """Four points on a line whose density equals the point index; the smallest
    space where a constant conqueror exists without a rooted generator."""
    return AugmentedMetricSpace(points=[[0.0], [7.5], [3.0], [5.0]], density=[0, 1, 2, 3])


def random_space(rng, n=None, d=None, mode="random", duplicates=False, collinear=False):
    """Seeded space generator shared by the property tests."""
    n = int(rng.integers(2, 9)) if n is None else n
    d = int(rng.integers(1, 4)) if d is None else d
    if collinear:
        pts = np.sort(rng.random(n))[:, None] * 10
    else:
        pts = rng.random((n, d))
    if duplicates and n >= 2:
        k = int(rng.integers(1, max(2, n // 2)))
        pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
    if mode == "random":
        dens = rng.random(n)
    elif mode == "constant":
        dens = np.zeros(n)
    elif mode == "ties":
        dens = rng.integers(0, max(2, n // 2), n).astype(float)
    else:
        raise ValueError(mode)
    return AugmentedMetricSpace(points=pts, density=dens)


def eps_grid(fo):
    """The oracle's scales for a forest: every distinct pairwise distance."""
    return np.unique(fo.space.distance_matrix())


def bfs_components(dist, active, eps):
    """Brute-force connected components of the geometric graph at scale eps
    over the active index set; the independent clustering oracle."""
    active = list(active)
    comp = {}
    seen = set()
    for start in active:
        if start in seen:
            continue
        stack = [start]
        members = set()
        while stack:
            v = stack.pop()
            if v in members:
                continue
            members.add(v)
            for w in active:
                if w not in members and dist[v, w] <= eps:
                    stack.append(w)
        for v in members:
            comp[v] = frozenset(members)
        seen |= members
    return comp


def elder_oracle(births, merges):
    """Independent union-find elder rule: on every merge the cluster with the
    younger (birth, index) elder dies at that scale."""
    import math

    n = len(births)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    elder = {i: (births[i], i) for i in range(n)}
    bars = []
    for scale, i, j in merges:
        a, b = find(i), find(j)
        if a == b:
            continue
        ea, eb = elder[a], elder[b]
        if ea <= eb:
            bars.append((eb[0], float(scale)))
            parent[b] = a
            elder[a] = ea
        else:
            bars.append((ea[0], float(scale)))
            parent[a] = b
            elder[b] = eb
    roots = {find(i) for i in range(n)}
    for r in roots:
        bars.append((elder[r][0], math.inf))
    return sorted(bars)


def random_one_param(rng, max_n=50):
    """Random one-parameter persistent set: births plus a nondecreasing merge list."""
    n = int(rng.integers(1, max_n + 1))
    births = np.round(rng.random(n) * 4, 2).tolist()
    k = int(rng.integers(0, n))
    merges = []
    floor = 0.0
    for _ in range(k):
        i, j = rng.integers(0, n, 2)
        if i == j:
            continue
        scale = max(floor, births[int(i)], births[int(j)]) + float(rng.random())
        merges.append((scale, int(i), int(j)))
        floor = scale
    return births, merges
