"""Golden differential test: peel traces, an elder barcode, staircodes and the
exact oracle's modules, idempotents, splits and ``oracle-check`` output pinned
by hash.

The hashes were taken from the code before its duplicate code paths were
merged, so any rewrite must reproduce those outputs byte for byte.
The peel traces leave KDE inputs out, as their float sums make the hashes
fragile; the staircode pin needs an injective density and takes KDE's.
"""

import hashlib

import numpy as np
import pytest

from rootpeel import cli, linalg, pset, rooted
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


# -- exact oracle ----------------------------------------------------------------
# Small spaces (n = 2..8) replayed through the oracle: the linearized module,
# the idempotent and the split dimensions at every non-bottom record, factor
# modules on every third record, and the bottom split of the final view with
# the residual's endomorphism count and indecomposability verdict.

ORACLE_BUDGET = 100000


def _oracle_space(seed):
    rng = np.random.default_rng(1000 + seed)
    n = 2 + seed % 7
    kind = ("random", "ties", "duplicates")[seed % 3]
    pts = rng.random((n, 2))
    if kind == "duplicates":
        k = max(1, n // 3)
        pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
    dens = rng.random(n) if kind == "random" else rng.integers(0, max(2, n // 2), n).astype(float)
    return AugmentedMetricSpace(points=pts, density=dens)


def _line4():
    return AugmentedMetricSpace(points=[[0.0], [7.5], [3.0], [5.0]], density=[0, 1, 2, 3])


def _mat_text(m):
    return repr([[str(v) for v in row] for row in m.tolist()])


def _oracle_digest(space):
    fo = pset.LeveledMergeForest(space)
    trace = rooted.peel_all(space, forest=fo)
    view = pset.fresh_view(fo)
    out = []
    for k, rec in enumerate(trace.records[:-1]):
        module = linalg.linearize(view, dim_budget=ORACLE_BUDGET)
        phi = linalg.idempotent_from_peel(view, rec.generator, rec.root, module=module,
                                          dim_budget=ORACLE_BUDGET)
        out.append(module.to_json())
        out += [_mat_text(phi.mats[g]) for g in module.grades()]
        da, db = linalg.split_dims(module, phi)
        out.append(repr((sorted(da.items()), sorted(db.items()))))
        if k % 3 == 0:
            out += [f.to_json() for f in linalg.split(module, phi)]
        view = view.restrict(rec.generator, rec.root)
    module = linalg.linearize(view, dim_budget=ORACLE_BUDGET)
    psi = linalg.bottom_idempotent(view, module=module, dim_budget=ORACLE_BUDGET)
    out += [_mat_text(psi.mats[g]) for g in module.grades()]
    resid, bottom = linalg.split(module, psi)
    out += [resid.to_json(), bottom.to_json()]
    out.append(repr(len(linalg.endomorphism_space(resid, dim_budget=ORACLE_BUDGET))))
    out.append(repr(linalg.is_indecomposable(resid, dim_budget=ORACLE_BUDGET)))
    return "\n".join(out)


ORACLE_SEED_SHA = [
    "ab9483c2894124e897eaeb7e2da62c1b33f11ffe5614403750c9ea16c6144d85",
    "c78ebe992d9238e78d9da58d447158208cd58dd5f0f306870aee408a8ef9c552",
    "a7bc363c4155c19fb091db4567d059460aa2814178fdc7576899af348e169218",
    "a53538469e9513763407a82aa09d09da987396bec3e66012712cad64850cae74",
    "feb9d29dea8a436126ac1bc93a8b0329bc4ab21b5329eb54726e307dec264911",
    "0087cf25b812793550b956dde8e252c9f8f8d98a17c324fe832b4240b8ae9378",
    "aed9613f20e80ea8a4dac3bc46e89ceaa67edd9700b57e12ae962783b113fad9",
    "3a3187c3f2028df427f79e7b742eaf0d74bf677660c77a26ef2787e35c0e1dd1",
    "d2baf7bad897ea1cd43781e7e769567e38721b5cc005aa88bd80912bcc5e3daf",
    "3112b2cbfaddc8c5cb6a2dfdfb773a5519c3caf36037cfa2353b9eb38af6cbd2",
    "9154cb2a8996faed7e9e78371fba8ba01f9524c87ad527b2d9ae644d77041ea1",
    "081b8ac0054f003511a3e77781543ca7409c83db039882fe498592a87cb6bd68",
    "51dee2b5f419fb65eec6641f2ea7589dfeb48bdb9451dfae0737ad3ed2109d51",
    "74c4a155a2ac4761f49a9230122d15b9f260275b3e065157172f4ed5222513d2",
    "25e4b29011ab7df3e6f7eaa530b949dd668165c13c3a627c1c0d0d2a364312f4",
    "8897d61306d1a8590b646f2ffd837df325d92f45020439d2e6934c51a1d5a2d1",
    "511bacd37e410fd8b8e6ff4535a6bfaa29e9836e908d343ac3948a02fe90d3d0",
    "7c7e7f7ccf8404eeec32e51b9ca65378b046278992d3afac954b504ce8df0d5a",
    "c760d87fae8b13b677aee3303b47203beb21c82f5488352c0503fb1fc7c64cd5",
    "d37126400e57e50e4b67c0f04d3dc680ae86d34fc730f343acd8a55ef208f68e",
    "6505e99df1b43dce9b59e2de3fd6a6b49ae5894f7bb23676525d73772df4d88d",
    "672588162845d8f18cb14ef685141f9ac24f537987c3e60f1a25e57389d50658",
    "b40cab52c85ed3058f43ac1a1dca4a179196f4553233ecbf4d1bc05fbb2439be",
    "10653582756feb6f4ab71d6560ce9220162cd72544afb110256b4048890ff3ff",
    "1d8bf5216f9a8da013e816a2eafe80250ad1eec1b973ca3fb8f91468807ee7aa",
    "10f24ece10ade7d2b823feb0b3627a589cf4c0d31722e2e83726b348cd5b60b5",
    "6dd51cf25a1f2b287294b6f7281e785efa45a74afda6caaf8f264f9b13e7cf60",
    "0fad88db8520af6fba0c9de50fcdea5cc897c740a33a733a42b40e6b257144fb",
    "1ed0ec76b571430b47a013a6a586c9812274caee6770c1da78d234ef7e1c880e",
    "c7f1119f50cc1ef8a3a3b2f63471bfc4fe5a68d8beede2a7eb871306d72ec26a",
    "0336be07c0d32377b33d989ab6d33152871748981fd7eb020f7e58f5935fa4d6",
    "97c25efa93d6d0bffdbd83467aea7d907f17b7510266f10000303e12dc58b170",
    "ac1454fbee04f1e385e8c0b0f7fcf04db7aa8d225ca01e5ed505b4bfb72b6a5b",
    "c3ab0a052365d9e3574dbc7c134ff50d0059e0ab1b26c1de2acb5ff3433e1d31",
    "9dcb1b9c755c62c59808134219c6da07480ede1dd89a82f8838762c93008f70e",
    "d2aa7316238d5dc01593e2abec937a9e05adc4497cc3aa84c623fcd104a03cfb",
]

ORACLE_LINE4_SHA = "edcc99d039ec03c743a8ca5c51e007a5b6b8e19edd31c69ee9807ccbcb7d2476"

ORACLE_CLI_SHA = "399cf64511a3ac35f2255b7c7b102aab1f9e31c24bdb99274b5e7b029a831d3d"


@pytest.mark.parametrize("seed", range(len(ORACLE_SEED_SHA)))
def test_oracle_matches_golden_hash(seed):
    assert _sha(_oracle_digest(_oracle_space(seed))) == ORACLE_SEED_SHA[seed]


def test_oracle_on_line4_matches_golden_hash():
    assert _sha(_oracle_digest(_line4())) == ORACLE_LINE4_SHA


def test_oracle_check_stdout_matches_golden_hash(tmp_path, capsys):
    out = []
    for k in range(8):
        rng = np.random.default_rng(500 + k)
        pts, dens = rng.random((8, 2)), rng.random(8)
        src, trace = tmp_path / f"space{k}.csv", tmp_path / f"trace{k}.json"
        rows = ["x0,x1,f"] + [f"{p[0]!r},{p[1]!r},{f!r}" for p, f in zip(pts.tolist(), dens.tolist())]
        src.write_text("\n".join(rows) + "\n")
        assert cli.main(["peel", "--input", str(src), "--density-column", "f",
                         "--output", str(trace)]) == 0
        capsys.readouterr()
        assert cli.main(["oracle-check", str(trace), "--input", str(src),
                         "--density-column", "f"]) == 0
        out.append(capsys.readouterr().out)
    assert _sha("".join(out)) == ORACLE_CLI_SHA


# -- staircodes ------------------------------------------------------------------
# ``staircode --format json`` on a KDE input (an injective density), for all
# points and for one ``--x`` query; pinned before its JSON writer was shared
# with the peel trace's.

STAIRCODE_SHA = "07e076b165bdc0fd723b21bddfb386eb38043fe5738105e6bd265468fbc4f2d7"


def test_staircode_json_matches_golden_hash(tmp_path, capsys):
    rng = np.random.default_rng(200)
    pts = rng.random((3, 2))[rng.integers(0, 3, 200)] + rng.normal(0.0, 0.05, (200, 2))
    src = tmp_path / "points.csv"
    src.write_text("x0,x1\n" + "".join(f"{a!r},{b!r}\n" for a, b in pts.tolist()))
    out = []
    for extra in ([], ["--x", "17"]):
        assert cli.main(["staircode", "--input", str(src), "--density-mode", "kde",
                         "--format", "json", *extra]) == 0
        out.append(capsys.readouterr().out)
    assert _sha("".join(out)) == STAIRCODE_SHA
