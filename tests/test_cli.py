import ast
import functools
import importlib
import json
import math
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootpeel
from conftest import cli_env
from rootpeel import cli, linalg, pset, rooted
from rootpeel.space import AugmentedMetricSpace, load_points

CLI = [sys.executable, "-m", "rootpeel.cli"]


def run_cli(args, cwd=None):
    return subprocess.run(CLI + args, capture_output=True, cwd=cwd, env=cli_env(ROOTPEEL_THREADS="1"))


@pytest.fixture
def ex4(tmp_path):
    path = tmp_path / "line4.csv"
    path.write_text("x,f\n0,0\n7.5,1\n3,2\n5,3\n")
    return str(path)


class TestPeel:
    def test_summary_line_and_trace(self, ex4, tmp_path):
        out = tmp_path / "trace.json"
        r = run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        assert r.returncode == 0
        assert r.stdout.decode().strip() == "peeled 2 of 4 generators"
        data = json.loads(out.read_text())
        assert [rec["generator"] for rec in data["records"]] == [3, 0]

    def test_trace_to_stdout(self, ex4):
        r = run_cli(["peel", "--input", ex4, "--density-column", "f"])
        assert r.returncode == 0
        text = r.stdout.decode()
        assert text.rstrip().endswith("peeled 2 of 4 generators")
        body = text[: text.rindex("peeled")]
        assert json.loads(body)["n"] == 4

    def test_empty_input_is_a_data_error(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        r = run_cli(["peel", "--input", str(p), "--density-mode", "random"])
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error: empty input")

    def test_missing_density_is_a_data_error(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0\n1\n")
        r = run_cli(["peel", "--input", str(p)])
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error:")

    def test_unknown_flag_is_a_usage_error(self, ex4):
        r = run_cli(["peel", "--input", ex4, "--nope"])
        assert r.returncode == 1
        assert r.stderr.decode().startswith("error:")

    def test_format_is_a_usage_error(self, ex4):
        # the trace is always JSON; an ignored --format would pass for csv
        r = run_cli(["peel", "--input", ex4, "--density-column", "f", "--format", "csv"])
        assert r.returncode == 1
        assert r.stderr.decode().startswith("error:")

    def test_explicit_densities(self, tmp_path):
        p = tmp_path / "pts.csv"
        p.write_text("0\n7.5\n3\n5\n")
        r = run_cli(["peel", "--input", str(p), "--density-mode", "explicit",
                     "--densities", "0,1,2,3"])
        assert r.returncode == 0
        assert b"peeled 2 of 4" in r.stdout

    def test_unwritable_output_is_a_data_error(self, ex4, tmp_path):
        out = tmp_path / "missing" / "t.json"
        r = run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        assert r.returncode == 2
        assert r.stderr.decode().startswith(f"error: cannot write {out}:")
        assert b"Traceback" not in r.stderr

    def test_density_column_by_index(self, tmp_path, capsys):
        rows = "0,0,0\n7.5,1,1\n3,2,2\n5,0,3\n"
        headed, bare = tmp_path / "headed.csv", tmp_path / "bare.csv"
        headed.write_text("x,y,f\n" + rows)
        bare.write_text(rows)
        outs = []
        for path, column in ((headed, "f"), (bare, "2")):
            trace = tmp_path / f"{path.stem}.json"
            assert cli.main(["peel", "--input", str(path), "--density-column", column,
                             "--output", str(trace)]) == 0
            outs.append((capsys.readouterr().out, trace.read_text()))
        assert outs[0] == outs[1]
        assert cli.main(["peel", "--input", str(bare), "--density-column", "3"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_matrix_input(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#matrix 3\n0,1,4\n1,0,2\n4,2,0\n")
        r = run_cli(["peel", "--input", str(p), "--density-mode", "explicit",
                     "--densities", "0,1,2"])
        assert r.returncode == 0


class TestOracleCheck:
    def test_round_trip(self, ex4, tmp_path):
        out = tmp_path / "t.json"
        assert run_cli(["peel", "--input", ex4, "--density-column", "f",
                        "--output", str(out)]).returncode == 0
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 0
        lines = r.stdout.decode().strip().split("\n")
        assert lines == [
            "PASS record 0: generator 3 (neighborly)",
            "PASS record 1: generator 0 (bottom)",
        ]

    def test_tampered_trace_fails(self, ex4, tmp_path):
        out = tmp_path / "t.json"
        run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["records"][0]["generator"] = 1
        doc["records"][0]["root"] = 0
        out.write_text(json.dumps(doc))
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert b"FAIL record 0" in r.stdout

    @pytest.mark.parametrize("tamper", [
        lambda doc: doc["records"][0].pop("support"),
        lambda doc: doc["records"][0].update(generator=99),
        lambda doc: doc["records"][0].update(generator="x"),
        lambda doc: doc.update(records=5),
        lambda doc: doc["records"][0].update(root=99),
        lambda doc: doc.update(n=5),
        lambda doc: json.dumps(doc)[:150].encode(),
    ], ids=["missing-support", "generator-99", "generator-string", "records-int",
            "root-99", "wrong-n", "truncated"])
    def test_malformed_trace_is_a_data_error(self, ex4, tmp_path, tamper):
        out = tmp_path / "t.json"
        run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        doc = json.loads(out.read_text())
        text = tamper(doc)  # a tamper returns bytes to replace the document's text
        truncated = isinstance(text, bytes)
        out.write_bytes(text if truncated else json.dumps(doc).encode())
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error: trace is not JSON: " if truncated else "error:")
        assert b"Traceback" not in r.stderr

    def test_record_without_root_fails(self, ex4, tmp_path):
        out = tmp_path / "t.json"
        run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        doc = json.loads(out.read_text())
        del doc["records"][0]["root"]
        out.write_text(json.dumps(doc))
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert r.stdout.decode().strip() == "FAIL record 0: generator 3 (neighborly) - missing root"
        assert b"Traceback" not in r.stderr

    def test_deeply_nested_trace_is_a_data_error(self, ex4, tmp_path):
        out = tmp_path / "t.json"
        out.write_text("[" * 10000 + "]" * 10000)
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error:")
        assert b"Traceback" not in r.stderr

    def test_second_bottom_record_fails(self, ex4, tmp_path):
        out = tmp_path / "t.json"
        run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["records"].append(dict(doc["records"][-1]))
        out.write_text(json.dumps(doc))
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert r.stdout.decode().strip().split("\n") == [
            "PASS record 0: generator 3 (neighborly)",
            "PASS record 1: generator 0 (bottom)",
            "FAIL record 2: generator 0 (bottom) - trace has more than one bottom record",
        ]

    @pytest.mark.parametrize("k, flag", [(0, True), (1, "maybe")],
                             ids=["true-on-nonempty-support", "maybe-on-bottom"])
    def test_tampered_zero_flag_fails(self, ex4, tmp_path, k, flag):
        out = tmp_path / "t.json"
        run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        doc = json.loads(out.read_text())
        doc["records"][k]["zero_interval"] = flag
        out.write_text(json.dumps(doc))
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr.decode().startswith(f"error: trace record {k}: zero_interval")
        assert b"Traceback" not in r.stderr

    def test_large_inputs_rejected(self, tmp_path):
        pts = tmp_path / "nine.csv"
        pts.write_text("\n".join(str(i) for i in range(9)))
        trace = tmp_path / "t.json"
        run_cli(["peel", "--input", str(pts), "--density-mode", "random",
                 "--output", str(trace)])
        r = run_cli(["oracle-check", str(trace), "--input", str(pts),
                     "--density-mode", "random"])
        assert r.returncode == 2
        assert b"desk-scale" in r.stderr

    def test_random_small_spaces_round_trip(self, tmp_path):
        rng_rows = [
            "0.71,0.02", "0.13,0.88", "0.56,0.41", "0.90,0.95", "0.33,0.20", "0.05,0.61",
        ]
        pts = tmp_path / "six.csv"
        pts.write_text("\n".join(rng_rows))
        trace = tmp_path / "t.json"
        assert run_cli(["peel", "--input", str(pts), "--density-mode", "random",
                        "--seed", "3", "--output", str(trace)]).returncode == 0
        r = run_cli(["oracle-check", str(trace), "--input", str(pts),
                     "--density-mode", "random", "--seed", "3"])
        assert r.returncode == 0, r.stdout + r.stderr


# A 7-point trace with four neighborly records, two general-rooted ones and the bottom record.
SEVEN = "x,f\n6.4,3\n2.7,2\n0.4,0\n0.2,1\n8.1,4\n9.1,6\n6.1,5\n"


def _at(k, change):
    """Tampering that replaces record k by the records ``change`` makes of it."""
    return lambda recs: recs[:k] + change(recs[k]) + recs[k + 1:]


def _theta_99(r):
    birth = r.support.birth_sigma
    return [replace(r, support=rooted.IntervalSupport(birth, ((birth, 99.0),)))]


TAMPERINGS = {
    "untouched": lambda recs: recs,
    "support-theta": _at(4, _theta_99),
    "bottom-generator": _at(6, lambda r: [replace(r, generator=1)]),
    "missing-root": _at(1, lambda r: [replace(r, root=None)]),
    "unrooted-pair": _at(5, lambda r: [replace(r, generator=r.root, root=r.generator)]),
    "second-bottom": _at(6, lambda r: [r, r]),
    "bottom-root": _at(6, lambda r: [replace(r, root=3)]),
    "bottom-first": lambda recs: recs[-1:] + recs[:-1],
}


@pytest.mark.parametrize("tamper", TAMPERINGS.values(), ids=TAMPERINGS.keys())
def test_replay_raises_where_oracle_check_fails(tmp_path, capsys, tamper):
    # the same records, written as a trace for oracle-check and replayed as they are
    src = tmp_path / "seven.csv"
    src.write_text(SEVEN)
    space = load_points(SEVEN, density_column="f")
    fo = pset.LeveledMergeForest(space)
    records = tamper(rooted.peel_all(space, fo).records)
    trace = tmp_path / "t.json"
    trace.write_text(rooted.PeelTrace(records, pset.fresh_view(fo), space.n).to_json())
    code = cli.main(["oracle-check", str(trace), "--input", str(src), "--density-column", "f"])
    lines = capsys.readouterr().out.splitlines()
    try:
        rooted.replay(records, fo)
        raised = None
    except pset.QueryError as e:
        raised = f"FAIL {e}"
    assert (code, lines[-1] if code else None) == ((2, raised) if raised else (0, None))
    assert (raised is None) == (tamper is TAMPERINGS["untouched"])


@st.composite
def small_tables(draw):
    """(table text, extra argv, space) for at most 8 points: random, tied or
    duplicate-point densities in a density column, or a ``#matrix`` input
    of rounded distances with explicit tied densities. Every number is
    written with repr, so the CLI parses the space the test builds."""
    n = draw(st.integers(2, 8))
    kind = draw(st.sampled_from(["random", "ties", "duplicates", "matrix"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.random((n, 2))
    dens = rng.random(n) if kind == "random" else rng.integers(0, 3, n).astype(float)
    if kind == "duplicates":
        k = int(rng.integers(1, n))
        pts[rng.integers(0, n, k)] = pts[rng.integers(0, n, k)]
    if kind == "matrix":
        dist = np.round(AugmentedMetricSpace(points=pts).distance_matrix() * 8)
        table = f"#matrix {n}\n" + "".join(",".join(map(repr, row)) + "\n" for row in dist.tolist())
        argv = ["--density-mode", "explicit", "--densities", ",".join(map(repr, dens.tolist()))]
        return table, argv, AugmentedMetricSpace(dist=dist, density=dens)
    table = "x,y,f\n" + "".join(f"{x!r},{y!r},{f!r}\n" for (x, y), f in zip(pts.tolist(), dens.tolist()))
    return table, ["--density-column", "f"], load_points(table, density_column="f")


def tampered(draw, records, n, distances):
    """The records with one drawn tampering: two swapped; one given another
    survivor as its root; one theta moved to another pairwise distance that
    keeps the thresholds nonincreasing; or one dropped, repeated or moved."""
    k = len(records)
    roots = [(i, p) for i, r in enumerate(records) for p in range(n)
             if p not in (r.generator, r.root) and p not in {q.generator for q in records[:i]}]
    thetas = []
    for i, r in enumerate(records):
        runs = r.support.breaks
        for t, (_, theta) in enumerate(runs):
            hi = runs[t - 1][1] if t else math.inf
            lo = runs[t + 1][1] if t + 1 < len(runs) else 0.0
            thetas += [(i, t, d) for d in distances if lo <= d <= hi and d != theta]
    kinds = ["swap", "drop", "repeat", "move"] + ["root"] * bool(roots) + ["theta"] * bool(thetas)
    kind = draw(st.sampled_from(kinds))
    recs = list(records)
    if kind == "root":
        i, p = draw(st.sampled_from(roots))
        recs[i] = replace(recs[i], root=p)
    elif kind == "theta":
        i, t, d = draw(st.sampled_from(thetas))
        runs = list(recs[i].support.breaks)
        runs[t] = (runs[t][0], d)
        recs[i] = replace(recs[i], support=rooted.IntervalSupport(recs[i].support.birth_sigma, tuple(runs)))
    else:
        i = draw(st.integers(0, k - 1))
        j = draw(st.integers(0, k - 1).filter(lambda j: j != i))
        if kind == "swap":
            recs[i], recs[j] = recs[j], recs[i]
        elif kind == "drop":
            del recs[i]
        elif kind == "repeat":
            recs.insert(i, recs[i])
        else:
            recs.insert(j, recs.pop(i))
    return kind, recs


def test_replay_and_oracle_check_agree_on_tampered_traces(tmp_path_factory, capsys):
    # oracle-check fails the first record that replay rejects, with the same
    # message, and its exact check fails no record that replay accepted
    tmp = tmp_path_factory.mktemp("agreement")
    kinds = []

    @settings(max_examples=150, deadline=None)
    @given(table=small_tables(), data=st.data())
    def agree(table, data):
        text, argv, space = table
        fo = pset.LeveledMergeForest(space)
        distances = sorted(set(space.distance_matrix()[np.triu_indices(space.n, 1)].tolist()))
        kind, records = tampered(data.draw, rooted.peel_all(space, fo).records, space.n, distances)
        kinds.append(kind)
        doc = rooted.PeelTrace(records, pset.fresh_view(fo), space.n).to_json()
        (tmp / "in.csv").write_text(text)
        (tmp / "t.json").write_text(doc)
        capsys.readouterr()
        code = cli.main(["oracle-check", str(tmp / "t.json"), "--input", str(tmp / "in.csv"), *argv])
        out, err = capsys.readouterr()
        try:
            read = rooted.trace_records_from_json(doc, fo)
        except ValueError as e:  # a dropped bottom record
            assert (code, out, err) == (2, "", f"error: {e}\n")
            return
        try:
            rooted.replay(read, fo)
            raised = None
        except pset.QueryError as e:
            raised = f"FAIL {e}"
        lines = out.splitlines()
        assert all(line.startswith("PASS ") for line in lines[:-1]), (kind, lines)
        if raised:
            assert (code, lines[-1], err) == (2, raised, ""), kind
        else:
            assert (code, err) == (0, "") and len(lines) == len(records), (kind, lines)

    agree()
    assert len(set(kinds)) == 6, kinds


def test_trace_without_a_bottom_record_is_a_data_error(tmp_path, capsys):
    # replay applies a prefix of a trace; a trace document must hold its bottom record
    src = tmp_path / "seven.csv"
    src.write_text(SEVEN)
    space = load_points(SEVEN, density_column="f")
    fo = pset.LeveledMergeForest(space)
    records = rooted.peel_all(space, fo).records[:-1]
    trace = tmp_path / "t.json"
    trace.write_text(rooted.PeelTrace(records, pset.fresh_view(fo), space.n).to_json())
    assert cli.main(["oracle-check", str(trace), "--input", str(src), "--density-column", "f"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: trace has no bottom record\n")
    assert space.n - len(rooted.replay(records, fo).survivors()) == len(records)


def _first_pair(k, i, value):
    """Tampering that sets entry i (0 sigma, 1 theta) of record k's first support pair."""
    return k, lambda doc: doc["records"][k]["support"][0].__setitem__(i, value)


# the line4 trace: record 0 peels 3 toward 2 with support [[3.0, 2.0]], the
# bottom record 1 has support [[0.0, null], [1.0, null], [2.0, null], [3.0, null]]
READER_REJECTIONS = {
    "level-skipped": (1, lambda doc: doc["records"][1]["support"].pop(1)),
    "nan-theta": _first_pair(0, 1, math.nan),
    "infinity-theta": _first_pair(0, 1, math.inf),
    "400-digit-sigma": _first_pair(0, 0, 10**400),
    "400-digit-theta": _first_pair(0, 1, 10**400),
    "increasing-theta": _first_pair(1, 1, 1.0),
    "empty-support": (0, lambda doc: doc["records"][0].update(support=[])),
    "zero-flag-on-nonempty-support": (0, lambda doc: doc["records"][0].update(zero_interval=True)),
    "zero-flag-maybe": (1, lambda doc: doc["records"][1].update(zero_interval="maybe")),
}


@pytest.mark.parametrize("k, tamper", READER_REJECTIONS.values(), ids=READER_REJECTIONS.keys())
def test_trace_reader_rejects_what_the_writer_cannot_write(ex4, tmp_path, capsys, k, tamper):
    # data errors naming the record, before any record is replayed; float()
    # of a 400-digit integer raises OverflowError, which must not escape
    fo = pset.LeveledMergeForest(load_points(Path(ex4).read_text(), density_column="f"))
    doc = json.loads(rooted.peel_all(fo.space, fo).to_json())
    tamper(doc)
    trace = tmp_path / "t.json"
    trace.write_text(json.dumps(doc))
    assert cli.main(["oracle-check", str(trace), "--input", ex4, "--density-column", "f"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: trace record {k}: ") and err.count("\n") == 1


def test_oracle_check_certifies_the_bottom_record(ex4, tmp_path, monkeypatch, capsys):
    # a bottom support ending at a finite scale passes every replay check, since
    # peel writes what replay recomputes, but not the exact check of its image
    monkeypatch.setattr(rooted, "_BOTTOM_RUNS", ((0, 2.0),))
    trace = tmp_path / "t.json"
    args = ["--input", ex4, "--density-column", "f"]
    assert cli.main(["peel", *args, "--output", str(trace)]) == 0
    capsys.readouterr()
    assert cli.main(["oracle-check", str(trace), *args]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "PASS record 0: generator 3 (neighborly)",
        "FAIL record 1: generator 0 (bottom) - bottom dimension 1 at grade (2.0, 0.0) contradicts the support",
    ]


def test_oracle_check_takes_rootedness_from_the_replay(tmp_path, capsys):
    # 2 duplicates 1, so its class is 1's until 2 is peeled: sending it to 0
    # instead gives a natural idempotent whose split the exact check passes,
    # and only the replay's root scan finds that 0 does not root 2
    src = tmp_path / "dup.csv"
    src.write_text("x,f\n0,0\n1,1\n1,2\n5,3\n")
    args = ["--input", str(src), "--density-column", "f"]
    trace = tmp_path / "t.json"
    assert cli.main(["peel", *args, "--output", str(trace)]) == 0
    fo = pset.LeveledMergeForest(load_points(src.read_text(), density_column="f"))
    records = rooted.trace_records_from_json(trace.read_text(), fo)
    assert [(r.generator, r.root, r.reason, r.zero_interval) for r in records] == [
        (2, 1, "neighborly", True), (3, 1, "neighborly", False),
        (1, 0, "general-rooted", False), (0, None, "bottom", False)]
    doc = json.loads(trace.read_text())
    doc["records"][0]["root"] = 0
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["oracle-check", str(trace), *args]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "FAIL record 0: generator 2 (neighborly) - pair fails the rootedness criterion"]
    view = pset.fresh_view(fo)  # peeling 2 toward 1 leaves the same view
    why, _ = linalg.check_peel_split(linalg.linearize(view), view.restrict(2, 1), 2, 0,
                                     records[0].support)
    assert why == ""


def test_names_the_benchmark_tracer_patches_exist():
    # perfbench/traced.py wraps layer functions by name; read its install()
    # without importing it and look each (owner, "name") up in rootpeel
    path = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
    install = next(node for node in ast.parse(path.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    modules = {a.name: importlib.import_module(f"{node.module}.{a.name}") for node in ast.walk(install)
               if isinstance(node, ast.ImportFrom) for a in node.names}
    patched = [(ast.unparse(node.elts[0]), node.elts[1].value) for node in ast.walk(install)
               if isinstance(node, ast.Tuple) and len(node.elts) == 3
               and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)]
    assert len(patched) >= 10 and set(modules) >= {"cli", "linalg", "pset", "rooted"}
    for owner, name in patched:
        head, *rest = owner.split(".")
        obj = functools.reduce(getattr, rest, modules[head])
        assert callable(getattr(obj, name, None)), f"{owner}.{name}"


def test_cli_reads_no_private_name_of_another_module():
    # record checks live in rooted and linalg; the CLI only uses their public names
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = [(node.lineno, node.attr) for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    names += [(node.lineno, a.name) for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for a in node.names]
    assert [(line, name) for line, name in names
            if name.startswith("_") and not name.endswith("__")] == []


# functions that nothing under src/ calls and no document names, kept for a reason
KEPT_UNCALLED = {
    "PeelView.restrict": "the checked peel step that the oracle tests drive",
    "PeelView.survivors": "a view's surviving points, what a peel leaves for the tests to read",
    "_Parser.error": "an argparse override, called by argparse",
}


def test_src_defines_only_what_it_calls_or_documents():
    # every function or method under src/ has a caller there, is exported,
    # is named in README's code, or is wrapped by the benchmark tracer
    root = Path(__file__).resolve().parents[1]
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "rootpeel").glob("*.py"))]
    refs = [node for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    readme = (root / "README.md").read_text(encoding="utf-8")
    # the python tour by the names its code reads, not the words of its comments
    tour = [node for block in re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
            for node in ast.walk(ast.parse(block))]
    documented = ({node.id for node in tour if isinstance(node, ast.Name)}
                  | {node.attr for node in tour if isinstance(node, ast.Attribute)}
                  | {part for node in tour if isinstance(node, ast.alias) for part in node.name.split(".")}
                  | {word for span in re.findall(r"`([^`\n]+)`", readme) for word in re.findall(r"\w+", span)})
    install = next(node for node in ast.parse((root / "perfbench" / "traced.py").read_text(encoding="utf-8")).body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    patched = {node.elts[1].value for node in ast.walk(install)
               if isinstance(node, ast.Tuple) and len(node.elts) == 3
               and isinstance(node.elts[1], ast.Constant) and isinstance(node.elts[1].value, str)}

    def defs(body, owner=""):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from defs(node.body, f"{node.name}.")
            elif isinstance(node, ast.FunctionDef):
                yield f"{owner}{node.name}", node
                yield from defs(node.body, f"{owner}{node.name}.")

    uncalled = []
    for tree in trees:
        for qualname, node in defs(tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = {id(n) for n in ast.walk(node)}
            called = any(id(r) not in inside and name == (r.id if isinstance(r, ast.Name) else r.attr)
                         for r in refs)
            if not (called or name in rootpeel.__all__ or name in documented or name in patched
                    or qualname in KEPT_UNCALLED):
                uncalled.append(qualname)
    assert not uncalled, f"no caller under src/, not exported, documented or traced: {uncalled}"


def test_only_the_trace_reader_names_the_record_fields():
    # the trace's JSON layout is known to its writer (f-strings, no such
    # constants) and its reader; replay and oracle-check take PeelRecords
    keys = {"generator", "root", "reason", "support", "zero_interval"}
    found = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reader = [top for top in tree.body if isinstance(top, ast.FunctionDef)
                  and (path.name, top.name) == ("rooted.py", "trace_records_from_json")]
        skip = {id(node) for top in reader for node in ast.walk(top)}
        found += [(path.name, node.lineno, node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in keys and id(node) not in skip]
    assert found == []


def test_no_module_makes_a_distance_matrix():
    # README: every layer reads rows from the coordinates, and the exact
    # oracle's grade grid is the critical scales, read off the chains
    src = Path(cli.__file__).parent
    reads = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "distance_matrix"]
    assert reads == []


def test_no_module_goes_from_a_chain_to_merges_and_back():
    # barcode reads its bars off the flat peel; merge_events and
    # elder_barcode_1d are public API that nothing under src/ runs
    src = Path(cli.__file__).parent
    uses = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Attribute) and node.attr in ("merge_events", "elder_barcode_1d")
            or isinstance(node, ast.Name) and node.id == "elder_barcode_1d"]
    assert uses == []
    # the build reads level 0's chain off Prim's visiting order; only the
    # elder barcode, whose input is merges, makes a chain of merges
    callers = [(path.name, getattr(top, "name", None)) for path in sorted(src.glob("*.py"))
               for top in ast.parse(path.read_text(encoding="utf-8")).body for node in ast.walk(top)
               if isinstance(node, ast.Call)
               and "chain_of_merges" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert callers == [("rooted.py", "elder_barcode_1d")]


def test_only_pset_reads_a_chain():
    # ChainLevels answers every question its chains do, critical_scales too
    src = Path(cli.__file__).parent
    reads = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in ("chain", "_chains")]
    assert [name for name, _ in reads if name != "pset.py"] == []


def test_only_rooted_support_builds_a_support():
    # every support is built from its (level, theta) runs, so its sigmas are
    # the forest's density levels, the doubles the trace prints
    src = Path(cli.__file__).parent
    calls = [(path.name, getattr(top, "name", None)) for path in sorted(src.glob("*.py"))
             for top in ast.parse(path.read_text(encoding="utf-8")).body for node in ast.walk(top)
             if isinstance(node, ast.Call)
             and "IntervalSupport" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == [("rooted.py", "_support")]


def _rows(pts) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in np.asarray(pts, dtype=float).tolist())


def _tied_matrix(n=50) -> str:
    # integer distances 1-4: ties everywhere, and not a metric
    d = np.triu(np.random.default_rng(6).integers(1, 5, (n, n)), 1).astype(float)
    return f"#matrix {n}\n" + _rows(d + d.T)


BARCODE_INPUTS = {
    "golden-400": lambda: _rows(np.random.default_rng(400).random((400, 2))),  # test_golden's points
    "uniform-3000": lambda: _rows(np.random.default_rng(2).random((3000, 2))),
    "uniform-20000": lambda: _rows(np.random.default_rng(3).random((20000, 2))),
    "lattice-30x30": lambda: _rows(np.stack(np.meshgrid(np.arange(30), np.arange(30)), -1).reshape(-1, 2)),
    "repeated-200x3": lambda: _rows(np.repeat(np.random.default_rng(4).random((200, 2)), 3, axis=0)),
    "d9-200": lambda: _rows(np.random.default_rng(5).random((200, 9))),
    "one-point": lambda: "0.5,0.25\n",
    "tied-matrix-50": _tied_matrix,
}


@pytest.mark.parametrize("name", sorted(BARCODE_INPUTS))
def test_barcode_is_the_elder_barcode_of_the_flat_merges(name, tmp_path, capsys):
    # the reference: level 0's merges, made a chain again by elder_barcode_1d
    text = BARCODE_INPUTS[name]()
    path = tmp_path / "points.csv"
    path.write_text(text)
    space = load_points(text)
    n = space.n
    merges = pset.LeveledMergeForest(space.with_density(np.zeros(n))).merge_events(0)
    bars = rooted.elder_barcode_1d([0.0] * n, merges)
    want = {"csv": rooted.barcode_csv(bars),
            "json": json.dumps([[b, None if math.isinf(d) else d] for b, d in bars]) + "\n"}
    for fmt, out in want.items():
        assert cli.main(["barcode", "--input", str(path), "--format", fmt]) == 0
        assert capsys.readouterr().out == out, fmt
    # and on its own: one bar per point, all born at 0, one infinite, and the
    # finite deaths the single-linkage heights (scipy's condensed matrix is
    # 1.6 GB at n = 20,000, so the check stops at n = 3000)
    got = [tuple(map(float, row.split(","))) for row in want["csv"].splitlines()[1:]]
    assert len(got) == n and {b for b, _ in got} == {0.0}
    assert [d for _, d in got if math.isinf(d)] == [math.inf]
    if 1 < n <= 3000:
        from scipy.cluster.hierarchy import linkage
        from scipy.spatial.distance import squareform

        heights = linkage(squareform(space.distance_matrix(), checks=False), "single")[:, 2]
        assert [d for _, d in got[:-1]] == sorted(heights.tolist())
    if name == "golden-400":
        from test_golden import BARCODE_SHA, _sha

        assert _sha(want["csv"]) == BARCODE_SHA


BOM = "\ufeff".encode()


@pytest.mark.parametrize("table, argv, lines", [("0\n7.5\n3\n", ["nn", "--format", "csv"], 4),
                                                ("#matrix 2\n0,1\n1,0\n", ["barcode"], 3)],
                         ids=["nn", "barcode"])
def test_a_byte_order_mark_is_no_data(tmp_path, capsys, table, argv, lines):
    # with a BOM the first row was read as a header, and '#matrix' as points
    outs = []
    for mark in (b"", BOM):
        path = tmp_path / "in.csv"
        path.write_bytes(mark + table.encode())
        assert cli.main([*argv, "--input", str(path)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and outs[0].count("\n") == lines


def test_a_trace_with_a_byte_order_mark_replays(ex4, tmp_path, capsys):
    trace = tmp_path / "t.json"
    args = ["--input", ex4, "--density-column", "f"]
    assert cli.main(["peel", *args, "--output", str(trace)]) == 0
    trace.write_bytes(BOM + trace.read_bytes())
    assert cli.main(["oracle-check", str(trace), *args]) == 0
    assert capsys.readouterr().err == ""


def test_a_coordinate_space_keeps_no_matrix(ex4, tmp_path, capsys, monkeypatch):
    # the oracle's matrix was kept on the space, and later distances read it;
    # oracle-check now linearizes on the critical scales and makes none
    sp = load_points(Path(ex4).read_text(), density_column="f")
    linalg.linearize(pset.fresh_view(pset.LeveledMergeForest(sp)))
    assert sp._dist is None
    assert not sp.distance_matrix().flags.writeable
    assert sp._dist is None
    asked = []
    make = AugmentedMetricSpace.distance_matrix
    monkeypatch.setattr(AugmentedMetricSpace, "distance_matrix",
                        lambda self: asked.append(self) or make(self))
    trace = tmp_path / "t.json"
    args = ["--input", ex4, "--density-column", "f"]
    assert cli.main(["peel", *args, "--output", str(trace)]) == 0
    assert cli.main(["oracle-check", str(trace), *args]) == 0
    assert asked == []


class TestOtherCommands:
    def test_b_constant(self):
        r = run_cli(["b-constant", "1"])
        assert r.returncode == 0
        assert r.stdout.decode().startswith("b(1)=0.666666666666666")
        assert "c(1)=0.333333333333333" in r.stdout.decode()

    def test_b_constant_rejects_zero(self):
        assert run_cli(["b-constant", "0"]).returncode == 2

    def test_nn_csv(self, ex4):
        r = run_cli(["nn", "--input", ex4, "--density-column", "f", "--format", "csv"])
        assert r.returncode == 0
        assert r.stdout.decode().splitlines()[1:] == [
            "0,2,no", "1,3,no", "2,3,yes", "3,2,yes",
        ]

    def test_barcode(self, ex4):
        r = run_cli(["barcode", "--input", ex4, "--density-column", "f"])
        assert r.returncode == 0
        assert r.stdout.decode().splitlines() == [
            "birth,death", "0.0,2.0", "0.0,2.5", "0.0,3.0", "0.0,inf",
        ]

    def test_staircode_single_point(self, ex4):
        r = run_cli(["staircode", "--input", ex4, "--density-column", "f",
                     "--x", "1", "--format", "csv"])
        assert r.returncode == 0
        assert r.stdout.decode().splitlines()[1] == "1,1.0,7.5"

    @pytest.mark.parametrize("points, x", [("0\n1\n", "7"), ("0\n1\n3\n", "-1")])
    def test_staircode_point_out_of_range(self, tmp_path, points, x):
        path = tmp_path / "points.csv"
        path.write_text("x\n" + points)
        r = run_cli(["staircode", "--input", str(path), "--density-mode", "random",
                     f"--x={x}", "--format", "csv"])
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error:")
        assert "Traceback" not in r.stderr.decode()
        assert r.stdout.decode() == ""

    def test_simulate_csv(self):
        r = run_cli(["simulate", "--d", "1", "--n", "16", "--trials", "2",
                     "--seed", "4", "--density-mode", "random"])
        assert r.returncode == 0
        lines = r.stdout.decode().strip().splitlines()
        assert len(lines) == 3

    def test_simulate_json_summary(self):
        r = run_cli(["simulate", "--d", "2", "--n", "12", "--trials", "2",
                     "--seed", "4", "--density-mode", "explicit", "--format", "json"])
        assert r.returncode == 0
        data = json.loads(r.stdout.decode())
        assert data["config"]["density_mode"] == "explicit"

    def test_no_command_is_usage_error(self):
        assert run_cli([]).returncode == 1


class TestImports:
    def test_peel_and_simulate_import_no_scipy(self, ex4, tmp_path):
        # nothing in the package imports scipy: the peel takes its neighbors
        # from the forest's build, nn from the same sweep; and only a pool
        # imports concurrent.futures and multiprocessing (20 ms of every start)
        trace = str(tmp_path / "t.json")
        data = f"'--input', {ex4!r}, '--density-column', 'f'"
        code = (
            "import sys\n"
            "from rootpeel import cli\n"
            f"assert cli.main(['peel', {data}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'peel imported scipy'\n"
            "assert cli.main(['simulate', '--n', '40', '--trials', '2', '--jobs', '1']) == 0\n"
            "assert 'scipy' not in sys.modules, 'simulate imported scipy'\n"
            f"assert cli.main(['nn', {data}, '--format', 'json']) == 0\n"
            f"assert cli.main(['staircode', {data}, '--x', '1']) == 0\n"
            f"assert cli.main(['barcode', {data}]) == 0\n"
            f"assert cli.main(['peel', {data}, '--output', {trace!r}]) == 0\n"
            f"assert cli.main(['oracle-check', {trace!r}, {data}]) == 0\n"
            "assert cli.main(['b-constant', '3']) == 0\n"
            "assert 'scipy' not in sys.modules, 'a later command imported scipy'\n"
            "assert 'concurrent.futures.process' not in sys.modules, 'a command without a pool imported one'\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
        assert r.returncode == 0, r.stderr.decode()

    def test_no_command_imports_numpy_ma(self, ex4, tmp_path):
        # np.unique imports numpy.ma (tens of ms of every start); the forest's
        # levels, the oracle's critical scales and linearize's full grid take
        # their distinct values without it
        trace = str(tmp_path / "t.json")
        data = f"'--input', {ex4!r}, '--density-column', 'f'"
        code = (
            "import sys\n"
            "from rootpeel import cli, linalg, pset, space\n"
            f"assert cli.main(['peel', {data}, '--output', {trace!r}]) == 0\n"
            f"assert cli.main(['barcode', {data}]) == 0\n"
            f"assert cli.main(['staircode', {data}]) == 0\n"
            f"assert cli.main(['oracle-check', {trace!r}, {data}]) == 0\n"
            "assert cli.main(['simulate', '--n', '40', '--trials', '2', '--jobs', '1']) == 0\n"
            f"sp = space.load_points(open({ex4!r}).read(), density_column='f')\n"
            "linalg.linearize(pset.fresh_view(pset.LeveledMergeForest(sp)))\n"
            "assert 'numpy.ma' not in sys.modules, 'a command imported numpy.ma'\n"
        )
        r = subprocess.run([sys.executable, "-c", code], capture_output=True, env=cli_env())
        assert r.returncode == 0, r.stderr.decode()


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["b-constant", "3"],
            ["simulate", "--d", "1", "--n", "20", "--trials", "3", "--seed", "7",
             "--density-mode", "random"],
            ["simulate", "--d", "2", "--n", "15", "--trials", "2", "--seed", "1",
             "--density-mode", "kde", "--format", "json"],
        ],
    )
    def test_byte_identical_reruns(self, args):
        a = run_cli(args)
        b = run_cli(args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_peel_byte_identical(self, ex4):
        args = ["peel", "--input", ex4, "--density-column", "f"]
        assert run_cli(args).stdout == run_cli(args).stdout
