import ast
import functools
import importlib
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

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
    ], ids=["missing-support", "generator-99", "generator-string", "records-int",
            "root-99", "wrong-n"])
    def test_malformed_trace_is_a_data_error(self, ex4, tmp_path, tamper):
        out = tmp_path / "t.json"
        run_cli(["peel", "--input", ex4, "--density-column", "f", "--output", str(out)])
        doc = json.loads(out.read_text())
        tamper(doc)
        out.write_text(json.dumps(doc))
        r = run_cli(["oracle-check", str(out), "--input", ex4, "--density-column", "f"])
        assert r.returncode == 2
        assert r.stderr.decode().startswith("error:")
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
    assert len(rooted.replay(records, fo).removed) == len(records)


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
    def bottom_support(fo):
        birth = float(fo.sigma_levels[0])
        return rooted.IntervalSupport(birth, ((birth, 2.0),))

    monkeypatch.setattr(rooted, "_bottom_support", bottom_support)
    trace = tmp_path / "t.json"
    args = ["--input", ex4, "--density-column", "f"]
    assert cli.main(["peel", *args, "--output", str(trace)]) == 0
    capsys.readouterr()
    assert cli.main(["oracle-check", str(trace), *args]) == 2
    assert capsys.readouterr().out.splitlines() == [
        "PASS record 0: generator 3 (neighborly)",
        "FAIL record 1: generator 0 (bottom) - bottom dimension 1 at grade (2.0, 0.0) contradicts the support",
    ]


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


def test_only_the_oracle_makes_a_distance_matrix():
    # README: only the exact oracle's grade grid makes one; every other layer
    # reads rows from the coordinates
    src = Path(cli.__file__).parent
    reads = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr == "distance_matrix"]
    assert [name for name, _ in reads if name != "linalg.py"] == []


def test_a_coordinate_space_keeps_no_matrix(ex4, tmp_path, capsys, monkeypatch):
    # the oracle's matrix was kept on the space, and later distances read it
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
    assert asked and all(s.points is not None and s._dist is None for s in asked)


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
