import json
import subprocess
import sys

import pytest

from conftest import cli_env

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
    def test_peel_and_simulate_import_no_scipy(self, ex4):
        # scipy serves only the kd-tree of nn on coordinates with no matrix
        code = (
            "import sys\n"
            "from rootpeel import cli\n"
            f"assert cli.main(['peel', '--input', {ex4!r}, '--density-column', 'f']) == 0\n"
            "assert 'scipy' not in sys.modules, 'peel imported scipy'\n"
            "assert cli.main(['simulate', '--n', '40', '--trials', '2', '--jobs', '1']) == 0\n"
            "assert 'scipy' not in sys.modules, 'simulate imported scipy'\n"
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
