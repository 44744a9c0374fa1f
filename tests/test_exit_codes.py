"""The CLI's exit-code contract: 0 ok, 1 usage, 2 data error, never a traceback.

``cli.main`` runs in-process on generated argv and input bytes. ``simulate``
is generated only with ``--n`` <= 30, ``--trials`` <= 3, ``--d`` <= 4,
``--peaks`` <= 6 and ``--jobs 1``, so no example starts a process or sizes an
array past a few kilobytes. ``--help`` is not generated: argparse prints the
help and raises SystemExit(0) itself.
"""

import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_env
from rootpeel import cli, experiment, pset, rooted

NUMBERS = ["0", "1", "-1", "0.5", "3", "1e-300", "1e300", "-1e300", "1e308", "nan", "inf", "x", ""]
DELIMS = [",", ";", " "]


@st.composite
def table_bytes(draw):
    """Point rows (sometimes with a header, ragged or non-numeric cells), a
    ``#matrix`` block, or raw bytes."""
    kind = draw(st.sampled_from(["points", "points", "matrix", "raw"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    cell = st.one_of(st.sampled_from(NUMBERS), st.floats(width=32).map(repr))
    rows, width = draw(st.integers(0, 9)), draw(st.integers(1, 3))
    delim = draw(st.sampled_from(DELIMS))
    if kind == "matrix":
        lines = [f"#matrix {draw(st.integers(-1, rows + 1))}"]
    else:
        lines = [delim.join(["x", "y", "f"][:width])] if draw(st.booleans()) else []
    for _ in range(rows):
        k = width if kind == "points" else rows
        k = draw(st.sampled_from([k, k, k + 1, max(0, k - 1)]))
        lines.append(delim.join(draw(st.lists(cell, min_size=k, max_size=k))))
    return "\n".join(lines).encode()


# the density values a generated table can hold as numbers (NUMBERS, and floats
# drawn as cells); supports draw their sigmas from them, so some match a level
LEVELS = [0.0, 1.0, -1.0, 0.5, 3.0]


def trace_record(generator, root, support):
    """A peel-trace record with every field drawn, the zero flag included."""
    return st.fixed_dictionaries(
        {"generator": generator, "root": root,
         "reason": st.sampled_from(["neighborly", "general-rooted", "bottom", "other"]),
         "zero_interval": st.booleans(),
         "support": support},
    )


@st.composite
def trace_bytes(draw):
    """A peel-trace-shaped document with arbitrary fields, other JSON, or raw bytes."""
    point = st.one_of(st.integers(-1, 9), st.none(), st.sampled_from(["0", 1.5, True]))
    sigma = st.one_of(st.sampled_from(LEVELS), st.floats(allow_nan=False), st.integers(0, 3))
    grade = st.lists(st.one_of(st.none(), sigma), max_size=3)
    support = st.one_of(st.lists(grade, max_size=4), st.none())
    doc = st.one_of(
        st.fixed_dictionaries({"n": st.integers(0, 9),
                               "records": st.lists(trace_record(point, point, support), max_size=4)}),
        st.recursive(st.none() | st.integers() | st.text(max_size=3), lambda c: st.lists(c, max_size=3)),
    )
    if draw(st.booleans()):
        return draw(st.binary(max_size=32))
    return json.dumps(draw(doc)).encode()


@st.composite
def oracle_inputs(draw):
    """``oracle-check`` of a table of at most 5 points with explicit densities,
    and a trace document on its n whose supports pair the table's density
    levels, from the densest drawn one up, with drawn thetas, points in range
    (a root may be null) and, half the time, the zero flag of its support: the
    other fields as ``trace_bytes`` draws them, so many traces pass the
    reader."""
    n = draw(st.integers(1, 5))
    xs = draw(st.lists(st.sampled_from(NUMBERS[:5]), min_size=n, max_size=n))
    fs = draw(st.lists(st.sampled_from(LEVELS), min_size=n, max_size=n))
    table = "x,f\n" + "".join(f"{x},{f!r}\n" for x, f in zip(xs, fs))
    levels = sorted(set(fs))
    point = st.integers(0, n - 1)
    theta = st.one_of(st.none(), st.sampled_from([0, 0.5, 1, 2.5]), st.floats(allow_nan=False))
    records = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, len(levels)))
        thetas = sorted(draw(st.lists(theta, min_size=k, max_size=k)), key=_descending)
        pairs = [[s, t] for s, t in zip(levels[-k:], thetas)]
        record = draw(trace_record(point, st.one_of(point, st.none()), st.just(pairs)))
        if draw(st.booleans()):  # a zero flag that fits the support
            record["zero_interval"] = thetas[0] == 0
        records.append(record)
    doc = {"n": n, "records": records}
    argv = ["oracle-check", "TRACE", "--input", "IN", "--density-column", "f"]
    return argv, table.encode(), json.dumps(doc).encode()


def _descending(t):
    """Sort key putting null (an infinite theta) first and the rest in
    decreasing order, so that most drawn supports are staircases."""
    return (t is not None, -t if t is not None else 0)


def options(**choices):
    """Optional ``--name value`` pairs, each present or not."""
    pairs = [st.one_of(st.just([]), value.map(lambda v, k=k: [f"--{k}", str(v)]))
             for k, value in choices.items()]
    return st.tuples(*pairs).map(lambda ps: [tok for p in ps for tok in p])


floats = st.one_of(st.sampled_from(NUMBERS), st.floats().map(repr))
density = options(**{
    "density-column": st.sampled_from(["f", "x", "0", "2", "9", "-1"]),
    "density-mode": st.sampled_from(["kde", "random", "explicit", "other"]),
    "densities": st.lists(st.sampled_from(NUMBERS), max_size=6).map(",".join),
    "kde-bandwidth": floats,
    "seed": st.integers(-2, 2**70),
})
io_opts = options(format=st.sampled_from(["json", "csv", "xml"]),
                  output=st.sampled_from(["OUT", "DIR", "DIR/no/such"]))

argvs = st.one_of(
    st.tuples(st.sampled_from(["peel", "nn", "staircode", "barcode"]), io_opts, density,
              options(x=st.integers(-2, 10)))
    .map(lambda t: [t[0], "--input", "IN", *t[1], *t[2], *t[3]]),
    st.tuples(density, options(**{"dim-budget": st.integers(-1, 5000)}))
    .map(lambda t: ["oracle-check", "TRACE", "--input", "IN", *t[0], *t[1]]),
    options(sampler=st.sampled_from(["uniform", "mixture", "other"]), d=st.integers(-1, 4),
            n=st.integers(-1, 30), trials=st.integers(-1, 3), seed=st.integers(-2, 2**70),
            **{"density-mode": st.sampled_from(["kde", "random", "explicit"]), "kde-bandwidth": floats},
            peaks=st.integers(-1, 6), spread=floats, format=st.sampled_from(["json", "csv"]),
            output=st.sampled_from(["OUT", "DIR"]))
    .map(lambda opts: ["simulate", *opts, "--jobs", "1"]),
    st.one_of(st.integers(-3, 10**400).map(str), st.sampled_from(["x", "1.5", ""]))
    .map(lambda d: ["b-constant", d]),
    st.lists(st.sampled_from(["peel", "--input", "IN", "--x", "1", "--nope", "simulate", "-n",
                              "--n=3", "nn"]), max_size=4),
)


def run_main(argv, tmp, table=b"", trace=b""):
    """``cli.main(argv)`` with the placeholders IN, TRACE, OUT and DIR made
    paths in ``tmp``; IN holds ``table`` and TRACE ``trace``."""
    (tmp / "IN").write_bytes(table)
    (tmp / "TRACE").write_bytes(trace)
    names = {"IN": tmp / "IN", "TRACE": tmp / "TRACE", "OUT": tmp / "OUT", "DIR": tmp,
             "DIR/no/such": tmp / "no" / "such"}
    return cli.main([str(names.get(a, a)) for a in argv])


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("exit-codes")


def test_exit_code_contract(tmp, monkeypatch):
    # every command on drawn argv and bytes; then oracle-check on drawn traces
    # of small tables, of which some pass the trace reader: count the examples
    # that reach the replay
    replays = []
    steps = rooted.replay_steps
    monkeypatch.setattr(rooted, "replay_steps", lambda *a: replays.append(a) or steps(*a))

    @settings(max_examples=150, deadline=None)
    @given(argv=argvs, table=table_bytes(), trace=trace_bytes())
    def contract(argv, table, trace):
        assert run_main(argv, tmp, table, trace) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(case=oracle_inputs())
    def oracle_contract(case):
        assert run_main(case[0], tmp, case[1], case[2]) in (0, 1, 2)

    contract()
    oracle_contract()
    assert replays


# crashes the property found, one named example each


def test_b_constant_of_huge_dimension(tmp_path, capsys):
    # (d + 1) / 2.0 overflowed to an OverflowError for d past the float range
    assert run_main(["b-constant", "1" + "0" * 400], tmp_path) == 0
    assert capsys.readouterr().out.startswith("b(1" + "0" * 400 + ")=0.5, ")


@pytest.mark.parametrize("bandwidth, code", [("1e-300", 2), ("1e154", 0)])
def test_kde_bandwidth_at_the_float_range(tmp_path, capsys, bandwidth, code):
    # overflow warnings on the way to an infinite estimate (a data error) or a
    # normalizer that overflows to inf (every density 0)
    argv = ["simulate", "--n", "5", "--trials", "1", "--jobs", "1",
            "--density-mode", "kde", "--kde-bandwidth", bandwidth]
    assert run_main(argv, tmp_path) == code
    err = "error: the density estimate overflows; use a larger bandwidth\n"
    assert capsys.readouterr().err == ("" if code == 0 else err)


def test_nan_bandwidth_is_not_positive(tmp_path, capsys):
    # nan passed the h <= 0 check and was then reported as an overflow
    argv = ["simulate", "--n", "5", "--trials", "1", "--jobs", "1",
            "--density-mode", "kde", "--kde-bandwidth", "nan"]
    assert run_main(argv, tmp_path) == 2
    assert capsys.readouterr().err == "error: bandwidth must be positive\n"


def test_kde_in_many_dimensions(tmp_path):
    # (2 pi) ** (d / 2) raised OverflowError from d = 773 on
    table = "\n".join(",".join(str((i * k) % 7) for k in range(800)) for i in range(4)).encode()
    assert run_main(["peel", "--input", "IN", "--density-mode", "kde"], tmp_path, table) == 0


@pytest.mark.parametrize("command", ["nn", "peel", "staircode"])
def test_points_whose_distances_overflow(tmp_path, capsys, command):
    # nn raised IndexError from the kd-tree; peel wrote a trace of infinite distances
    argv = [command, "--input", "IN", "--density-mode", "random"]
    assert run_main(argv, tmp_path, b"x\n1e300\n-1e300\n0\n") == 2
    assert capsys.readouterr().err == "error: points lie too far apart: their distances overflow\n"


def _no_memory(*args, **kwargs):
    raise MemoryError


@pytest.mark.parametrize("argv, n", [
    (["peel", "--input", "IN", "--density-mode", "random"], 4),
    (["simulate", "--n", "5", "--trials", "1", "--jobs", "1"], 5),
], ids=["peel", "simulate"])
def test_out_of_memory_in_the_forest_build(tmp_path, capsys, monkeypatch, argv, n):
    # a MemoryError ended in a traceback; random densities give every point its own level
    monkeypatch.setattr(pset, "_level_chains", _no_memory)
    assert run_main(argv, tmp_path, b"0\n1\n3\n7\n") == 2
    assert capsys.readouterr().err == (
        f"error: out of memory building the merge forest of n = {n} points on {n} density levels\n")


def test_out_of_memory_elsewhere(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(pset.LeveledMergeForest, "__init__", _no_memory)
    assert run_main(["peel", "--input", "IN", "--density-mode", "random"], tmp_path, b"0\n1\n") == 2
    assert capsys.readouterr().err == "error: out of memory\n"


def _die(job):
    os._exit(9)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched trial function reaches the workers only by fork")
def test_a_dead_trial_worker(tmp_path, capsys, monkeypatch):
    # BrokenProcessPool, a RuntimeError, ended in a traceback and exit 1, as
    # when the OOM killer takes a worker. ROOTPEEL_THREADS=2 keeps the pool on
    # one CPU too, so the patched function runs in the workers only
    monkeypatch.setenv("ROOTPEEL_THREADS", "2")
    monkeypatch.setattr(experiment, "_run_one_trial", _die)
    assert run_main(["simulate", "--n", "20", "--trials", "2", "--jobs", "2"], tmp_path) == 2
    assert capsys.readouterr().err.startswith("error: a trial worker process died")


@pytest.mark.parametrize("table, tamper", [
    (b"x,f\n0,0\n7.5,1\n3,2\n5,3\n", lambda doc: doc["records"][1]["support"][1].__setitem__(0, True)),
    (b"x,f\n0,0\n", lambda doc: doc.update(n=True)),
], ids=["bottom-sigma-true", "n-true"])
def test_trace_booleans_are_not_numbers(tmp_path, capsys, table, tamper):
    # JSON true equals 1 in Python, so both traces used to PASS
    argv = ["--input", "IN", "--density-column", "f"]
    assert run_main(["peel", *argv, "--output", "OUT"], tmp_path, table) == 0
    doc = json.loads((tmp_path / "OUT").read_text())
    tamper(doc)
    capsys.readouterr()
    assert run_main(["oracle-check", "TRACE", *argv], tmp_path, table, json.dumps(doc).encode()) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_threads_variable_must_be_a_positive_integer(tmp_path, capsys, monkeypatch, value):
    # abc ended in int()'s own message; 0 and -3 silently ran one worker
    monkeypatch.setenv("ROOTPEEL_THREADS", value)
    assert run_main(["simulate", "--n", "5", "--trials", "1", "--jobs", "1"], tmp_path) == 2
    assert capsys.readouterr().err == f"error: ROOTPEEL_THREADS must be an integer >= 1, got {value!r}\n"


@pytest.mark.parametrize("value", ["", "1", "3"])
def test_threads_variable_unset_or_positive_runs(tmp_path, monkeypatch, value):
    monkeypatch.setenv("ROOTPEEL_THREADS", value)
    assert run_main(["simulate", "--n", "5", "--trials", "1", "--jobs", "1"], tmp_path) == 0


@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_must_be_a_positive_integer(tmp_path, capsys, value):
    # both silently ran one worker and exited 0 with a report
    assert run_main(["simulate", "--n", "5", "--trials", "1", "--jobs", value], tmp_path) == 2
    assert capsys.readouterr().err == f"error: --jobs must be an integer >= 1, got {value}\n"


@pytest.mark.parametrize("command", ["peel", "staircode"])
def test_stdout_closed_by_the_reader(tmp_path, command):
    # about 1 MB of output, far past the pipe's buffer: the write raised a
    # BrokenPipeError traceback and exited 1
    table = tmp_path / "points.csv"
    np.savetxt(table, np.random.default_rng(200).random((200, 2)), delimiter=",")
    argv = [sys.executable, "-m", "rootpeel.cli", command, "--input", str(table), "--density-mode", "random"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env()) as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: Broken pipe\n"
