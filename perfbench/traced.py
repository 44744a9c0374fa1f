"""Traced in-process replay of one benchmark round.

Usage: python3 perfbench/traced.py OUT_JSON ROUND_JSON

ROUND_JSON holds the argument lists of the round's ``rootpeel`` commands.
The replay imports ``rootpeel.cli``, wraps the layer functions the CLI
reaches (module attributes such as ``rooted.peel_all``, the names ``cli``
imports, and methods such as ``LeveledMergeForest.__init__``) with wrappers
that record a span and take counts from the call's result, and then runs
``rootpeel.cli.main(argv)`` for each command with stdout captured. So the
replay does exactly the CLI's work, minus the interpreter start-ups.

Spans (name, start, end, parent, op id, probe flag) and counts stay in
memory and are written to OUT_JSON when the replay ends, together with each
command's exit code and stdout and the tracing overhead.

Probe spans do work the CLI does not do, to measure a layer the op hides:
the serial per-trial replay behind ``simulate --jobs 2`` and the tracemalloc
peak of the largest forest build. A first import of any module inside an op
gets its own ``cli.lazy_import`` span, so layer self times exclude import cost.
"""

from __future__ import annotations

import builtins
import functools
import io
import json
import statistics
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

_IMPORT_SPANS = ("cli.import", "cli.lazy_import")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self.stack = []
        self.op = -1
        self.wrapped_calls = 0  # made by the ops, not by the probes
        self.hooked_imports = 0
        self.paused = False

    @contextmanager
    def span(self, name, probe=False):
        parent = self.stack[-1] if self.stack else None
        probe = probe or (parent is not None and self.spans[parent]["probe"])
        rec = {"name": name, "op": self.op, "parent": parent, "probe": probe,
               "start": time.perf_counter(), "end": None}
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self.stack.pop()

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def innermost(self):
        return self.spans[self.stack[-1]]["name"] if self.stack else None


TRACER = Tracer()
_real_import = builtins.__import__


def _traced_import(name, globals=None, locals=None, fromlist=(), level=0):
    if TRACER.op >= 0:
        TRACER.hooked_imports += 1
    if level or name in sys.modules or TRACER.innermost() in (None, *_IMPORT_SPANS):
        return _real_import(name, globals, locals, fromlist, level)
    with TRACER.span("cli.lazy_import"):
        return _real_import(name, globals, locals, fromlist, level)


def traced(fn, name, counter=None):
    """``fn`` wrapped in a span called ``name`` (none when ``name`` is None);
    ``counter(result, *args, **kwargs)`` records counts after the call."""

    @functools.wraps(fn)
    def inner(*args, **kwargs):
        if TRACER.paused:
            return fn(*args, **kwargs)
        if TRACER.op >= 0:
            TRACER.wrapped_calls += 1
        if name is None:
            result = fn(*args, **kwargs)
        else:
            with TRACER.span(name):
                result = fn(*args, **kwargs)
        if counter is not None:
            counter(result, *args, **kwargs)
        return result

    return inner


_largest_forest = {"bytes": -1, "space": None}


def _count_forest(_, forest, space, *args, **kwargs):
    nbytes = int(sum(int(m) ** 2 for m in forest.level_sizes)) * 8
    TRACER.count("pset.forest_levels", int(forest.num_levels))
    TRACER.count("pset.forest_bytes", nbytes)
    if nbytes > _largest_forest["bytes"]:
        _largest_forest.update(bytes=nbytes, space=space)


def _count_peel(trace, *args, **kwargs):
    reasons = [r.reason for r in trace.records]
    TRACER.count("rooted.peel_records", len(reasons))
    TRACER.count("rooted.peels_neighborly", reasons.count("neighborly"))
    TRACER.count("rooted.peels_general", reasons.count("general-rooted"))


def _traced_distances(fn):
    """A span and a byte count only for the call that computes the matrix;
    later calls return the cached one."""
    timed = traced(fn, "space.distances")

    @functools.wraps(fn)
    def inner(space):
        if space._dist is not None:
            return fn(space)
        TRACER.count("space.distances_bytes", space.n * space.n * 8)
        return timed(space)

    return inner


def _traced_density(fn):
    @functools.wraps(fn)
    def inner(space, mode, *args, **kwargs):
        return traced(fn, f"space.{mode}")(space, mode, *args, **kwargs)

    return inner


def install():
    """Replace the layer calls of ``rootpeel.cli`` with traced ones."""
    from rootpeel import cli, experiment, linalg, pset, rooted, space

    def count(name, size):
        return lambda result, *args, **kwargs: TRACER.count(name, size(result))

    patches = [
        (cli, "load_points", lambda fn: traced(fn, "space.parse")),
        (cli, "attach_density", _traced_density),
        (space.AugmentedMetricSpace, "distance_matrix", _traced_distances),
        (pset.LeveledMergeForest, "__init__", lambda fn: traced(fn, "pset.forest", _count_forest)),
        (pset.LeveledMergeForest, "merge_events", lambda fn: traced(fn, "pset.merge_events")),
        (rooted, "nn_graph", lambda fn: traced(
            fn, "rooted.nn_graph", count("rooted.mutual_pairs", lambda g: len(g.mutual_pairs)))),
        (rooted, "peel_all", lambda fn: traced(fn, "rooted.peel", _count_peel)),
        (rooted.PeelTrace, "to_json", lambda fn: traced(
            fn, "rooted.trace_json", count("rooted.trace_bytes", lambda text: len(text.encode())))),
        (rooted, "elder_barcode_1d", lambda fn: traced(fn, "rooted.elder_barcode")),
        (rooted, "trace_records_from_json", lambda fn: traced(
            fn, None, count("linalg.records_checked", len))),
        (linalg, "linearize", lambda fn: traced(
            fn, "linalg.linearize", count("linalg.module_dim", lambda m: m.total_dim()))),
        (linalg, "idempotent_from_peel", lambda fn: traced(fn, "linalg.idempotent")),
        (linalg, "split_dims", lambda fn: traced(fn, "linalg.split_dims")),
        (linalg, "grade_dims", lambda fn: traced(fn, "linalg.grade_dims")),
        (experiment, "run_trials", lambda fn: traced(fn, "experiment.run_trials")),
    ]
    for owner, attr, wrap in patches:
        setattr(owner, attr, wrap(getattr(owner, attr)))


def calibrate(batches=5, calls=20000):
    """Seconds one wrapped call and one hooked import of a loaded module add,
    each the median of ``batches`` timings of ``calls`` calls."""
    global TRACER
    kept, TRACER = TRACER, Tracer()
    TRACER.op = 0  # as inside an op, so both paths count their calls

    def per_call(fn, *args):
        times = []
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            times.append((time.perf_counter() - t0) / calls)
            TRACER.spans.clear()
        return statistics.median(times)

    def noop():
        return None

    wrap_s = per_call(traced(noop, "calibrate")) - per_call(noop)
    import_s = per_call(_traced_import, "json") - per_call(_real_import, "json")
    TRACER = kept
    return max(0.0, wrap_s), max(0.0, import_s)


def probe_trials(args):
    """Serial replay of the pool's trials, one span per trial: the inputs
    ``run_trials`` builds, with the flat density ``--density-mode explicit``
    gives, then ``nn_graph`` and ``peel_all`` as each trial calls them."""
    import numpy as np
    from rootpeel import AugmentedMetricSpace, experiment, rooted

    config = experiment.SamplerConfig(args.sampler, args.d, peaks=args.peaks, spread=args.spread)
    for seq in np.random.SeedSequence(args.seed).spawn(args.trials):
        with TRACER.span("experiment.trial", probe=True):
            space = AugmentedMetricSpace(points=experiment.sample(config, args.n, seq))
            space = space.with_density(np.zeros(space.n))
            rooted.nn_graph(space)
            rooted.peel_all(space)


def probe_forest_peak():
    """tracemalloc peak of rebuilding the largest forest the replay built."""
    from rootpeel import LeveledMergeForest

    space = _largest_forest["space"]
    if space is None:
        return
    space.distance_matrix()
    with TRACER.span("pset.forest_peak", probe=True):
        TRACER.paused = True  # no pset.forest span or counts for the rebuild
        tracemalloc.start()
        try:
            LeveledMergeForest(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            TRACER.paused = False
    TRACER.count("pset.forest_peak_mib", peak / 2**20)


def main(out_json: str, round_json: str) -> int:
    wrap_s, import_s = calibrate()
    builtins.__import__ = _traced_import
    with TRACER.span("cli.import"):
        import rootpeel.cli
    install()
    argvs = json.loads(Path(round_json).read_text(encoding="utf-8"))
    codes, stdouts = [], []
    for k, argv in enumerate(argvs):
        TRACER.op = k
        out = io.StringIO()
        with TRACER.span("cli.op"), redirect_stdout(out):
            try:
                code = rootpeel.cli.main(argv)
            except Exception:
                code = 1
                print(traceback.format_exc(), file=sys.stderr)
        codes.append(code)
        stdouts.append(out.getvalue())
    overhead_s = TRACER.wrapped_calls * wrap_s + TRACER.hooked_imports * import_s
    TRACER.op = -1
    parser = rootpeel.cli.build_parser()
    for argv in argvs:
        args = parser.parse_args(argv)
        if args.command == "simulate":
            probe_trials(args)
    probe_forest_peak()
    builtins.__import__ = _real_import
    Path(out_json).write_text(json.dumps({
        "spans": TRACER.spans,
        "counts": TRACER.counts,
        "overhead_s": overhead_s,
        "codes": codes,
        "stdouts": stdouts,
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
