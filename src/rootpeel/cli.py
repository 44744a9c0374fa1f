"""Command-line front end: ingest, peel, report, simulate, verify.

Exit codes: 0 success, 1 usage error, 2 data error. Errors go to stderr with
an ``error:`` prefix. Output for a fixed seed is byte-identical across runs;
anything time-dependent stays out of stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import List, Optional

import numpy as np

from . import experiment, linalg, pset, rooted
from .space import AugmentedMetricSpace, DensityError, ParseError, attach_density, load_points


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="rootpeel", description="Peel interval summands off density-Rips clusterings.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, fmt: Optional[str] = "json"):
        sp.add_argument("--input", required=True, help="point rows or '#matrix n' distance input")
        sp.add_argument("--output", help="write to this path instead of stdout")
        if fmt:
            sp.add_argument("--format", choices=("json", "csv"), default=fmt)

    def add_density(sp):
        sp.add_argument("--density-column", help="density column name or index in the input")
        sp.add_argument("--density-mode", choices=("kde", "random", "explicit"))
        sp.add_argument("--densities", help="comma-separated values for explicit mode")
        sp.add_argument("--kde-bandwidth", type=float)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("peel", help="peel interval summands and print the trace")
    add_io(sp, fmt=None)
    add_density(sp)

    sp = sub.add_parser("nn", help="nearest-neighbor map and mutual pairs")
    add_io(sp)
    add_density(sp)

    sp = sub.add_parser("barcode", help="single-linkage elder barcode, one bar per peeled point")
    add_io(sp, fmt="csv")
    sp.add_argument("--density-column", help="density column to strip from the coordinates")

    sp = sub.add_parser("staircode", help="per-density scale thresholds where a point is oldest")
    add_io(sp)
    add_density(sp)
    sp.add_argument("--x", type=int, help="point index (default: all points)")

    sp = sub.add_parser("simulate", help="Monte Carlo trials of mutual-NN and peeled fractions")
    sp.add_argument("--sampler", choices=("uniform", "mixture"), default="uniform")
    sp.add_argument("--d", type=int, default=2)
    sp.add_argument("--n", type=int, default=100)
    sp.add_argument("--trials", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--density-mode", choices=("kde", "random", "explicit"), default="random")
    sp.add_argument("--kde-bandwidth", type=float)
    sp.add_argument("--peaks", type=int, default=5)
    sp.add_argument("--spread", type=float, default=0.05)
    sp.add_argument("--jobs", type=int, help="worker processes (default: ROOTPEEL_THREADS or cpu count)")
    sp.add_argument("--output", help="write to this path instead of stdout")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")

    sp = sub.add_parser("oracle-check", help="replay a peel trace through the exact oracle")
    sp.add_argument("trace", help="trace JSON produced by peel")
    sp.add_argument("--input", required=True, help="the same input the trace was computed from")
    add_density(sp)
    sp.add_argument("--dim-budget", type=int, default=4096)

    sp = sub.add_parser("b-constant", help="limit constants b(d) and c(d)")
    sp.add_argument("d", type=int)
    return p


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is no data
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror}") from None


def _load_space(args, need_density: bool) -> AugmentedMetricSpace:
    space = load_points(_read_text(args.input), density_column=getattr(args, "density_column", None))
    if space.has_density():
        return space
    mode = getattr(args, "density_mode", None)
    if mode == "explicit" and not args.densities:
        raise DensityError("explicit density mode needs --densities v0,v1,...")
    if mode:
        values = [float(v) for v in args.densities.split(",")] if mode == "explicit" else None
        return attach_density(space, mode, bandwidth=args.kde_bandwidth, seed=args.seed, values=values)
    if not need_density:
        return space.with_density(np.zeros(space.n))
    raise DensityError("no density given; use --density-column or --density-mode")


def _emit(args, text: str) -> None:
    out = getattr(args, "output", None)
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_peel(args) -> int:
    space = _load_space(args, need_density=True)
    trace = rooted.peel_all(space)
    _emit(args, trace.to_json())
    print(f"peeled {len(trace)} of {space.n} generators")
    return 0


def _cmd_nn(args) -> int:
    space = _load_space(args, need_density=False)
    graph = rooted.nn_graph(space)
    if args.format == "json":
        payload = {
            "nn": [int(v) for v in graph.nn],
            "mutual_pairs": [list(p) for p in graph.mutual_pairs],
        }
        _emit(args, json.dumps(payload, indent=2))
    else:
        lines = ["point,nearest_neighbor,mutual"]
        mutual = {i for p in graph.mutual_pairs for i in p}
        for i, v in enumerate(graph.nn):
            lines.append(f"{i},{int(v)},{'yes' if i in mutual else 'no'}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_barcode(args) -> int:
    space = _load_space(args, need_density=False)
    trace = rooted.peel_all(space.with_density(np.zeros(space.n)))
    bars = sorted((r.support.birth_sigma, r.support.breaks[0][1]) for r in trace)
    if args.format == "csv":
        _emit(args, rooted.barcode_csv(bars))
    else:
        _emit(args, json.dumps([[b, None if math.isinf(d) else d] for b, d in bars]))
    return 0


def _cmd_staircode(args) -> int:
    space = _load_space(args, need_density=True)
    forest = pset.LeveledMergeForest(space)
    targets = [args.x] if args.x is not None else list(range(space.n))
    codes = {x: rooted.staircode(space, x, forest) for x in targets}
    if args.format == "json":
        thresholds = rooted.staircase_json(forest.sigma_levels, 2)
        items = [f'  {{\n    "point": {x},\n    "thresholds": {thresholds(sc)}\n  }}'
                 for x, sc in codes.items()]
        _emit(args, rooted.json_list(items, 0))
    else:
        sigmas = [float(s) for s in forest.sigma_levels]
        lines = ["point,sigma,theta"]
        for x, sc in codes.items():
            for s, t in sc.pairs(sigmas):
                lines.append(f"{x},{s!r},{'inf' if math.isinf(t) else repr(t)}")
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_simulate(args) -> int:
    config = experiment.SamplerConfig(args.sampler, args.d, peaks=args.peaks, spread=args.spread)
    report = experiment.run_trials(
        config,
        args.density_mode,
        n=args.n,
        trials=args.trials,
        seed=args.seed,
        n_jobs=args.jobs,
        kde_bandwidth=args.kde_bandwidth,
    )
    _emit(args, report.to_csv() if args.format == "csv" else report.to_json())
    return 0


def _cmd_oracle_check(args) -> int:
    space = _load_space(args, need_density=True)
    if space.n > 8:
        raise ValueError(f"oracle replay is desk-scale only: n = {space.n} > 8")
    forest = pset.LeveledMergeForest(space)
    records = rooted.trace_records_from_json(_read_text(args.trace), forest)
    module = None  # the view's linearization, made by the previous record's split check
    for k, (rec, (before, after, support, why)) in enumerate(
            zip(records, rooted.replay_steps(forest, records))):
        if not why:
            if module is None:
                module = linalg.linearize(before, args.dim_budget)
            why, module = linalg.check_peel_split(module, after, rec.generator, rec.root,
                                                  support, args.dim_budget)
        print(f"{'FAIL' if why else 'PASS'} record {k}: generator {rec.generator} ({rec.reason})"
              + (f" - {why}" if why else ""))
        if why:
            return 2
    return 0


def _cmd_b_constant(args) -> int:
    if args.d < 1:
        raise DensityError("dimension must be a positive integer")
    b = experiment.b_constant(args.d)
    c = experiment.c_constant(args.d)
    print(f"b({args.d})={b!r}, c({args.d})={c!r}")
    return 0


_DISPATCH = {
    "peel": _cmd_peel,
    "nn": _cmd_nn,
    "barcode": _cmd_barcode,
    "staircode": _cmd_staircode,
    "simulate": _cmd_simulate,
    "oracle-check": _cmd_oracle_check,
    "b-constant": _cmd_b_constant,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, DensityError, pset.QueryError, linalg.BudgetError,
            linalg.ConsistencyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: {str(e) or 'out of memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError as e:
        devnull = os.open(os.devnull, os.O_WRONLY)  # takes stdout's fd, for the flush at exit
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {e.strerror}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
