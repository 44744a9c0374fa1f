"""Mutation check: each mutant must make its named tests fail.

Usage, from the root of a checkout:

    python3 tests/mutants.py [NAME ...]

For each mutant (all of them, or those named) the script copies ``src/``,
``tests/`` and ``perfbench/`` (which a CLI test reads) into a temporary
directory, applies one text substitution to one source file, runs the named
tests there with pytest and expects them to fail. It first runs each set of
named tests on an unmutated copy: if one fails there, a kill would say nothing
about its mutant, so it prints ``BROKEN`` and exits 1. Then it prints one line
per mutant, ``killed`` or ``SURVIVED``, and exits 1 when a mutant survived or
its substitution no longer matches the source. Pytest does not collect this
file (its name does not start with ``test_``), and it is not part of the
tier-1 run: it takes minutes.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name -> (source file under src/rootpeel, old text, new text, tests that must fail)
MUTANTS = {
    "insert-equal-scale-neighbors": (
        "pset.py",
        "np.minimum(gaps[idx[1:]], tail)",
        "tail",
        ["tests/test_sparse_forest.py::test_level_chains_match_dense_engine"],
    ),
    "rounds-watch-nothing": (
        "rooted.py",
        "            for z in watch:\n",
        "            for z in watch[:0]:\n",
        ["tests/test_sparse_forest.py::test_level_chains_match_dense_engine"],
    ),
    "scan-skips-birth-level": (
        "pset.py",
        "            if math.isinf(eps):\n                continue\n            run = self.cluster_run(j, px, eps)",
        "            if math.isinf(eps) or j == self.birth_level[px]:\n                continue\n"
        "            run = self.cluster_run(j, px, eps)",
        ["tests/test_sparse_forest.py::test_root_scan_matches_dense_engine_on_random_masks"],
    ),
    "first-merge-ignores-the-right-walk": (
        "pset.py",
        "        return g if hit else eps\n",
        "        return eps\n",
        ["tests/test_sparse_forest.py::test_root_scan_matches_dense_engine_on_random_masks"],
    ),
    "root-runs-any-root": (
        "pset.py",
        " and proot in cand else None",
        " else None",
        ["tests/test_cli.py::test_oracle_check_takes_rootedness_from_the_replay"],
    ),
    "runs-skip-infinite-levels": (
        "pset.py",
        "            runs.append((j, eps))\n            if math.isinf(eps):\n                continue\n",
        "            if math.isinf(eps):\n                continue\n            runs.append((j, eps))\n",
        ["tests/test_sparse_forest.py::test_elder_barcode_bars_are_those_of_the_inline_linked_runs",
         "tests/test_sparse_forest.py::test_elder_deaths_are_merge_scales_on_its_chain"],
    ),
    "support-from-first-run-only": (
        "rooted.py",
        "for j, theta in runs)",
        "for j, theta in list(runs)[:1])",
        ["tests/test_golden.py",
         "tests/test_sparse_forest.py::test_rooted_supports_are_the_merge_scale_runs"],
    ),
    "prim-near-tie-strict": (
        "space.py",
        "            if row[k] <= v_best:",
        "            if row[k] < v_best:",
        ["tests/test_sparse_forest.py::test_spanning_tree_level_zero_matches_insertion"],
    ),
    "prim-near-tie-to-lower-index": (
        "space.py",
        "if row[k] < v_best or t < v_near:",
        "if row[k] < v_best:",
        ["tests/test_sparse_forest.py::test_spanning_tree_level_zero_matches_insertion"],
    ),
    "prim-best-tie-moves-down": (
        "space.py",
        "hit = hit[(row[hit] < best[hit]) | (near[hit] > v)]",
        "hit = hit[row[hit] < best[hit]]",
        ["tests/test_sparse_forest.py::test_spanning_tree_level_zero_matches_insertion"],
    ),
    "prim-gap-from-predecessor": (
        "space.py",
        "visit[m - r], w[m - 1 - r] = v, v_best",
        "visit[m - r], w[m - 1 - r] = v, row[i]",
        ["tests/test_sparse_forest.py::test_spanning_tree_level_zero_matches_insertion"],
    ),
    "prim-order-one-late": (
        "space.py",
        "            v, v_near, v_best = int(rest[i]), int(near[i]), float(best[i])\n"
        "            visit[m - r], w[m - 1 - r] = v, v_best\n",
        "            visit[m - r], w[m - 1 - r] = v, best[i]\n"
        "            v, v_near, v_best = int(rest[i]), int(near[i]), float(best[i])\n",
        ["tests/test_sparse_forest.py::test_spanning_tree_level_zero_matches_insertion"],
    ),
    "sweep-moves-on-ties": (
        "space.py",
        "closer = np.flatnonzero(row < nn_dist[:k])",
        "closer = np.flatnonzero(row <= nn_dist[:k])",
        ["tests/test_sparse_forest.py::test_build_sweep_matches_the_matrix"],
    ),
    "sweep-own-tie-to-higher": (
        "space.py",
        "nn[k] = row.argmin()",
        "nn[k] = len(row) - 1 - row[::-1].argmin()",
        ["tests/test_sparse_forest.py::test_build_sweep_matches_the_matrix"],
    ),
    "prim-matrix-columns-uncompacted": (
        "space.py",
        "order[rest[:r]]",
        "order[1 : r + 1]",
        ["tests/test_sparse_forest.py::test_spanning_tree_level_zero_matches_insertion"],
    ),
    "table-width-check-only-long": (
        "space.py",
        "if len(cells) != width:",
        "if len(cells) > width:",
        ["tests/test_space.py::TestLoadPoints::test_ragged_row_names_index"],
    ),
    "matrix-row-count-unchecked": (
        "space.py",
        "        if len(rows) - 1 != n:  # before the header can size an allocation\n"
        "            raise ParseError(f\"matrix input: expected {n} rows, got {len(rows) - 1}\")\n",
        "",
        ["tests/test_space.py::TestLoadPoints::test_matrix_wrong_row_count"],
    ),
    "span-bisect-side": (
        "rooted.py",
        "starts = [bisect.bisect_left(sigmas, s) for s, _ in self.breaks]",
        "starts = [bisect.bisect_right(sigmas, s) for s, _ in self.breaks]",
        ["tests/test_golden.py"],
    ),
    "nn-graph-index-rank": (
        "rooted.py",
        "order = space.canonical_order() if space.has_density() else np.arange(space.n)",
        "order = np.arange(space.n)",
        ["tests/test_sparse_forest.py::test_build_sweep_matches_the_matrix"],
    ),
    "field-matrix-int-zero": (
        "linalg.py",
        "out.ravel()[:] = [Fraction(v) for v in m.ravel().tolist()]",
        "out.ravel()[:] = [Fraction(v) if v else 0 for v in m.ravel().tolist()]",
        ["tests/test_golden.py"],
    ),
    "walk-window-skips-a-step": (
        "pset.py",
        "gs, pts = gaps[t + 1 : b + 1], order[t + 1 : b + 1]",
        "gs, pts = gaps[t + 2 : b + 1], order[t + 2 : b + 1]",
        ["tests/test_sparse_forest.py::test_walks_past_the_peek_match_bfs"],
    ),
    "walk-peek-one-short": (
        "pset.py",
        "    for _ in range(_PEEK):\n        if t == end:",
        "    for _ in range(_PEEK):\n        if t == end - step:",
        ["tests/test_sparse_forest.py::test_walks_past_the_peek_match_bfs"],
    ),
    "run-bound-at-equal-gap": (
        "pset.py",
        "        if gap > eps:\n",
        "        if gap >= eps:\n",
        ["tests/test_sparse_forest.py::test_walks_past_the_peek_match_bfs"],
    ),
    "window-bound-at-equal-gap": (
        "pset.py",
        "        over = gs > eps\n",
        "        over = gs >= eps\n",
        ["tests/test_sparse_forest.py::test_walks_past_the_peek_match_bfs"],
    ),
    "rounds-stop-at-first-unrooted": (
        "rooted.py",
        "            continue\n        alive[px] = False",
        "            break\n        alive[px] = False",
        ["tests/test_acceptance.py::test_criterion_7_monte_carlo_convergence",
         "tests/test_cli.py::test_barcode_is_the_elder_barcode_of_the_flat_merges"],
    ),
    "barcode-death-is-sigma": (
        "cli.py",
        "r.support.breaks[0][1]",
        "r.support.breaks[0][0]",
        ["tests/test_cli.py::TestOtherCommands::test_barcode",
         "tests/test_cli.py::test_barcode_is_the_elder_barcode_of_the_flat_merges"],
    ),
    "heap-drops-watchers": (
        "rooted.py",
        "                heapq.heappush(heap, w)\n",
        "                pass\n",
        ["tests/test_sparse_forest.py::test_level_chains_match_dense_engine"],
    ),
    "linearize-default-full-grid": (
        "linalg.py",
        "fo.critical_scales() if scales is None",
        "np.unique(fo.space.distance_matrix()) if scales is None",
        ["tests/test_linalg.py::test_default_grid_refuses_without_a_distance_matrix",
         "tests/test_cli.py::test_no_module_makes_a_distance_matrix"],
    ),
    "budget-after-critical-scales": (
        "linalg.py",
        "    _check_budget(lowest, dim_budget, \"at least \")\n"
        "    eps_values = fo.critical_scales() if scales is None else np.asarray(scales, dtype=float)\n",
        "    eps_values = fo.critical_scales() if scales is None else np.asarray(scales, dtype=float)\n"
        "    _check_budget(lowest, dim_budget, \"at least \")\n",
        ["tests/test_linalg.py::TestLinearize::test_budget_refused_before_the_critical_scales"],
    ),
    "class-map-skips-the-label": (
        "linalg.py",
        "mat[basis[labels[p]], k] = 1",
        "mat[basis[p], k] = 1",
        ["tests/test_golden.py",
         "tests/test_linalg.py::TestSubsetIdempotents::test_found_subsets_induce_valid_idempotents"],
    ),
    "threshold-off-grid-passes": (
        "linalg.py",
        "if math.isfinite(theta) and theta not in eps:",
        "if False:",
        ["tests/test_linalg.py::test_a_threshold_between_critical_scales_fails"],
    ),
    "residual-check-off": (
        "linalg.py",
        "if any(db[g] != residual.dims[g] for g in db):",
        "if False:",
        ["tests/test_linalg.py::TestSplit::test_residual_of_another_view_fails_the_check"],
    ),
    "bottom-any-generator": (
        "linalg.py",
        "if px != 0 or not view.survives(x):",
        "if not view.survives(x):",
        ["tests/test_linalg.py::TestIdempotent::test_bottom_record_of_another_generator_is_refused"],
    ),
    "split-dims-unchecked": (
        "linalg.py",
        "    phi.check_idempotent()\n    da, db = {}, {}",
        "    da, db = {}, {}",
        ["tests/test_linalg.py::TestSplit::test_split_dims_rejects_a_non_idempotent",
         "tests/test_linalg.py::TestSplit::test_each_record_checks_its_idempotent_once"],
    ),
    "neighborly-support-at-root-level": (
        "rooted.py",
        "(fo.birth_level[px], float(fo.nn_dist[px]))",
        "(fo.birth_level[proot], float(fo.nn_dist[px]))",
        ["tests/test_sparse_forest.py::test_rooted_supports_are_the_merge_scale_runs"],
    ),
    "reader-keeps-equal-thetas": (
        "rooted.py",
        "for j, t in enumerate(thetas) if j == 0 or t != thetas[j - 1]]",
        "for j, t in enumerate(thetas)]",
        ["tests/test_rooted.py::TestPeelAll::test_json_round_trip_fields",
         "tests/test_rooted.py::TestPeelAll::test_supports_carry_the_levels_own_sigmas"],
    ),
    "document-separator-before-first-record": (
        "rooted.py",
        'parts += [",\\n" if k else "\\n", ',
        'parts += [",\\n", ',
        ["tests/test_golden.py", "tests/test_trace_json.py"],
    ),
    "min-poly-sign-dropped": (
        "linalg.py",
        "return list(-rows[:k, k]) + [Fraction(1)]",
        "return list(rows[:k, k]) + [Fraction(1)]",
        ["tests/test_linalg.py::TestExactKernel::test_min_poly_of_projection"],
    ),
}


def copy_checkout(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, work / part)
    shutil.copy(ROOT / "pyproject.toml", work)


def pytest(work: Path, tests) -> tuple:
    """Run ``tests`` in ``work``: pytest's exit code and the time taken."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                          cwd=work, capture_output=True, text=True)
    return proc.returncode, f"{time.monotonic() - start:5.1f} s"


def run(name: str, work: Path) -> str:
    path, old, new, tests = MUTANTS[name]
    copy_checkout(work)
    src = work / "src" / "rootpeel" / path
    text = src.read_text(encoding="utf-8")
    if text.count(old) != 1:
        return f"NO MATCH  {name}: the old text occurs {text.count(old)} times in {path}"
    src.write_text(text.replace(old, new), encoding="utf-8")
    code, took = pytest(work, tests)
    if code == 1:
        return f"killed    {name} ({took}): {' '.join(tests)}"
    return f"SURVIVED  {name} ({took}, pytest exit {code}): {' '.join(tests)}"


def main(names) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    names = names or list(MUTANTS)
    failed = 0
    with tempfile.TemporaryDirectory(prefix="rootpeel-mutants-") as tmp:
        base = Path(tmp) / "base"
        copy_checkout(base)
        for tests in dict.fromkeys(tuple(MUTANTS[name][3]) for name in names):
            code, took = pytest(base, tests)
            if code != 0:
                print(f"BROKEN    unmutated ({took}, pytest exit {code}): {' '.join(tests)}", flush=True)
                return 1
        for name in names:
            line = run(name, Path(tmp) / "work")
            print(line, flush=True)
            failed += not line.startswith("killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
