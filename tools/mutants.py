"""Mutation check: every listed mutant of the program must be killed by the
tests named for it.

Run from the root of a blocktune source tree (standard library only, plus
the test dependencies):

    python3 tools/mutants.py                 # every mutant
    python3 tools/mutants.py --list          # names only
    python3 tools/mutants.py NAME [NAME ...] # the named mutants

A mutant is one exact text replacement in one file. For each, the runner
copies the tree's source, tests and benchmark into a temporary directory,
applies the replacement there and runs the mutant's named tests. A mutant
those tests do not kill is run against the whole suite, to tell a stale
test list from a true survivor. Both runs deselect the pinned checks,
which compare outputs with files regenerated from the code they check: a
pin cannot vouch for the change that rewrote it, so a mutant killed only
by a pin counts as surviving. Hypothesis runs with a fixed seed, so a
result repeats.

Exit status 0 iff every mutant is killed by its named tests; 2 when those
tests fail on the unmutated tree.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

# What a test run needs from the tree.
COPIED = ("src", "tests", "bench", "BENCHMARK.json", "pyproject.toml")
# Byte checks against tests/data/pinned_*.json.
PINNED = ("-k", "not pinned and not Pinned",
          "--deselect", "tests/test_cli.py::test_bare_instance_with_ga_runs")
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0") + PINNED


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    # Pricing from repair's counts.
    Mutant("elite-stats-from-first-rows", "src/blocktune/ga.py",
           "stats[:, elite_rows]", "stats[:, :config.elitism_count]",
           ("tests/test_ga.py::TestRun::test_fitness_prices_the_counts_of_its_matrix",)),
    Mutant("wedged-rows-keep-first-stats", "src/blocktune/ga.py",
           "        stats[:, wedged] = repacked_stats\n", "",
           ("tests/test_ga.py::TestRun::test_fitness_prices_the_counts_of_its_matrix",)),
    Mutant("repair-reports-start-stats", "src/blocktune/_kernels.py",
           "        out[0][...] = counts2[:, :nb]\n"
           "        out[1][...] = loads2[:, :nb]\n",
           "        out[0][...] = np.bincount(bins, minlength=p * width)"
           ".reshape(p, width)[:, :nb]\n"
           "        out[1][...] = np.bincount(bins, weights=weights[:p * n], "
           "minlength=p * width).reshape(p, width)[:, :nb]\n",
           ("tests/test_kernels.py::test_repair_reports_final_counts_and_loads",
            "tests/test_kernels.py::test_repair_reports_one_row")),
    # The one distinct-row kernel. Its test draws columns past 16 rows, where
    # numpy's sorts leave insertion sort and an unstable sort reorders ties.
    Mutant("group-rows-unstable-sort", "src/blocktune/_kernels.py",
           'order = order[np.argsort(column[order], kind="stable")]',
           "order = order[np.argsort(column[order])]",
           ("tests/test_kernels.py::test_group_rows_matches_unique",)),
    Mutant("group-starts-from-first-column", "src/blocktune/_kernels.py",
           "    for column in columns:\n        ordered = column[order]\n",
           "    for column in columns[:1]:\n        ordered = column[order]\n",
           ("tests/test_kernels.py::test_group_rows_matches_unique",)),
    Mutant("group-rows-keys-reversed", "src/blocktune/_kernels.py",
           "for column in columns[-2::-1]:", "for column in columns[:-1]:",
           ("tests/test_kernels.py::test_group_rows_matches_unique",)),
    # Documented behaviour that once survived the whole suite.
    Mutant("range-end-extrapolates", "src/blocktune/surrogate.py",
           "(rows > self._hi)", "(rows >= self._hi)",
           ("tests/test_surrogate.py::TestPredictor::test_range_ends_are_not_extrapolation",)),
    Mutant("tie-is-a-loss", "src/blocktune/experiments.py",
           "all(tps_by_size[rec] >= tps for size, tps in tps_by_size.items())",
           "all(tps_by_size[rec] > tps for size, tps in tps_by_size.items() "
           "if size != rec)",
           ("tests/test_experiments.py::test_validation_calls_a_tie_a_win",)),
    Mutant("odd-top-half-short", "src/blocktune/experiments.py",
           "values[len(values) // 2:]", "values[(len(values) + 1) // 2:]",
           ("tests/test_experiments.py::test_stabilization_index_takes_the_top_half",)),
    Mutant("neighbours-clamped-past-ub", "src/blocktune/experiments.py",
           "min(max(rec + off, 1), ub)", "min(max(rec + off, 1), ub + 1)",
           ("tests/test_experiments.py::test_validation_never_simulates_above_ub",)),
    # The training grid's shared cuts and single pricing pass.
    Mutant("grid-key-drops-seed", "src/blocktune/simulator.py",
           "key = (bs, ts, seed)", "key = (bs, ts)",
           ("tests/test_simulator.py::test_training_grid_equals_per_cell_loop",)),
    Mutant("grid-key-drops-cut-rule", "src/blocktune/simulator.py",
           "key = (bs, ts, seed)", "key = (ts, seed)",
           ("tests/test_simulator.py::test_training_grid_equals_per_cell_loop",)),
    Mutant("grid-noise-from-base-seed", "src/blocktune/simulator.py",
           "jitters.append(_jitter(derive_seed(grid.rng_seed, cell, rep),",
           "jitters.append(_jitter(grid.rng_seed,",
           ("tests/test_simulator.py::test_training_grid_equals_per_cell_loop",)),
    Mutant("grid-arrivals-from-root-seed", "src/blocktune/simulator.py",
           'derive_seed(grid.rng_seed, "workload")', "grid.rng_seed",
           ("tests/test_simulator.py::test_training_grid_equals_per_cell_loop",)),
    Mutant("grid-checks-smallest-tx-size", "src/blocktune/simulator.py",
           "max(self.tx_sizes), self.max_bytes", "min(self.tx_sizes), self.max_bytes",
           ("tests/test_simulator.py::TestGenerateTrainingDataset::"
            "test_transaction_above_byte_cap_rejected",)),
    Mutant("grid-skips-service-check", "src/blocktune/simulator.py",
           "    _finite_times(service)\n    data = np.empty((count.size, 6))\n",
           "    data = np.empty((count.size, 6))\n",
           ("tests/test_simulator.py::test_training_grid_equals_per_cell_loop",
            "tests/test_simulator.py::TestGenerateTrainingDataset::"
            "test_overflowing_cost_rejected")),
    Mutant("grid-skips-bandwidth-check", "src/blocktune/simulator.py",
           "if not self.bandwidths or not all(0 < bw < math.inf "
           "for bw in self.bandwidths):",
           "if not self.bandwidths:",
           ("tests/test_simulator.py::TestGenerateTrainingDataset::"
            "test_bad_value_raises_as_its_scenario",)),
    # The training grid's cells and envelope.
    Mutant("tx-sizes-may-collapse", "src/blocktune/experiments.py",
           "if len(tx_sizes) < 2:", "if len(tx_sizes) < 1:",
           ("tests/test_cli.py::test_bad_config_value_exits_1",)),
    Mutant("bandwidth-factors-may-be-empty", "src/blocktune/experiments.py",
           "if not self.bandwidth_factors:", "if self.bandwidth_factors is None:",
           ("tests/test_cli.py::test_bad_config_value_exits_1",)),
    # Integers numpy cannot hold.
    Mutant("int-rule-unbounded-above", "src/blocktune/configio.py",
           "-2**63 <= check_number(value, where, integer=True) < 2**63",
           "-2**63 <= check_number(value, where, integer=True)",
           ("tests/test_configio.py::test_read_value_rejects",
            "tests/test_cli.py::test_bad_config_value_exits_1")),
    Mutant("sweep-tx-size-unbounded", "src/blocktune/experiments.py",
           "for size in sizes):", "for size in sizes[:0]):",
           ("tests/test_cli.py::test_bad_config_value_exits_1",)),
    # Sums of int64 values that must stay int64s.
    Mutant("byte-total-bounds-one-transaction", "src/blocktune/simulator.py",
           "if total_tx * max_tx_size >= 2**63:", "if max_tx_size >= 2**63:",
           ("tests/test_cli.py::test_bad_config_value_exits_1",)),
    Mutant("instance-byte-total-wraps", "src/blocktune/model.py",
           "total = sum(int(t.size_bytes) for t in txs)",
           "total = int(np.array([t.size_bytes for t in txs], dtype=np.int64).sum())",
           ("tests/test_cli.py::test_bad_config_value_exits_1",)),
    Mutant("cut-bound-wraps", "src/blocktune/simulator.py",
           "bound = np.minimum(cum[:-1], cum[-1] - max_bytes) + max_bytes",
           "bound = cum[:-1] + max_bytes",
           ("tests/test_cli.py::test_byte_sums_near_the_int64_limit",)),
    Mutant("envelope-from-all-rows", "src/blocktune/surrogate.py",
           "ranges = tuple(zip(points.min(axis=0).tolist(), points.max(axis=0).tolist()))",
           "ranges = tuple(zip(data[:, :3].min(axis=0).tolist(), "
           "data[:, :3].max(axis=0).tolist()))",
           ("tests/test_surrogate.py::TestPredictor::test_envelope_spans_the_train_rows",)),
    # The split plan and the level-at-a-time split search.
    Mutant("plan-prunes-on-cuts-alone", "src/blocktune/_kernels.py",
           "not any(np.array_equal(order[g], order[f])\n"
           "                                     and np.array_equal(cuts[g], cuts[f])",
           "not any(np.array_equal(cuts[g], cuts[f])",
           ("tests/test_kernels.py::test_plan_drops_the_features_that_cannot_win",
            "tests/test_surrogate.py::test_level_grower_matches_recursive_reference")),
    Mutant("plan-cuts-inside-runs", "src/blocktune/_kernels.py",
           "cuts[:, :-1] = values[:, :-1] < values[:, 1:]",
           "cuts[:, :-1] = values[:, :-1] <= values[:, 1:]",
           ("tests/test_surrogate.py::test_level_grower_matches_recursive_reference",)),
    Mutant("plan-root-counts-in-group-order", "src/blocktune/_kernels.py",
           "left = ranked.cumsum(axis=1)",
           "left = np.broadcast_to(counts.cumsum(), ranked.shape)",
           ("tests/test_surrogate.py::test_level_grower_matches_recursive_reference",)),
    Mutant("pass-keeps-the-plan-cuts", "src/blocktune/_kernels.py",
           "cuts, part = _cuts(values), ", "cuts, part = plan.cuts[kept].reshape(values.shape), ",
           ("tests/test_kernels.py::test_level_searches_each_node_alone",)),
    Mutant("level-tie-tolerance-dropped", "src/blocktune/_kernels.py",
           "(cand >= (best - TIE_RTOL * sum_sq[lo:hi])[:, None])", "(cand >= best[:, None])",
           ("tests/test_surrogate.py::test_level_grower_matches_recursive_reference",)),
    Mutant("level-threshold-next-global-value", "src/blocktune/_kernels.py",
           "values.take(first) + values[f, after]", "values.take(first) + values.take(first + 1)",
           ("tests/test_surrogate.py::test_level_grower_matches_recursive_reference",)),
    Mutant("level-min-samples-leaf-ignored", "src/blocktune/_kernels.py",
           "least = max(min_samples_leaf, 1)", "least = 1",
           ("tests/test_surrogate.py::test_level_grower_matches_recursive_reference",)),
    # The node-set check and the one-call forest walk.
    Mutant("child-may-be-its-parent", "src/blocktune/surrogate.py",
           "if ((child <= internal) | (child >= n - 1)).any():",
           "if ((child < internal) | (child >= n - 1)).any():",
           ("tests/test_surrogate.py::TestNodeChecks::test_walk_must_end",)),
    Mutant("last-node-left-child-accepted", "src/blocktune/surrogate.py",
           "(child >= n - 1)", "(child >= n)",
           ("tests/test_surrogate.py::TestNodeChecks::test_walk_must_end",)),
    # NaN goes right in the walk, as it falls in the last cell of a table.
    Mutant("walk-sends-nan-left", "src/blocktune/_kernels.py",
           "~(x <= threshold[idx])", "(x > threshold[idx])",
           ("tests/test_surrogate.py::TestCellTable::test_grid_answers_are_the_walks",)),
    Mutant("tree-may-have-two-roots", "src/blocktune/surrogate.py",
           "if self._roots.tolist() != [0]:", "if self._roots.tolist()[:1] != [0]:",
           ("tests/test_surrogate.py::TestNodeChecks::test_a_tree_has_one_root",)),
    Mutant("rounds-numbered-from-zero", "src/blocktune/surrogate.py",
           "levels, first)", "levels)",
           ("tests/test_surrogate.py::TestForestWalk::test_rounds_are_stored_back_to_back",)),
    Mutant("walk-chunk-skips-a-row", "src/blocktune/_kernels.py",
           "for lo in range(0, out.size, step):", "for lo in range(0, out.size, step + 1):",
           ("tests/test_surrogate.py::TestForestWalk::test_one_call_is_the_per_tree_walk",)),
    Mutant("learning-rate-once", "src/blocktune/_kernels.py",
           "        terms = np.column_stack((np.full(n, base), rate * value[node].reshape(n, t)))\n"
           "        out[lo:lo + n] = np.cumsum(terms, axis=1)[:, -1]\n",
           "        terms = np.column_stack((np.zeros(n), value[node].reshape(n, t)))\n"
           "        out[lo:lo + n] = base + rate * np.cumsum(terms, axis=1)[:, -1]\n",
           ("tests/test_surrogate.py::TestForestWalk::test_one_call_is_the_per_tree_walk",)),
    # Narrow population rows and column-major priced rows.
    Mutant("population-dtype-drops-marker", "src/blocktune/ga.py",
           "draw.astype(np.min_scalar_type(instance.nb))",
           "draw.astype(np.min_scalar_type(instance.nb - 1))",
           ("tests/test_kernels.py::test_population_rows_hold_the_unplaced_marker",)),
    Mutant("walk-flattens-in-memory-order", "src/blocktune/_kernels.py",
           "rows.ravel()", 'rows.ravel(order="K")',
           ("tests/test_surrogate.py::test_answers_do_not_depend_on_row_layout",)),
    # One-size pricing from a per-run count table, exact float64 byte sums.
    Mutant("count-table-prices-node-zero", "src/blocktune/model.py",
           "per_node.max(axis=1)))", "per_node[:, 0]))",
           ("tests/test_model.py::test_one_size_table_prices_as_processing_times",
            "tests/test_ga.py::TestRun::test_one_size_run_equals_the_general_path")),
    Mutant("count-table-extrapolates-once-per-block", "src/blocktune/model.py",
           "reshape(top, instance.m).sum(axis=1)", "reshape(top, instance.m).any(axis=1)",
           ("tests/test_model.py::test_one_size_table_prices_as_processing_times",
            "tests/test_ga.py::TestRun::test_one_size_run_equals_the_general_path")),
    # Every non-empty block priced directly, on its slowest node.
    Mutant("block-times-prices-node-zero", "src/blocktune/model.py",
           "    times[nonempty] = per_node.max(axis=1)\n",
           "    times[nonempty] = per_node[:, 0]\n",
           ("tests/test_model.py::test_population_prices_each_row_alone",)),
    Mutant("byte-total-bound-past-float-exact", "src/blocktune/model.py",
           "if total >= 2**53:", "if total >= 2**63:",
           ("tests/test_model.py::TestInstanceConstruction::"
            "test_rejects_byte_totals_float_sums_round",)),
    # The polynomial design, filled in place column by column.
    Mutant("design-column-left-unfilled", "src/blocktune/surrogate.py",
           "        design[:, j] = col\n",
           "        if j != 1:\n            design[:, j] = col\n",
           ("tests/test_surrogate.py::TestPolynomial::test_noiseless_recall_relative",
            "tests/test_surrogate.py::TestPolynomial::"
            "test_design_matrix_equals_product_of_powers")),
    # The per-block record array.
    Mutant("cut-reasons-from-wrong-column", "src/blocktune/simulator.py",
           "reasons = self.per_block_records.cut_reason",
           "reasons = self.per_block_records.block_bytes",
           ("tests/test_cli.py::test_simulate_summary_counts_its_block_table",)),
    Mutant("block-latency-not-per-tx", "src/blocktune/simulator.py",
           "commit, latency / count),", "commit, latency),",
           ("tests/test_simulator.py::test_run_simulation_matches_event_loop",)),
    Mutant("records-writable", "src/blocktune/simulator.py",
           "    records.flags.writeable = False\n", "",
           ("tests/test_cli.py::test_simulate_summary_counts_its_block_table",)),
)


def _copy_tree(root: str, dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache",
                                    ".bench_work")
    for part in COPIED:
        src = os.path.join(root, part)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, part), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, part))


def _passes(cwd: str, targets):
    """Whether the ``targets`` of the copy at ``cwd`` pass, pinned checks
    deselected, and pytest's output. Failing tests and collection errors
    kill a mutant; any other pytest failure, such as a test id that does
    not exist, raises."""
    env = dict(os.environ, PYTHONPATH=os.path.join(cwd, "src"))
    # The copy, not an installed blocktune, must be the one imported.
    found = subprocess.run(
        [sys.executable, "-c", "import blocktune; print(blocktune.__file__)"],
        cwd=cwd, env=env, capture_output=True, text=True).stdout.strip()
    if found and not os.path.realpath(found).startswith(os.path.realpath(cwd)):
        raise RuntimeError(f"blocktune imports from {found}, not from the copy in {cwd}")
    run = subprocess.run([sys.executable, *PYTEST, *targets], cwd=cwd, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if run.returncode not in (0, 1, 2):
        raise RuntimeError(f"pytest exited with status {run.returncode} on {' '.join(targets)}")
    return run.returncode == 0, run.stdout


def check(root: str, mutant: Mutant) -> str:
    """'killed', 'killed-elsewhere' (by the suite, not its named tests),
    'survived' or 'stale' (its old text is not in the file exactly once, or
    its new text names what is not defined: a NameError proves no test
    checks the rule)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(root, tmp)
        path = os.path.join(tmp, mutant.path)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if text.count(mutant.old) != 1:
            return "stale"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text.replace(mutant.old, mutant.new))
        passed, output = _passes(tmp, mutant.tests)
        if not passed:
            return "stale" if re.search(r"^E +NameError: ", output, re.M) else "killed"
        return "survived" if _passes(tmp, ["tests"])[0] else "killed-elsewhere"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the names and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        print("\n".join(by_name))
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "blocktune", "__init__.py")):
        parser.error("run from the root of a blocktune source tree")
    chosen = [by_name[n] for n in args.names] if args.names else list(MUTANTS)
    # A named test that fails without any mutant would pass every mutant off
    # as killed.
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        _copy_tree(root, tmp)
        tests = sorted({t for m in chosen for t in m.tests})
        if not _passes(tmp, tests)[0]:
            print("the named tests fail on the unmutated tree", file=sys.stderr)
            return 2
    failed = []
    for mutant in chosen:
        t0 = time.perf_counter()
        result = check(root, mutant)
        print(f"{result:16} {mutant.name} ({time.perf_counter() - t0:.1f} s)", flush=True)
        if result != "killed":
            failed.append(mutant.name)
    if failed:
        print(f"not killed by their named tests: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
