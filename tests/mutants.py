"""Mutants that the tests must kill, and the runner that checks they do.

Each entry of :data:`MUTANTS` is ``name: (file, text, replacement, tests)``:
``text`` occurs exactly once in ``file`` (a path from the repository root),
and with it replaced by ``replacement`` every test id in ``tests`` must fail.
A test id that passes on its mutant is a survivor.

Run from the repository root, outside the unit tests (it runs pytest once a
mutant)::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named mutants

For each mutant the runner copies the tree to a temporary directory, applies
the mutant there, runs only its tests, and lists the survivors.  It exits 0
when every mutant is killed, 1 when one survives, and 2 when a mutant cannot
be run: its text does not occur exactly once (a refactor moved it, so the
table must follow), or a named test reports no outcome.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BOUNDS = "src/adagibbs/bounds.py"
KERNELS = "src/adagibbs/kernels.py"
EXPERIMENTS = "src/adagibbs/experiments.py"
TARGETS = "src/adagibbs/targets.py"
LADDER = "src/adagibbs/ladder.py"
CLI = "src/adagibbs/cli.py"
VARIANCE = "src/adagibbs/variance.py"
SAMPLERS = "src/adagibbs/samplers.py"
ADAPTATION = "src/adagibbs/adaptation.py"

T_BOUNDS = "tests/test_bounds.py::"
T_KERNELS = "tests/test_kernels.py::"
T_CLI = "tests/test_experiments_cli.py::"
T_LADDER = "tests/test_ladder.py::"
T_ACCEPTANCE = "tests/test_acceptance.py::"
T_VARIANCE = "tests/test_variance.py::"
T_SAMPLERS = "tests/test_samplers.py::"
T_ADAPTATION = "tests/test_adaptation.py::"

EDGE = T_CLI + "test_geometric_gap_runs_at_its_edge_and_refuses_one_n_more"
UNFINISHABLE = T_CLI + "test_cli_rejects_configs_a_run_cannot_finish[{}]"
FOREIGN_FLAG = T_CLI + "test_cli_refuses_a_foreign_flag[{}]"
STOPS = T_LADDER + "test_truncated_evolution_stops_where_the_per_step_oracle_does[{}]"
FAMILY_ORACLES = T_BOUNDS + "test_weight_families_equal_the_per_target_oracles[{}]"
BLOCK_ORACLE = T_SAMPLERS + "test_fixed_parameter_run_equals_the_block_draw_oracle[{}]"
BAD_THIRD = T_SAMPLERS + "test_a_bad_weight_object_after_two_good_ones_raises_at_its_step[{}]"
STREAM_ORDER = T_SAMPLERS + "test_gibbs_run_reads_its_uniforms_in_stream_order[{}]"
INT_RUNG = T_LADDER + "test_integral_non_int_entries_give_the_tables_of_the_int_rung[{}]"
NOT_A_RUNG = T_LADDER + "test_a_state_of_another_length_is_not_a_rung[{}]"
NOT_A_NUMBER = T_LADDER + "test_a_pair_with_an_entry_that_is_not_a_number_is_not_a_rung[{}]"
NO_HORIZON = T_LADDER + "test_truncated_evolution_without_a_horizon_equals_the_per_step_oracle[{}]"
UNBOUNDED_PUSH = T_LADDER + "test_unbounded_law_equals_the_per_step_push_bit_for_bit[{}]"

MUTANTS = {
    # the geometric-target example on its exact reductions
    "geometric-tv-without-the-rest-atom": (
        BOUNDS,
        "proposal_gap=0.5 * float(np.abs(diffs).sum())",
        "proposal_gap=0.5 * float(np.abs(diffs[:2]).sum())",
        [T_BOUNDS + "test_geometric_gap_closed_forms",
         T_BOUNDS + "test_geometric_gap_equals_the_dense_oracle",
         T_BOUNDS + "test_geometric_proposal_gap_equals_the_rational_oracle"],
    ),
    "geometric-rest-from-its-two-probabilities": (
        BOUNDS,
        "    diffs[2] = masses[2] * z_drop / (totals[0] * totals[1])\n",
        "    diffs[2] = laws[1][2] - laws[0][2]\n",
        [T_BOUNDS + "test_geometric_proposal_gap_equals_the_rational_oracle"],
    ),
    "geometric-kernel-reads-the-move-0-to-n": (
        BOUNDS,
        "np.array([row, row]))[0, 1]",
        "np.array([row, row]))[1, 0]",
        [T_BOUNDS + "test_geometric_gap_closed_forms",
         T_BOUNDS + "test_geometric_gap_equals_the_dense_oracle"],
    ),
    "geometric-rest-summed-on-a-grid": (
        BOUNDS,
        "1.0 / (1.0 - p) - p**n - p ** (n + 1)])",
        "(p ** np.arange(64 * n)).sum() - p**n - p ** (n + 1)])",
        [T_BOUNDS + "test_geometric_gap_memory_does_not_grow_with_p_or_n"],
    ),
    "geometric-gap-past-the-limit": (
        BOUNDS,
        "n >= 1 and geometric_mass_is_normal(p, n))",
        "n >= 1)",
        [T_BOUNDS + "test_geometric_gap_runs_to_the_last_normal_target_mass"],
    ),
    "geometric-limit-strict": (
        BOUNDS,
        "p**n * (1.0 - p) >= sys.float_info.min",
        "p**n * (1.0 - p) > sys.float_info.min",
        [T_BOUNDS + "test_geometric_gap_runs_to_the_last_normal_target_mass",
         T_CLI + "test_cross_field_rules_accept_their_edge[geometric-gap-at-the-cap]",
         EDGE],
    ),
    "geometric-limit-without-one-minus-p": (
        BOUNDS,
        "p**n * (1.0 - p) >= sys.float_info.min",
        "p**n >= sys.float_info.min",
        [T_BOUNDS + "test_geometric_gap_runs_to_the_last_normal_target_mass", EDGE],
    ),
    "geometric-sweep-rule-reads-the-largest-p": (
        EXPERIMENTS,
        'all(geometric_mass_is_normal(pv, p["n_max"]) for pv in p["p_values"])',
        'geometric_mass_is_normal(max(p["p_values"]), p["n_max"])',
        [UNFINISHABLE.format("geometric-gap-long-sweep")],
    ),
    "geometric-sweep-rule-reads-the-first-p": (
        EXPERIMENTS,
        'all(geometric_mass_is_normal(pv, p["n_max"]) for pv in p["p_values"])',
        'geometric_mass_is_normal(p["p_values"][0], p["n_max"])',
        [UNFINISHABLE.format("geometric-gap-long-sweep")],
    ),
    "geometric-sweep-rule-at-n-min": (
        EXPERIMENTS,
        'all(geometric_mass_is_normal(pv, p["n_max"]) for pv in p["p_values"])',
        'all(geometric_mass_is_normal(pv, p["n_min"]) for pv in p["p_values"])',
        [UNFINISHABLE.format("geometric-gap-long-sweep"), EDGE],
    ),
    "geometric-trend-at-a-fixed-distance": (
        EXPERIMENTS,
        'abs(series[-1] - limit) > pv ** p["n_max"] + 1e-12',
        "abs(series[-1] - limit) > 1e-5",
        [T_CLI + "test_geometric_gap_trend_reads_the_distance_left_at_n_max"],
    ),
    "geometric-check-rule-reads-proposal-n-only": (
        EXPERIMENTS,
        'geometric_mass_is_normal(p["check_p"], max(p["proposal_n"], p["kernel_n"]))',
        'geometric_mass_is_normal(p["check_p"], p["proposal_n"])',
        [UNFINISHABLE.format("geometric-gap-late-kernel-point"), EDGE],
    ),
    "geometric-check-rule-reads-kernel-n-only": (
        EXPERIMENTS,
        'geometric_mass_is_normal(p["check_p"], max(p["proposal_n"], p["kernel_n"]))',
        'geometric_mass_is_normal(p["check_p"], p["kernel_n"])',
        [UNFINISHABLE.format("geometric-gap-check-too-large"), EDGE],
    ),
    # simulate's trace memory follows its horizon
    "ladder-trace-allocated-for-the-cap": (
        LADDER,
        "    chunks = [np.array([tv(v, pi)])]\n",
        "    chunks = [np.array([tv(v, pi)])]\n    np.empty(max_steps + 1)\n",
        [T_ACCEPTANCE + "test_truncated_ladder_memory_follows_its_horizon_not_its_cap"],
    ),
    "ladder-trace-one-step-past-the-horizon": (
        LADDER,
        "chunk[: below[0] + 1]",
        "chunk[: below[0] + 2]",
        # [64] and [128] stop at a chunk's last step, where the slice ends anyway
        [STOPS.format(1), STOPS.format(65),
         T_ACCEPTANCE + "test_criterion_5_truncated_ladder_ergodicity"],
    ),
    "ladder-last-step-of-each-chunk-unchecked": (
        LADDER,
        "below = np.flatnonzero(chunk < tv_target)",
        "below = np.flatnonzero(chunk[:-1] < tv_target)",
        [STOPS.format(64)],
    ),
    "ladder-first-step-of-each-chunk-skipped": (
        LADDER,
        "below = np.flatnonzero(chunk < tv_target)",
        "below = 1 + np.flatnonzero(chunk[1:] < tv_target)",
        [STOPS.format(65)],
    ),
    "ladder-horizon-one-step-early": (
        LADDER,
        "done + 1 + int(below[0])",
        "done + int(below[0])",
        [STOPS.format(n) for n in (1, 64, 65, 128)],
    ),
    # the exact ladder law on three diagonals
    "ladder-tilt-sign-flipped": (
        LADDER,
        "return 0.5 * moves, moves * [[1.0], [-1.0]]",
        "return 0.5 * moves, moves * [[-1.0], [1.0]]",
        [T_LADDER + "test_step_law_matches_closed_forms",
         T_LADDER + "test_fast_evolution_matches_generic_evolution"],
    ),
    "ladder-top-rung-uncapped": (
        LADDER,
        "    up[-1] = up_slope[-1] = 0.0\n",
        "",
        [T_LADDER + "test_fast_evolution_matches_generic_evolution",
         T_LADDER + "test_rung_law_matches_the_dense_law_on_the_truncated_ladder[2-schedule_a]"],
    ),
    "ladder-fall-from-the-bottom-rung": (
        LADDER,
        "np.where(rungs > 0, split, 0.0)",
        "np.where(rungs >= 0, split, 0.0)",
        [T_LADDER + "test_step_law_bottom_state"],
    ),
    "ladder-contains-without-integrality": (
        LADDER,
        "return (i, j) == (x[0], x[1])",
        "return True",
        [T_LADDER + "test_contains_refuses_a_non_integral_state",
         T_LADDER + "test_a_run_refuses_a_non_integral_start",
         T_LADDER + "test_step_law_refuses_a_non_integral_state"],
    ),
    "ladder-block-memory-inclusive-below": (
        LADDER,
        "if c[k - 1] < n <= c[k]:",
        "if c[k - 1] <= n <= c[k]:",
        [T_LADDER + "test_block_lookup_with_memory_equals_a_bisect_of_the_replayed_boundaries"],
    ),
    "ladder-cdf-numerator-of-the-lower-rung": (
        LADDER,
        "(i * i / float(",
        "((i - 1) * (i - 1) / float(",
        [T_LADDER + "test_conditional_cdf_is_the_running_sum_of_the_conditional",
         T_SAMPLERS + "test_ladder_run_matches_straight_line_oracle"],
    ),
    "ladder-rung-entries-not-made-int": (
        LADDER,
        "        if type(i) is not int:\n            i = int(i)\n"
        "        if type(j) is not int:\n            j = int(j)\n",
        "",
        [INT_RUNG.format(case) for case in ("floats", "float-int", "bottom", "numpy")],
    ),
    "ladder-rung-of-any-length": (
        LADDER,
        "        i, j = x\n",
        "        i, j = x[:2]\n",
        [NOT_A_RUNG.format("rung-and-more"), NOT_A_RUNG.format("bottom-and-more"),
         T_LADDER + "test_a_run_refuses_a_start_of_another_length[triple]"],
    ),
    "ladder-type-error-let-through": (
        LADDER,
        "    except (TypeError, ValueError, OverflowError):\n",
        "    except (ValueError, OverflowError):\n",
        [NOT_A_NUMBER.format(case) for case in ("none-first", "complex-first", "none-second")],
    ),
    # the exact ladder laws pushed from moves built a chunk at a time
    "ladder-chunk-tilts-one-step-late": (
        LADDER,
        "a_of_n(done + k + 1)",
        "a_of_n(done + k + 2)",
        [NO_HORIZON.format(63), NO_HORIZON.format(129), STOPS.format(65)],
    ),
    "ladder-shifted-adds-swapped": (
        LADDER,
        "    np.add(moved[2, 1:], moved[0, :-1], out=out[1:])\n"
        "    out[0] = moved[2, 0]\n"
        "    out[:-1] += moved[1, 1:]\n",
        "    np.add(moved[2, :-1], moved[1, 1:], out=out[:-1])\n"
        "    out[-1] = moved[2, -1]\n"
        "    out[1:] += moved[0, :-1]\n",
        [NO_HORIZON.format(129), UNBOUNDED_PUSH.format(2000)],
    ),
    # the IACT's window transform
    "iact-transform-at-2n": (
        VARIANCE,
        "size = 1 << n.bit_length()  # the least power of two above n",
        "size = 2 * n",
        [T_VARIANCE + "test_iact_doubles_its_window_while_the_pairs_stay_positive",
         T_VARIANCE + "test_iact_memory_is_a_window_transform"],
    ),
    "iact-no-doubling": (
        VARIANCE,
        "        size *= 2\n",
        "        return float(2.0 * total - 1.0)\n",
        [T_VARIANCE + "test_iact_matches_the_full_length_oracle[0.9-2047]",
         T_VARIANCE + "test_iact_matches_the_full_length_oracle[0.99-1000]"],
    ),
    "iact-wrapped-lag-admitted": (
        VARIANCE,
        "[: min(size - n + 1, n)]",
        "[: min(size - n + 2, n)]",
        [T_VARIANCE + "test_autocovariances_are_every_exact_lag[False-1000]",
         T_VARIANCE + "test_autocovariances_are_every_exact_lag[False-2049]"],
    ),
    # the per-step loop of both adaptive samplers
    "gibbs-uniform-chunk-stride-one-short": (
        SAMPLERS,
        "chunks = range(0, 2 * n_steps, UNIFORM_CHUNK)",
        "chunks = range(0, 2 * n_steps, UNIFORM_CHUNK - 1)",
        [STREAM_ORDER.format(n) for n in (2049, 5000)],
    ),
    "loop-weight-memory-takes-any-object": (
        SAMPLERS,
        "(out if out is other else _checked_weights(out, epsilon, d))",
        "out",
        [BAD_THIRD.format("other-floor"), BAD_THIRD.format("tuple")],
    ),
    "loop-proposal-memory-takes-any-object": (
        SAMPLERS,
        "(gamma_n if gamma_n is other else _checked_gamma(gamma_n, d))",
        "gamma_n",
        [T_SAMPLERS + "test_a_bad_proposal_after_two_good_ones_raises_at_its_step"],
    ),
    # fixed-parameter Metropolis-within-Gibbs in draw blocks
    "mwg-coordinate-drawn-with-side-left": (
        SAMPLERS,
        'rng.random(size), side="right")',
        'rng.random(size), side="left")',
        [T_SAMPLERS + "test_a_coordinate_uniform_on_a_weight_boundary_picks_the_coordinate_above"],
    ),
    "mwg-normals-drawn-first": (
        SAMPLERS,
        '        chosen = np.searchsorted(cumulative, rng.random(size), side="right")\n'
        "        increments = sd[chosen] * rng.standard_normal(size)\n",
        "        normals = rng.standard_normal(size)\n"
        '        chosen = np.searchsorted(cumulative, rng.random(size), side="right")\n'
        "        increments = sd[chosen] * normals\n",
        [BLOCK_ORACLE.format("1025-product")],
    ),
    "mwg-block-one-longer": (
        SAMPLERS,
        "DRAW_BLOCK = 2**10",
        "DRAW_BLOCK = 2**10 + 1",
        [T_CLI + "test_optimal_scan_outputs_are_pinned"],
    ),
    "mwg-variance-as-standard-deviation": (
        SAMPLERS,
        "sd = np.sqrt(_checked_gamma(gamma, d))",
        "sd = np.asarray(_checked_gamma(gamma, d))",
        [BLOCK_ORACLE.format("1-product")],
    ),
    "mwg-increments-doubled": (
        SAMPLERS,
        "increments = sd[chosen] * rng.standard_normal(size)",
        "increments = 2.0 * sd[chosen] * rng.standard_normal(size)",
        [BLOCK_ORACLE.format("1024-product")],
    ),
    "mwg-density-reused-on-any-target": (
        SAMPLERS,
        '    reuse = getattr(target, "INDEPENDENT_COORDINATES", False)\n    d = len(x0)\n',
        "    reuse = True\n    d = len(x0)\n",
        [BLOCK_ORACLE.format("1025-non-product")],
    ),
    # the acceptance-rate tuner of the doubly adaptive sampler
    "adaptation-step-never-shrinks": (
        ADAPTATION,
        "return min(0.1, batch_index**-0.5)",
        "return 0.1",
        [T_ADAPTATION + "test_adaptation_step_size",
         T_ADAPTATION + "test_rr_weight_gap_shrinks_with_the_step"],
    ),
    "adaptation-unproposed-coordinate-moves": (
        ADAPTATION,
        "            if proposals[k] > 0:\n",
        "            if True:\n",
        [T_ADAPTATION + "test_rr_update_direction_and_clamp"],
    ),
    "adaptation-log-scale-unclamped": (
        ADAPTATION,
        "self.log_scales[k] = min(max(ls, -LOG_SCALE_CLAMP), LOG_SCALE_CLAMP)",
        "self.log_scales[k] = ls",
        [T_ADAPTATION + "test_rr_update_direction_and_clamp"],
    ),
    "adaptation-batch-boundary-one-step-late": (
        ADAPTATION,
        "if n % BATCH_SIZE == 0:",
        "if n % BATCH_SIZE == 1:",
        [T_ADAPTATION + "test_batch_refresh_matches_straight_line_replay[41]",
         T_ADAPTATION + "test_batch_refresh_matches_straight_line_replay[43]"],
    ),
    # the bounds experiment's stacked weight draws
    "bounds-draws-in-state-count-order": (
        EXPERIMENTS,
        "    for k, raw in enumerate(draws):\n",
        "    for k, raw in sorted(enumerate(draws), key=lambda kr: len(targets[kr[0] // count].states)):\n",
        [FAMILY_ORACLES.format("benchmark-size")],
    ),
    "bounds-uniform-draws-before-the-lipschitz-pairs": (
        EXPERIMENTS,
        '    pairs = _weight_draws(rng, targets, 2) if "lipschitz" in p["families"] else None\n'
        '    draws = _weight_draws(rng, targets, p["n_alphas"]) if "uniform" in p["families"] else None\n',
        '    draws = _weight_draws(rng, targets, p["n_alphas"]) if "uniform" in p["families"] else None\n'
        '    pairs = _weight_draws(rng, targets, 2) if "lipschitz" in p["families"] else None\n',
        [FAMILY_ORACLES.format("benchmark-size")],
    ),
    "bounds-last-worst-step": (
        BOUNDS,
        "worst = np.argmin(margins, axis=0)",
        "worst = len(margins) - 1 - np.argmin(margins[::-1], axis=0)",
        [T_BOUNDS + "test_uniform_family_keeps_the_first_worst_step"],
    ),
    "bounds-stack-cap-ignored": (
        BOUNDS,
        "per_stack = max(1, STACK_BYTES // (8 * (size * size + horizon)))",
        "per_stack = len(group)",
        [T_BOUNDS + "test_uniform_family_stacks_stay_at_the_per_draw_loop"],
    ),
    "bounds-targets-kept": (
        BOUNDS,
        "            targets[t] = None\n",
        "            pass\n",
        [T_BOUNDS + "test_weight_families_free_each_group_of_targets"],
    ),
    # the bounds experiment's kernels from coordinate moves, and its TV reads
    "bounds-step-1-unread": (
        BOUNDS,
        "reads = [0, *(1 + np.flatnonzero(",
        "reads = [*(1 + np.flatnonzero(",
        [FAMILY_ORACLES.format("benchmark-size"),
         T_BOUNDS + "test_uniform_family_keeps_the_first_worst_step"],
    ),
    "bounds-powering-one-step-short": (
        BOUNDS,
        "for _ in range(done, n + 1):",
        "for _ in range(done, n):",
        [FAMILY_ORACLES.format("benchmark-size"),
         T_BOUNDS + "test_uniform_family_reads_a_bound_that_dips_for_one_step"],
    ),
    "bounds-every-other-change-step-read": (
        BOUNDS,
        "(bounds[1:] != bounds[:-1]).any(axis=1))).tolist()]",
        "(bounds[1:] != bounds[:-1]).any(axis=1))).tolist()][::2]",
        [T_BOUNDS + "test_uniform_family_reads_a_bound_that_dips_for_one_step"],
    ),
    "bounds-numpy-power": (
        BOUNDS,
        "return np.array([powers[k] for k in counts])",
        "return (1.0 - mass) ** regenerations",
        [T_BOUNDS + "test_uniform_bound_on_an_array_of_steps_equals_its_scalar_calls"],
    ),
    "bounds-moves-shared-across-a-stack": (
        BOUNDS,
        "mix_coordinate_moves(per_target[t][4], weights, size)",
        "mix_coordinate_moves(per_target[owners[0]][4], weights, size)",
        [FAMILY_ORACLES.format("benchmark-size")],
    ),
    "bounds-moves-built-per-kernel": (
        BOUNDS,
        "kernels[g] = mix_coordinate_moves(per_target[t][4], weights, size)",
        "kernels[g] = mix_coordinate_moves(_moves(targets[t]), weights, size)",
        [T_BOUNDS + "test_each_family_builds_a_targets_moves_once[uniform]"],
    ),
    "fibre-cache-keyed-without-the-coordinate": (
        TARGETS,
        "cached = self._fibres.get(i)",
        "cached = next(iter(self._fibres.values()), None)",
        [T_KERNELS + "test_coordinate_moves_equal_the_straight_line_oracle",
         T_KERNELS + "test_mixed_coordinate_moves_equal_the_dense_sum_bit_for_bit"],
    ),
    "fibres-regrouped-every-call": (
        TARGETS,
        "        if cached is None:\n",
        "        if True:\n",
        [T_KERNELS + "test_coordinate_moves_group_the_states_once_per_coordinate"],
    ),
    "fibres-kept-beyond-their-target": (
        TARGETS,
        "        self._fibres: dict = {}\n",
        "        self._fibres = {}\n        FiniteProductTarget.kept = getattr(FiniteProductTarget, 'kept', []) + [self._fibres]\n",
        [T_KERNELS + "test_fibres_are_freed_with_their_target"],
    ),
    "random-target-strides-reversed": (
        EXPERIMENTS,
        "zip(strides, x)",
        "zip(strides[::-1], x)",
        [T_CLI + f"test_random_target_masses_are_read_at_their_row_major_index[{seed}]"
         for seed in range(8)],
    ),
    "tables-write-none-as-text": (
        EXPERIMENTS,
        "        writer.writerows(rows)\n",
        "        writer.writerows([str(v) for v in row] for row in rows)\n",
        [T_CLI + "test_tables_write_python_cells_as_before"],
    ),
    "tables-write-numpy-reprs": (
        EXPERIMENTS,
        "        writer.writerows(rows)\n",
        "        writer.writerows([repr(v) if isinstance(v, float) else v for v in row] for row in rows)\n",
        [T_CLI + "test_tables_write_numpy_cells_as_plain_numbers"],
    ),
    "kernels-mixed-in-reverse-coordinate-order": (
        KERNELS,
        "zip(weights, moves, strict=True)",
        "zip(weights[::-1], moves[::-1], strict=True)",
        [T_KERNELS + "test_mixed_coordinate_moves_equal_the_dense_sum_bit_for_bit"],
    ),
    # one job per subcommand, and the rules refused at parse time
    "cli-config-not-required": (
        CLI,
        'p.add_argument("--config", required=True,',
        'p.add_argument("--config", required=False,',
        [FOREIGN_FLAG.format("variance-no-config")],
    ),
    "cli-variance-takes-a-trajectory": (
        CLI,
        'p.add_argument("--trajectory", action=_TrajectoryMovedToIact, help=argparse.SUPPRESS)',
        'p.add_argument("--trajectory")',
        [FOREIGN_FLAG.format("variance-config-trajectory")],
    ),
    "cli-variance-trajectory-without-the-iact-hint": (
        CLI,
        """f"with 'adagibbs iact PATH'")""",
        """f"elsewhere")""",
        [FOREIGN_FLAG.format(case)
         for case in ("variance-trajectory", "variance-config-trajectory")],
    ),
    "cli-experiments-take-a-burn-in": (
        CLI,
        '        p.add_argument("--out", default=None, help="output directory")\n',
        '        p.add_argument("--out", default=None, help="output directory")\n'
        '        p.add_argument("--burn-in")\n',
        [FOREIGN_FLAG.format(case) for case in ("variance-burn-in-0", "variance-burn-in-100")],
    ),
    "cli-iact-takes-the-run-flags": (
        CLI,
        '    p.add_argument("trajectory", help="trajectory CSV to analyse")\n',
        '    p.add_argument("trajectory", help="trajectory CSV to analyse")\n'
        '    p.add_argument("--seed")\n'
        '    p.add_argument("--out")\n'
        '    p.add_argument("--check", action="store_true")\n'
        '    p.add_argument("--config")\n',
        [FOREIGN_FLAG.format(case) for case in ("iact-check", "iact-config", "iact-out", "iact-seed")],
    ),
    "out-under-a-file-not-refused": (
        EXPERIMENTS,
        "    if not os.path.isdir(existing):\n",
        "    if False:\n",
        [T_CLI + "test_cli_refuses_an_out_path_under_a_file[child]",
         T_CLI + "test_cli_refuses_an_out_path_under_a_file[grandchild]"],
    ),
    "counterexample-successes-rule-disabled": (
        EXPERIMENTS,
        'lambda p: p["min_successes"] <= p["n_runs"]',
        "lambda p: True",
        [UNFINISHABLE.format("counterexample-more-successes-than-runs")],
    ),
    "counterexample-successes-rule-strict": (
        EXPERIMENTS,
        'lambda p: p["min_successes"] <= p["n_runs"]',
        'lambda p: p["min_successes"] < p["n_runs"]',
        [T_CLI + "test_cross_field_rules_accept_their_edge[successes-equal-runs]"],
    ),
    "optimal-scan-window-rule-disabled": (
        EXPERIMENTS,
        'lambda p: p["window_batches"] <= p["n_batches"]',
        "lambda p: True",
        [UNFINISHABLE.format("optimal-scan-window-past-start")],
    ),
}

OUTCOMES = ("PASSED", "FAILED", "ERROR")


class MutantError(Exception):
    """A mutant that cannot be run as written."""


def apply(name: str, root: Path):
    """Replace ``name``'s text in its file under ``root``."""
    path, text, replacement, _ = MUTANTS[name]
    target = root / path
    source = target.read_text()
    count = source.count(text)
    if count != 1:
        raise MutantError(f"{name}: its text occurs {count} times in {path}, not once")
    target.write_text(source.replace(text, replacement))


def survivors(name: str) -> list:
    """The test ids of ``name`` that pass on a copy of the tree with the
    mutant applied."""
    tests = MUTANTS[name][3]
    with tempfile.TemporaryDirectory(prefix="adagibbs-mutant-") as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT, copy, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info", "runs"))
        apply(name, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rA", "--tb=no", "-p", "no:cacheprovider",
             *tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    outcomes = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in OUTCOMES:
            outcomes[rest.split(" - ")[0]] = word
    missing = [test for test in tests if test not in outcomes]
    if missing:
        raise MutantError(f"{name}: no outcome for {missing}\n{run.stdout[-2000:]}")
    return [test for test in tests if outcomes[test] == "PASSED"]


def main(names: list) -> int:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    status = 0
    for name in names or MUTANTS:
        try:
            alive = survivors(name)
        except MutantError as exc:
            print(f"ERROR {exc}")
            status = 2
            continue
        if alive:
            print(f"SURVIVED {name}: {', '.join(alive)}")
            status = max(status, 1)
        else:
            print(f"killed {name}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
