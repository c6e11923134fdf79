"""Experiment CLI: learn rules, compare policies, report.

Subcommands:
  learn     build adaptation rules (per-model CI matrix CSVs) from profiles
  compare   run adamls, naive, and every static model on one request stream
  report    rank policies per weight pair from a comparison directory;
            --timeseries re-derives utility_timeseries.csv from its results
  study     learn and compare per master seed, then count the seeds on
            which each of the paper's four policy orderings holds

All outputs are plain CSV; rerunning any command with the same configuration
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from functools import partial
from itertools import chain, count, repeat
from pathlib import Path

from . import config as cfgmod
from .controller import Knowledge, rule_rows
from .csvtext import read_rows, write_rows
from .errors import AdamlsError, RuleError
from .learning import attach_anchor_stats, read_ci_matrix, write_ci_matrix
from .metrics import RunSummary, UtilityParams, UtilityTerms, running_total, summarize
from .profiles import write_profiles
from .simulator import (
    RESULTS_CSV_HEADER, ResultTexts, run_simulation, write_event_log_csv, write_results_csv
)

SUMMARY_CSV_HEADER = (
    "policy", "requests", "switches", "avg_c", "avg_r", "avg_s_cpu", "r_penalties", "c_penalties"
)
SWEEP_CSV_HEADER = ("w_e", "w_d", "policy", "total_utility")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        if args.command == "study":
            return run_study(config, args.seeds)
        return args.run(config)
    except (AdamlsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    """Each command takes --config and --out, plus only the flags it reads."""
    parser = argparse.ArgumentParser(
        prog="adamls", description="QoS-aware model-switching experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="experiment YAML file")
    common.add_argument("--out", default=None, help="output directory")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, help="override master seed")

    learn = sub.add_parser(
        "learn", parents=[seeded], help="learn adaptation rules from model profiles"
    )
    learn.set_defaults(run=run_learn)
    compare = sub.add_parser(
        "compare", parents=[seeded], help="run all policies on the identical workload"
    )
    compare.set_defaults(run=run_compare)
    report = sub.add_parser(
        "report", parents=[common],
        help="rank policies; --timeseries derives utility_timeseries.csv",
    )
    report.set_defaults(run=run_report)
    # The flag swaps report's run for one that also derives the series.
    report.add_argument(
        "--timeseries", dest="run", action="store_const",
        const=partial(run_report, timeseries=True),
        help="also derive utility_timeseries.csv from compare's results.csv files; "
        "--config must be compare's (a w_e, w_d that differs goes undetected)",
    )
    # No abbreviations here, or --seed would be read as --seeds.
    study = sub.add_parser(
        "study", parents=[common], allow_abbrev=False,
        help="learn and compare per seed, then the ordering verdicts",
    )
    study.add_argument(
        "--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5], metavar="N",
        help="master seeds, each run into <out>/seed<N>/ (default: 1 2 3 4 5)",
    )
    return parser


def _load_config(args) -> cfgmod.ExperimentConfig:
    config = cfgmod.DEFAULT_CONFIG
    if args.config is not None:
        config = cfgmod.load_experiment_config(args.config)
    overrides = {"master_seed": vars(args).get("seed"), "output_dir": args.out}
    return dataclasses.replace(config, **{k: v for k, v in overrides.items() if v is not None})


def run_learn(config: cfgmod.ExperimentConfig) -> int:
    _learn(config, cfgmod.resolve_profiles(config))
    return 0


def _learn(config: cfgmod.ExperimentConfig, profiles) -> None:
    """learn's rules and files, from the resolved profiles."""
    out_dir = Path(config.output_dir)
    rules_dir = out_dir / "rules"
    rules = cfgmod.learn_rules(config, profiles)
    rules_dir.mkdir(parents=True, exist_ok=True)
    if config.profiles.source == "generate":
        write_profiles(profiles, out_dir / "profiles.csv")
    for model_id in sorted(rules):
        write_ci_matrix(rules[model_id].ci_matrix, rules_dir / f"{model_id}.csv")
    report_rows = (
        (model_id, rules[model_id].k, k, wcss)
        for model_id in sorted(rules)
        for k, wcss in enumerate(rules[model_id].wcss_series, start=1)
    )
    report_path = rules_dir / f"{cfgmod.CLUSTERING_REPORT}.csv"
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, ("model", "k_selected", "k", "wcss"), report_rows)
    for model_id in sorted(rules):
        learned = rules[model_id]
        clusters = len(learned.ci_matrix.entries)
        print(f"learned {model_id}: k={learned.k} ({clusters} cluster(s))")
    print(f"rules written to {rules_dir}")


def _load_rule_matrices(config: cfgmod.ExperimentConfig, profiles) -> dict:
    rules_dir = Path(config.output_dir) / "rules"
    matrices = {}
    for profile in profiles:
        path = rules_dir / f"{profile.model_id}.csv"
        if not path.exists():
            raise AdamlsError(
                f"missing rule file {path}; run the learn command first"
            )
        matrix = read_ci_matrix(path)
        try:
            matrix = matrices[profile.model_id] = attach_anchor_stats(matrix, profile)
            # The planner's rows, kept on the matrix: a rule it cannot use is named with its file.
            matrix.derived(rule_rows)
        except RuleError as exc:
            raise RuleError(f"{path}: {exc}") from exc
    return matrices


def _run_policy(config: cfgmod.ExperimentConfig, label: str, profiles, matrices, requests):
    policy_spec = cfgmod.parse_policy_label(label, config)
    knowledge = Knowledge(adaptation_rule_repository=dict(matrices))
    sim_config = cfgmod.build_sim_config(config, policy_spec, profiles)
    completions, events = run_simulation(sim_config, requests, knowledge)
    summary = summarize(
        completions,
        events,
        weight_grid=config.weight_grid,
        params=config.utility,
        policy=label,
    )
    return completions, events, summary


def run_compare(config: cfgmod.ExperimentConfig) -> int:
    _compare(config, cfgmod.resolve_profiles(config))
    return 0


def _compare(config: cfgmod.ExperimentConfig, profiles) -> list[RunSummary]:
    """compare's runs and files, from the resolved profiles and the rule
    files learn wrote; returns each policy's summary."""
    out_dir = Path(config.output_dir)
    matrices = _load_rule_matrices(config, profiles)
    labels = cfgmod.compare_policy_labels(config, profiles)
    summaries: list[RunSummary] = []
    # Common random numbers: every policy serves this one request stream.
    requests = cfgmod.build_request_stream(config, profiles)
    texts = ResultTexts(requests)
    # report --timeseries derives this file from the results rewritten below.
    (out_dir / "utility_timeseries.csv").unlink(missing_ok=True)
    for label in labels:
        completions, events, summary = _run_policy(config, label, profiles, matrices, requests)
        policy_dir = out_dir / "compare" / cfgmod.policy_dir_name(label)
        policy_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(completions, policy_dir / "results.csv", texts)
        write_event_log_csv(events, policy_dir / "events.csv")
        summaries.append(summary)
        # Free this run's records before the next run makes its own.
        del completions, events
    summary_rows = (
        (s.policy, s.request_count, s.switch_count, s.avg_c, s.avg_r, s.avg_s_cpu,
         s.r_penalties, s.c_penalties)
        for s in summaries
    )
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, SUMMARY_CSV_HEADER, summary_rows)
    sweep_rows = ((w_e, w_d, s.policy, total) for s in summaries for w_e, w_d, total in s.utilities)
    with open(out_dir / "utility_sweep.csv", "w", encoding="utf-8", newline="") as fh:
        write_rows(fh, SWEEP_CSV_HEADER, sweep_rows)
    _print_summaries(summaries)
    print(f"comparison written to {out_dir}")
    return summaries


def run_study(config: cfgmod.ExperimentConfig, seeds) -> int:
    """learn and compare per master seed into <output_dir>/seed<k>/, then
    count the seeds on which each of criterion 6's four orderings holds.

    The fastest model has the lowest mean tau_system and the most accurate
    the highest mean c over the resolved profiles; ties go to the smaller id.
    """
    for weights in ((0.5, 0.5), (1.0, 0.0)):
        if weights not in config.weight_grid:
            raise AdamlsError(
                f"{config.source}: weight_grid lacks {weights}, which the study's verdicts need"
            )
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise AdamlsError(f"--seeds repeats {repeated}; each seed runs into its own directory")
    verdicts = {
        "adamls beats naive and the fastest static at (0.5, 0.5)": 0,
        "the most accurate static leads at (1.0, 0.0)": 0,
        "adamls r-penalties <= 25% of naive": 0,
        "adamls switches more than naive": 0,
    }
    for seed in seeds:
        seed_config = dataclasses.replace(
            config, master_seed=seed, output_dir=str(Path(config.output_dir) / f"seed{seed}")
        )
        # One resolution serves both steps; compare still reads the rules
        # back from learn's files, as the compare command does.
        profiles = cfgmod.resolve_profiles(seed_config)
        _learn(seed_config, profiles)
        summaries = _compare(seed_config, profiles)
        fastest = min(profiles, key=lambda p: (p.tau_system.mean(), p.model_id)).model_id
        most_accurate = min(profiles, key=lambda p: (-p.c.mean(), p.model_id)).model_id
        at = {(s.policy, w_e, w_d): total for s in summaries for w_e, w_d, total in s.utilities}
        adamls, naive = summaries[:2]  # compare runs adamls, then naive, then the statics
        u_adamls, u_naive, u_fastest = (
            at[label, 0.5, 0.5] for label in ("adamls", "naive", f"static:{fastest}")
        )
        top = max((s.policy for s in summaries), key=lambda label: at[label, 1.0, 0.0])
        holds = (
            u_adamls > u_naive and u_adamls > u_fastest,
            top == f"static:{most_accurate}",
            adamls.r_penalties <= 0.25 * naive.r_penalties,
            adamls.switch_count > naive.switch_count,
        )
        for name, hit in zip(verdicts, holds):
            verdicts[name] += hit
        pen_ratio = adamls.r_penalties / max(naive.r_penalties, 1)
        print(
            f"seed {seed}: adamls U(0.5,0.5)={u_adamls:.0f} "
            f"(naive {u_naive:.0f}, static:{fastest} {u_fastest:.0f}) | "
            f"top at (1,0): {top} | pen ratio {pen_ratio:.2f} | "
            f"switches adamls={adamls.switch_count} naive={naive.switch_count}"
        )
    print()
    for name, hits in verdicts.items():
        print(f"{name}: {hits}/{len(seeds)} seeds")
    return 0


def run_report(config: cfgmod.ExperimentConfig, timeseries: bool = False) -> int:
    out_dir = Path(config.output_dir)
    summary_rows = _read_rows(out_dir / "summary.csv", SUMMARY_CSV_HEADER, ("avg_c", "avg_r"))
    sweep_rows = _read_rows(
        out_dir / "utility_sweep.csv", SWEEP_CSV_HEADER, ("w_e", "w_d", "total_utility")
    )
    if not summary_rows:
        raise AdamlsError(f"{out_dir / 'summary.csv'} has no rows")
    by_weights: dict[tuple[float, float], list[tuple[str, float]]] = {}
    for row in sweep_rows:
        key = (row["w_e"], row["w_d"])
        by_weights.setdefault(key, []).append((row["policy"], row["total_utility"]))
    if timeseries:
        rows = _utility_series(out_dir, summary_rows, by_weights, config.utility)
        with open(out_dir / "utility_timeseries.csv", "w", encoding="utf-8", newline="") as fh:
            write_rows(fh, ("policy", "seq", "finish_t", "utility", "cumulative_utility"), rows)
        print(f"utility timeseries written to {out_dir / 'utility_timeseries.csv'}")
    for (w_e, w_d), entries in by_weights.items():
        entries.sort(key=lambda t: (-t[1], t[0]))
        print(f"weights (w_e={w_e:g}, w_d={w_d:g}):")
        for rank, (policy, total) in enumerate(entries, start=1):
            print(f"  {rank}. {policy:<16} utility={total:.1f}")
    print()
    print(
        f"{'policy':<16} {'switches':>8} {'r_penalties':>12} {'c_penalties':>12} "
        f"{'avg_c':>8} {'avg_r':>8}"
    )
    for row in summary_rows:
        print(
            f"{row['policy']:<16} {row['switches']:>8} {row['r_penalties']:>12} "
            f"{row['c_penalties']:>12} {row['avg_c']:>8.3f} {row['avg_r']:>8.3f}"
        )
    return 0


def _read_rows(path: Path, header: tuple[str, ...], numbers: tuple[str, ...]) -> list[dict]:
    """The rows of one of compare's CSVs, with the numbers columns as floats."""
    if not path.exists():
        raise AdamlsError(f"missing {path}; run the compare command first")
    return read_rows(path, header, AdamlsError, dict.fromkeys(numbers, float))


def _utility_series(out_dir: Path, summary_rows, by_weights: dict, params: UtilityParams):
    """Each policy's series rows from its results.csv (a float's repr round-trips).

    Its row count must be its summary.csv requests, and its totals at every
    swept pair its utility_sweep.csv ones: the terms do not depend on the
    weights, so other c, r or penalty params fail; other w_e, w_d alone do not.
    """
    series = []
    columns = ("finish_t", "c", "r")
    for row in summary_rows:
        label = row["policy"]
        path = out_dir / "compare" / cfgmod.policy_dir_name(label) / "results.csv"
        results = _read_rows(path, RESULTS_CSV_HEADER, columns)
        if not results or str(len(results)) != row["requests"]:
            raise AdamlsError(
                f"{path} has {len(results)} rows; summary.csv has "
                f"{row['requests']} requests for policy {label!r}"
            )
        finish_t, c, r = ([rec[k] for rec in results] for k in columns)
        terms = UtilityTerms.of(c, r, params)
        for (w_e, w_d), entries in by_weights.items():
            swept = dict(entries).get(label)
            total = float(running_total(terms.utilities(w_e, w_d))[-1])
            if swept is not None and swept != total:
                raise AdamlsError(
                    f"{path}: policy {label!r} sums to {total!r} at (w_e={w_e:g}, w_d={w_d:g}), "
                    f"but utility_sweep.csv has {swept!r}; --config must be compare's"
                )
        utilities = terms.utilities(params.w_e, params.w_d)
        totals = running_total(utilities).tolist()
        series.append(zip(repeat(label), count(), finish_t, utilities.tolist(), totals))
    return chain.from_iterable(series)


def _print_summaries(summaries: list[RunSummary]) -> None:
    print(
        f"{'policy':<16} {'requests':>8} {'switches':>8} {'avg_c':>8} {'avg_r':>8} "
        f"{'avg_s':>8} {'pen_r':>8} {'pen_c':>8}"
    )
    for s in summaries:
        print(
            f"{s.policy:<16} {s.request_count:>8} {s.switch_count:>8} {s.avg_c:>8.3f} "
            f"{s.avg_r:>8.3f} {s.avg_s_cpu:>8.2f} {s.r_penalties:>8} {s.c_penalties:>8}"
        )
    for s in summaries:
        cells = "  ".join(f"({w_e:g},{w_d:g})={total:.1f}" for w_e, w_d, total in s.utilities)
        print(f"utility {s.policy:<16} {cells}")


if __name__ == "__main__":
    raise SystemExit(main())
