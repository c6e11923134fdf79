"""Experiment driver CLI: learn rules, simulate policies, compare, report.

Subcommands:
  learn     build adaptation rules (per-model CI matrix CSVs) from profiles
  simulate  run one policy on the configured workload, write result CSVs
  compare   run adamls, naive, and every static model on the same arrivals
  report    rank policies per weight pair from a comparison directory

All outputs are plain CSV; rerunning any command with the same configuration
reproduces them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from itertools import count, repeat
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .controller import Knowledge
from .errors import AdamlsError
from .learning import attach_anchor_stats, read_ci_matrix, write_ci_matrix
from .metrics import RunSummary, running_total, summarize
from .profiles import write_profiles
from .simulator import run_simulation, write_event_log_csv, write_results_csv

SUMMARY_CSV_HEADER = (
    "policy",
    "requests",
    "switches",
    "avg_c",
    "avg_r",
    "avg_s_cpu",
    "r_penalties",
    "c_penalties",
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (AdamlsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamls",
        description="QoS-aware model-switching experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, doc in (
        ("learn", cmd_learn, "learn adaptation rules from model profiles"),
        ("simulate", cmd_simulate, "simulate one policy on the workload"),
        ("compare", cmd_compare, "run all policies on the identical workload"),
        ("report", cmd_report, "rank policies from comparison CSVs"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", type=Path, default=None, help="experiment YAML file")
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument(
            "--policy",
            type=str,
            default=None,
            help="policy for simulate: adamls, naive, or static:<model>",
        )
        p.set_defaults(func=func)
    return parser


def _load_config(args) -> cfgmod.ExperimentConfig:
    if args.config is not None:
        config = cfgmod.load_experiment_config(args.config)
    else:
        config = cfgmod.ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    if args.out is not None:
        config = dataclasses.replace(config, output_dir=str(args.out))
    if args.policy is not None:
        config = dataclasses.replace(config, policy=args.policy)
    return config


def _policy_dir_name(label: str) -> str:
    return label.replace(":", "_")


def cmd_learn(args) -> int:
    return run_learn(_load_config(args))


def run_learn(config: cfgmod.ExperimentConfig) -> int:
    out_dir = Path(config.output_dir)
    rules_dir = out_dir / "rules"
    rules_dir.mkdir(parents=True, exist_ok=True)
    profiles = cfgmod.resolve_profiles(config)
    rules = cfgmod.learn_rules(config, profiles)
    write_profiles(profiles, out_dir / "profiles.csv")
    for model_id in sorted(rules):
        write_ci_matrix(rules[model_id].ci_matrix, rules_dir / f"{model_id}.csv")
    with open(rules_dir / "clustering_report.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("model", "k_selected", "k", "wcss"))
        for model_id in sorted(rules):
            learned = rules[model_id]
            for k, wcss in enumerate(learned.wcss_series, start=1):
                writer.writerow([model_id, learned.k, k, repr(wcss)])
    for model_id in sorted(rules):
        learned = rules[model_id]
        clusters = len(learned.ci_matrix.entries)
        print(f"learned {model_id}: k={learned.k} ({clusters} cluster(s))")
    print(f"rules written to {rules_dir}")
    return 0


def _load_rule_matrices(config: cfgmod.ExperimentConfig, profiles) -> dict:
    rules_dir = Path(config.output_dir) / "rules"
    matrices = {}
    for profile in profiles:
        path = rules_dir / f"{profile.model_id}.csv"
        if not path.exists():
            raise AdamlsError(
                f"missing rule file {path}; run the learn command first"
            )
        matrices[profile.model_id] = attach_anchor_stats(read_ci_matrix(path), profile)
    return matrices


def _run_policy(config: cfgmod.ExperimentConfig, label: str, profiles, matrices):
    policy_spec = cfgmod.parse_policy_label(label, config)
    knowledge = Knowledge(adaptation_rule_repository=dict(matrices))
    sim_config = cfgmod.build_sim_config(config, policy_spec, profiles)
    completions, events = run_simulation(sim_config, knowledge)
    summary = summarize(
        completions,
        events,
        weight_grid=config.weight_grid,
        params=config.utility,
        policy=label,
    )
    return completions, events, summary


def cmd_simulate(args) -> int:
    return run_simulate(_load_config(args))


def run_simulate(config: cfgmod.ExperimentConfig) -> int:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    profiles = cfgmod.resolve_profiles(config)
    label = config.policy
    needs_rules = cfgmod.parse_policy_label(label, config).kind == "adamls"
    matrices = _load_rule_matrices(config, profiles) if needs_rules else {}
    completions, events, summary = _run_policy(config, label, profiles, matrices)
    stem = _policy_dir_name(label)
    write_results_csv(completions, out_dir / f"results_{stem}.csv")
    write_event_log_csv(events, out_dir / f"events_{stem}.csv")
    _print_summaries([summary])
    print(f"results written to {out_dir}")
    return 0


def cmd_compare(args) -> int:
    return run_compare(_load_config(args))


def run_compare(config: cfgmod.ExperimentConfig) -> int:
    out_dir = Path(config.output_dir)
    profiles = cfgmod.resolve_profiles(config)
    matrices = _load_rule_matrices(config, profiles)
    labels = cfgmod.compare_policy_labels(config, profiles)
    summaries: list[RunSummary] = []
    series = []  # per run: label, finish times, utilities, running totals
    for label in labels:
        completions, events, summary = _run_policy(config, label, profiles, matrices)
        policy_dir = out_dir / "compare" / _policy_dir_name(label)
        policy_dir.mkdir(parents=True, exist_ok=True)
        write_results_csv(completions, policy_dir / "results.csv")
        write_event_log_csv(events, policy_dir / "events.csv")
        summaries.append(summary)
        utilities = summary.terms.utilities(config.utility.w_e, config.utility.w_d)
        finish_t = np.array([rec.finish_t for rec in completions])
        series.append((label, finish_t, utilities, running_total(utilities)))
    with open(out_dir / "summary.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_CSV_HEADER)
        for s in summaries:
            writer.writerow(
                [
                    s.policy,
                    s.request_count,
                    s.switch_count,
                    s.avg_c,
                    s.avg_r,
                    s.avg_s_cpu,
                    s.r_penalties,
                    s.c_penalties,
                ]
            )
    with open(out_dir / "utility_sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("w_e", "w_d", "policy", "total_utility"))
        for s in summaries:
            for w_e, w_d, total in s.utilities:
                writer.writerow([w_e, w_d, s.policy, total])
    with open(out_dir / "utility_timeseries.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("policy", "seq", "finish_t", "utility", "cumulative_utility"))
        for label, *columns in series:
            writer.writerows(zip(repeat(label), count(), *(col.tolist() for col in columns)))
    _print_summaries(summaries)
    print(f"comparison written to {out_dir}")
    return 0


def cmd_report(args) -> int:
    out_dir = Path(args.out) if args.out is not None else Path(_load_config(args).output_dir)
    return run_report(out_dir)


def run_report(out_dir: Path) -> int:
    summary_path = out_dir / "summary.csv"
    sweep_path = out_dir / "utility_sweep.csv"
    for path in (summary_path, sweep_path):
        if not path.exists():
            raise AdamlsError(f"missing {path}; run the compare command first")
    with open(summary_path, encoding="utf-8", newline="") as fh:
        summary_rows = list(csv.DictReader(fh))
    if not summary_rows:
        raise AdamlsError(f"{summary_path} has no rows")
    with open(sweep_path, encoding="utf-8", newline="") as fh:
        sweep_rows = list(csv.DictReader(fh))
    by_weights: dict[tuple[float, float], list[tuple[str, float]]] = {}
    for row in sweep_rows:
        key = (float(row["w_e"]), float(row["w_d"]))
        by_weights.setdefault(key, []).append((row["policy"], float(row["total_utility"])))
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
            f"{row['c_penalties']:>12} {float(row['avg_c']):>8.3f} {float(row['avg_r']):>8.3f}"
        )
    return 0


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
