import csv
import dataclasses
import hashlib
from pathlib import Path

import pytest
import yaml

from adamls import cli
from adamls import config as cfgmod
from adamls.errors import ConfigError


def write_config(tmp_path, config, **overrides):
    config = dataclasses.replace(config, **overrides)
    path = tmp_path / "experiment.yaml"
    cfgmod.save_experiment_config(config, path)
    return path


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_default_yaml_matches_builtins(self):
        repo_default = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert cfgmod.load_experiment_config(repo_default) == cfgmod.ExperimentConfig()

    def test_roundtrip_through_yaml(self, tmp_path, tiny_config):
        path = write_config(tmp_path, tiny_config)
        assert cfgmod.load_experiment_config(path) == tiny_config

    def test_partial_configs_merge_over_defaults(self, tmp_path):
        path = tmp_path / "partial.yaml"
        path.write_text("master_seed: 9\nworkload:\n  max_requests: 123\n")
        config = cfgmod.load_experiment_config(path)
        assert config.master_seed == 9
        assert config.workload.max_requests == 123
        assert config.learning == cfgmod.ExperimentConfig().learning

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("master_sed: 9\n")
        with pytest.raises(ConfigError, match="master_sed"):
            cfgmod.load_experiment_config(path)
        path.write_text("workload:\n  max_request: 5\n")
        with pytest.raises(ConfigError, match="max_request"):
            cfgmod.load_experiment_config(path)
        # Clustering is exact: there is no restart count to set.
        with pytest.raises(ConfigError, match="restarts"):
            cfgmod.experiment_config_from_dict({"learning": {"restarts": 10}})

    def test_seed_fanout_is_stable_and_distinct(self):
        seeds = {label: cfgmod.derive_seed(1, label) for label in ("profiles", "workload", "service")}
        assert len(set(seeds.values())) == 3
        assert cfgmod.derive_seed(1, "workload") == seeds["workload"]
        assert cfgmod.derive_seed(2, "workload") != seeds["workload"]

    def test_policy_label_parsing(self, tiny_config):
        assert cfgmod.parse_policy_label("adamls", tiny_config).kind == "adamls"
        assert cfgmod.parse_policy_label("naive", tiny_config).naive is not None
        static = cfgmod.parse_policy_label("static:fast", tiny_config)
        assert (static.kind, static.static_model) == ("static", "fast")
        with pytest.raises(ConfigError):
            cfgmod.parse_policy_label("greedy", tiny_config)


class TestLearnCommand:
    def test_writes_rules_and_report(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        assert cli.main(["learn", "--config", str(path)]) == 0
        assert (out / "rules" / "fast.csv").exists()
        assert (out / "rules" / "slow.csv").exists()
        assert (out / "profiles.csv").exists()
        report = read_rows(out / "rules" / "clustering_report.csv")
        assert {row["model"] for row in report} == {"fast", "slow"}
        assert all(int(row["k_selected"]) >= 1 for row in report)

    def test_rerun_is_byte_identical(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        cli.main(["learn", "--config", str(path)])
        first = (out / "rules" / "fast.csv").read_bytes()
        cli.main(["learn", "--config", str(path)])
        assert (out / "rules" / "fast.csv").read_bytes() == first

    def test_missing_profile_csv_fails_with_path(self, tmp_path, tiny_config, capsys):
        config = dataclasses.replace(
            tiny_config,
            profiles=dataclasses.replace(
                tiny_config.profiles, source="csv", csv_path=str(tmp_path / "nope.csv")
            ),
            output_dir=str(tmp_path / "out"),
        )
        path = write_config(tmp_path, config)
        assert cli.main(["learn", "--config", str(path)]) == 1
        assert "nope.csv" in capsys.readouterr().err


class TestSimulateCommand:
    def test_static_row_count(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out), policy="static:fast")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        rows = read_rows(out / "results_static_fast.csv")
        assert len(rows) == 160
        assert {row["model"] for row in rows} == {"fast"}

    def test_adamls_without_rules_instructs_learn(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out), policy="adamls")
        assert cli.main(["simulate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "learn" in err

    def test_adamls_after_learn(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out), policy="adamls")
        assert cli.main(["learn", "--config", str(path)]) == 0
        assert cli.main(["simulate", "--config", str(path)]) == 0
        assert (out / "results_adamls.csv").exists()
        events = read_rows(out / "events_adamls.csv")
        assert {row["event"] for row in events} >= {"MONITOR"}

    def test_naive_ramp_produces_switches(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out), policy="naive")
        assert cli.main(["simulate", "--config", str(path)]) == 0
        events = read_rows(out / "events_naive.csv")
        switches = [row for row in events if row["event"] == "SWITCH"]
        assert len(switches) >= 2

    def test_policy_flag_overrides_config(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out), policy="adamls")
        assert cli.main(["simulate", "--config", str(path), "--policy", "static:slow"]) == 0
        assert (out / "results_static_slow.csv").exists()


class TestCompareCommand:
    @pytest.fixture
    def compared(self, tmp_path, tiny_config):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        assert cli.main(["learn", "--config", str(path)]) == 0
        assert cli.main(["compare", "--config", str(path)]) == 0
        return out, path

    def test_summary_covers_all_policies(self, compared):
        out, _ = compared
        rows = read_rows(out / "summary.csv")
        assert [row["policy"] for row in rows] == [
            "adamls",
            "naive",
            "static:fast",
            "static:slow",
        ]

    def test_shared_arrival_sequence(self, compared):
        out, _ = compared
        columns = []
        for policy_dir in ("adamls", "naive", "static_fast", "static_slow"):
            rows = read_rows(out / "compare" / policy_dir / "results.csv")
            columns.append([row["arrival_t"] for row in sorted(rows, key=lambda r: int(r["request_id"]))])
        assert all(col == columns[0] for col in columns)

    def test_utility_sweep_cell_count(self, compared):
        out, _ = compared
        rows = read_rows(out / "utility_sweep.csv")
        assert len(rows) == 5 * 4  # five weight pairs, four policies
        assert {row["policy"] for row in rows} == {
            "adamls",
            "naive",
            "static:fast",
            "static:slow",
        }

    def test_timeseries_written(self, compared):
        out, _ = compared
        rows = read_rows(out / "utility_timeseries.csv")
        assert len(rows) == 4 * 160
        assert {"policy", "seq", "finish_t", "utility", "cumulative_utility"} <= set(rows[0])

    def test_rerun_is_byte_identical(self, compared):
        out, path = compared
        digest = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
        assert cli.main(["compare", "--config", str(path)]) == 0
        assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == digest

    def test_different_seed_changes_results(self, compared, tmp_path, tiny_config):
        out, path = compared
        out2 = tmp_path / "out2"
        assert cli.main(["learn", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
        assert cli.main(["compare", "--config", str(path), "--out", str(out2), "--seed", "99"]) == 0
        a = (out / "summary.csv").read_text()
        b = (out2 / "summary.csv").read_text()
        assert a != b


class TestReportCommand:
    def test_report_ranks_policies(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        cli.main(["learn", "--config", str(path)])
        cli.main(["compare", "--config", str(path)])
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "weights (w_e=0.5, w_d=0.5):" in text
        assert "adamls" in text and "static:fast" in text

    def test_missing_dir_fails(self, tmp_path, capsys):
        assert cli.main(["report", "--out", str(tmp_path / "nothing")]) == 1
        assert "compare" in capsys.readouterr().err
