import csv
import dataclasses
import hashlib
import re
from pathlib import Path

import pytest
import yaml

from adamls import cli, simulator
from adamls import config as cfgmod
from adamls.errors import ConfigError
from adamls.learning import CI_CSV_HEADER


def experiment_config_to_dict(config: cfgmod.ExperimentConfig) -> dict:
    """Plain-data mirror of a config, suitable for yaml.safe_dump."""
    return {
        "master_seed": config.master_seed,
        "output_dir": config.output_dir,
        "profiles": {
            "source": config.profiles.source,
            "csv_path": config.profiles.csv_path,
            "image_count": config.profiles.image_count,
            "models": [dataclasses.asdict(m) for m in config.profiles.models],
        },
        "learning": dataclasses.asdict(config.learning),
        "workload": {
            "segments": [list(seg) for seg in config.workload.segments],
            "max_requests": config.workload.max_requests,
            "arrival_process": config.workload.arrival_process,
        },
        "simulation": dataclasses.asdict(config.simulation),
        "policy": config.policy,
        "naive_thresholds": [[b, m] for b, m in config.naive_thresholds.thresholds],
        "utility": dataclasses.asdict(config.utility),
        "weight_grid": [list(pair) for pair in config.weight_grid],
    }


def write_config(tmp_path, config, **overrides):
    config = dataclasses.replace(config, **overrides)
    path = tmp_path / "experiment.yaml"
    text = yaml.safe_dump(experiment_config_to_dict(config), sort_keys=False)
    path.write_text(text, encoding="utf-8")
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
        # Every CI is a normal CI: there is no method to choose.
        with pytest.raises(ConfigError, match="ci_method"):
            cfgmod.experiment_config_from_dict({"learning": {"ci_method": "normal"}})

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

    @pytest.mark.parametrize(
        "field, text", [("b_mean", ".inf"), ("b_std", ".nan"), ("overhead", ".nan")]
    )
    def test_non_finite_model_spec_fails_naming_the_field(self, tmp_path, field, text, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            f"output_dir: {tmp_path / 'out'}\n"
            "profiles:\n"
            "  models:\n"
            "    - {model_id: m, tau_system_mean: 0.1, tau_system_std: 0.01, c_mean: 0.6,\n"
            f"       c_std: 0.05, s_cpu_mean: 50.0, b_mean: 4.0, {field}: {text}}}\n"
        )
        assert cli.main(["learn", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be finite for model 'm'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, yaml_text, key",
        [
            ("learn", "profiles: {image_count: 2.5}", "profiles.image_count"),
            ("learn", "profiles: {image_count: .inf}", "profiles.image_count"),
            ("learn", "profiles: {image_count: true}", "profiles.image_count"),
            ("learn", "learning: {k_max: 2.5}", "learning.k_max"),
            ("compare", "workload: {max_requests: 2.5}", "workload.max_requests"),
            ("compare", "simulation: {worker_count: 1.5}", "simulation.worker_count"),
            ("compare", "simulation: {window_size: 2.5}", "simulation.window_size"),
            ("compare", "simulation: {blacklist_consecutive: 2.5}", "simulation.blacklist_consecutive"),
            ("learn", "master_seed: 2.5", "master_seed"),
        ],
    )
    def test_non_integer_int_field_fails_naming_the_key(
        self, tmp_path, command, yaml_text, key, capsys
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(f"output_dir: {tmp_path / 'out'}\n{yaml_text}\n")
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {key} must be an integer" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize(
        "command, yaml_text, key",
        [
            ("learn", "learning: {ci_level: high}", "learning.ci_level"),
            ("compare", "simulation: {t_wait: abc}", "simulation.t_wait"),
            ("compare", "simulation: {switch_latency: .nan}", "simulation.switch_latency"),
            ("compare", "simulation: {tick_interval: .inf}", "simulation.tick_interval"),
            ("compare", "simulation: {blacklist_margin: true}", "simulation.blacklist_margin"),
            ("compare", "simulation: {network_delay: null}", "simulation.network_delay"),
        ],
    )
    def test_non_number_float_field_fails_naming_the_key(
        self, tmp_path, command, yaml_text, key, capsys
    ):
        path = tmp_path / "bad.yaml"
        path.write_text(f"output_dir: {tmp_path / 'out'}\n{yaml_text}\n")
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {key} must be a finite number" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_integer_float_field_accepted(self):
        config = cfgmod.experiment_config_from_dict({"simulation": {"t_wait": 1}})
        assert config.simulation.t_wait == 1


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


def _set_first(model, kpi, **values):
    """Edit: set fields of the first row of (model, kpi), in cluster 0."""

    def edit(rows):
        row = next(r for r in rows if (r["model"], r["kpi"]) == (model, kpi))
        row.update(values)
        return rows

    return edit


def _rename_model(old, new):
    return lambda rows: [{**r, "model": new if r["model"] == old else r["model"]} for r in rows]


class TestBadRuleFiles:
    """A bad rule file fails compare before any policy runs."""

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                _set_first("slow", "tau_model", low="0"),
                r"rule matrix of 'fast': tau CI lower bound must be > 0 "
                r"for model 'slow' cluster 0 \(got 0\.0\)",
            ),
            (
                _set_first("slow", "tau_model", low="-0.5"),
                r"rule matrix of 'fast': tau CI lower bound must be > 0 "
                r"for model 'slow' cluster 0 \(got -0\.5\)",
            ),
            (
                _set_first("slow", "c", high="inf"),
                r"fast\.csv: rule matrix of 'fast': entry \(cluster=0, model='slow', "
                r"kpi='c'\) has a non-finite low, high or mean",
            ),
            (
                _set_first("fast", "s_cpu", low="99", high="1"),
                r"fast\.csv: .*\(cluster=0, model='fast', kpi='s_cpu'\) has low 99\.0 > high 1\.0",
            ),
            (
                _set_first("fast", "b", n="0"),
                r"fast\.csv: .*\(cluster=0, model='fast', kpi='b'\) has n 0; n must be >= 1",
            ),
            (
                lambda rows: [r for r in rows if (r["model"], r["kpi"]) != ("slow", "s_cpu")],
                r"fast\.csv: .*entry \(cluster=0, model='slow', kpi='s_cpu'\) is missing",
            ),
            (
                _rename_model("slow", "quick"),
                r"rules of anchor model 'fast' cover models \['fast', 'quick'\], "
                r"but the profiled models are \['fast', 'slow'\]",
            ),
            (
                lambda rows: [r for r in rows if r["model"] != "slow"],
                r"rules of anchor model 'fast' cover models \['fast'\], "
                r"but the profiled models are \['fast', 'slow'\]",
            ),
        ],
        ids=[
            "tau-low-zero", "tau-low-negative", "non-finite", "low-above-high", "n-zero",
            "missing-entry", "renamed-model", "dropped-model",
        ],
    )
    def test_compare_rejects_before_any_run(
        self, tmp_path, tiny_config, monkeypatch, capsys, edit, message
    ):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        assert cli.main(["learn", "--config", str(path)]) == 0
        rules_path = out / "rules" / "fast.csv"
        rows = edit(read_rows(rules_path))
        with open(rules_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=CI_CSV_HEADER)
            writer.writeheader()
            writer.writerows(rows)

        def no_run(engine):
            pytest.fail("a bad rule file reached the event loop")

        monkeypatch.setattr(simulator._Engine, "run", no_run)
        capsys.readouterr()
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "Traceback" not in err
        assert not (out / "compare").exists()
        assert not (out / "summary.csv").exists()


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
