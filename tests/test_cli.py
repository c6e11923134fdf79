import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import re
import shutil
from pathlib import Path

import pytest
import yaml

from adamls import cli, simulator
from adamls import config as cfgmod
from adamls.errors import ConfigError
from adamls.learning import CI_CSV_HEADER
from adamls.profiles import SCALAR_TYPES, KpiRecord, ModelProfile, write_profiles


def experiment_config_to_dict(config: cfgmod.ExperimentConfig) -> dict:
    """Plain-data mirror of a config, suitable for yaml.safe_dump."""
    return {
        "master_seed": config.master_seed,
        "output_dir": config.output_dir,
        "profiles": {
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


# One model of the profiles family, as a YAML flow mapping.
_MODEL_M = (
    "{model_id: m, tau_system_mean: 0.1, tau_system_std: 0.01, c_mean: 0.6, c_std: 0.05, "
    "s_cpu_mean: 50.0, b_mean: 4.0}"
)

# One model's profiles.models entry, as keyword arguments.
_MODEL_SPEC = dict(
    model_id="m", tau_system_mean=0.1, tau_system_std=0.01, c_mean=0.6, c_std=0.05,
    s_cpu_mean=50.0, b_mean=4.0,
)


def _model(model_id: str) -> str:
    """_MODEL_M with another model id, as a YAML double-quoted string."""
    return _MODEL_M.replace("model_id: m", f"model_id: {json.dumps(model_id)}")


# Every mapping section of the YAML file, by the record that holds it.
_SECTION_RECORDS = {
    name: type(value)
    for name, value in vars(cfgmod.ExperimentConfig()).items()
    if dataclasses.is_dataclass(value) and name != "naive_thresholds"
}

# Every config record: the experiment, its sections and the naive thresholds.
_CONFIG_RECORDS = (cfgmod.ExperimentConfig, *_SECTION_RECORDS.values(), cfgmod.NaivePolicyConfig)

# A YAML value of the wrong type for each declared field type (annotations
# are strings in the section modules); "tuple" stands for every tuple type.
_WRONG_TYPE_YAML = {
    "int": "2.5",
    "float": "abc",
    "bool": "'false'",
    "str": "5",
    "str | None": "5",
    "tuple": "5",
}

# Values the loader turns away for a number field, by declared type, with
# what its message says the value must be.
_BAD_NUMBERS = {
    "int": ((2.5, "an integer"), (True, "an integer")),
    "float": ((math.nan, "a finite number"), (-math.inf, "a finite number")),
}


class TestConfig:
    def test_default_yaml_matches_builtins(self):
        repo_default = Path(__file__).resolve().parents[1] / "configs" / "default.yaml"
        assert cfgmod.load_experiment_config(repo_default) == cfgmod.ExperimentConfig()
        # It is the full schema: no field of any section is left to its default.
        raw = yaml.safe_load(repo_default.read_text(encoding="utf-8"))
        defaults = cfgmod.ExperimentConfig()
        # source records where a config was loaded from; no key sets it.
        assert set(raw) == {f.name for f in dataclasses.fields(defaults)} - {"source"}
        for name in set(raw) - {"naive_thresholds"}:
            section = getattr(defaults, name)
            if dataclasses.is_dataclass(section):
                assert set(raw[name]) == {f.name for f in dataclasses.fields(section)}, name
        model_fields = {f.name for f in dataclasses.fields(cfgmod.ModelKpiSpec)}
        for model in raw["profiles"]["models"]:
            assert set(model) == model_fields, model["model_id"]

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
        # A model has no display label: no file or command reads one.
        model = {**yaml.safe_load(_MODEL_M), "label": "m tier"}
        with pytest.raises(ConfigError, match=r"unknown model spec key\(s\) \['label'\]"):
            cfgmod.experiment_config_from_dict({"profiles": {"models": [model]}})
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
        with pytest.raises(ConfigError, match="^unknown policy kind 'greedy'$"):
            cfgmod.parse_policy_label("greedy", tiny_config)

    @pytest.mark.parametrize(
        "label, message",
        [
            ("", "^unknown policy kind ''$"),
            ("ADAMLS", "^unknown policy kind 'ADAMLS'$"),
            ("naive:fast", "^unknown policy kind 'naive:fast'$"),
            ("static", "^static policy needs static_model$"),
            ("static:", "^static policy needs static_model$"),
        ],
    )
    def test_a_label_that_names_no_policy_is_rejected(self, tiny_config, label, message):
        """parse_policy_label leaves every label it does not know to
        PolicySpec, which raises: no label yields None or a spec."""
        with pytest.raises(ConfigError, match=message):
            cfgmod.parse_policy_label(label, tiny_config)


    @pytest.mark.parametrize(
        "text, message",
        [
            (b"master_seed: [1\n", "line 2, column 1: expected ',' or ']', but got '<stream end>'"),
            (b"\xffmaster_seed: 1\n", "not UTF-8 text: invalid start byte"),
            (b"master_seed: 3\nmaster_seed: 4\n", "line 2, column 1: key 'master_seed' repeats line 1"),
            (
                b"simulation: {worker_count: 1, worker_count: 4}\n",
                "line 1, column 31: key 'worker_count' repeats line 1",
            ),
            (
                b"master_seed: \x01\n",
                "position 13: unacceptable character #x0001: special characters are not allowed",
            ),
        ],
        ids=["unclosed-list", "not-utf-8", "repeated-key", "repeated-section-key", "control-char"],
    )
    def test_a_bad_yaml_file_fails_naming_the_file(self, tmp_path, text, message, capsys):
        path = tmp_path / "bad.yaml"
        path.write_bytes(text)
        assert cli.main(["learn", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()


# The flags each command reads, besides --config and --out.
_COMMAND_FLAGS = {
    "learn": {"--seed"},
    "compare": {"--seed"},
    "report": {"--timeseries"},
    "study": {"--seeds"},
}


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command, flags in _COMMAND_FLAGS.items()
        for flag in sorted(set().union(*_COMMAND_FLAGS.values()) - flags)
    ],
)
def test_flag_the_command_does_not_read_is_a_usage_error(tmp_path, command, flag, capsys):
    value = [] if flag == "--timeseries" else ["1"]
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path / "out"), flag, *value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["simulate"], "invalid choice: 'simulate'")]
    + [
        ([command, "--policy", "adamls"], "unrecognized arguments: --policy")
        for command in _COMMAND_FLAGS
    ],
    ids=["simulate", *(f"{command}---policy" for command in _COMMAND_FLAGS)],
)
def test_the_removed_command_and_flag_are_usage_errors(tmp_path, argv, message, capsys):
    """compare runs every policy, so no command or flag runs one alone."""
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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

    def test_a_csv_path_alone_is_the_profile_source(self, tmp_path, tiny_config, tiny_profiles):
        """A set profiles.csv_path is the source of the profiles, with no
        other key to say so: learn reads that file, even where it would
        write generated ones, learns from it and leaves its bytes as they
        are."""
        out = tmp_path / "out"
        out.mkdir()
        csv_path = out / "profiles.csv"
        # The fixture's seed is not the config's, so generated profiles differ.
        write_profiles(tiny_profiles, csv_path)
        text = csv_path.read_bytes()
        profiles = dataclasses.replace(tiny_config.profiles, csv_path=str(csv_path))
        path = write_config(tmp_path, tiny_config, profiles=profiles, output_dir=str(out))
        assert "source" not in yaml.safe_load(path.read_text(encoding="utf-8"))["profiles"]
        assert cli.main(["learn", "--config", str(path)]) == 0
        assert csv_path.read_bytes() == text
        reference = tmp_path / "reference"
        cli._learn(dataclasses.replace(tiny_config, output_dir=str(reference)), tiny_profiles)
        for model_id in ("fast", "slow"):
            rules = f"rules/{model_id}.csv"
            assert (out / rules).read_bytes() == (reference / rules).read_bytes()

    def test_missing_profile_csv_fails_with_path(self, tmp_path, tiny_config, capsys):
        config = dataclasses.replace(
            tiny_config,
            profiles=dataclasses.replace(
                tiny_config.profiles, csv_path=str(tmp_path / "nope.csv")
            ),
            output_dir=str(tmp_path / "out"),
        )
        path = write_config(tmp_path, config)
        assert cli.main(["learn", "--config", str(path)]) == 1
        assert "nope.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("b", ["inf", "1e400"])
    def test_a_non_finite_b_in_the_profile_csv_fails_naming_the_row(
        self, tmp_path, tiny_config, b, capsys
    ):
        csv_path = tmp_path / "profiles.csv"
        csv_path.write_text(
            "image_id,model_id,c,tau_model,tau_system,s_cpu,b\n"
            f"i1,fast,0.5,0.04,0.045,20,3\ni1,slow,0.7,0.2,0.21,40,{b}\n"
        )
        config = dataclasses.replace(
            tiny_config,
            profiles=dataclasses.replace(
                tiny_config.profiles, csv_path=str(csv_path)
            ),
            output_dir=str(tmp_path / "out"),
        )
        path = write_config(tmp_path, config)
        assert cli.main(["learn", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {csv_path}: row 2: b must be an integer, got {b!r}\n"
        )

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace(b"i1,slow", b"\xff1,slow"), "not UTF-8 text: invalid start byte"),
            (
                lambda text: text.replace(b",b\n", b",b,c\n").replace(b",3\n", b",3,0.9\n"),
                "the header repeats column(s) c",
            ),
            (lambda text: text.replace(b",0.21,", b",0.21x,"), "row 2: tau_system must be a number"),
        ],
        ids=["not-utf-8", "repeated-column", "bad-number"],
    )
    def test_a_bad_profile_csv_fails_naming_the_file(
        self, tmp_path, tiny_config, edit, message, capsys
    ):
        csv_path = tmp_path / "profiles.csv"
        csv_path.write_bytes(edit(
            b"image_id,model_id,c,tau_model,tau_system,s_cpu,b\n"
            b"i1,fast,0.5,0.04,0.045,20,3\ni1,slow,0.7,0.2,0.21,40,3\n"
        ))
        config = dataclasses.replace(
            tiny_config,
            profiles=dataclasses.replace(
                tiny_config.profiles, csv_path=str(csv_path)
            ),
            output_dir=str(tmp_path / "out"),
        )
        path = write_config(tmp_path, config)
        assert cli.main(["learn", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {csv_path}: {message}"), err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "field, text", [("b_mean", ".inf"), ("b_std", ".nan"), ("overhead", ".nan")]
    )
    def test_non_finite_model_spec_fails_naming_the_field(self, tmp_path, field, text, capsys):
        path = tmp_path / "bad.yaml"
        # Each key once: the loader rejects a repeated key.
        last = ", ".join(f"{key}: {value}" for key, value in {"b_mean": "4.0", field: text}.items())
        path.write_text(
            f"output_dir: {tmp_path / 'out'}\n"
            "profiles:\n"
            "  models:\n"
            "    - {model_id: m, tau_system_mean: 0.1, tau_system_std: 0.01, c_mean: 0.6,\n"
            f"       c_std: 0.05, s_cpu_mean: 50.0, {last}}}\n"
        )
        assert cli.main(["learn", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{field} must be finite for model 'm'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "spread, kpi", [("tau_system_std", "tau_model"), ("b_std", "b")]
    )
    def test_a_spread_whose_draws_overflow_fails_in_one_line(self, tmp_path, spread, kpi, capsys):
        """A finite spread so wide that some drawn KPI is inf fails naming
        the image, the model and the value, and nothing is written."""
        fields = {**_MODEL_SPEC, spread: "1.0e+308"}
        model = "{" + ", ".join(f"{key}: {value}" for key, value in fields.items()) + "}"
        path = tmp_path / "bad.yaml"
        path.write_text(f"output_dir: {tmp_path / 'out'}\nprofiles:\n  models:\n    - {model}\n")
        assert cli.main(["learn", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(
            rf"error: {kpi} must be finite for image 'img-\d{{5}}' model 'm', got inf\n", err
        ), err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize(
        "yaml_text, message",
        [
            ("weight_grid: [[.nan, true]]", "weight_grid must be a finite number, got nan"),
            ("weight_grid: [[1e400, 0]]", "weight_grid must be a finite number, got '1e400'"),
            ("weight_grid: [[1.0e+400, 0]]", "weight_grid must be a finite number, got inf"),
            ("weight_grid: [[0.5, 0.5, 0.5]]", "weight_grid must be a list of [w_e, w_d] pairs"),
            ("weight_grid: [0.5, 0.5]", "weight_grid must be a list of [w_e, w_d] pairs"),
            ("weight_grid: [[-1, 2], [0.5, 0.5]]", "weight_grid weights must be >= 0, got -1"),
        ],
    )
    def test_bad_weight_grid_fails_naming_the_key(self, tmp_path, yaml_text, message, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(f"output_dir: {tmp_path / 'out'}\n{yaml_text}\n")
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["learn", "compare"])
    @pytest.mark.parametrize(
        "yaml_text, message",
        [
            ("simulation: {worker_count: 0}", "simulation.worker_count must be >= 1, got 0"),
            ("simulation: {tick_interval: 0}", "simulation.tick_interval must be > 0, got 0"),
            ("simulation: {window_size: 0}", "simulation.window_size must be >= 1, got 0"),
            ("simulation: {t_wait: -1}", "simulation.t_wait must be >= 0, got -1"),
            ("learning: {k_max: 0}", "learning.k_max must be >= 1, got 0"),
            ("learning: {ci_level: 1.0}", "learning.ci_level must be in (0, 1), got 1.0"),
            ("learning: {ci_level: 0}", "learning.ci_level must be in (0, 1), got 0"),
            # A set csv_path is the CSV source; no key picks the source.
            ("profiles: {source: csv}", "unknown key(s) ['source'] in section 'profiles'"),
            ("profiles: {csv_path: ''}", "profiles.csv_path must name a file, or be null"),
            (
                "simulation: {blacklist_enabled: false}",
                "unknown key(s) ['blacklist_enabled'] in section 'simulation'",
            ),
            ("workload: {max_requests: 0}", "workload.max_requests must be >= 1, got 0"),
            (
                "workload: {segments: [[10, 1], [5, -2]]}",
                "workload.segments[1] needs a finite duration > 0 and a finite rate >= 0, "
                "got (5.0, -2.0)",
            ),
            (
                "workload: {arrival_process: bursty}",
                "workload.arrival_process must be one of ('deterministic', 'poisson'), "
                "got 'bursty'",
            ),
            (
                "workload: {segments: [['10', true]]}",
                "workload.segments must be a finite number, got '10'",
            ),
            (
                "workload: {segments: [[10, true]]}",
                "workload.segments must be a finite number, got True",
            ),
            (
                "workload: {segments: [[10, 1, 2]]}",
                "workload.segments must be a list of [duration, rate] pairs, got [[10, 1, 2]]",
            ),
            ("workload: {segments: []}", "workload.segments needs at least one segment"),
            ("profiles: {image_count: 0}", "profiles.image_count must be >= 1, got 0"),
            ("profiles: {models: []}", "profiles.models needs at least one model"),
            (
                f"profiles: {{models: [{_model('clustering_report')}]}}",
                "profiles.models model_id 'clustering_report' is reserved: learn writes its "
                "clustering report to rules/clustering_report.csv",
            ),
            *(
                (
                    f"profiles: {{models: [{_model(model_id)}]}}",
                    f"profiles.models model_id {model_id!r} cannot name a file",
                )
                for model_id in ("", ".", "..", "a/b", "a\\b", "a\0b")
            ),
            (
                f"profiles: {{models: [{_model('a:b')}, {_model('a_b')}]}}",
                "profiles.models model_ids 'a:b' and 'a_b' would both write compare/static_a_b/",
            ),
            (
                f"profiles: {{models: [{_MODEL_M}, {_MODEL_M}]}}",
                "profiles.models repeats model id(s) ['m']",
            ),
            (
                "utility: {raw_violation_signs: 'false'}",
                "utility.raw_violation_signs must be true or false, got 'false'",
            ),
            ("simulation: {initial_model: 5}", "simulation.initial_model must be a string, got 5"),
            (
                "simulation: {initial_model: ghost}",
                "simulation.initial_model 'ghost' has no profile; the profiled models are "
                "['large', 'medium', 'nano', 'small', 'xlarge']",
            ),
            (
                "naive_thresholds: [[.inf, ghost]]",
                "naive_thresholds names unprofiled model(s) ['ghost']; the profiled models are",
            ),
            (
                "naive_thresholds: [[true, xlarge], [.inf, nano]]",
                "naive_thresholds must be a finite number or .inf, got True",
            ),
            (
                "naive_thresholds: [[.nan, xlarge], [.inf, nano]]",
                "naive_thresholds must be a finite number or .inf, got nan",
            ),
            (
                "naive_thresholds: [['5', xlarge], [.inf, nano]]",
                "naive_thresholds must be a finite number or .inf, got '5'",
            ),
            ("naive_thresholds: [[.inf, 5]]", "naive_thresholds must be a string, got 5"),
            (
                "naive_thresholds: [[5, xlarge, 1], [.inf, nano]]",
                "naive_thresholds must be a list of [rate bound, model] pairs, "
                "got [[5, 'xlarge', 1], [inf, 'nano']]",
            ),
            (
                "naive_thresholds: [[5, xlarge], [10, nano]]",
                "the last naive_thresholds bound must be .inf, got 10.0",
            ),
            (
                "naive_thresholds: [[5, xlarge], [5, large], [.inf, nano]]",
                "naive_thresholds bounds must be strictly increasing, got [5.0, 5.0, inf]",
            ),
            ("utility: {c_min: 2}", "utility.c_min must be <= utility.c_max, got 2 > 1.0"),
            ("utility: {r_min: 2}", "utility.r_min must be <= utility.r_max, got 2 > 1.0"),
            ("utility: {p_ev: -1}", "utility.p_ev must be >= 0, got -1"),
            ("utility: {w_d: -0.5}", "utility.w_d must be >= 0, got -0.5"),
            ("source: x.yaml", "unknown key(s) ['source']"),
            # Every seed derives from master_seed.
            ("workload: {seed: 1}", "unknown key(s) ['seed'] in section 'workload'"),
            ("profiles: {seed: 1}", "unknown key(s) ['seed'] in section 'profiles'"),
            # compare runs every policy: no key picks one.
            ("policy: adamls", "unknown key(s) ['policy']"),
            # The response time has no network term.
            (
                "simulation: {network_delay: 0.0}",
                "unknown key(s) ['network_delay'] in section 'simulation'",
            ),
        ],
    )
    def test_bad_setting_fails_at_load(self, tmp_path, command, yaml_text, message, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(f"output_dir: {tmp_path / 'out'}\n{yaml_text}\n")
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["learn", "compare"])
    def test_csv_profiles_must_cover_the_named_models(
        self, tmp_path, tiny_config, tiny_profiles, command, capsys
    ):
        csv_path = tmp_path / "profiles.csv"
        write_profiles(tiny_profiles, csv_path)
        # The default naive_thresholds name the five-model family.
        path = write_config(
            tmp_path,
            tiny_config,
            profiles=dataclasses.replace(tiny_config.profiles, csv_path=str(csv_path)),
            naive_thresholds=cfgmod.DEFAULT_NAIVE_THRESHOLDS,
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: naive_thresholds names unprofiled model(s) ['large', 'medium', " in err
        assert "the profiled models are ['fast', 'slow']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["learn", "compare"])
    @pytest.mark.parametrize(
        "model_ids, message",
        [
            (("clustering_report", "slow"), "model_id 'clustering_report' is reserved"),
            (("fast", "../slow"), "model_id '../slow' cannot name a file"),
            (("a:b", "a_b"), "model_ids 'a:b' and 'a_b' would both write compare/static_a_b/"),
        ],
    )
    def test_csv_model_ids_must_name_files_of_their_own(
        self, tmp_path, tiny_config, tiny_profiles, command, model_ids, message, capsys
    ):
        csv_path = tmp_path / "profiles.csv"
        renamed = [dataclasses.replace(p, model_id=m) for p, m in zip(tiny_profiles, model_ids)]
        write_profiles(renamed, csv_path)
        path = write_config(
            tmp_path,
            tiny_config,
            profiles=dataclasses.replace(tiny_config.profiles, csv_path=str(csv_path)),
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main([command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{csv_path}: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["learn"], ["compare"]], ids=["learn", "compare"])
    @pytest.mark.parametrize(
        "edit, where",
        [
            (
                lambda records: records[::-1],
                "differ at image 1: 'fast' lists 'img-00000', 'slow' lists 'img-00119'",
            ),
            (
                lambda records: records[:-1],
                "differ at image 120: 'fast' lists 'img-00119', 'slow' lists no image",
            ),
        ],
        ids=["reversed", "missing"],
    )
    def test_csv_models_must_share_one_image_order(
        self, tmp_path, tiny_config, tiny_profiles, command, edit, where, capsys
    ):
        fast, slow = tiny_profiles
        csv_path = tmp_path / "profiles.csv"
        write_profiles([fast, ModelProfile.of_records("slow", edit(slow.records))], csv_path)
        path = write_config(
            tmp_path,
            tiny_config,
            profiles=dataclasses.replace(tiny_config.profiles, csv_path=str(csv_path)),
            output_dir=str(tmp_path / "out"),
        )
        assert cli.main([*command, "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{csv_path}: models 'fast' and 'slow' {where}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_profile_too_large_to_cluster_fails_naming_the_anchor(
        self, tmp_path, tiny_config, capsys
    ):
        """Finite values whose squares overflow a float: one error line, no
        numpy warning (pytest turns one into an error), no traceback, and
        nothing written under --out."""

        def profile(model_id, tau):
            records = (
                KpiRecord(f"img-{i:05d}", model_id, 0.6, tau(i), tau(i), 50.0, 3)
                for i in range(20)
            )
            return ModelProfile.of_records(model_id, tuple(records))

        csv_path = tmp_path / "profiles.csv"
        fast = profile("fast", lambda i: 0.06 + 0.001 * i)
        write_profiles([fast, profile("slow", lambda i: 1e200 * (1 + i))], csv_path)
        out = tmp_path / "out"
        path = write_config(
            tmp_path,
            tiny_config,
            profiles=dataclasses.replace(tiny_config.profiles, csv_path=str(csv_path)),
            output_dir=str(out),
        )
        assert cli.main(["learn", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            "error: anchor model 'slow': 1-D k-means: a value of magnitude 2e+201 is too "
            "large; the sums of squares of 20 value(s) stay finite only up to 1.67598e+152\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "section, key, declared",
        [
            pytest.param(name, f.name, f.type, id=f"{name}.{f.name}")
            for name, record in _SECTION_RECORDS.items()
            for f in dataclasses.fields(record)
        ],
    )
    def test_every_section_field_is_type_checked_at_load(
        self, tmp_path, section, key, declared, capsys
    ):
        path = tmp_path / "bad.yaml"
        wrong = _WRONG_TYPE_YAML["tuple" if declared.startswith("tuple") else declared]
        path.write_text(f"output_dir: {tmp_path / 'out'}\n{section}: {{{key}: {wrong}}}\n")
        assert cli.main(["learn", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: {section}.{key} must be" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, what",
        [
            pytest.param(name, f.name, value, what, id=f"{name}.{f.name}={value!r}")
            for name, record in _SECTION_RECORDS.items()
            for f in dataclasses.fields(record)
            for value, what in _BAD_NUMBERS.get(f.type, ())
        ],
    )
    def test_every_number_field_is_checked_when_the_record_is_built(
        self, section, key, value, what
    ):
        """A record built through the Python API turns away what the loader
        turns away, with the loader's message: a NaN tick interval would
        stall the engine, and a fractional window would never evict."""
        with pytest.raises(ValueError, match=rf"^{section}\.{key} must be {what}, got "):
            _SECTION_RECORDS[section](**{key: value})

    @pytest.mark.parametrize(
        "record, settings, raw, message",
        [
            (
                cfgmod.UtilityParams, {"raw_violation_signs": "no"},
                {"utility": {"raw_violation_signs": "no"}},
                "utility.raw_violation_signs must be true or false, got 'no'",
            ),
            (
                cfgmod.SimulationConfig, {"initial_model": 5},
                {"simulation": {"initial_model": 5}},
                "simulation.initial_model must be a string, got 5",
            ),
            (
                cfgmod.ProfilesConfig, {"csv_path": 5},
                {"profiles": {"csv_path": 5}},
                "profiles.csv_path must be a string or null, got 5",
            ),
            (
                cfgmod.WorkloadConfig, {"segments": (("10", 1.0),)},
                {"workload": {"segments": [["10", 1.0]]}},
                "workload.segments must be a finite number, got '10'",
            ),
            (
                cfgmod.WorkloadConfig, {"segments": ((10.0, True),)},
                {"workload": {"segments": [[10.0, True]]}},
                "workload.segments must be a finite number, got True",
            ),
            (
                cfgmod.NaivePolicyConfig, {"thresholds": ((True, "a"), (math.inf, "b"))},
                {"naive_thresholds": [[True, "a"], [math.inf, "b"]]},
                "naive_thresholds must be a finite number or .inf, got True",
            ),
            (
                cfgmod.ExperimentConfig, {"weight_grid": ((math.nan, 1.0),)},
                {"weight_grid": [[math.nan, 1.0]]},
                "weight_grid must be a finite number, got nan",
            ),
            (
                cfgmod.ExperimentConfig,
                {"weight_grid": ((0.5, 0.5), (0.5, 0.5), (1.0, 0.0))},
                {"weight_grid": [[0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]},
                "weight_grid repeats (0.5, 0.5)",
            ),
            (
                cfgmod.ExperimentConfig, {"master_seed": 2.5}, {"master_seed": 2.5},
                "master_seed must be an integer, got 2.5",
            ),
            (
                cfgmod.ModelKpiSpec, {**_MODEL_SPEC, "model_id": 5},
                {"profiles": {"models": [{**_MODEL_SPEC, "model_id": 5}]}},
                "model_id must be a string, got 5",
            ),
        ],
        ids=[
            "raw_violation_signs", "initial_model", "csv_path", "segment-string",
            "segment-bool", "threshold-bool", "weight_grid-nan", "weight_grid-repeat",
            "master_seed", "model_id",
        ],
    )
    def test_the_python_api_rejects_what_the_loader_rejects(self, record, settings, raw, message):
        """A record checks every value it holds, with the loader's message: a
        string raw_violation_signs would otherwise flip the penalty sign."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            record(**settings)
        with pytest.raises(ConfigError, match=f"^<dict>: {re.escape(message)}$"):
            cfgmod.experiment_config_from_dict(raw)

    def test_every_scalar_field_has_a_type_the_checker_knows(self):
        """check_fields checks the fields whose declared type SCALAR_TYPES
        knows; a tuple field is checked by its record and a record field by
        its own record. A field of any other type (say int | None) would go
        unchecked."""
        records = {record.__name__: record for record in _CONFIG_RECORDS}
        unchecked = [
            f"{name}.{f.name}: {f.type}"
            for name, record in records.items()
            for f in dataclasses.fields(record)
            if f.type not in SCALAR_TYPES
            and f.type not in records
            and not f.type.startswith("tuple[")
        ]
        assert unchecked == []

    def test_integer_float_field_accepted(self):
        config = cfgmod.experiment_config_from_dict({"simulation": {"t_wait": 1}})
        assert config.simulation.t_wait == 1


@pytest.fixture(scope="module")
def compared_once(tmp_path_factory, tiny_config):
    """learn + compare on the tiny config, run once for the module."""
    root = tmp_path_factory.mktemp("compared")
    path = write_config(root, tiny_config, output_dir=str(root / "out"))
    assert cli.main(["learn", "--config", str(path)]) == 0
    assert cli.main(["compare", "--config", str(path)]) == 0
    return root / "out"


@pytest.fixture
def compared(tmp_path, tiny_config, compared_once):
    """A test's own copy of the compared output directory, and its config."""
    out = tmp_path / "out"
    shutil.copytree(compared_once, out)
    return out, write_config(tmp_path, tiny_config, output_dir=str(out))


def files_under(root):
    return {path.relative_to(root).as_posix() for path in root.rglob("*") if path.is_file()}


POLICY_DIRS = ("adamls", "naive", "static_fast", "static_slow")


class TestCompareCommand:
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

    def test_writes_only_what_it_cannot_rederive(self, compared):
        """No derivable artifact: report --timeseries rebuilds the utility series,
        and a rerun of compare removes the one an earlier report derived."""
        out, path = compared
        assert cli.main(["report", "--config", str(path), "--timeseries"]) == 0
        assert (out / "utility_timeseries.csv").exists()
        assert cli.main(["compare", "--config", str(path)]) == 0
        learned = {"profiles.csv", *(f"rules/{f}.csv" for f in ("clustering_report", "fast", "slow"))}
        runs = {f"compare/{d}/{f}" for d in POLICY_DIRS for f in ("results.csv", "events.csv")}
        assert files_under(out) == learned | runs | {"summary.csv", "utility_sweep.csv"}

    def test_rerun_is_byte_identical(self, compared):
        out, path = compared
        digest = hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest()
        assert cli.main(["compare", "--config", str(path)]) == 0
        assert hashlib.sha256((out / "summary.csv").read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("model", ["fast", "slow"])
    def test_a_static_run_serves_every_request_with_its_model(self, compared, model):
        out, _ = compared
        rows = read_rows(out / "compare" / f"static_{model}" / "results.csv")
        assert len(rows) == 160
        assert {row["model"] for row in rows} == {model}

    def test_adamls_logs_its_analyze_and_plan_steps(self, compared):
        out, _ = compared
        kinds = {row["event"] for row in read_rows(out / "compare" / "adamls" / "events.csv")}
        assert kinds >= {"ANALYZE_TRIGGER", "PLAN"}
        assert "MONITOR" not in kinds

    def test_naive_switches_on_the_ramp(self, compared):
        out, _ = compared
        events = read_rows(out / "compare" / "naive" / "events.csv")
        assert sum(row["event"] == "SWITCH" for row in events) >= 2

    def test_without_rules_fails_before_writing(self, tmp_path, tiny_config, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"missing rule file {out / 'rules' / 'fast.csv'}; run the learn command first" in err
        assert not out.exists()

    def test_a_workload_without_arrivals_fails_before_writing(
        self, tmp_path, tiny_config, capsys
    ):
        """compare builds its request stream before it writes any file."""
        out = tmp_path / "out"
        workload = dataclasses.replace(tiny_config.workload, segments=((5.0, 0.0),))
        path = write_config(tmp_path, tiny_config, output_dir=str(out), workload=workload)
        assert cli.main(["learn", "--config", str(path)]) == 0
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "workload produces no arrivals" in err
        assert "Traceback" not in err
        assert {p.name for p in out.iterdir()} == {"profiles.csv", "rules"}

    def test_a_tick_interval_that_cannot_pass_an_arrival_fails_in_one_line(
        self, tmp_path, tiny_config, capsys
    ):
        """With simulation.tick_interval 1e-17 the tick clock stops moving
        long before the last arrival, and compare used to spin forever. Now
        the first engine run rejects it before its first event, in one line
        naming the key, the value and that arrival, and writes no run."""
        out = tmp_path / "out"
        simulation = dataclasses.replace(tiny_config.simulation, tick_interval=1.0e-17)
        config = dataclasses.replace(tiny_config, output_dir=str(out), simulation=simulation)
        path = write_config(tmp_path, config)
        assert cli.main(["learn", "--config", str(path)]) == 0
        capsys.readouterr()
        assert cli.main(["compare", "--config", str(path)]) == 1
        last = cfgmod.build_request_stream(config, cfgmod.resolve_profiles(config)).arrival_t[-1]
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"simulation.tick_interval 1e-17 adds nothing to the last arrival time {last!r}" in err
        assert {p.name for p in out.iterdir()} == {"profiles.csv", "rules"}

    def test_kpi_texts_are_built_once_per_drawn_row(self, compared, monkeypatch):
        """A work count, not a timing: one compare formats the c..b text of
        each (model, row) its runs draw once, however many requests draw it."""
        _, path = compared
        built, drawn, requests = [], set(), []
        joined_texts = simulator.joined_texts

        def counting(rows):
            built.extend(rows)
            return joined_texts(rows)

        run = cli.run_simulation

        def recording(sim_config, stream, knowledge):
            completions, events = run(sim_config, stream, knowledge)
            rows = map(stream.row.__getitem__, completions.request_id)
            drawn.update(zip(completions.model_id, rows))
            requests.append(len(completions))
            return completions, events

        monkeypatch.setattr(simulator, "joined_texts", counting)
        monkeypatch.setattr(cli, "run_simulation", recording)
        assert cli.main(["compare", "--config", str(path)]) == 0
        assert len(built) == len(drawn)
        assert len(drawn) < sum(requests)

    def test_every_policy_draws_one_image_per_request(self, compared, tiny_config, monkeypatch):
        """Common random numbers: every policy of a compare serves its one
        request stream, so each serves every request j once (request j
        arrives at the stream's arrival_t[j] and is served from its row[j]),
        and that row names one image in every profile. The stream is
        build_request_stream's."""
        out, path = compared
        streams, drawn = [], {}
        run = cli.run_simulation

        def recording(sim_config, requests, knowledge):
            completions, events = run(sim_config, requests, knowledge)
            streams.append(requests)
            drawn[sim_config.policy.label] = completions
            return completions, events

        monkeypatch.setattr(cli, "run_simulation", recording)
        assert cli.main(["compare", "--config", str(path)]) == 0
        assert list(drawn) == ["adamls", "naive", "static:fast", "static:slow"]
        stream = streams[0]
        assert all(other is stream for other in streams)
        for completions in drawn.values():
            assert sorted(completions.request_id) == list(range(len(stream.arrival_t)))
        assert len(set(stream.row)) > 1
        config = dataclasses.replace(tiny_config, output_dir=str(out))
        profiles = cfgmod.resolve_profiles(config)
        for row in stream.row:
            assert len({p.image_id[row] for p in profiles}) == 1
        built = cfgmod.build_request_stream(config, profiles)
        assert stream.arrival_t == built.arrival_t
        assert stream.row == built.row

    def test_one_request_stream_per_compare(self, compared, monkeypatch):
        """compare generates its workload once, however many policies it runs."""
        _, path = compared
        calls = []
        generate = simulator.generate_workload

        def counting(spec):
            calls.append(spec)
            return generate(spec)

        monkeypatch.setattr(simulator, "generate_workload", counting)
        assert cli.main(["compare", "--config", str(path)]) == 0
        assert len(calls) == 1

    def test_workers_beyond_the_request_count_change_nothing(self, tiny_config, tmp_path):
        """A FIFO queue of n requests never uses more than n workers: a
        compare at 10**12 workers runs, and writes the files of one at n."""
        requests = cfgmod.build_request_stream(tiny_config, cfgmod.resolve_profiles(tiny_config))
        outs = []
        for worker_count in (len(requests.arrival_t), 10**12):
            out = tmp_path / str(worker_count)
            simulation = dataclasses.replace(tiny_config.simulation, worker_count=worker_count)
            path = write_config(tmp_path, tiny_config, simulation=simulation, output_dir=str(out))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["learn", "--config", str(path)]) == 0
                assert cli.main(["compare", "--config", str(path)]) == 0
            outs.append(out)
        written = files_under(outs[0])
        assert written == files_under(outs[1])
        for name in written:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    def test_csv_of_learns_profiles_reproduces_the_run(self, compared, tiny_config, tmp_path):
        """learn and compare on source csv of learn's own profiles.csv write
        the generated run's files, byte for byte."""
        out, _ = compared
        root = tmp_path / "from_csv"
        root.mkdir()
        profiles = dataclasses.replace(
            tiny_config.profiles, csv_path=str(out / "profiles.csv")
        )
        path = write_config(root, tiny_config, profiles=profiles, output_dir=str(root / "out"))
        assert cli.main(["learn", "--config", str(path)]) == 0
        assert cli.main(["compare", "--config", str(path)]) == 0
        written = files_under(root / "out")
        assert written == files_under(out) - {"profiles.csv"}
        for name in written:
            assert (root / "out" / name).read_bytes() == (out / name).read_bytes(), name

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
                r"^error: \S*rules[/\\]fast\.csv: rule matrix of 'fast': tau CI lower bound "
                r"must be > 0 for model 'slow' cluster 0 \(got 0\.0\)",
            ),
            (
                _set_first("slow", "tau_model", low="-0.5"),
                r"^error: \S*rules[/\\]fast\.csv: rule matrix of 'fast': tau CI lower bound "
                r"must be > 0 for model 'slow' cluster 0 \(got -0\.5\)",
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
            (
                lambda rows: [{**r, "anchor_model": "slow"} for r in rows],
                r"rules[/\\]fast\.csv: profile 'fast' does not match anchor 'slow'",
            ),
        ],
        ids=[
            "tau-low-zero", "tau-low-negative", "non-finite", "low-above-high", "n-zero",
            "missing-entry", "renamed-model", "dropped-model", "anchor-of-another-model",
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

        def no_run(engine, requests):
            pytest.fail("a bad rule file reached the event loop")

        monkeypatch.setattr(simulator._Engine, "run", no_run)
        capsys.readouterr()
        assert cli.main(["compare", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert re.search(message, err), err
        assert "Traceback" not in err
        assert not (out / "compare").exists()
        assert not (out / "summary.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda text: text.replace(b"fast", b"f\xffst", 2), "not UTF-8 text: invalid start byte"),
            (
                lambda text: text.replace(b"\r\n", b",-5.0\r\n").replace(b"mean,-5.0", b"mean,low", 1),
                "the header repeats column(s) low",
            ),
            (
                lambda text: text.replace(b"\r\nfast,0,", b"\r\nfast,x,", 3),
                "row 1: cluster must be an integer, got 'x'",
            ),
        ],
        ids=["not-utf-8", "repeated-column", "bad-number"],
    )
    def test_compare_rejects_a_bad_rule_file_naming_it(
        self, tmp_path, tiny_config, edit, message, capsys
    ):
        out = tmp_path / "out"
        path = write_config(tmp_path, tiny_config, output_dir=str(out))
        assert cli.main(["learn", "--config", str(path)]) == 0
        rules_path = out / "rules" / "fast.csv"
        rules_path.write_bytes(edit(rules_path.read_bytes()))
        capsys.readouterr()
        assert cli.main(["compare", "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {rules_path}: {message}\n"
        assert not (out / "summary.csv").exists()


class TestReportCommand:
    def test_report_ranks_policies(self, compared, capsys):
        out, _ = compared
        capsys.readouterr()
        assert cli.main(["report", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "weights (w_e=0.5, w_d=0.5):" in text
        assert "adamls" in text and "static:fast" in text

    def test_missing_dir_fails(self, tmp_path, capsys):
        assert cli.main(["report", "--out", str(tmp_path / "nothing")]) == 1
        assert "compare" in capsys.readouterr().err

    def test_report_writes_nothing(self, compared):
        out, _ = compared
        before = files_under(out)
        assert cli.main(["report", "--out", str(out)]) == 0
        assert files_under(out) == before

    @pytest.mark.parametrize(
        "name, column", [("summary.csv", "avg_c"), ("utility_sweep.csv", "total_utility")]
    )
    def test_bad_number_fails_naming_file_column_and_line(self, compared, name, column, capsys):
        out, path = compared
        rows = read_rows(out / name)
        rows[0][column] = "abc" + rows[0][column]
        with open(out / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        before = files_under(out)
        assert cli.main(["report", "--config", str(path), "--timeseries"]) == 1
        err = capsys.readouterr().err
        assert f"{out / name}: row 1: {column} must be a number, got 'abc" in err
        assert "Traceback" not in err
        assert files_under(out) == before

    @pytest.mark.parametrize("edit", [lambda cells: cells[:6], lambda cells: cells + ["1"]])
    def test_row_of_another_length_fails_naming_file_and_line(self, compared, edit, capsys):
        out, _ = compared
        summary = out / "summary.csv"
        lines = summary.read_text(encoding="utf-8").splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        summary.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["report", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{summary}: row 2: the row's field count is not the header's" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "name, column, message",
        [
            ("summary.csv", "switches", "missing column(s) switches"),
            ("utility_sweep.csv", "policy", "missing column(s) policy"),
            ("summary.csv", "avg_c", "the header repeats column(s) avg_c"),
        ],
        ids=["summary-missing", "sweep-missing", "summary-repeated"],
    )
    def test_a_bad_header_fails_naming_the_file(self, compared, name, column, message, capsys):
        out, _ = compared
        lines = (out / name).read_text(encoding="utf-8").splitlines()
        at = lines[0].split(",").index(column)
        if message.startswith("missing"):
            lines = [",".join(f for i, f in enumerate(line.split(",")) if i != at) for line in lines]
        else:
            lines = [line + "," + line.split(",")[at] for line in lines]
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        before = files_under(out)
        assert cli.main(["report", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {out / name}: {message}\n"
        assert files_under(out) == before

    def test_timeseries_written(self, compared, capsys):
        out, path = compared
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path), "--timeseries"]) == 0
        assert "utility timeseries written" in capsys.readouterr().out
        rows = read_rows(out / "utility_timeseries.csv")
        assert len(rows) == 4 * 160
        assert list(rows[0]) == ["policy", "seq", "finish_t", "utility", "cumulative_utility"]
        # The last cumulative utility is the sweep total at the config's weights.
        sweep = {r["policy"]: r["total_utility"] for r in read_rows(out / "utility_sweep.csv")
                 if (r["w_e"], r["w_d"]) == ("0.5", "0.5")}
        last = {r["policy"]: r["cumulative_utility"] for r in rows}
        assert last == sweep

    def test_timeseries_follows_the_config_weights(self, compared, tiny_config):
        """Other weights alone cannot be told from compare's: the series uses them."""
        out, path = compared
        params = dataclasses.replace(tiny_config.utility, w_e=0.25, w_d=0.75)
        other = write_config(path.parent, tiny_config, output_dir=str(out), utility=params)
        assert cli.main(["report", "--config", str(other), "--timeseries"]) == 0
        sweep = {r["policy"]: r["total_utility"] for r in read_rows(out / "utility_sweep.csv")
                 if (r["w_e"], r["w_d"]) == ("0.25", "0.75")}
        last = {r["policy"]: r["cumulative_utility"]
                for r in read_rows(out / "utility_timeseries.csv")}
        assert last == sweep

    @pytest.mark.parametrize(
        "utility",
        [
            {"c_min": 0.6},
            {"raw_violation_signs": True},
            # Other weights too, swept by compare or not: every swept total is checked.
            {"w_e": 0.75, "w_d": 0.25, "p_ev": 2.0},
            {"w_e": 0.3, "w_d": 0.7, "c_min": 0.6},
        ],
    )
    def test_timeseries_with_other_utility_params_fails(
        self, compared, tiny_config, utility, capsys
    ):
        out, path = compared
        params = dataclasses.replace(tiny_config.utility, **utility)
        other = write_config(path.parent, tiny_config, output_dir=str(out), utility=params)
        before = files_under(out)
        capsys.readouterr()
        assert cli.main(["report", "--config", str(other), "--timeseries"]) == 1
        err = capsys.readouterr().err
        assert str(out / "compare" / "adamls" / "results.csv") in err
        assert "'adamls'" in err and "utility_sweep.csv" in err
        assert "Traceback" not in err
        assert files_under(out) == before

    def test_timeseries_with_missing_results_fails(self, compared, capsys):
        out, path = compared
        results = out / "compare" / "static_slow" / "results.csv"
        results.unlink()
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path), "--timeseries"]) == 1
        assert f"missing {results}" in capsys.readouterr().err
        assert not (out / "utility_timeseries.csv").exists()

    def test_timeseries_with_truncated_results_fails(self, compared, capsys):
        out, path = compared
        results = out / "compare" / "naive" / "results.csv"
        lines = results.read_bytes().split(b"\r\n")
        results.write_bytes(b"\r\n".join(lines[:-2] + [b""]))
        capsys.readouterr()
        assert cli.main(["report", "--config", str(path), "--timeseries"]) == 1
        err = capsys.readouterr().err
        assert f"{results} has 159 rows" in err and "'naive'" in err
        assert not (out / "utility_timeseries.csv").exists()


@pytest.fixture(scope="module")
def studied(tmp_path_factory, tiny_config):
    """study --seeds 1 2 on the tiny config, run once for the module: its
    output directory, its config file and what it printed."""
    root = tmp_path_factory.mktemp("studied")
    path = write_config(root, tiny_config, output_dir=str(root / "study"))
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert cli.main(["study", "--config", str(path), "--seeds", "1", "2"]) == 0
    return root / "study", path, printed.getvalue()


def _sweep_at(out_dir, weights):
    return {
        row["policy"]: float(row["total_utility"])
        for row in read_rows(out_dir / "utility_sweep.csv")
        if (float(row["w_e"]), float(row["w_d"])) == weights
    }


class TestStudyCommand:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seed_dir_is_learn_plus_compare(self, studied, tmp_path, seed):
        out, path, _ = studied
        ref = tmp_path / "ref"
        for command in ("learn", "compare"):
            argv = [command, "--config", str(path), "--out", str(ref), "--seed", str(seed)]
            assert cli.main(argv) == 0
        seed_dir = out / f"seed{seed}"
        assert files_under(seed_dir) == files_under(ref)
        for name in files_under(ref):
            assert (seed_dir / name).read_bytes() == (ref / name).read_bytes(), name

    def test_verdict_counts_follow_criterion_6(self, studied, tiny_config):
        """The printed counts, recomputed from each seed's CSVs with the
        definitions of test_acceptance.py's criterion 6."""
        out, _, printed = studied
        models = tiny_config.profiles.models
        fastest = min(models, key=lambda m: m.tau_system_mean).model_id
        most_accurate = max(models, key=lambda m: m.c_mean).model_id
        expected = [0, 0, 0, 0]
        for seed in (1, 2):
            seed_dir = out / f"seed{seed}"
            equal = _sweep_at(seed_dir, (0.5, 0.5))
            pure_c = _sweep_at(seed_dir, (1.0, 0.0))
            counts = {row["policy"]: row for row in read_rows(seed_dir / "summary.csv")}
            adamls, naive = counts["adamls"], counts["naive"]
            holds = (
                equal["adamls"] > equal["naive"] and equal["adamls"] > equal[f"static:{fastest}"],
                max(pure_c, key=pure_c.get) == f"static:{most_accurate}",
                int(adamls["r_penalties"]) <= 0.25 * int(naive["r_penalties"]),
                int(adamls["switches"]) > int(naive["switches"]),
            )
            expected = [n + hit for n, hit in zip(expected, holds)]
        printed_counts = re.findall(r"^.+: (\d)/2 seeds$", printed, flags=re.MULTILINE)
        assert [int(n) for n in printed_counts] == expected

    def test_fastest_model_comes_from_the_profiles(self, studied):
        _, _, printed = studied
        seed_lines = [line for line in printed.splitlines() if line.startswith("seed ")]
        assert len(seed_lines) == 2
        assert all("(naive " in line and ", static:fast " in line for line in seed_lines)

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (1.0, 0.0)])
    def test_grid_without_a_verdict_pair_fails(self, tmp_path, tiny_config, weights, capsys):
        grid = tuple(pair for pair in tiny_config.weight_grid if pair != weights)
        out = tmp_path / "study"
        path = write_config(tmp_path, tiny_config, output_dir=str(out), weight_grid=grid)
        assert cli.main(["study", "--config", str(path), "--seeds", "1"]) == 1
        err = capsys.readouterr().err
        assert f"{path}: weight_grid lacks {weights}" in err
        assert not out.exists()

    def test_profiles_are_resolved_once_per_seed(self, tmp_path, tiny_config, monkeypatch):
        """Each seed resolves its profiles and generates its workload once."""
        calls = {"profiles": 0, "workload": 0}

        def counting(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        monkeypatch.setattr(
            cfgmod, "generate_profiles", counting("profiles", cfgmod.generate_profiles)
        )
        monkeypatch.setattr(
            simulator, "generate_workload", counting("workload", simulator.generate_workload)
        )
        path = write_config(tmp_path, tiny_config, output_dir=str(tmp_path / "study"))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["study", "--config", str(path), "--seeds", "1", "2"]) == 0
        assert calls == {"profiles": 2, "workload": 2}

    def test_repeated_seed_fails(self, tmp_path, capsys):
        out = tmp_path / "study"
        assert cli.main(["study", "--out", str(out), "--seeds", "1", "2", "1"]) == 1
        assert "--seeds repeats [1]" in capsys.readouterr().err
        assert not out.exists()
