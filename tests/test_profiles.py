import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamls import cli
from adamls import config as cfgmod
from adamls.errors import ConfigError, ProfileLoadError, ValidationError
from adamls.learning import run_learning_engine
from adamls.simulator import PolicySpec, SimConfig, WorkloadSpec, run_simulation
from adamls.profiles import (
    KPI_NAMES,
    KpiRecord,
    ModelKpiSpec,
    ModelProfile,
    ProfileFamilySpec,
    generate_profiles,
    load_profiles,
    write_profiles,
)

from .oracles import records_one_by_one

FIVE_TIER_TAUS = (0.045, 0.12, 0.25, 0.45, 0.766)


def five_tier_spec(seed=0, image_count=1000):
    models = tuple(
        ModelKpiSpec(
            model_id=f"m{i}",
            tau_system_mean=tau,
            tau_system_std=0.1 * tau,
            c_mean=0.5 + 0.0625 * i,
            c_std=0.08,
            s_cpu_mean=20.0 + 15.0 * i,
            b_mean=4.0 + i,
        )
        for i, tau in enumerate(FIVE_TIER_TAUS)
    )
    return ProfileFamilySpec(models=models, image_count=image_count, seed=seed)


def test_five_tier_family_sample_means_match_spec():
    spec = five_tier_spec(seed=11)
    profiles = generate_profiles(spec)
    assert len(profiles) == 5
    ids = profiles[0].image_ids()
    for profile, model_spec in zip(profiles, spec.models):
        assert profile.image_ids() == ids
        values = profile.kpi_values("tau_system")
        mean = sum(values) / len(values)
        bound = 3 * model_spec.tau_system_std / math.sqrt(len(values))
        assert abs(mean - model_spec.tau_system_mean) < bound


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sample_mean_within_four_sigma_bound(seed):
    spec = five_tier_spec(seed=seed, image_count=400)
    for profile, model_spec in zip(generate_profiles(spec), spec.models):
        values = profile.kpi_values("tau_system")
        mean = sum(values) / len(values)
        bound = 4 * model_spec.tau_system_std / math.sqrt(len(values))
        assert abs(mean - model_spec.tau_system_mean) < bound


def test_zero_stddev_yields_identical_records():
    spec = ProfileFamilySpec(
        models=(ModelKpiSpec("m", 0.1, 0.0, 0.6, 0.0, 50.0, 5.0),),
        image_count=20,
        seed=1,
    )
    (profile,) = generate_profiles(spec)
    first = profile.records[0]
    for rec in profile.records:
        assert (rec.c, rec.tau_model, rec.tau_system, rec.s_cpu, rec.b) == (
            first.c,
            first.tau_model,
            first.tau_system,
            first.s_cpu,
            first.b,
        )
    assert first.c == 0.6
    assert first.tau_system == pytest.approx(0.1)
    assert first.tau_model == pytest.approx(0.095)


def test_generation_deterministic_given_seed():
    spec = five_tier_spec(seed=42, image_count=50)
    assert generate_profiles(spec) == generate_profiles(spec)


def test_different_seed_changes_draws():
    a = generate_profiles(five_tier_spec(seed=1, image_count=50))
    b = generate_profiles(five_tier_spec(seed=2, image_count=50))
    assert a != b


def test_roundtrip_write_load_exact(tmp_path, tiny_profiles):
    path = tmp_path / "profiles.csv"
    write_profiles(tiny_profiles, path)
    loaded = load_profiles(path)
    assert {p.model_id: p.records for p in loaded} == {
        p.model_id: p.records for p in tiny_profiles
    }


def test_two_row_csv_two_models(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "image_id,model_id,c,tau_model,tau_system,s_cpu,b\n"
        "i1,a,0.5,0.04,0.045,20,3\n"
        "i1,b,0.7,0.7,0.75,60,5\n"
    )
    profiles = load_profiles(path)
    assert sorted(p.model_id for p in profiles) == ["a", "b"]
    assert all(len(p.records) == 1 for p in profiles)


def test_load_rejects_out_of_range_confidence(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "image_id,model_id,c,tau_model,tau_system,s_cpu,b\n"
        "i1,a,0.5,0.04,0.045,20,3\n"
        "i2,a,1.3,0.04,0.045,20,3\n"
    )
    with pytest.raises(ProfileLoadError, match=r"row 2.*c must be in \[0, 1\]"):
        load_profiles(path)


def test_load_rejects_missing_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("image_id,model_id,c,tau_model,tau_system,s_cpu\ni1,a,0.5,0.04,0.045,20\n")
    with pytest.raises(ProfileLoadError, match="missing column"):
        load_profiles(path)


def test_load_rejects_unparsable_number(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        "image_id,model_id,c,tau_model,tau_system,s_cpu,b\ni1,a,abc,0.04,0.045,20,3\n"
    )
    with pytest.raises(ProfileLoadError, match="row 1"):
        load_profiles(path)


def test_invalid_family_specs_rejected():
    model = ModelKpiSpec("m", 0.1, 0.01, 0.6, 0.05, 50.0, 5.0)
    with pytest.raises(ValidationError):
        ProfileFamilySpec(models=(model,), image_count=0, seed=1)
    with pytest.raises(ValidationError):
        ModelKpiSpec("m", 0.1, -0.01, 0.6, 0.05, 50.0, 5.0)
    with pytest.raises(ValidationError):
        ModelKpiSpec("m", 0.004, 0.01, 0.6, 0.05, 50.0, 5.0, overhead=0.005)
    with pytest.raises(ValidationError):
        ProfileFamilySpec(models=(model, model), image_count=5, seed=1)


@pytest.mark.parametrize("image_count", [2.5, float("inf"), True, "10"])
def test_non_integer_image_count_rejected(image_count):
    model = ModelKpiSpec("m", 0.1, 0.01, 0.6, 0.05, 50.0, 5.0)
    with pytest.raises(ValidationError, match="image_count must be an integer"):
        ProfileFamilySpec(models=(model,), image_count=image_count, seed=1)


def test_record_invariants_enforced():
    ok = dict(image_id="i", model_id="m", c=0.5, tau_model=0.04, tau_system=0.05, s_cpu=20.0, b=3)
    KpiRecord(**ok)
    for bad in (
        {**ok, "c": -0.1},
        {**ok, "c": 1.1},
        {**ok, "tau_model": 0.0},
        {**ok, "tau_system": 0.01},
        {**ok, "s_cpu": 101.0},
        {**ok, "b": -1},
    ):
        with pytest.raises(ValidationError):
            KpiRecord(**bad)


@pytest.mark.parametrize("field", ["tau_model", "tau_system"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_record_rejects_non_finite_times(field, value):
    # NaN compares false both ways, so the range checks alone let it through.
    ok = dict(image_id="i7", model_id="m", c=0.5, tau_model=0.04, tau_system=0.05, s_cpu=20.0, b=3)
    with pytest.raises(ValidationError, match=rf"{field} must be finite for image 'i7' model 'm'"):
        KpiRecord(**{**ok, field: value})


def test_profile_invariants_enforced():
    rec = KpiRecord("i1", "m", 0.5, 0.04, 0.05, 20.0, 3)
    with pytest.raises(ValidationError):
        ModelProfile.of_records("m", ())
    with pytest.raises(ValidationError):
        ModelProfile.of_records("other", (rec,))
    with pytest.raises(ValidationError):
        ModelProfile.of_records("m", (rec, rec))


@given(
    tau_mean=st.floats(min_value=0.02, max_value=1.0),
    c_mean=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generate_then_roundtrip_property(tmp_path_factory, tau_mean, c_mean, n, seed):
    spec = ProfileFamilySpec(
        models=(ModelKpiSpec("m", tau_mean, 0.2 * tau_mean, c_mean, 0.1, 50.0, 4.0, b_std=2.0),),
        image_count=n,
        seed=seed,
    )
    profiles = generate_profiles(spec)
    for rec in profiles[0].records:
        assert 0.0 <= rec.c <= 1.0
        assert rec.tau_model > 0.0
        assert rec.tau_system >= rec.tau_model
        assert rec.b >= 0
    path = tmp_path_factory.mktemp("rt") / "p.csv"
    write_profiles(profiles, path)
    assert load_profiles(path)[0].records == profiles[0].records


SPEC_FLOAT_FIELDS = (
    "tau_system_mean",
    "tau_system_std",
    "c_mean",
    "c_std",
    "s_cpu_mean",
    "b_mean",
    "overhead",
    "s_cpu_std",
    "b_std",
)


def test_spec_float_fields_are_all_covered():
    floats = {f.name for f in dataclasses.fields(ModelKpiSpec)} - {"model_id", "label"}
    assert floats == set(SPEC_FLOAT_FIELDS)


@pytest.mark.parametrize("field", SPEC_FLOAT_FIELDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 10**400])
def test_non_finite_spec_field_rejected(field, value):
    entry = dict(
        model_id="m", tau_system_mean=0.1, tau_system_std=0.01, c_mean=0.6, c_std=0.05,
        s_cpu_mean=50.0, b_mean=4.0,
    )
    with pytest.raises(ValidationError, match=rf"{field} must be finite for model 'm'"):
        ModelKpiSpec(**{**entry, field: value})
    with pytest.raises(ConfigError, match=rf"{field} must be finite for model 'm'"):
        cfgmod.experiment_config_from_dict({"profiles": {"models": [{**entry, field: value}]}})


GOOD_ROW = dict(c=0.5, tau_model=0.04, tau_system=0.05, s_cpu=20.0, b=3)


@pytest.mark.parametrize(
    "bad",
    [
        {"tau_model": math.nan},
        {"tau_model": math.inf},
        {"tau_system": -math.inf},
        {"c": -0.1},
        {"c": 1.5},
        {"c": math.nan},
        {"tau_model": 0.0},
        {"tau_model": -0.01},
        {"tau_system": 0.01},
        {"s_cpu": 100.5},
        {"s_cpu": math.nan},
        {"b": -1},
        # One row breaking two checks: KpiRecord's check order decides.
        {"tau_system": math.nan, "c": -1.0},
        {"c": 2.0, "s_cpu": -1.0},
        {"tau_model": 0.0, "b": -2},
        {"tau_system": 0.01, "s_cpu": 101.0},
        {"s_cpu": 101.0, "b": -1},
    ],
    ids=repr,
)
def test_column_checks_raise_what_the_first_bad_record_raises(bad):
    rows = [dict(GOOD_ROW) for _ in range(6)]
    rows[2].update(bad)
    rows[4].update(c=7.0, b=-5)  # also bad, but later
    with pytest.raises(Exception) as expected:
        KpiRecord(image_id="i2", model_id="m", **rows[2])
    columns = {name: [row[name] for row in rows] for name in KPI_NAMES}
    with pytest.raises(type(expected.value)) as raised:
        ModelProfile("m", [f"i{j}" for j in range(6)], **columns)
    assert str(raised.value) == str(expected.value)


def test_profile_messages_for_duplicates_and_model_mismatch():
    rec = KpiRecord("i1", "m", 0.5, 0.04, 0.05, 20.0, 3)
    other = KpiRecord("i2", "x", 0.5, 0.04, 0.05, 20.0, 3)
    with pytest.raises(ValidationError, match=r"^profile 'm' has no records$"):
        ModelProfile.of_records("m", ())
    with pytest.raises(
        ValidationError, match=r"^record for image 'i2' carries model 'x', expected 'm'$"
    ):
        ModelProfile.of_records("m", (rec, other))
    with pytest.raises(ValidationError, match=r"^profile 'm' has duplicate image ids$"):
        ModelProfile.of_records("m", (rec, rec))
    columns = {name: [getattr(rec, name)] * 2 for name in KPI_NAMES}
    with pytest.raises(ValidationError, match=r"^profile 'm' has duplicate image ids$"):
        ModelProfile("m", ["i1", "i1"], **columns)


def _spec(**fields):
    base = dict(
        model_id="m", tau_system_mean=0.1, tau_system_std=0.01, c_mean=0.6, c_std=0.05,
        s_cpu_mean=50.0, b_mean=4.0, b_std=1.0,
    )
    return ProfileFamilySpec(models=(ModelKpiSpec(**{**base, **fields}),), image_count=40, seed=5)


@pytest.mark.parametrize(
    "spec",
    [
        five_tier_spec(seed=3, image_count=60),
        # Draws past the float range: tau_model and tau_system become inf.
        _spec(tau_system_mean=1e308, tau_system_std=1e308),
        # b becomes inf, which int() cannot convert.
        _spec(b_mean=1e308, b_std=1e308),
        # The overhead absorbs the 1e-6 floor, so some tau_model is 0.
        _spec(tau_system_mean=1.5e20, tau_system_std=1e20, overhead=1e20),
    ],
    ids=["valid", "tau-overflow", "b-overflow", "tau-model-zero"],
)
def test_generation_matches_record_by_record_construction(spec):
    try:
        expected = records_one_by_one(spec)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as raised:
            generate_profiles(spec)
        assert str(raised.value) == str(exc)
        assert "img-00000" not in str(exc)
    else:
        profiles = generate_profiles(spec)
        assert {p.model_id: tuple(p.records) for p in profiles} == expected


def test_huge_counts_stay_exact_python_ints(tmp_path):
    # Above 2**63 a cast through int64 would wrap.
    spec = ProfileFamilySpec(
        models=(ModelKpiSpec("m", 0.1, 0.0, 0.6, 0.0, 50.0, 2.0**70),), image_count=3, seed=1
    )
    (profile,) = generate_profiles(spec)
    assert type(profile.records[0].b) is int and profile.records[0].b == 2**70
    write_profiles([profile], tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text().splitlines()[1].endswith(f",{2**70}")
    assert load_profiles(tmp_path / "p.csv")[0].records == profile.records
    workload = WorkloadSpec(
        segments=((10.0, 1.0),), max_requests=5, arrival_process="deterministic"
    )
    config = SimConfig(
        workload=workload,
        profiles=(profile,),
        policy=PolicySpec(kind="static", static_model="m"),
        initial_model="m",
    )
    completions, _ = run_simulation(config)
    assert [type(rec.b) for rec in completions] == [int] * 5
    assert {rec.b for rec in completions} == {2**70}


def test_records_view_builds_rows_on_access(tiny_profiles):
    profile = tiny_profiles[0]
    records = profile.records
    assert len(records) == len(profile.image_id) == 120
    assert records[-1] == records[119] == profile.record(119)
    assert records[1:3] == (profile.record(1), profile.record(2))
    c, tau_model, tau_system, s_cpu, b = profile.kpi_table[7].tolist()
    assert records[7] == KpiRecord(
        profile.image_id[7], profile.model_id, c, tau_model, tau_system, s_cpu, int(b)
    )
    assert [profile.column(kpi)[7] for kpi in KPI_NAMES] == profile.kpi_table[7].tolist()
    with pytest.raises(IndexError):
        records[120]
    assert profile.kpi_values("b") == [float(rec.b) for rec in records]


def test_hot_path_builds_no_kpi_record(tiny_config, tmp_path, monkeypatch, capsys):
    built = []
    check = KpiRecord.__post_init__

    def counting(self):
        built.append(self.image_id)
        check(self)

    monkeypatch.setattr(KpiRecord, "__post_init__", counting)
    config = dataclasses.replace(tiny_config, output_dir=str(tmp_path))
    run_learning_engine(cfgmod.resolve_profiles(config), k_max=config.learning.k_max)
    assert cli.run_learn(config) == 0
    assert cli.run_compare(config) == 0
    capsys.readouterr()
    assert built == []
    KpiRecord("i", "m", 0.5, 0.04, 0.05, 20.0, 3)
    assert built == ["i"]
