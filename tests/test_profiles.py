import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamls import cli
from adamls import config as cfgmod
from adamls.errors import ConfigError, ProfileLoadError, ValidationError
from adamls.learning import run_learning_engine
from adamls.simulator import (
    PolicySpec,
    SimConfig,
    SimulationConfig,
    WorkloadConfig,
    WorkloadSpec,
    build_requests,
    run_simulation,
)
from adamls.profiles import (
    KPI_NAMES,
    KpiRecord,
    ModelKpiSpec,
    ModelProfile,
    ProfilesConfig,
    generate_profiles,
    load_profiles,
    write_profiles,
)

from .oracles import records_one_by_one, same_profiles

FIVE_TIER_TAUS = (0.045, 0.12, 0.25, 0.45, 0.766)


def five_tier_spec(image_count=1000):
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
    return ProfilesConfig(models=models, image_count=image_count)


def test_five_tier_family_sample_means_match_spec():
    spec = five_tier_spec()
    profiles = generate_profiles(spec, seed=11)
    assert len(profiles) == 5
    for profile, model_spec in zip(profiles, spec.models):
        assert profile.image_id == profiles[0].image_id
        values = profile.tau_system.tolist()
        mean = sum(values) / len(values)
        bound = 3 * model_spec.tau_system_std / math.sqrt(len(values))
        assert abs(mean - model_spec.tau_system_mean) < bound


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sample_mean_within_four_sigma_bound(seed):
    spec = five_tier_spec(image_count=400)
    for profile, model_spec in zip(generate_profiles(spec, seed), spec.models):
        values = profile.tau_system.tolist()
        mean = sum(values) / len(values)
        bound = 4 * model_spec.tau_system_std / math.sqrt(len(values))
        assert abs(mean - model_spec.tau_system_mean) < bound


def test_zero_stddev_yields_identical_records():
    model = ModelKpiSpec("m", 0.1, 0.0, 0.6, 0.0, 50.0, 5.0)
    spec = ProfilesConfig(models=(model,), image_count=20)
    (profile,) = generate_profiles(spec, seed=1)
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
    spec = five_tier_spec(image_count=50)
    assert same_profiles(generate_profiles(spec, seed=42), generate_profiles(spec, seed=42))


def test_different_seed_changes_draws():
    spec = five_tier_spec(image_count=50)
    assert not same_profiles(generate_profiles(spec, seed=1), generate_profiles(spec, seed=2))


def test_roundtrip_write_load_exact(tmp_path, tiny_profiles):
    path = tmp_path / "profiles.csv"
    write_profiles(tiny_profiles, path)
    loaded = load_profiles(path)
    assert {p.model_id: p.records for p in loaded} == {
        p.model_id: p.records for p in tiny_profiles
    }


def test_default_family_roundtrip_compares_equal(tmp_path):
    profiles = generate_profiles(ProfilesConfig(image_count=20), seed=1)
    path = tmp_path / "profiles.csv"
    write_profiles(profiles, path)
    assert same_profiles(load_profiles(path), profiles)


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


_HEADER = "image_id,model_id,c,tau_model,tau_system,s_cpu,b\n"


def _rows(model, images):
    return "".join(f"{image},{model},0.5,0.04,0.045,20,3\n" for image in images)


@pytest.mark.parametrize("b", ["2.5", "inf", "1e400", "nan"])
def test_load_rejects_a_non_integer_b_naming_the_row(tmp_path, b):
    path = tmp_path / "p.csv"
    path.write_text(_HEADER + _rows("a", ["i1"]) + f"i2,a,0.5,0.04,0.045,20,{b}\n")
    with pytest.raises(ProfileLoadError) as raised:
        load_profiles(path)
    assert str(raised.value) == f"{path}: row 2: b must be an integer, got {b!r}"


@pytest.mark.parametrize(
    "row", ["i2,a,0.5,0.04,0.045,20,3,9", "i2,a,0.5,0.04,0.045,20"], ids=["extra", "short"]
)
def test_load_rejects_a_row_of_another_field_count(tmp_path, row):
    path = tmp_path / "p.csv"
    path.write_text(_HEADER + _rows("a", ["i1"]) + row + "\n")
    with pytest.raises(ProfileLoadError) as raised:
        load_profiles(path)
    assert str(raised.value) == f"{path}: row 2: the row's field count is not the header's"


def test_load_rejects_a_repeated_column(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(_HEADER.replace("\n", ",c\n") + "i1,a,0.5,0.04,0.045,20,3,0.9\n")
    with pytest.raises(ProfileLoadError) as raised:
        load_profiles(path)
    assert str(raised.value) == f"{path}: the header repeats column(s) c"


@pytest.mark.parametrize("column", ["c", "tau_model", "tau_system", "s_cpu"])
def test_load_names_the_column_of_a_bad_number(tmp_path, column):
    row = dict(zip(_HEADER.strip().split(","), "i2,a,0.5,0.04,0.045,20,3".split(",")))
    row[column] += "\x00"
    path = tmp_path / "p.csv"
    path.write_text(_HEADER + _rows("a", ["i1"]) + ",".join(row.values()) + "\n")
    with pytest.raises(ProfileLoadError) as raised:
        load_profiles(path)
    assert str(raised.value) == (
        f"{path}: row 2: {column} must be a number, got {row[column]!r}"
    )


def test_load_rejects_a_repeated_image_naming_file_and_row(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(_HEADER + _rows("a", ["i1", "i2"]) + _rows("b", ["i1"]) + _rows("a", ["i1"]))
    with pytest.raises(ProfileLoadError) as raised:
        load_profiles(path)
    assert str(raised.value) == f"{path}: row 4: image 'i1' of model 'a' repeats row 1"


@pytest.mark.parametrize(
    "b_images, where",
    [
        (["i2", "i1", "i3"], "differ at image 1: 'a' lists 'i1', 'b' lists 'i2'"),
        (["i1", "i2"], "differ at image 3: 'a' lists 'i3', 'b' lists no image"),
        (["i1", "i2", "i3", "i4"], "differ at image 4: 'a' lists no image, 'b' lists 'i4'"),
        (["i1", "i2", "i9"], "differ at image 3: 'a' lists 'i3', 'b' lists 'i9'"),
    ],
    ids=["order", "missing", "extra", "other-image"],
)
def test_load_requires_the_first_models_image_order(tmp_path, b_images, where):
    path = tmp_path / "p.csv"
    path.write_text(_HEADER + _rows("a", ["i1", "i2", "i3"]) + _rows("b", b_images))
    with pytest.raises(ProfileLoadError) as raised:
        load_profiles(path)
    assert str(raised.value) == (
        f"{path}: models 'a' and 'b' {where}; every model must list the images of 'a' "
        "in its order"
    )


def test_load_keeps_one_order_across_interleaved_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(
        _HEADER + "".join(_rows(m, [i]) for i in ("i2", "i1") for m in ("b", "a"))
    )
    profiles = load_profiles(path)
    assert [p.model_id for p in profiles] == ["b", "a"]
    assert [p.image_id for p in profiles] == [("i2", "i1")] * 2


def test_invalid_family_specs_rejected():
    model = ModelKpiSpec("m", 0.1, 0.01, 0.6, 0.05, 50.0, 5.0)
    with pytest.raises(ConfigError, match=r"^profiles.image_count must be >= 1, got 0$"):
        ProfilesConfig(models=(model,), image_count=0)
    with pytest.raises(ValidationError):
        ModelKpiSpec("m", 0.1, -0.01, 0.6, 0.05, 50.0, 5.0)
    with pytest.raises(ValidationError):
        ModelKpiSpec("m", 0.004, 0.01, 0.6, 0.05, 50.0, 5.0, overhead=0.005)
    with pytest.raises(ConfigError, match=r"^profiles.models repeats model id\(s\) \['m'\]$"):
        ProfilesConfig(models=(model, model), image_count=5)
    with pytest.raises(ConfigError, match=r"^profiles.models needs at least one model$"):
        ProfilesConfig(models=())


@pytest.mark.parametrize("image_count", [2.5, float("inf"), True, "10"])
def test_non_integer_image_count_rejected(image_count):
    model = ModelKpiSpec("m", 0.1, 0.01, 0.6, 0.05, 50.0, 5.0)
    with pytest.raises(ConfigError, match="profiles.image_count must be an integer"):
        ProfilesConfig(models=(model,), image_count=image_count)


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


@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_profile_rejects_a_non_finite_b_naming_its_row(b):
    columns = dict(c=[0.5, 0.5], tau_model=[0.04, 0.04], tau_system=[0.05, 0.05],
                   s_cpu=[20.0, 20.0], b=[3.0, b])
    with pytest.raises(ValidationError) as raised:
        ModelProfile("m", ["i1", "i2"], **columns)
    assert str(raised.value) == f"b must be finite for image 'i2' model 'm', got {b}"


@given(
    tau_mean=st.floats(min_value=0.02, max_value=1.0),
    c_mean=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=30),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_generate_then_roundtrip_property(tmp_path_factory, tau_mean, c_mean, n, seed):
    spec = ProfilesConfig(
        models=(ModelKpiSpec("m", tau_mean, 0.2 * tau_mean, c_mean, 0.1, 50.0, 4.0, b_std=2.0),),
        image_count=n,
    )
    profiles = generate_profiles(spec, seed)
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
    floats = {f.name for f in dataclasses.fields(ModelKpiSpec)} - {"model_id"}
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
    return ProfilesConfig(models=(ModelKpiSpec(**{**base, **fields}),), image_count=40)


@pytest.mark.parametrize(
    "spec, seed",
    [
        (five_tier_spec(image_count=60), 3),
        # Draws past the float range: tau_model and tau_system become inf.
        (_spec(tau_system_mean=1e308, tau_system_std=1e308), 5),
        # b becomes inf, which int() cannot convert; the first inf is past
        # row 0 at this seed.
        (_spec(b_mean=1e308, b_std=1e308), 2),
        # The overhead absorbs the 1e-6 floor, so some tau_model is 0.
        (_spec(tau_system_mean=1.5e20, tau_system_std=1e20, overhead=1e20), 5),
    ],
    ids=["valid", "tau-overflow", "b-overflow", "tau-model-zero"],
)
def test_generation_matches_record_by_record_construction(spec, seed):
    try:
        expected = records_one_by_one(spec, seed)
    except (ValueError, OverflowError) as exc:
        with pytest.raises(type(exc)) as raised:
            generate_profiles(spec, seed)
        assert str(raised.value) == str(exc)
        assert "img-00000" not in str(exc)
    else:
        profiles = generate_profiles(spec, seed)
        assert {p.model_id: tuple(p.records) for p in profiles} == expected


def test_huge_counts_stay_exact_python_ints(tmp_path):
    # Above 2**63 a cast through int64 would wrap.
    model = ModelKpiSpec("m", 0.1, 0.0, 0.6, 0.0, 50.0, 2.0**70)
    spec = ProfilesConfig(models=(model,), image_count=3)
    (profile,) = generate_profiles(spec, seed=1)
    assert type(profile.records[0].b) is int and profile.records[0].b == 2**70
    write_profiles([profile], tmp_path / "p.csv")
    assert (tmp_path / "p.csv").read_text().splitlines()[1].endswith(f",{2**70}")
    assert load_profiles(tmp_path / "p.csv")[0].records == profile.records
    workload = WorkloadSpec(
        WorkloadConfig(segments=((10.0, 1.0),), max_requests=5, arrival_process="deterministic"),
    )
    config = SimConfig(
        profiles=(profile,),
        policy=PolicySpec(kind="static", static_model="m"),
        simulation=SimulationConfig(initial_model="m"),
    )
    completions, _ = run_simulation(config, build_requests(workload, 0, len(profile.image_id)))
    assert [type(kpis[4]) for kpis in completions.kpis] == [int] * 5
    assert {kpis[4] for kpis in completions.kpis} == {2**70}


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
    assert profile.b.tolist() == [float(rec.b) for rec in records]


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
