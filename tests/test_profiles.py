import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from adamls.errors import ProfileLoadError, ValidationError
from adamls.profiles import (
    KpiRecord,
    ModelKpiSpec,
    ModelProfile,
    ProfileFamilySpec,
    generate_profiles,
    load_profiles,
    write_profiles,
)

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
        ModelProfile(model_id="m", records=())
    with pytest.raises(ValidationError):
        ModelProfile(model_id="other", records=(rec,))
    with pytest.raises(ValidationError):
        ModelProfile(model_id="m", records=(rec, rec))


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
