import csv
import random
from fractions import Fraction
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adamls import learning
from adamls.errors import JoinError, RuleError, ValidationError
from adamls.learning import (
    CI_CSV_HEADER,
    CiEntry,
    CiMatrix,
    PerfMatrix,
    attach_anchor_stats,
    build_ci_matrix,
    build_performance_matrix,
    compute_ci,
    elbow_from_wcss,
    kmeans_1d,
    read_ci_matrix,
    run_learning_engine,
    wcss_series,
    write_ci_matrix,
)
from adamls.profiles import KPI_NAMES, KpiRecord, ModelProfile, ProfilesConfig, generate_profiles

from .oracles import normal_mean_ci, optimal_1d_wcss, reference_ci


def _wcss(values, labels, centroids):
    return sum((x - centroids[l]) ** 2 for x, l in zip(values, labels))


class TestKmeans:
    def test_two_well_separated_pairs(self):
        values = [0.04, 0.05, 0.20, 0.22]
        labels, centroids = kmeans_1d(values, 2)
        assert list(centroids) == pytest.approx([0.045, 0.21])
        assert list(labels) == [0, 0, 1, 1]

    def test_k1_centroid_is_mean(self):
        values = [1.0, 2.0, 6.0]
        labels, centroids = kmeans_1d(values, 1)
        assert list(labels) == [0, 0, 0]
        assert centroids[0] == pytest.approx(3.0)

    def test_copies_of_a_value_share_a_label(self):
        values = [9.0, 1.0, 2.0, 1.0, 9.0, 2.0, 1.0, 9.0]
        for k in (1, 2, 3):
            labels, _ = kmeans_1d(values, k)
            by_value = {}
            for x, label in zip(values, labels):
                assert by_value.setdefault(x, label) == label
        assert list(kmeans_1d(values, 3)[0]) == [2, 0, 1, 0, 2, 1, 0, 2]

    def test_identical_values_k1_zero_wcss(self):
        values = [0.5] * 8
        labels, centroids = kmeans_1d(values, 1)
        assert _wcss(values, labels, centroids) == 0.0

    def test_errors(self):
        with pytest.raises(ValidationError):
            kmeans_1d([], 1)
        with pytest.raises(ValidationError):
            kmeans_1d([1.0, 1.0], 2)
        with pytest.raises(ValidationError):
            kmeans_1d([1.0], 0)

    def test_deterministic(self):
        rng = random.Random(5)
        values = [rng.uniform(0, 1) for _ in range(40)]
        a = kmeans_1d(values, 3)
        b = kmeans_1d(values, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100), min_size=3, max_size=25
        ),
        k=st.integers(min_value=1, max_value=3),
    )
    def test_fixed_point_invariants(self, values, k):
        if len(set(values)) < k:
            return
        labels, centroids = kmeans_1d(values, k)
        arr = np.asarray(values)
        # Every point sits with its nearest centroid.
        for x, l in zip(arr, labels):
            dists = np.abs(centroids - x)
            assert dists[l] == pytest.approx(dists.min(), abs=1e-12)
        # Every centroid is the mean of its members, and no cluster is empty.
        for j in range(k):
            members = arr[labels == j]
            assert members.size > 0
            assert centroids[j] == pytest.approx(members.mean(), abs=1e-9)
        assert all(c1 <= c2 for c1, c2 in zip(centroids, centroids[1:]))

    def test_memory_is_linear_in_n(self):
        # An n x n cost table at n = 5000 would take 200 MB.
        values = np.linspace(0.0, 1.0, 5000) ** 3
        tracemalloc.start()
        try:
            labels, _ = kmeans_1d(values, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(labels.tolist())) == 6
        assert peak < 10e6

    def test_wcss_non_increasing_in_k(self):
        rng = random.Random(3)
        values = [rng.gauss(0, 1) for _ in range(60)]
        series = wcss_series(values, 6)
        assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_matches_dp_optimum_on_small_instances(self):
        rng = random.Random(17)
        for _ in range(30):
            n = rng.randint(3, 12)
            k = rng.randint(1, 3)
            values = [round(rng.uniform(0, 10), 3) for _ in range(n)]
            if len(set(values)) < k:
                continue
            rng.randint(0, 999)  # one draw per instance fixes the instance sequence
            labels, centroids = kmeans_1d(values, k)
            assert _wcss(values, labels, centroids) == pytest.approx(
                optimal_1d_wcss(values, k), abs=1e-9
            )
            assert wcss_series(values, 3)[k - 1] == pytest.approx(
                optimal_1d_wcss(values, k), abs=1e-9
            )


class TestElbow:
    def test_hand_computed_series(self):
        # Normalized chord distances: k=2 is the sharpest knee.
        assert elbow_from_wcss([100, 20, 10, 8, 7]) == 2

    def test_linear_decay_ties_to_smallest_interior_k(self):
        assert elbow_from_wcss([100, 75, 50, 25, 0]) == 2

    def test_constant_series_ties_to_k2(self):
        assert elbow_from_wcss([5, 5, 5, 5]) == 2

    def test_needs_wcss_for_k_1_and_2(self):
        with pytest.raises(ValidationError, match="at least k=1..2"):
            elbow_from_wcss(wcss_series([1.0, 2.0, 3.0], 1))

    def test_select_k_on_two_blobs(self):
        rng = random.Random(1)
        values = [rng.gauss(0.05, 0.003) for _ in range(30)] + [
            rng.gauss(0.5, 0.01) for _ in range(30)
        ]
        assert elbow_from_wcss(wcss_series(values, 6)) == 2

    def test_identical_values_pick_k2_by_tie_break(self):
        assert elbow_from_wcss(wcss_series([0.3] * 10, 4)) == 2


class TestComputeCi:
    def test_frozen_five_sample_interval(self):
        entry = compute_ci([1, 2, 3, 4, 5])
        assert entry.mean == 3.0
        assert entry.n == 5
        assert (round(entry.low, 3), round(entry.high, 3)) == (1.837, 4.163)
        low, high = normal_mean_ci([1, 2, 3, 4, 5])
        assert entry.low == pytest.approx(low, abs=1e-12)
        assert entry.high == pytest.approx(high, abs=1e-12)

    def test_single_sample(self):
        entry = compute_ci([7.0])
        assert (entry.low, entry.high, entry.n, entry.mean) == (7.0, 7.0, 1, 7.0)

    def test_zero_variance(self):
        entry = compute_ci([0.5] * 50)
        assert (entry.low, entry.high) == (0.5, 0.5)

    def test_small_sample_falls_back_to_envelope(self):
        entry = compute_ci([3.0, 1.0, 2.0, 10.0])
        assert (entry.low, entry.high, entry.n) == (1.0, 10.0, 4)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_ci([])

    def test_width_scales_inverse_sqrt_n(self):
        rng = random.Random(8)
        widths = {n: [] for n in (40, 160)}
        for _ in range(300):
            for n in widths:
                entry = compute_ci([rng.gauss(0, 1) for _ in range(n)])
                widths[n].append(entry.high - entry.low)
        ratio = statistics.fmean(widths[40]) / statistics.fmean(widths[160])
        assert ratio == pytest.approx(2.0, rel=0.1)


# Finite floats across the whole range: mixed signs and exponents, values
# near 1e300, subnormals, and a few fixed values that lists repeat.
_ANY_FINITE = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),
    st.sampled_from([5e-324, -5e-324, 1e300, -1e300, 0.0, 0.1, 3.0]),
)


@given(values=st.lists(_ANY_FINITE, min_size=1, max_size=40), level=st.sampled_from([0.90, 0.95]))
@example(values=[0.1] * 7, level=0.90)
@example(values=[5e-324, 1e300, -1e300, 2.5e-310, 7.0] * 3, level=0.90)
def test_compute_ci_equals_reference_bit_for_bit(values, level):
    assert compute_ci(values, level) == reference_ci(values, level)


@given(
    column=st.lists(st.tuples(_ANY_FINITE, st.integers(0, 2)), min_size=1, max_size=40),
)
@example(column=[(0.1, 0), (0.1, 1)] * 6 + [(5e-324, 2), (1e300, 2)] * 3)
def test_grouped_ci_equals_reference_bit_for_bit(column):
    """Each cluster's entry from the grouped integer sums is its reference CI."""
    values, labels = zip(*column)
    image_ids = tuple(f"i{j:02d}" for j in range(len(values)))
    perf = PerfMatrix(("m",), image_ids, np.array([[values] * len(KPI_NAMES)]))
    matrix = build_ci_matrix(perf, "m", np.array(labels))
    assert sorted(matrix.entries) == sorted(set(labels))
    for cluster in matrix.entries:
        members = [x for x, label in column if label == cluster]
        for kpi in KPI_NAMES:
            assert matrix.entry(cluster, "m", kpi) == reference_ci(members)
    assert matrix.anchor_kpi_std["c"] == (statistics.stdev(values) if len(values) > 1 else 0.0)


@given(
    column=st.lists(st.tuples(_ANY_FINITE, st.integers(0, 2)), min_size=1, max_size=40),
)
@example(column=[(1.0 + 2.0**-52, 0), (2.0**-30 + 2.0**-82, 1), (3.0, 1)] * 2)
@example(column=[(5e-324, 0), (-1e300, 0), (2.5e-310, 1), (7.0, 2)])
def test_exact_column_sums_are_exact(column):
    """The int64 digits of a column add up to the exact sums of x and x*x."""
    values, labels = zip(*column)
    exact = learning._exact_column(values)
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(np.array(labels)[order], return_index=True)
    bounds = starts.tolist() + [len(values)]
    runs = [order[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    unit = Fraction(1, 2**exact.shift)
    for run, moments in zip(runs, exact.run_moments(order, starts)):
        members = [Fraction(values[i]) for i in run]
        assert moments.shift == exact.shift
        assert moments.total * unit == sum(members)
        assert moments.total_sq * unit * unit == sum(x * x for x in members)
    whole = exact.moments()
    assert whole.total * unit == sum(map(Fraction, values))


def _mini_profiles():
    def rec(img, model, c, tau):
        return KpiRecord(img, model, c, tau, tau + 0.005, 50.0, 3)

    a = ModelProfile.of_records(
        "a",
        (
            rec("i1", "a", 0.20, 0.040),
            rec("i2", "a", 0.40, 0.050),
            rec("i3", "a", 0.60, 0.200),
            rec("i4", "a", 0.80, 0.220),
        ),
    )
    b = ModelProfile.of_records(
        "b",
        (
            rec("i1", "b", 0.50, 0.400),
            rec("i2", "b", 0.55, 0.410),
            rec("i3", "b", 0.90, 0.700),
            rec("i4", "b", 0.70, 0.800),
        ),
    )
    return a, b


def _mini_labels():
    """Anchor a's clusters on tau_system, one label per image of the join."""
    return np.array([0, 0, 1, 1])


class TestPerformanceMatrix:
    def test_shape_and_values(self):
        a, b = _mini_profiles()
        perf = build_performance_matrix([a, b])
        assert perf.model_ids == ("a", "b")
        assert perf.image_ids == ("i1", "i2", "i3", "i4")
        assert perf.values.shape == (2, len(KPI_NAMES), 4)
        for m, profile in enumerate((a, b)):
            for q, kpi in enumerate(KPI_NAMES):
                assert perf.values[m, q].tolist() == profile.column(kpi).tolist()

    def test_stacks_the_shared_order_whatever_the_profile_order(self):
        a, b = _mini_profiles()
        swapped = build_performance_matrix([b, a])
        assert (swapped.model_ids, swapped.image_ids) == (("a", "b"), a.image_id)
        assert np.array_equal(swapped.values, build_performance_matrix([a, b]).values)

    def test_differing_image_order_names_the_row(self):
        a, b = _mini_profiles()
        reversed_a = ModelProfile.of_records("a", tuple(reversed(a.records)))
        with pytest.raises(JoinError) as raised:
            build_performance_matrix([b, reversed_a])
        assert str(raised.value) == (
            "models 'a' and 'b' differ at image 1: 'a' lists 'i4', 'b' lists 'i1'; "
            "every model must list the images of 'a' in its order"
        )

    def test_missing_image_names_the_row(self):
        a, b = _mini_profiles()
        short_b = ModelProfile.of_records("b", b.records[:3])
        with pytest.raises(JoinError, match="image 4: 'a' lists 'i4', 'b' lists no image"):
            build_performance_matrix([a, short_b])
        with pytest.raises(JoinError, match="image 4: 'a' lists no image, 'b' lists 'i4'"):
            build_performance_matrix([ModelProfile.of_records("a", a.records[:3]), b])

    def test_label_count_must_match_the_join(self):
        a, b = _mini_profiles()
        message = r"^3 cluster label\(s\) of 'a' for the join's 4 images$"
        with pytest.raises(JoinError, match=message):
            build_ci_matrix(build_performance_matrix([a, b]), "a", np.array([0, 0, 1]))

    def test_anchor_outside_the_join_rejected(self):
        a, b = _mini_profiles()
        with pytest.raises(JoinError, match="anchor model 'z' not among the profiles"):
            build_ci_matrix(build_performance_matrix([a, b]), "z", _mini_labels())


class TestCiMatrix:
    def test_hand_joined_cluster_cis(self):
        # Two images per cluster: the n < 5 fallback makes every entry the
        # (min, max) envelope, directly checkable by hand.
        a, b = _mini_profiles()
        matrix = build_ci_matrix(build_performance_matrix([a, b]), "a", _mini_labels())
        e = matrix.entry(0, "a", "c")
        assert (e.low, e.high, e.n, e.mean) == (0.20, 0.40, 2, pytest.approx(0.30))
        e = matrix.entry(1, "a", "tau_model")
        assert (e.low, e.high, e.n, e.mean) == (0.200, 0.220, 2, pytest.approx(0.210))
        e = matrix.entry(0, "b", "c")
        assert (e.low, e.high, e.n, e.mean) == (0.50, 0.55, 2, pytest.approx(0.525))
        e = matrix.entry(1, "b", "tau_system")
        assert (e.low, e.high, e.n, e.mean) == (0.705, 0.805, 2, pytest.approx(0.755))

    def test_single_cluster_equals_full_column(self, tiny_profiles):
        anchor = tiny_profiles[0]
        labels = np.zeros(len(anchor.image_id), dtype=int)
        matrix = build_ci_matrix(build_performance_matrix(tiny_profiles), anchor.model_id, labels)
        for profile in tiny_profiles:
            for kpi in KPI_NAMES:
                expected = compute_ci(profile.column(kpi).tolist())
                assert matrix.entry(0, profile.model_id, kpi) == expected

    def test_entry_population_counts(self, tiny_profiles):
        anchor = tiny_profiles[0]
        labels = np.array([0 if i < 30 else 1 for i in range(len(anchor.image_id))])
        matrix = build_ci_matrix(build_performance_matrix(tiny_profiles), anchor.model_id, labels)
        assert matrix.entry(0, "slow", "c").n == 30
        assert matrix.entry(1, "slow", "c").n == 90

    def test_entries_recomputable_from_labeled_rows(self, tiny_profiles):
        rules = run_learning_engine(tiny_profiles, k_max=4)
        by_id = {profile.model_id: profile for profile in tiny_profiles}
        for anchor, learned in rules.items():
            labels, _ = kmeans_1d(by_id[anchor].tau_system.tolist(), learned.k)
            for cluster, per_model in learned.ci_matrix.entries.items():
                for profile in tiny_profiles:
                    rows = [
                        rec for rec, label in zip(profile.records, labels) if label == cluster
                    ]
                    for kpi, entry in per_model[profile.model_id].items():
                        assert entry == reference_ci([getattr(rec, kpi) for rec in rows])

    def test_anchor_kpi_std_is_the_sample_stdev(self, tiny_profiles):
        rules = run_learning_engine(tiny_profiles, k_max=4)
        for profile in tiny_profiles:
            std = rules[profile.model_id].ci_matrix.anchor_kpi_std
            assert std == {
                kpi: statistics.stdev(profile.column(kpi).tolist()) for kpi in KPI_NAMES
            }

    def test_derived_facts_are_built_once_per_matrix(self, tiny_profiles):
        matrix = run_learning_engine(tiny_profiles, k_max=4)["fast"].ci_matrix
        calls = []

        def cluster_count(m):
            calls.append(m)
            return len(m.entries)

        assert matrix.derived(cluster_count) == matrix.derived(cluster_count)
        assert calls == [matrix]
        # A replaced matrix is a new matrix: it derives its own facts.
        replaced = attach_anchor_stats(matrix, tiny_profiles[0])
        replaced.derived(cluster_count)
        assert calls == [matrix, replaced]
        assert replaced == matrix


class TestLearningEngine:
    def test_five_model_family_pipeline(self):
        from .test_profiles import five_tier_spec

        profiles = generate_profiles(five_tier_spec(image_count=300), seed=4)
        rules = run_learning_engine(profiles, k_max=6)
        assert sorted(rules) == sorted(p.model_id for p in profiles)
        for learned in rules.values():
            assert learned.k >= 2
            assert len(learned.ci_matrix.entries) == learned.k
            assert set(learned.ci_matrix.anchor_kpi_std) == set(KPI_NAMES)

    def test_identical_tau_degenerates_to_one_cluster(self):
        records = tuple(
            KpiRecord(f"i{j}", "m", 0.5 + 0.01 * j, 0.095, 0.1, 50.0, 3) for j in range(20)
        )
        rules = run_learning_engine([ModelProfile.of_records("m", records)], k_max=4)
        learned = rules["m"]
        assert learned.k == 2  # elbow tie-break on a flat WCSS series
        assert len(learned.ci_matrix.entries) == 1  # realized clusters capped
        tau_entry = learned.ci_matrix.entry(0, "m", "tau_system")
        assert tau_entry.low == tau_entry.high == pytest.approx(0.1)

    def test_profile_order_does_not_matter(self, tiny_profiles):
        forward = run_learning_engine(tiny_profiles, k_max=4)
        backward = run_learning_engine(list(reversed(tiny_profiles)), k_max=4)
        assert forward == backward

    def test_rules_do_not_depend_on_the_shared_image_order(self, tmp_path):
        """Permuting every profile's images the same way, the ids renamed so
        that image i keeps its name, moves the labels with the images and
        leaves every rule file as it was. (The WCSS may move in its last bits,
        since numpy sums pairwise, so the clustering report is left out.)"""
        profiles = generate_profiles(ProfilesConfig(image_count=1000), seed=1)
        order = np.random.default_rng(0).permutation(1000)
        permuted = [
            ModelProfile(p.model_id, p.image_id, **{k: p.column(k)[order] for k in KPI_NAMES})
            for p in profiles
        ]
        before, after = run_learning_engine(profiles), run_learning_engine(permuted)
        for profile, moved in zip(profiles, permuted):
            learned = before[profile.model_id]
            assert after[profile.model_id].k == learned.k
            labels, _ = kmeans_1d(profile.tau_system.tolist(), learned.k)
            moved_labels, _ = kmeans_1d(moved.tau_system.tolist(), learned.k)
            assert np.array_equal(moved_labels, labels[order])
            write_ci_matrix(learned.ci_matrix, tmp_path / "before.csv")
            write_ci_matrix(after[profile.model_id].ci_matrix, tmp_path / "after.csv")
            assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()

    def test_profiles_are_joined_once(self, tiny_profiles, monkeypatch):
        joins = []

        def counting_join(profiles):
            joins.append(profiles)
            return build_performance_matrix(profiles)

        monkeypatch.setattr(learning, "build_performance_matrix", counting_join)
        rules = run_learning_engine(tiny_profiles, k_max=4)
        assert len(rules) == len(tiny_profiles) == 2
        assert len(joins) == 1

    def test_one_clustering_pass_per_anchor(self, tiny_profiles, monkeypatch):
        passes = []
        optimal_1d = learning._optimal_1d

        def counting_pass(values, k_max):
            passes.append(k_max)
            return optimal_1d(values, k_max)

        monkeypatch.setattr(learning, "_optimal_1d", counting_pass)
        rules = run_learning_engine(tiny_profiles, k_max=4)
        assert passes == [4, 4]
        perf = build_performance_matrix(tiny_profiles)
        for profile in tiny_profiles:
            learned = rules[profile.model_id]
            values = profile.tau_system.tolist()
            labels, _ = kmeans_1d(values, learned.k)
            assert learned.wcss_series == tuple(wcss_series(values, 4))
            assert learned.ci_matrix == build_ci_matrix(perf, profile.model_id, labels)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError):
            run_learning_engine([], k_max=3)


class TestCiMatrixCsv:
    def test_roundtrip_and_anchor_stats(self, tmp_path, tiny_profiles):
        rules = run_learning_engine(tiny_profiles, k_max=4)
        matrix = rules["fast"].ci_matrix
        path = tmp_path / "fast.csv"
        write_ci_matrix(matrix, path)
        loaded = read_ci_matrix(path)
        assert loaded.anchor_model_id == "fast"
        assert loaded.entries == matrix.entries
        assert loaded.anchor_kpi_std == {}
        fast = next(p for p in tiny_profiles if p.model_id == "fast")
        attached = attach_anchor_stats(loaded, fast)
        assert attached.anchor_kpi_std == pytest.approx(matrix.anchor_kpi_std)

    def test_attach_rejects_wrong_profile(self, tiny_profiles):
        rules = run_learning_engine(tiny_profiles, k_max=4)
        slow = next(p for p in tiny_profiles if p.model_id == "slow")
        with pytest.raises(RuleError):
            attach_anchor_stats(rules["fast"].ci_matrix, slow)

    @pytest.mark.parametrize(
        "entries, message",
        [
            ({}, "rule matrix of 'a' has no clusters"),
            ({0: ["b"]}, r"entry \(cluster=0, model='a', kpi='c'\) is missing"),
            (
                {0: ["a", "b"], 1: ["a"]},
                r"entry \(cluster=1, model='b', kpi='c'\) is missing",
            ),
        ],
        ids=["no-clusters", "no-anchor", "ragged-clusters"],
    )
    def test_matrix_is_checked_when_built(self, entries, message):
        full = {kpi: CiEntry(0.1, 0.2, 5, 0.15) for kpi in KPI_NAMES}
        entries = {cluster: dict.fromkeys(models, full) for cluster, models in entries.items()}
        with pytest.raises(RuleError, match=message):
            CiMatrix("a", entries)

    def test_equal_values_envelope_roundtrips(self, tmp_path):
        # fmean of three 0.1s is one ulp above the (min, max) envelope.
        entry = compute_ci([0.1] * 3)
        assert entry.mean > entry.high == 0.1
        matrix = CiMatrix("m", {0: {"m": {kpi: entry for kpi in KPI_NAMES}}})
        path = tmp_path / "m.csv"
        write_ci_matrix(matrix, path)
        assert read_ci_matrix(path).entries == matrix.entries

    @pytest.mark.parametrize("column", ["low", "high", "mean"])
    def test_read_rejects_non_finite_value(self, tmp_path, column):
        rows = _rule_rows()
        rows[3][column] = "nan"
        with pytest.raises(
            RuleError,
            match=r"bad\.csv: .*\(cluster=0, model='a', kpi='s_cpu'\) has a non-finite",
        ):
            read_ci_matrix(_write_rule_rows(tmp_path, rows))

    def test_read_rejects_inverted_interval(self, tmp_path):
        rows = _rule_rows()
        rows[2].update(low="0.9", high="0.1")
        with pytest.raises(
            RuleError,
            match=r"bad\.csv: .*\(cluster=0, model='a', kpi='tau_system'\) "
            r"has low 0\.9 > high 0\.1",
        ):
            read_ci_matrix(_write_rule_rows(tmp_path, rows))

    def test_read_rejects_empty_population(self, tmp_path):
        rows = _rule_rows()
        rows[5]["n"] = "0"
        with pytest.raises(
            RuleError,
            match=r"bad\.csv: .*\(cluster=0, model='b', kpi='c'\) has n 0; n must be >= 1",
        ):
            read_ci_matrix(_write_rule_rows(tmp_path, rows))

    def test_read_rejects_duplicate_entry(self, tmp_path):
        rows = _rule_rows()
        rows.append(dict(rows[0]))
        with pytest.raises(
            RuleError, match=r"bad\.csv: row 21: duplicate entry \(cluster=0, model='a', kpi='c'\)"
        ):
            read_ci_matrix(_write_rule_rows(tmp_path, rows))

    def test_read_rejects_cluster_missing_a_model(self, tmp_path):
        rows = [row for row in _rule_rows() if (row["cluster"], row["model"]) != ("1", "b")]
        with pytest.raises(
            RuleError, match=r"bad\.csv: .*entry \(cluster=1, model='b', kpi='c'\) is missing"
        ):
            read_ci_matrix(_write_rule_rows(tmp_path, rows))

    def test_read_rejects_cluster_missing_a_kpi(self, tmp_path):
        rows = [
            row for row in _rule_rows() if (row["cluster"], row["model"], row["kpi"]) != ("0", "a", "b")
        ]
        with pytest.raises(
            RuleError, match=r"bad\.csv: .*entry \(cluster=0, model='a', kpi='b'\) is missing"
        ):
            read_ci_matrix(_write_rule_rows(tmp_path, rows))

    def test_read_rejects_unknown_kpi(self, tmp_path):
        path = tmp_path / "m.csv"
        entries = {0: {"m": dict.fromkeys(KPI_NAMES, CiEntry(0.1, 0.2, 5, 0.15))}}
        write_ci_matrix(CiMatrix("m", entries), path)
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.write("m,0,m,foo,1,2,3,1.5\r\n")
        with pytest.raises(
            RuleError,
            match=r"m\.csv: rule matrix of 'm': entry \(cluster=0, model='m', kpi='foo'\) names no",
        ):
            read_ci_matrix(path)

    @pytest.mark.parametrize(
        "row", ["a,0,a,tau_system,0.1,0.2,5,0.15,9", "a,0,a,tau_system,0.1,0.2,5"],
        ids=["extra", "short"],
    )
    def test_read_rejects_a_row_of_another_field_count(self, tmp_path, row):
        path = _write_rule_rows(tmp_path, _rule_rows())
        lines = path.read_text().splitlines()
        lines[3] = row  # data row 3, after the header
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RuleError) as raised:
            read_ci_matrix(path)
        assert str(raised.value) == (
            f"{path}: row 3: the row's field count is not the header's"
        )

    def test_read_rejects_a_repeated_column(self, tmp_path):
        path = _write_rule_rows(tmp_path, _rule_rows())
        lines = path.read_text().splitlines()
        lines = [lines[0] + ",low"] + [line + ",-5.0" for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RuleError) as raised:
            read_ci_matrix(path)
        assert str(raised.value) == f"{path}: the header repeats column(s) low"

    @pytest.mark.parametrize(
        "column, text, what",
        [("cluster", "x", "an integer"), ("n", "2.5", "an integer"), ("low", "abc", "a number")],
    )
    def test_read_names_the_column_of_a_bad_number(self, tmp_path, column, text, what):
        rows = _rule_rows()
        rows[2][column] = text
        path = _write_rule_rows(tmp_path, rows)
        with pytest.raises(RuleError) as raised:
            read_ci_matrix(path)
        assert str(raised.value) == f"{path}: row 3: {column} must be {what}, got {text!r}"

    def test_read_takes_whole_numbers_written_as_floats(self, tmp_path):
        rows = _rule_rows()
        for row in rows:
            row.update(cluster=row["cluster"] + ".0", n="5.0")
        as_floats = read_ci_matrix(_write_rule_rows(tmp_path, rows))
        assert as_floats == read_ci_matrix(_write_rule_rows(tmp_path, _rule_rows()))

    def test_read_rejects_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("anchor_model,cluster,model,kpi,low,high,n\n")
        with pytest.raises(RuleError, match="missing column"):
            read_ci_matrix(path)


def _rule_rows():
    """Valid rule CSV rows: 2 clusters x models a, b x every KPI."""
    return [
        {"anchor_model": "a", "cluster": str(cluster), "model": model, "kpi": kpi,
         "low": "0.1", "high": "0.2", "n": "5", "mean": "0.15"}
        for cluster in (0, 1)
        for model in ("a", "b")
        for kpi in KPI_NAMES
    ]


def _write_rule_rows(tmp_path, rows):
    path = tmp_path / "bad.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CI_CSV_HEADER)
        writer.writeheader()
        writer.writerows(rows)
    return path
