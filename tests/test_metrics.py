import random
from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from adamls.controller import EventLog
from adamls.errors import ValidationError
from adamls.metrics import (
    DEFAULT_WEIGHT_GRID,
    UtilityParams,
    UtilityTerms,
    running_total,
    summarize,
    utility_confidence_term,
    utility_per_request,
    utility_response_term,
)

from .oracles import Served, completions_of, scalar_utility_series

PARAMS = UtilityParams()  # the experiment defaults: bounds (0.5, 1) and (0.1, 1) s


def fake_record(c, r, s_cpu=50.0):
    return Served(0, 0.0, 0.0, 0.0, "m", c, 0.05, 0.05, s_cpu, 3, r)


def run_total(records, params):
    """The run total at the params' weights, as summarize gives it."""
    summary = summarize(
        completions_of(records), EventLog(), weight_grid=((params.w_e, params.w_d),), params=params
    )
    return summary.utilities[0][2]


def series_utilities(records, params):
    """Per-request utilities at the params' weights, as report --timeseries builds them."""
    terms = UtilityTerms.of([rec.c for rec in records], [rec.r for rec in records], params)
    return terms.utilities(params.w_e, params.w_d)


class TestConfidenceTerm:
    def test_in_range_is_identity(self):
        assert utility_confidence_term(0.7, PARAMS) == 0.7

    def test_below_minimum_is_penalized(self):
        assert utility_confidence_term(0.4, PARAMS) == pytest.approx(-0.1)

    def test_boundaries_take_in_range_branch(self):
        assert utility_confidence_term(PARAMS.c_min, PARAMS) == PARAMS.c_min
        assert utility_confidence_term(PARAMS.c_max, PARAMS) == PARAMS.c_max

    def test_raw_sign_flag_restores_positive_violations(self):
        raw = replace(PARAMS, raw_violation_signs=True)
        assert utility_confidence_term(0.4, raw) == pytest.approx(0.1)


class TestResponseTerm:
    def test_in_range_is_identity(self):
        assert utility_response_term(0.5, PARAMS) == 0.5

    def test_above_maximum(self):
        assert utility_response_term(1.5, PARAMS) == pytest.approx(-0.5)

    def test_below_minimum(self):
        assert utility_response_term(0.05, PARAMS) == pytest.approx(-0.05)

    def test_boundary_in_range(self):
        assert utility_response_term(PARAMS.r_max, PARAMS) == PARAMS.r_max
        assert utility_response_term(PARAMS.r_min, PARAMS) == PARAMS.r_min


class TestPerRequest:
    def test_equal_weights_in_range(self):
        assert utility_per_request(0.7, 0.5, PARAMS) == pytest.approx(0.6)

    def test_double_violation(self):
        assert utility_per_request(0.4, 1.5, PARAMS) == pytest.approx(-0.3)

    def test_zero_confidence_weight(self):
        params = replace(PARAMS, w_e=0.0, w_d=0.7)
        assert utility_per_request(0.2, 0.5, params) == pytest.approx(0.7 * 0.5)


class TestTotalUtility:
    def test_singleton(self):
        assert run_total([fake_record(0.7, 0.5)], PARAMS) == pytest.approx(0.6)

    def test_duplication_doubles(self):
        records = [fake_record(0.62, 0.3), fake_record(0.4, 2.0)]
        assert run_total(records * 2, PARAMS) == pytest.approx(
            2 * run_total(records, PARAMS)
        )

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="no completions"):
            run_total([], PARAMS)

    def test_hundred_record_independent_recomputation(self):
        rng = random.Random(12)
        records = [
            fake_record(rng.uniform(0, 1), rng.uniform(0, 2.0)) for _ in range(100)
        ]
        # Spreadsheet-style recomputation, written independently of the
        # implementation's branch structure.
        expected = 0.0
        for rec in records:
            if rec.c > 1.0:
                e = -(rec.c - 1.0)
            elif rec.c < 0.5:
                e = -(0.5 - rec.c)
            else:
                e = rec.c
            if rec.r > 1.0:
                t = 1.0 - rec.r
            elif rec.r < 0.1:
                t = rec.r - 0.1
            else:
                t = rec.r
            expected += 0.5 * e + 0.5 * t
        assert run_total(records, PARAMS) == pytest.approx(expected, abs=1e-9)


def penalties(records):
    summary = summarize(completions_of(records), EventLog(), params=PARAMS)
    return summary.r_penalties, summary.c_penalties


class TestPenalties:
    def test_all_in_range(self):
        records = [fake_record(0.7, 0.5), fake_record(0.9, 0.9)]
        assert penalties(records) == (0, 0)

    def test_one_each(self):
        records = [fake_record(0.7, 2.0), fake_record(0.3, 0.5), fake_record(0.8, 0.2)]
        assert penalties(records) == (1, 1)

    def test_matches_brute_filter(self):
        rng = random.Random(77)
        records = [fake_record(rng.uniform(0, 1.1), rng.uniform(0, 3)) for _ in range(500)]
        n_r = len([r for r in records if r.r < 0.1 or r.r > 1.0])
        n_c = len([r for r in records if r.c < 0.5 or r.c > 1.0])
        assert penalties(records) == (n_r, n_c)


class TestSummarize:
    def test_switch_count_from_events(self):
        records = [fake_record(0.7, 0.5)]
        events = EventLog(
            [1.0, 2.0, 3.0, 4.0, 5.0],
            ["SWITCH", "NOOP", "SWITCH", "MONITOR", "SWITCH"],
            ["a->b", "", "b->a", "", "a->c"],
        )
        summary = summarize(completions_of(records), events, policy="p")
        assert summary.switch_count == 3
        assert summary.policy == "p"

    def test_single_pair_grid(self):
        summary = summarize(
            completions_of([fake_record(0.7, 0.5)]), EventLog(), weight_grid=((0.5, 0.5),)
        )
        assert summary.utilities == ((0.5, 0.5, pytest.approx(0.6)),)

    def test_averages_read_the_kpi_rows_and_r(self):
        records = [fake_record(0.7, 0.5, s_cpu=40.0), fake_record(0.4, 1.5, s_cpu=60.0)]
        summary = summarize(completions_of(records), EventLog())
        assert (summary.avg_c, summary.avg_r, summary.avg_s_cpu) == (0.55, 1.0, 50.0)
        assert summary.request_count == 2
        assert penalties(records) == (1, 1)

    def test_default_grid_has_five_pairs(self):
        summary = summarize(completions_of([fake_record(0.7, 0.5, s_cpu=42.0)]), EventLog())
        assert len(summary.utilities) == 5
        assert [(w_e, w_d) for w_e, w_d, _ in summary.utilities] == list(DEFAULT_WEIGHT_GRID)
        assert summary.avg_s_cpu == 42.0


class TestProperties:
    @given(c=st.floats(min_value=0.0, max_value=1.0), r=st.floats(min_value=0.0, max_value=10.0))
    def test_violations_never_increase_utility(self, c, r):
        e = utility_confidence_term(c, PARAMS)
        t = utility_response_term(r, PARAMS)
        if c < PARAMS.c_min or c > PARAMS.c_max:
            assert e <= 0.0
        else:
            assert e >= 0.0
        if r < PARAMS.r_min or r > PARAMS.r_max:
            assert t <= 0.0
        else:
            assert t >= 0.0

    @given(
        r1=st.floats(min_value=1.0001, max_value=50.0),
        delta=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_response_term_strictly_decreasing_past_max(self, r1, delta):
        assert utility_response_term(r1 + delta, PARAMS) < utility_response_term(r1, PARAMS)

    @given(
        c1=st.floats(min_value=0.5, max_value=1.0),
        c2=st.floats(min_value=0.5, max_value=1.0),
    )
    def test_confidence_term_monotone_in_range(self, c1, c2):
        lo, hi = sorted((c1, c2))
        assert utility_confidence_term(lo, PARAMS) <= utility_confidence_term(hi, PARAMS)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 3)), min_size=1, max_size=20))
    def test_linear_over_concatenation(self, pairs):
        records = [fake_record(c, r) for c, r in pairs]
        total = run_total(records + records, PARAMS)
        assert total == pytest.approx(2 * run_total(records, PARAMS), abs=1e-9)

    @given(c=st.floats(min_value=0.0, max_value=0.499), r=st.floats(min_value=1.001, max_value=9.0))
    def test_zero_penalty_multipliers_neutralize_violations(self, c, r):
        params = replace(PARAMS, p_ev=0.0, p_dv=0.0)
        assert utility_per_request(c, r, params) == 0.0


def bits(values):
    """Exact identity of each float, telling -0.0 from 0.0."""
    return [float(v).hex() for v in values]


@st.composite
def utility_runs(draw):
    """Random params and records, with values on every bound and far outside."""
    c_min, c_max = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
    r_min, r_max = sorted((draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0))))
    penalty = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 10.0)
    params = UtilityParams(
        w_e=draw(st.floats(0.0, 1.0)),
        w_d=draw(st.floats(0.0, 1.0)),
        c_min=c_min,
        c_max=c_max,
        r_min=r_min,
        r_max=r_max,
        p_ev=draw(penalty),
        p_dv=draw(penalty),
        raw_violation_signs=draw(st.booleans()),
    )
    c = st.sampled_from((c_min, c_max)) | st.floats(-1.0, 2.0)
    r = st.sampled_from((r_min, r_max)) | st.floats(0.0, 10.0) | st.floats(1e3, 1e300)
    pairs = draw(st.lists(st.tuples(c, r), min_size=1, max_size=40))
    return params, [fake_record(cv, rv) for cv, rv in pairs]


GRID = DEFAULT_WEIGHT_GRID + ((0.3, 0.9),)
BITWISE_EXAMPLES = (
    # Every record on a bound of its range.
    (PARAMS, [fake_record(0.5, 0.1), fake_record(1.0, 1.0), fake_record(0.5, 1.0)]),
    # Raw confidence-violation signs.
    (replace(PARAMS, raw_violation_signs=True), [fake_record(0.2, 0.5), fake_record(1.5, 0.5)]),
    # No penalties: every utility is -0.0, the loop's totals stay +0.0.
    (replace(PARAMS, p_ev=0.0, p_dv=0.0), [fake_record(0.2, 3.0), fake_record(0.1, 0.01)]),
    # A single record, its r far outside the range.
    (PARAMS, [fake_record(0.7, 1e12)]),
)


class TestArrayPathIsBitExact:
    """summarize and the per-request series against a scalar loop, bit for bit."""

    @given(run=utility_runs())
    @example(run=BITWISE_EXAMPLES[0])
    @example(run=BITWISE_EXAMPLES[1])
    @example(run=BITWISE_EXAMPLES[2])
    @example(run=BITWISE_EXAMPLES[3])
    def test_grid_totals(self, run):
        params, records = run
        summary = summarize(completions_of(records), EventLog(), weight_grid=GRID, params=params)
        expected = [
            scalar_utility_series(records, replace(params, w_e=w_e, w_d=w_d))[1][-1]
            for w_e, w_d in GRID
        ]
        assert bits(total for _, _, total in summary.utilities) == bits(expected)
        assert all(type(total) is float for _, _, total in summary.utilities)
        assert bits([run_total(records, params)]) == bits(
            scalar_utility_series(records, params)[1][-1:]
        )

    @given(run=utility_runs())
    @example(run=BITWISE_EXAMPLES[0])
    @example(run=BITWISE_EXAMPLES[1])
    @example(run=BITWISE_EXAMPLES[2])
    @example(run=BITWISE_EXAMPLES[3])
    def test_series_and_running_totals(self, run):
        params, records = run
        utilities = series_utilities(records, params)
        expected_utilities, expected_totals = scalar_utility_series(records, params)
        assert bits(utilities.tolist()) == bits(expected_utilities)
        assert bits(running_total(utilities).tolist()) == bits(expected_totals)

    def test_zero_penalties_keep_the_sign_of_each_utility(self):
        params, records = BITWISE_EXAMPLES[2]
        utilities = series_utilities(records, params)
        assert bits(utilities.tolist()) == bits([-0.0, -0.0])
        assert bits(running_total(utilities).tolist()) == bits([0.0, 0.0])


def test_invalid_params_rejected():
    with pytest.raises(ValidationError):
        UtilityParams(c_min=0.9, c_max=0.5)
    with pytest.raises(ValidationError):
        UtilityParams(r_min=2.0, r_max=1.0)
    with pytest.raises(ValidationError):
        UtilityParams(p_ev=-1.0)
    with pytest.raises(ValidationError):
        UtilityParams(w_e=-0.1)
