"""Utility function over confidence and response time, plus run summaries.

Per-request utility is a weighted sum of two piecewise terms: the confidence
term rewards c inside [C_min, C_max] with c itself, and the response term
rewards r inside [R_min, R_max] with r itself. Outside the bounds each term
contributes a penalty scaled by p_ev (confidence) or p_dv (response time).
Boundary values belong to the in-range branch.

utility_per_request is the scalar definition. Run totals and per-request
series go through UtilityTerms, which holds a run's two terms as arrays and
rounds every utility and every running sum exactly as the scalar definition
and a sequential `total += u` loop from 0.0 round them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .controller import EVENT_SWITCH
from .errors import ValidationError
from .profiles import check_fields

# (w_e, w_d) pairs used by default for utility sweeps.
DEFAULT_WEIGHT_GRID = ((0.0, 1.0), (0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0))


@dataclass(frozen=True)
class UtilityParams:
    """Weights, QoS bounds, and penalty multipliers for the utility.

    raw_violation_signs keeps the raw positive sign on confidence-violation
    branches instead of normalizing them into penalties; the default negates
    them so every violation reduces utility.
    """

    w_e: float = 0.5
    w_d: float = 0.5
    c_min: float = 0.5
    c_max: float = 1.0
    r_min: float = 0.1
    r_max: float = 1.0
    p_ev: float = 1.0
    p_dv: float = 1.0
    raw_violation_signs: bool = False

    def __post_init__(self) -> None:
        check_fields(self, "utility", ValidationError)
        for low, high in (("c_min", "c_max"), ("r_min", "r_max")):
            if getattr(self, low) > getattr(self, high):
                raise ValidationError(
                    f"utility.{low} must be <= utility.{high}, "
                    f"got {getattr(self, low)!r} > {getattr(self, high)!r}"
                )
        for key in ("w_e", "w_d", "p_ev", "p_dv"):
            if getattr(self, key) < 0.0:
                raise ValidationError(f"utility.{key} must be >= 0, got {getattr(self, key)!r}")


@dataclass(frozen=True)
class RunSummary:
    """Aggregate view of one simulation run."""

    policy: str
    request_count: int
    switch_count: int
    avg_c: float
    avg_r: float
    avg_s_cpu: float
    r_penalties: int
    c_penalties: int
    utilities: tuple[tuple[float, float, float], ...]  # (w_e, w_d, total)


def utility_confidence_term(c: float, params: UtilityParams) -> float:
    if params.c_min <= c <= params.c_max:
        return c
    if c > params.c_max:
        value = (c - params.c_max) * params.p_ev
    else:
        value = (params.c_min - c) * params.p_ev
    return value if params.raw_violation_signs else -value


def utility_response_term(r: float, params: UtilityParams) -> float:
    if params.r_min <= r <= params.r_max:
        return r
    if r > params.r_max:
        return (params.r_max - r) * params.p_dv
    return (r - params.r_min) * params.p_dv


def utility_per_request(c: float, r: float, params: UtilityParams) -> float:
    c_term, r_term = utility_confidence_term(c, params), utility_response_term(r, params)
    return params.w_e * c_term + params.w_d * r_term


class UtilityTerms(NamedTuple):
    """One run's per-request confidence and response terms, as float arrays.

    Element i equals utility_confidence_term(c[i]) resp.
    utility_response_term(r[i]) bit for bit: each branch is the same float
    expression, chosen with numpy.where.
    """

    confidence: np.ndarray
    response: np.ndarray

    @classmethod
    def of(cls, c, r, params: UtilityParams) -> UtilityTerms:
        c = np.asarray(c, dtype=float)
        r = np.asarray(r, dtype=float)
        c_penalty = np.where(
            c > params.c_max, (c - params.c_max) * params.p_ev, (params.c_min - c) * params.p_ev
        )
        if not params.raw_violation_signs:
            c_penalty = -c_penalty
        r_penalty = np.where(
            r > params.r_max, (params.r_max - r) * params.p_dv, (r - params.r_min) * params.p_dv
        )
        return cls(
            np.where(_inside(c, params.c_min, params.c_max), c, c_penalty),
            np.where(_inside(r, params.r_min, params.r_max), r, r_penalty),
        )

    def utilities(self, w_e: float, w_d: float) -> np.ndarray:
        """Per-request utilities at weights (w_e, w_d), as utility_per_request."""
        return w_e * self.confidence + w_d * self.response


def running_total(utilities: np.ndarray) -> np.ndarray:
    """Partial sums of `total = 0.0; total += u`, bit for bit.

    np.cumsum adds in sequence (np.add.accumulate), unlike np.sum, which adds
    pairwise. Adding 0.0 turns the -0.0 of a leading run of -0.0 utilities
    into the +0.0 the loop's starting value leaves; every other sum is
    unchanged by it.
    """
    return np.cumsum(utilities) + 0.0


def _inside(x: np.ndarray, low: float, high: float) -> np.ndarray:
    return (low <= x) & (x <= high)


def _penalties(c: np.ndarray, r: np.ndarray, params: UtilityParams) -> tuple[int, int]:
    n = c.size
    return (
        n - int(np.count_nonzero(_inside(r, params.r_min, params.r_max))),
        n - int(np.count_nonzero(_inside(c, params.c_min, params.c_max))),
    )


def summarize(
    completions,
    event_log,
    weight_grid=DEFAULT_WEIGHT_GRID,
    params: UtilityParams = UtilityParams(),
    policy: str = "",
) -> RunSummary:
    """Aggregate a run's Completions and EventLog: KPI averages, penalty
    counts, the switch count (the log's SWITCH rows) and utilities.

    The utility terms are built once; each weight pair's total is the last
    running sum of its utilities. The averages keep Python's float sum.
    """
    n = len(completions)
    if not n:
        raise ValidationError("summarize: no completions")
    c, _, _, s_cpu, _ = zip(*completions.kpis)
    switch_count = event_log.event.count(EVENT_SWITCH)
    c_arr, r_arr = np.array(c, dtype=float), np.array(completions.r, dtype=float)
    terms = UtilityTerms.of(c_arr, r_arr, params)
    n_r, n_c = _penalties(c_arr, r_arr, params)
    utilities = tuple(
        (w_e, w_d, float(running_total(terms.utilities(w_e, w_d))[-1]))
        for w_e, w_d in weight_grid
    )
    return RunSummary(
        policy=policy,
        request_count=n,
        switch_count=switch_count,
        avg_c=sum(c) / n,
        avg_r=sum(completions.r) / n,
        avg_s_cpu=sum(s_cpu) / n,
        r_penalties=n_r,
        c_penalties=n_c,
        utilities=utilities,
    )
