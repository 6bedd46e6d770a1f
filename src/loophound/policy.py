"""Welfare accounting over trajectory sets.

Quantifies whether observed planning behavior hurts a welfare objective W:

* ``delta_set`` computes the operational inefficiency of a trajectory set E,
  delta(E) = W(Omega without E) - W(Omega).  A positive value means the
  economy would be better off if the structures in E were unavailable.
* ``delta_restriction`` scores a learned hypothesis H by restricting the
  trajectories it covers: Delta(H) = delta(H intersect E+) - delta(H
  intersect E-), computed as an exact difference of the two delta terms.

Omega is always the sampled set of complete trajectories, never the full
trajectory space; every report records this choice.  Undefined quantities
(mean of an empty set) are reported as undefined, not coerced to zero.
Summation uses math.fsum over trajectories in ascending id order, so results
are permutation invariant and the decomposition identity holds exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional

from .induction import BackgroundDB, Hypothesis, LabeledExamples, covered_ids
from .runfiles import Trajectory, TrajectorySet

WELFARE_KINDS: tuple[str, ...] = (
    "mean_tax_collected",
    "total_tax_collected",
    "mean_utilitarian",
)

_KIND_DESCRIPTIONS = {
    "mean_tax_collected": "mean over trajectories of total tax due",
    "total_tax_collected": "sum over trajectories of total tax due",
    "mean_utilitarian": "mean over trajectories of net profit plus total tax due",
}


class PolicyError(Exception):
    """Raised for invalid welfare configuration or subset arguments."""


@dataclass(frozen=True)
class WelfareConfig:
    welfare_kind: str = "mean_tax_collected"

    def __post_init__(self) -> None:
        if self.welfare_kind not in WELFARE_KINDS:
            raise PolicyError(
                f"unknown welfare kind {self.welfare_kind!r}; "
                f"expected one of {', '.join(WELFARE_KINDS)}"
            )

    @property
    def description(self) -> str:
        return _KIND_DESCRIPTIONS[self.welfare_kind]


def _trajectory_value(trajectory: Trajectory, kind: str) -> float:
    tax = trajectory.total_tax()
    if kind == "mean_utilitarian":
        return trajectory.p + tax
    return tax


def _omega(tset: TrajectorySet) -> dict[int, Trajectory]:
    return {t.id: t for t in tset.complete_trajectories()}


def welfare(
    tset: TrajectorySet,
    subset_ids: Optional[Iterable[int]],
    config: WelfareConfig,
) -> Optional[float]:
    """Evaluate W over a subset of Omega; None when the mean is undefined.

    subset_ids None means all of Omega.  Ids outside Omega are rejected.
    """
    omega = _omega(tset)
    if subset_ids is None:
        ids = sorted(omega)
    else:
        ids = sorted(set(subset_ids))
        unknown = [i for i in ids if i not in omega]
        if unknown:
            raise PolicyError(
                f"subset contains ids outside the complete trajectory set: {unknown[:5]}"
            )
    values = [_trajectory_value(omega[i], config.welfare_kind) for i in ids]
    if config.welfare_kind == "total_tax_collected":
        return math.fsum(values)
    if not values:
        return None
    return math.fsum(values) / len(values)


def delta_set(
    tset: TrajectorySet,
    restricted_ids: Iterable[int],
    config: WelfareConfig,
) -> Optional[float]:
    """Operational inefficiency of a trajectory set: W(Omega - E) - W(Omega)."""
    omega = _omega(tset)
    removed = set(restricted_ids)
    unknown = [i for i in sorted(removed) if i not in omega]
    if unknown:
        raise PolicyError(
            f"restricted set contains ids outside the complete trajectory set: {unknown[:5]}"
        )
    remaining = [i for i in sorted(omega) if i not in removed]
    w_omega = welfare(tset, None, config)
    w_rest = welfare(tset, remaining, config)
    if w_omega is None or w_rest is None:
        return None
    return w_rest - w_omega


@dataclass(frozen=True)
class RestrictionReport:
    welfare_kind: str
    welfare_description: str
    omega_size: int
    u_plus: float
    positives: int
    negatives: int
    covered_positives: int
    covered_negatives: int
    welfare_omega: Optional[float]
    delta_e: Optional[float]
    delta_h_pos: Optional[float]
    delta_h_neg: Optional[float]
    delta_h: Optional[float]
    verdict: str


def delta_restriction(
    tset: TrajectorySet,
    hypothesis: Hypothesis,
    examples: LabeledExamples,
    background: BackgroundDB,
    config: WelfareConfig,
) -> RestrictionReport:
    """Score a hypothesis by the welfare effect of restricting what it covers.

    delta_h is computed as exactly delta_h_pos - delta_h_neg; the verdict
    applies the inefficiency definition to the positive set E+.
    """
    omega = _omega(tset)
    covered = covered_ids(hypothesis.clauses, background)
    positives = [i for i in examples.positives if i in omega]
    negatives = [i for i in examples.negatives if i in omega]
    covered_pos = [i for i in positives if i in covered]
    covered_neg = [i for i in negatives if i in covered]

    delta_e = delta_set(tset, positives, config)
    delta_h_pos = delta_set(tset, covered_pos, config)
    delta_h_neg = delta_set(tset, covered_neg, config)
    if delta_h_pos is None or delta_h_neg is None:
        delta_h = None
    else:
        delta_h = delta_h_pos - delta_h_neg
    if delta_e is None:
        verdict = "undefined"
    elif delta_e > 0:
        verdict = "operationally_inefficient"
    else:
        verdict = "operationally_efficient"
    return RestrictionReport(
        welfare_kind=config.welfare_kind,
        welfare_description=config.description,
        omega_size=len(omega),
        u_plus=examples.u_plus,
        positives=len(positives),
        negatives=len(negatives),
        covered_positives=len(covered_pos),
        covered_negatives=len(covered_neg),
        welfare_omega=welfare(tset, None, config),
        delta_e=delta_e,
        delta_h_pos=delta_h_pos,
        delta_h_neg=delta_h_neg,
        delta_h=delta_h,
        verdict=verdict,
    )
