"""Utility profiles, slope-based segmentation and legal-reference statistics.

The profile is the descending-sorted utility sequence of the multi-nationally
complete trajectories.  Plateaus separated by sharp drops indicate families
of structurally different tax plans; segmentation finds the drops by peak
detection on the negative forward difference of the profile.  Per-segment
frequency tables then show which legal references drive each family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .explorer import percentile
from .runfiles import TrajectorySet

REFERENCE_PEAK_HEIGHT = 3.85
# interquartile range of the reference profile the 3.85 constant was tuned
# against; dividing by it makes the default height scale with the data
REFERENCE_IQR = 30.0

DEDUCTIBLE = "deductible"
EXEMPTION = "exemption"
ACTION = "action"


class AnalyticsError(Exception):
    pass


class UnknownTrajectoryError(AnalyticsError):
    """A profile names a trajectory id that the trajectory set does not hold."""


@dataclass(frozen=True)
class UtilityProfile:
    values: tuple[float, ...]  # descending
    index_map: tuple[int, ...]  # profile position -> trajectory id

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Segment:
    id: int  # 0 = most profitable
    start: int  # half-open [start, stop) into the profile
    stop: int
    boundary_slope: Optional[float]  # drop magnitude at the segment's lower edge


@dataclass(frozen=True)
class FrequencyTable:
    # (legal_ref, type) -> one statistic per segment
    rows: dict[tuple[str, str], tuple[float, ...]]
    segment_count: int


def utility_profile(tset: TrajectorySet) -> UtilityProfile:
    """Descending utilities of complete trajectories; ties keep id order."""
    complete = [t for t in tset.trajectories if t.complete]
    ordered = sorted(complete, key=lambda t: (-t.utility, t.id))
    return UtilityProfile(
        values=tuple(t.utility for t in ordered),
        index_map=tuple(t.id for t in ordered),
    )


def resolve_peak_height(profile_values: Sequence[float]) -> float:
    """Default drop threshold: the 3.85 reference constant rescaled by IQR."""
    if len(profile_values) == 0:
        return REFERENCE_PEAK_HEIGHT
    ordered = sorted(map(float, profile_values))
    iqr = percentile(ordered, 0.75) - percentile(ordered, 0.25)
    if iqr <= 0.0:
        return REFERENCE_PEAK_HEIGHT
    return REFERENCE_PEAK_HEIGHT * (iqr / REFERENCE_IQR)


def drop_series(profile_values: Sequence[float]) -> list[float]:
    """Magnitude of the negative forward difference, one value per gap."""
    return [
        max(a - b, 0.0) for a, b in zip(profile_values, profile_values[1:])
    ]


def detect_segments(
    profile: UtilityProfile,
    peak_height: Optional[float] = None,
    min_distance: int = 100,
) -> list[Segment]:
    """Split the profile at sharp drops.

    Peaks are local maxima of the drop series with magnitude >= peak_height
    (None resolves via :func:`resolve_peak_height`); among peaks closer than
    min_distance the highest wins (greedy, highest first, the conventional
    peak-finding semantics).  A drop between profile positions i and i+1
    splits before position i+1.
    """
    if min_distance < 1:
        raise AnalyticsError("min_distance must be at least 1")
    height = resolve_peak_height(profile.values) if peak_height is None else peak_height
    if not (math.isfinite(height) and height > 0):
        raise AnalyticsError("peak_height must be positive and finite")

    n = len(profile)
    if n < 2:
        return [Segment(0, 0, n, None)]

    drops = drop_series(profile.values)
    cuts = select_cut_points(drops, height, min_distance)

    segments: list[Segment] = []
    start = 0
    prev_drop: Optional[float] = None
    for drop_idx in cuts:
        segments.append(Segment(len(segments), start, drop_idx + 1, prev_drop))
        start = drop_idx + 1
        prev_drop = float(drops[drop_idx])
    segments.append(Segment(len(segments), start, n, prev_drop))
    return segments


def select_cut_points(
    drops: Sequence[float], height: float, min_distance: int
) -> list[int]:
    """Qualifying drop indices: local maxima >= height, spaced >= min_distance.

    Local maxima are plateau-aware and reported at the plateau middle (see
    :func:`_local_maxima`).  The distance filter keeps a fixed tie order,
    largest drop first, then lowest index, so that equal drops always resolve
    the same way.
    """
    # pad so drops at the ends still count as local maxima
    padded = [-math.inf, *drops, -math.inf]
    candidates = [p - 1 for p in _local_maxima(padded) if padded[p] >= height]
    chosen: list[int] = []
    for idx in sorted(candidates, key=lambda i: (-drops[i], i)):
        if all(abs(idx - c) >= min_distance for c in chosen):
            chosen.append(idx)
    return sorted(chosen)


def _local_maxima(values: Sequence[float]) -> list[int]:
    """Indices of the local maxima of ``values``, ends excluded.

    A maximum is a strict rise, a flat run, then a strict fall; it is
    reported at the middle of the flat run, rounded down.  This is the rule
    of ``scipy.signal.find_peaks``.
    """
    peaks: list[int] = []
    i, last = 1, len(values) - 1
    while i < last:
        if values[i - 1] < values[i]:
            ahead = i + 1
            while ahead < last and values[ahead] == values[i]:
                ahead += 1
            if values[ahead] < values[i]:
                peaks.append((i + ahead - 1) // 2)
                i = ahead
        i += 1
    return peaks


# ============================================================================
# Frequency tables
# ============================================================================


def frequency_table(
    tset: TrajectorySet,
    profile: UtilityProfile,
    segments: Sequence[Segment],
) -> FrequencyTable:
    """Per-segment legal-reference statistics.

    Reduction rows ((ref, deductible|exemption)): mean number of times the
    reference is applied per trajectory in the segment.  Action rows ((ref,
    action)): the reference's share of the trajectory's action count, averaged
    over the segment, hence always in [0, 1].  Raises
    :class:`UnknownTrajectoryError` when the profile names a trajectory id
    that ``tset`` does not hold.
    """
    by_id = {t.id: t for t in tset.trajectories}
    refs: dict[tuple[str, str], list[float]] = {}

    def ensure(key: tuple[str, str]) -> list[float]:
        return refs.setdefault(key, [0.0] * len(segments))

    for seg in segments:
        try:
            members = [by_id[i] for i in profile.index_map[seg.start : seg.stop]]
        except KeyError as exc:
            raise UnknownTrajectoryError(
                f"the profile names trajectory {exc.args[0]}, "
                "which the trajectory set does not hold"
            ) from None
        if not members:
            continue
        counts: dict[tuple[str, str], float] = {}
        for t in members:
            for ref, kind in t.applied_reduction_refs():
                counts[(ref, kind)] = counts.get((ref, kind), 0.0) + 1.0
            if t.length:
                for ref in t.action_refs():
                    counts[(ref, ACTION)] = counts.get((ref, ACTION), 0.0) + (
                        1.0 / t.length
                    )
        for key, total in counts.items():
            ensure(key)[seg.id] = total / len(members)

    ordered = dict(sorted(refs.items()))
    return FrequencyTable(
        rows={k: tuple(v) for k, v in ordered.items()},
        segment_count=len(segments),
    )
