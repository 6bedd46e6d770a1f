"""Profile segmentation and frequency-table tests.

``oracle_cut_points`` reimplements drop detection from scratch: a linear
plateau scan with virtual minus-infinity borders, followed by the same
greedy distance filter (largest drop first, then lowest index).  The
implementation must agree exactly, including on tie-heavy inputs.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loophound.analytics import (
    AnalyticsError,
    REFERENCE_IQR,
    REFERENCE_PEAK_HEIGHT,
    Segment,
    UtilityProfile,
    _local_maxima,
    detect_segments,
    drop_series,
    frequency_table,
    resolve_peak_height,
    select_cut_points,
    utility_profile,
)
from loophound.explorer import percentile
from loophound.kernel import GroundedAction, State, make_fact
from loophound.runfiles import (
    RunFileError,
    Trajectory,
    read_profile_csv,
    write_profile_csv,
    write_stats_csv,
)
from loophound.taxation import TaxAssessment

from conftest import mk_tset


# ------------------------------------------------------------------ helpers


def profile_of(values) -> UtilityProfile:
    return UtilityProfile(
        values=tuple(float(v) for v in values),
        index_map=tuple(range(len(values))),
    )


def oracle_cut_points(drops, height, min_distance):
    """Plateau-aware local maxima >= height, then greedy distance filter."""
    padded = [-math.inf] + [float(d) for d in drops] + [-math.inf]
    candidates = []
    i = 1
    while i < len(padded) - 1:
        if padded[i] > padded[i - 1]:
            j = i
            while padded[j + 1] == padded[i]:
                j += 1
            if padded[j + 1] < padded[i]:
                mid = (i + j) // 2
                if padded[mid] >= height:
                    candidates.append(mid - 1)
                i = j + 1
                continue
            i = j
        i += 1
    chosen = []
    for idx in sorted(candidates, key=lambda k: (-drops[k], k)):
        if all(abs(idx - c) >= min_distance for c in chosen):
            chosen.append(idx)
    return sorted(chosen)


def mk_state(n_facts: int = 0) -> State:
    return State.from_facts(frozenset(), step_count=0, transfer=None)


def mk_trajectory(
    tid: int,
    utility: float,
    *,
    complete: bool = True,
    action_refs=(),
    reduction_refs=(),
    facts: int = 0,
    length=None,
) -> Trajectory:
    if not action_refs and length:
        action_refs = ["step"] * length
    actions = tuple(
        GroundedAction("addChild", ref, (("Child", f"x{i}"),))
        for i, ref in enumerate(action_refs)
    )
    assessments = tuple(
        TaxAssessment(
            company=f"c{i}",
            country="usa",
            base=100.0,
            rate=0.35,
            reduced_base=10.0 if kind == "deductible" else 100.0,
            reduced_rate=0.1 if kind == "exemption" else 0.35,
            applied_reduction=ref if kind == "deductible" else None,
            applied_exemption=ref if kind == "exemption" else None,
            tax_due=1.0,
        )
        for i, (ref, kind) in enumerate(reduction_refs)
    )
    n = len(actions) if length is None else length
    return Trajectory(
        id=tid,
        actions=actions,
        final_state=State.from_facts(
            facts=frozenset({make_fact("exists", (f"e{k}",)) for k in range(facts)}),
            step_count=n,
            transfer=None,
        ),
        transactions=(),
        assessments=assessments,
        p=utility + float(n),
        phi=float(n),
        utility=utility,
        complete=complete,
        terminal=True,
    )


# ------------------------------------------------------------ cut points


class TestCutPointOracle:
    @given(
        drops=st.lists(
            st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]), min_size=1, max_size=40
        ),
        height=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
        min_distance=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_plateau_scan(self, drops, height, min_distance):
        got = select_cut_points(np.asarray(drops), height, min_distance)
        want = oracle_cut_points(drops, height, min_distance)
        assert got == want

    @given(
        drops=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=0, max_size=60
        ),
        height=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0]),
    )
    @settings(max_examples=500, deadline=None)
    def test_local_maxima_match_scipy_find_peaks(self, drops, height):
        # scipy is a test-only dependency: the reference the scan follows
        from scipy.signal import find_peaks

        padded = np.concatenate(([-np.inf], drops, [-np.inf]))
        peaks, _ = find_peaks(padded, height=height)
        # with min_distance 1 the distance filter keeps every candidate
        got = select_cut_points(np.asarray(drops, dtype=float), height, 1)
        assert got == [int(p) - 1 for p in peaks]
        # unpadded, a series may end in a rise or on a plateau
        assert _local_maxima(drops) == [int(p) for p in find_peaks(drops)[0]]

    def test_equal_drops_resolve_by_lowest_index(self):
        # two equal qualifying drops closer than min_distance: lowest wins
        drops = np.array([0.0, 4.0, 0.0, 4.0, 0.0])
        assert select_cut_points(drops, 3.0, 5) == [1]

    def test_higher_drop_wins_inside_window(self):
        drops = np.array([0.0, 4.0, 0.0, 9.0, 0.0])
        assert select_cut_points(drops, 3.0, 5) == [3]

    def test_empty(self):
        assert select_cut_points(np.zeros(0), 1.0, 1) == []


# profile-like values: repeated values, both signs, small and large magnitudes
PROFILE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.5, 22.784, 1000.0]),
    st.floats(min_value=-1e9, max_value=1e9),
    st.floats(min_value=-1e-3, max_value=1e-3),
)


class TestDropSeries:
    def test_negative_forward_difference(self):
        got = drop_series([10.0, 10.0, 4.0, 6.0])
        assert got == [0.0, 6.0, 0.0]  # rises clip to zero

    def test_short_input(self):
        assert drop_series([5.0]) == []

    @given(values=st.lists(PROFILE_VALUES, max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy(self, values):
        # numpy is the oracle the pure-Python series replaced
        want = np.clip(-np.diff(np.asarray(values, dtype=float)), 0.0, None)
        assert drop_series(values) == want.tolist()


class TestPercentileOracle:
    @given(values=st.lists(PROFILE_VALUES, min_size=1, max_size=300))
    @settings(max_examples=500, deadline=None)
    def test_matches_numpy_linear_percentile(self, values):
        # exact equality: the IQR, and so every cut, must not move
        ordered = sorted(values)
        want = np.percentile(values, [25.0, 75.0]).tolist()
        assert [percentile(ordered, 0.25), percentile(ordered, 0.75)] == want
        iqr = want[1] - want[0]
        height = REFERENCE_PEAK_HEIGHT * (iqr / REFERENCE_IQR)
        assert resolve_peak_height(values) == (
            height if iqr > 0.0 else REFERENCE_PEAK_HEIGHT
        )

    def test_interpolates_from_the_upper_neighbour_at_one_half(self):
        # the virtual index is 1.5: -1.214 + 20.794 * 0.5 rounds to
        # 9.182999999999998, 19.58 - 20.794 * 0.5 to numpy's 9.183
        assert percentile([-7.0, -1.214, 19.58], 0.75) == 9.183


# ------------------------------------------------------------ segmentation


class TestDetectSegments:
    def test_two_plateau_example(self):
        profile = profile_of([10, 10, 10, 4, 4])
        segments = detect_segments(profile, peak_height=3.0, min_distance=1)
        assert [(s.id, s.start, s.stop) for s in segments] == [
            (0, 0, 3),
            (1, 3, 5),
        ]
        assert segments[0].boundary_slope is None
        assert segments[1].boundary_slope == 6.0
        assert [s.stop - s.start for s in segments] == [3, 2]

    def test_three_plateaus_with_default_height(self):
        values = [100.0] * 150 + [95.0] * 150 + [91.0] * 10
        segments = detect_segments(
            profile_of(values), peak_height=3.85, min_distance=100
        )
        assert [(s.start, s.stop) for s in segments] == [
            (0, 150),
            (150, 300),
            (300, 310),
        ]
        assert [s.boundary_slope for s in segments] == [None, 5.0, 4.0]

    def test_distance_window_suppresses_smaller_drop(self):
        values = [100.0] * 150 + [95.0] * 150 + [91.0] * 10
        segments = detect_segments(
            profile_of(values), peak_height=3.85, min_distance=200
        )
        # drops sit 150 apart; the window keeps only the larger one
        assert [(s.start, s.stop) for s in segments] == [(0, 150), (150, 310)]

    def test_constant_profile_single_segment(self):
        segments = detect_segments(profile_of([7.0] * 40), peak_height=1.0)
        assert [(s.start, s.stop) for s in segments] == [(0, 40)]

    def test_tiny_profiles(self):
        assert [(s.start, s.stop) for s in detect_segments(profile_of([]), 1.0)] == [
            (0, 0)
        ]
        assert [(s.start, s.stop) for s in detect_segments(profile_of([3.0]), 1.0)] == [
            (0, 1)
        ]

    def test_shift_invariance(self):
        base = [50.0, 50.0, 41.0, 41.0, 30.0, 30.0]
        shifted = [v + 1234.5 for v in base]
        a = detect_segments(profile_of(base), peak_height=5.0, min_distance=1)
        b = detect_segments(profile_of(shifted), peak_height=5.0, min_distance=1)
        assert [(s.start, s.stop) for s in a] == [(s.start, s.stop) for s in b]

    def test_scale_covariance(self):
        base = [50.0, 50.0, 41.0, 41.0, 30.0, 30.0]
        k = 4.0
        a = detect_segments(profile_of(base), peak_height=5.0, min_distance=1)
        b = detect_segments(
            profile_of([v * k for v in base]), peak_height=5.0 * k, min_distance=1
        )
        assert [(s.start, s.stop) for s in a] == [(s.start, s.stop) for s in b]

    def test_invalid_parameters(self):
        for height in (0.0, float("nan"), float("inf")):
            with pytest.raises(AnalyticsError):
                detect_segments(profile_of([1.0, 2.0]), peak_height=height)
        with pytest.raises(AnalyticsError):
            detect_segments(profile_of([1.0, 2.0]), peak_height=1.0, min_distance=0)

    def test_segments_partition_profile(self):
        values = [100.0] * 5 + [50.0] * 7 + [10.0] * 3
        segments = detect_segments(profile_of(values), peak_height=10.0, min_distance=1)
        assert segments[0].start == 0
        assert segments[-1].stop == len(values)
        for left, right in zip(segments, segments[1:]):
            assert left.stop == right.start


class TestResolvePeakHeight:
    def test_rescales_reference_constant_by_iqr(self):
        values = [0.0, 10.0, 20.0, 30.0]  # IQR = 15 under linear interpolation
        got = resolve_peak_height(values)
        assert got == REFERENCE_PEAK_HEIGHT * (15.0 / REFERENCE_IQR)
        assert got == pytest.approx(1.925)

    def test_empty_and_constant_fall_back_to_reference(self):
        assert resolve_peak_height([]) == REFERENCE_PEAK_HEIGHT
        assert resolve_peak_height([5.0, 5.0, 5.0]) == REFERENCE_PEAK_HEIGHT

    def test_reference_height_constant(self):
        assert REFERENCE_PEAK_HEIGHT == 3.85


# ----------------------------------------------------------------- profile


class TestUtilityProfile:
    def test_descending_with_id_tiebreak(self):
        tset = mk_tset(
            [
                mk_trajectory(0, 5.0),
                mk_trajectory(1, 9.0),
                mk_trajectory(2, 9.0),
                mk_trajectory(3, 1.0),
            ]
        )
        profile = utility_profile(tset)
        assert profile.values == (9.0, 9.0, 5.0, 1.0)
        assert profile.index_map == (1, 2, 0, 3)

    def test_incomplete_trajectories_excluded(self):
        tset = mk_tset(
            [
                mk_trajectory(0, 5.0),
                mk_trajectory(1, 99.0, complete=False),
            ]
        )
        profile = utility_profile(tset)
        assert profile.values == (5.0,)

    def test_matches_sorted_complete_utilities(self, desk_run):
        profile = utility_profile(desk_run)
        want = sorted(
            (t.utility for t in desk_run.trajectories if t.complete),
            reverse=True,
        )
        assert list(profile.values) == want
        by_id = {t.id: t for t in desk_run.trajectories}
        for pos, tid in enumerate(profile.index_map):
            assert by_id[tid].utility == profile.values[pos]


# ---------------------------------------------------------- frequency table


class TestFrequencyTable:
    def one_segment(self, *trajectories):
        tset = mk_tset(list(trajectories))
        profile = utility_profile(tset)
        segments = [Segment(0, 0, len(profile), None)]
        return frequency_table(tset, profile, segments)

    def test_action_share_example(self):
        # one reference among four actions: share 1/4
        table = self.one_segment(
            mk_trajectory(0, 10.0, action_refs=["lic", "sub", "sub", "sub"])
        )
        assert table.rows[("lic", "action")] == (0.25,)
        assert table.rows[("sub", "action")] == (0.75,)

    def test_action_rows_bounded_by_one(self, desk_run):
        profile = utility_profile(desk_run)
        segments = detect_segments(profile, peak_height=5.0, min_distance=1)
        table = frequency_table(desk_run, profile, segments)
        for (ref, kind), values in table.rows.items():
            if kind == "action":
                assert all(0.0 <= v <= 1.0 for v in values)

    def test_reduction_rows_count_applications_per_trajectory(self):
        # the same reference applied in five assessments counts five times
        table = self.one_segment(
            mk_trajectory(
                0,
                10.0,
                reduction_refs=[("DCITA1969", "deductible")] * 5,
            )
        )
        assert table.rows[("DCITA1969", "deductible")] == (5.0,)

    def test_mean_over_segment_members(self):
        table = self.one_segment(
            mk_trajectory(0, 10.0, reduction_refs=[("r", "exemption")]),
            mk_trajectory(1, 9.0),
        )
        assert table.rows[("r", "exemption")] == (0.5,)

    def test_per_segment_columns(self):
        tset = mk_tset(
            [
                mk_trajectory(0, 100.0, reduction_refs=[("top", "deductible")]),
                mk_trajectory(1, 10.0, reduction_refs=[("low", "deductible")]),
            ]
        )
        profile = utility_profile(tset)
        segments = detect_segments(profile, peak_height=5.0, min_distance=1)
        assert len(segments) == 2
        table = frequency_table(tset, profile, segments)
        assert table.rows[("top", "deductible")] == (1.0, 0.0)
        assert table.rows[("low", "deductible")] == (0.0, 1.0)
        assert table.segment_count == 2

    def test_rows_sorted(self, desk_run):
        profile = utility_profile(desk_run)
        segments = detect_segments(profile, peak_height=5.0, min_distance=1)
        table = frequency_table(desk_run, profile, segments)
        keys = list(table.rows)
        assert keys == sorted(keys)


# ------------------------------------------------------------------- CSV


class TestCsvRoundTrip:
    def test_profile_round_trip_exact(self, tmp_path):
        values = [100.125, 100.125, 50.7, 50.7, 1.0 / 3.0]
        profile = UtilityProfile(
            values=tuple(values), index_map=(4, 2, 0, 1, 3)
        )
        segments = detect_segments(profile, peak_height=10.0, min_distance=1)
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, segments, path)
        back_profile, back_segments = read_profile_csv(path)
        assert back_profile.values == profile.values  # repr survives exactly
        assert back_profile.index_map == profile.index_map
        assert [(s.start, s.stop) for s in back_segments] == [
            (s.start, s.stop) for s in segments
        ]
        for orig, back in zip(segments, back_segments):
            assert back.boundary_slope == orig.boundary_slope

    def test_profile_reader_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(RunFileError):
            read_profile_csv(path)

    def test_stats_csv_shape(self, tmp_path, desk_run):
        profile = utility_profile(desk_run)
        segments = detect_segments(profile, peak_height=5.0, min_distance=1)
        table = frequency_table(desk_run, profile, segments)
        path = tmp_path / "stats.csv"
        write_stats_csv(table, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ref", "type"] + [
            f"segment_{i}" for i in range(len(segments))
        ]
        assert len(rows) == 1 + len(table.rows)
        for row in rows[1:]:
            key = (row[0], row[1])
            got = tuple(float(x) for x in row[2:])
            assert got == table.rows[key]
