import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stairclimber.power import (
    BatteryBank,
    DriverReport,
    PowerConfig,
    _window_starts,
    check_driver,
    motor_current,
    runtime_estimate,
)


def test_battery_bank_totals():
    drive = BatteryBank(12.0, 2, 26.0)
    assert drive.voltage == 24.0
    assert drive.total_capacity_ah == 26.0
    actuator = BatteryBank(3.7, 3, 2.7, count=2)
    assert actuator.voltage == pytest.approx(11.1)
    assert actuator.total_capacity_ah == pytest.approx(5.4)


def test_battery_bank_validation():
    with pytest.raises(ValueError):
        BatteryBank(0.0, 2, 26.0)
    with pytest.raises(ValueError):
        BatteryBank(12.0, 0, 26.0)


def test_torque_constant_from_nameplate():
    # 22 N*m at 320 W on the 24 V bus
    assert PowerConfig().k_t == pytest.approx(1.65, rel=1e-12)


def test_motor_current_at_rated_torque():
    assert motor_current(22.0) == pytest.approx(13.3333333333, rel=1e-9)
    assert motor_current(0.0) == 0.0
    with pytest.raises(ValueError):
        motor_current(-1.0)


def test_motor_current_linear_in_torque():
    assert motor_current(44.0) == pytest.approx(2.0 * motor_current(22.0), rel=1e-12)


def test_driver_passes_at_the_average_boundary():
    t = np.arange(0.0, 5.0, 0.01)
    i = np.full_like(t, 40.0)
    rep = check_driver(t, i)
    assert rep.passed
    assert rep.max_window_avg == pytest.approx(40.0)
    assert rep.peak == pytest.approx(40.0)


def test_driver_fails_just_past_the_average_limit():
    t = np.arange(0.0, 5.0, 0.01)
    rep = check_driver(t, np.full_like(t, 40.5))
    assert not rep.passed


def test_driver_fails_on_instantaneous_peak():
    t = np.arange(0.0, 5.0, 0.01)
    i = np.full_like(t, 10.0)
    i[250] = 81.0  # one sample over the peak limit; window mean stays low
    rep = check_driver(t, i)
    assert not rep.passed
    assert rep.peak == pytest.approx(81.0)
    assert rep.max_window_avg < 40.0


def test_driver_short_pulse_within_both_limits_passes():
    t = np.arange(0.0, 5.0, 0.01)
    i = np.full_like(t, 10.0)
    i[200:220] = 79.0  # 0.2 s at 79 A: peak ok, 1-s mean ok
    rep = check_driver(t, i)
    assert rep.passed


def test_driver_window_mean_hand_computed():
    rep = check_driver([0.0, 0.5, 1.0], [10.0, 20.0, 30.0])
    # the whole profile spans exactly the window
    assert rep.max_window_avg == pytest.approx(20.0)
    assert rep.peak == pytest.approx(30.0)
    narrow = check_driver([0.0, 0.6, 1.2], [10.0, 20.0, 30.0])
    # only the last two samples fit one window
    assert narrow.max_window_avg == pytest.approx(25.0)


def test_driver_input_validation():
    with pytest.raises(ValueError):
        check_driver([], [])
    with pytest.raises(ValueError):
        check_driver([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        check_driver([0.0, 1.0], [1.0])


@pytest.mark.parametrize(
    "times, currents",
    [
        ([0.0, math.nan], [1.0, 1.0]),
        ([0.0, math.inf], [1.0, 1.0]),
        ([-math.inf, 0.0], [1.0, 1.0]),
        ([0.0, 1.0], [math.nan, 1.0]),
        ([0.0, 1.0], [1.0, math.inf]),
        ([0.0, 1.0], [-math.inf, 1.0]),
    ],
)
def test_driver_refuses_non_finite_samples(times, currents):
    with pytest.raises(ValueError, match="^times and currents must be finite$"):
        check_driver(times, currents)


def ref_window_walk(times, currents):
    """The sample-by-sample window walk check_driver used to run: each
    window's first sample and the largest window mean."""
    t = np.asarray(times, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(np.asarray(currents, dtype=float))])
    starts = []
    max_avg = 0.0
    lo = 0
    for hi in range(t.size):
        while t[hi] - t[lo] > 1.0:
            lo += 1
        starts.append(lo)
        avg = (prefix[hi + 1] - prefix[lo]) / (hi + 1 - lo)
        if avg > max_avg:
            max_avg = float(avg)
    return starts, max_avg


# steps whose sums land on or within a few ulps of 1 s, where t[lo] < t[hi] - 1.0
# and the window's own test t[hi] - t[lo] > 1.0 can disagree
_NEAR_SECOND_STEPS = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0),
                      0.5, 0.25, 0.2, 0.1, 0.01, 1.0 / 3.0, 0.7, 0.3]


@st.composite
def near_second_profiles(draw):
    # below -1 s, t - 1.0 can round down onto an earlier sample
    start = draw(st.one_of(st.sampled_from([0.0, 0.1, 1.0, 7.3, 1000.0]),
                           st.floats(-3.0, -1.0), st.floats(-1e4, 1e4)))
    steps = draw(st.lists(st.one_of(st.sampled_from(_NEAR_SECOND_STEPS), st.floats(1e-6, 1.5)),
                          max_size=80))
    t = np.cumsum([start, *steps])
    currents = draw(st.lists(st.floats(-100.0, 100.0), min_size=t.size, max_size=t.size))
    return t, np.array(currents)


@settings(max_examples=300, deadline=None)
@given(near_second_profiles())
# searching for t - 1.0 starts the last window one sample late: 1.1 - 1.0
# rounds above 0.1, but 1.1 - 0.1 rounds to 1.0
@example((np.array([0.1, 1.1]), np.array([0.0, 100.0])))
# and here one sample early: -1.767... - 1.0 rounds down onto the first
# sample, but the two are 1.0000000000000002 apart
@example((np.array([-2.767355108523767, -1.7673551085237669]), np.array([0.0, 100.0])))
def test_driver_window_matches_the_sample_by_sample_walk(profile):
    t, currents = profile
    assume(np.all(np.diff(t) > 0))
    starts, max_avg = ref_window_walk(t, currents)
    assert _window_starts(t).tolist() == starts
    rep = check_driver(t, currents)
    assert rep.max_window_avg == max_avg
    assert rep.peak == float(currents.max())


def test_runtime_inverse_in_current():
    assert runtime_estimate(13.0) == pytest.approx(2.0)
    assert runtime_estimate(26.0) == pytest.approx(1.0)
    assert runtime_estimate(26.0) == pytest.approx(runtime_estimate(13.0) / 2.0)


def test_runtime_actuator_bank():
    assert runtime_estimate(1.0, bank="actuator") == pytest.approx(5.4)
    with pytest.raises(ValueError):
        runtime_estimate(1.0, bank="logic")
    with pytest.raises(ValueError):
        runtime_estimate(0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        PowerConfig(avg_current_limit=100.0, peak_current_limit=80.0)
    with pytest.raises(ValueError):
        PowerConfig(k_t=0.0)
