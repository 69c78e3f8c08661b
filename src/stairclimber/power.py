"""Power-flow bookkeeping: battery banks, motor current, driver limits.

The battery model is ideal nameplate data (no sag, no rate correction):
runtime is capacity over average draw.  The motor torque constant defaults
to the rated point of the drive motor, torque over current at rated power
and bus voltage, and can be overridden when a measured value exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .drivetrain import MotorSpec

__all__ = [
    "BatteryBank",
    "PowerConfig",
    "DriverReport",
    "motor_current",
    "check_driver",
    "runtime_estimate",
]


@dataclass(frozen=True)
class BatteryBank:
    """Identical cells in series; identical strings in parallel."""

    cell_voltage: float
    cells_series: int
    capacity_ah: float   # per string
    count: int = 1       # parallel strings

    def __post_init__(self):
        if self.cell_voltage <= 0 or self.capacity_ah <= 0:
            raise ValueError("cell voltage and capacity must be positive")
        if self.cells_series < 1 or self.count < 1:
            raise ValueError("cells_series and count must be >= 1")

    @property
    def voltage(self) -> float:
        return self.cell_voltage * self.cells_series

    @property
    def total_capacity_ah(self) -> float:
        return self.capacity_ah * self.count


_DRIVE_BANK = BatteryBank(12.0, 2, 26.0)
# rated point of the drive motor: its rated torque at rated power on the
# drive bank's bus
_RATED_KT = MotorSpec.rated_torque * _DRIVE_BANK.voltage / MotorSpec.rated_power


@dataclass(frozen=True)
class PowerConfig:
    drive_bank: BatteryBank = _DRIVE_BANK
    actuator_bank: BatteryBank = field(
        default_factory=lambda: BatteryBank(3.7, 3, 2.7, count=2)
    )
    avg_current_limit: float = 40.0   # A, 1-s sliding mean
    peak_current_limit: float = 80.0  # A, instantaneous
    k_t: float = _RATED_KT            # N*m/A at the motor shaft

    def __post_init__(self):
        if self.k_t <= 0:
            raise ValueError("k_t must be positive")
        if not 0 < self.avg_current_limit <= self.peak_current_limit:
            raise ValueError("need 0 < avg limit <= peak limit")


def motor_current(torque: float, cfg: PowerConfig = PowerConfig()) -> float:
    """Current drawn for a shaft torque, I = torque / k_t."""
    if torque < 0:
        raise ValueError(f"torque must be >= 0 (got {torque})")
    return torque / cfg.k_t


@dataclass(frozen=True)
class DriverReport:
    passed: bool
    max_window_avg: float  # worst 1-s sliding-window mean, A
    peak: float            # worst instantaneous sample, A


def _window_starts(t: np.ndarray) -> np.ndarray:
    """First sample of the 1-s window ending at each sample of t.

    That is the least lo with t[hi] - t[lo] <= 1.0, the window of
    avg_current_limit.  Searching for t - 1.0 rounds differently, so each
    start then steps back while the sample before it passes that test, and
    on while it fails.
    """
    import numpy as np

    lo = np.searchsorted(t, t - 1.0)
    while (back := (lo > 0) & (t - t[lo - 1] <= 1.0)).any():
        lo -= back
    while (on := t - t[lo] > 1.0).any():
        lo += on
    return lo


def check_driver(times, currents, cfg: PowerConfig = PowerConfig()) -> DriverReport:
    """Check a current profile against the driver's average and peak limits.

    The average limit applies to every sample window spanning at most
    1 s (on a profile shorter than that, to the whole profile).
    Timestamps must be strictly increasing.
    """
    import numpy as np

    t = np.asarray(times, dtype=float)
    i = np.asarray(currents, dtype=float)
    if t.ndim != 1 or t.shape != i.shape or t.size == 0:
        raise ValueError("times and currents must be equal-length nonempty 1-D arrays")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(i))):
        raise ValueError("times and currents must be finite")
    if t.size > 1 and not np.all(np.diff(t) > 0):
        raise ValueError("times must be strictly increasing")

    peak = float(i.max())
    prefix = np.concatenate([[0.0], np.cumsum(i)])
    stop = np.arange(1, t.size + 1)   # one past each window's last sample
    lo = _window_starts(t)
    # fmax skips a NaN mean (from an overflowing prefix), as a max of
    # comparisons against the best so far does
    max_avg = max(0.0, float(np.fmax.reduce((prefix[stop] - prefix[lo]) / (stop - lo))))
    tol = 1e-12
    passed = (
        max_avg <= cfg.avg_current_limit * (1.0 + tol)
        and peak <= cfg.peak_current_limit * (1.0 + tol)
    )
    return DriverReport(passed, max_avg, peak)


def runtime_estimate(avg_current: float, cfg: PowerConfig = PowerConfig(), bank: str = "drive") -> float:
    """Hours of operation at a constant average draw, ideal battery."""
    if avg_current <= 0:
        raise ValueError(f"avg_current must be > 0 (got {avg_current})")
    banks = {"drive": cfg.drive_bank, "actuator": cfg.actuator_bank}
    if bank not in banks:
        raise ValueError(f"bank must be one of {sorted(banks)} (got {bank!r})")
    return banks[bank].total_capacity_ah / avg_current
