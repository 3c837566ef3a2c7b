"""Closed-form multipath MIMO-OFDM channel synthesis.

A uniform linear array with ``num_antennas`` elements serves one user over
``num_subcarriers`` OFDM subcarriers. Each propagation path contributes a
complex gain with a phase that advances linearly across antennas (steering)
and across subcarriers (delay), so every entry of the channel matrix is a
closed-form function of its (antenna, subcarrier) index pair. Two independent
construction routes are provided: the per-subcarrier stacking route
(`channel_matrix`) and the element-wise route (`channel_element`); they must
agree to double precision, which the test suite uses as an oracle.

Convention: the per-antenna phase slope chi = 2*pi*spacing*f/c is evaluated
at the base carrier frequency for all subcarriers of a matrix, which is what
makes the element-wise form coordinate-separable. `steering_vector` and
`channel_vector` evaluate chi at the frequency they are given unless told
otherwise; `channel_vector` also composes the delay phase from the full
subcarrier frequency, so it matches matrix columns only to the phase
reduction error of large carrier-delay products (about 1e-10), not bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LIGHT_SPEED = 2.99792458e8


@dataclass(frozen=True)
class SystemConfig:
    """Physical MIMO-OFDM layout: array geometry and subcarrier grid."""

    num_antennas: int = 32
    num_subcarriers: int = 32
    base_freq: float = 3.5e9
    subcarrier_spacing: float = 100e6 / 32
    antenna_spacing: float = LIGHT_SPEED / (2 * 3.5e9)
    light_speed: float = LIGHT_SPEED
    num_paths: int = 10

    def __post_init__(self):
        if self.num_antennas < 1 or self.num_subcarriers < 1:
            raise ValueError("antenna and subcarrier counts must be >= 1")
        if self.base_freq <= 0 or self.subcarrier_spacing <= 0:
            raise ValueError("frequencies must be positive")
        if self.antenna_spacing <= 0 or self.light_speed <= 0:
            raise ValueError("antenna spacing and light speed must be positive")
        if self.num_paths < 1:
            raise ValueError("num_paths must be >= 1")

    def phase_slope(self, freq: float) -> float:
        """Per-antenna phase increment chi = 2*pi*spacing*freq/c."""
        return 2.0 * np.pi * self.antenna_spacing * freq / self.light_speed


def half_wavelength_config(**overrides) -> SystemConfig:
    """SystemConfig with antenna spacing locked to half a wavelength at the
    base carrier and the subcarrier spacing splitting a 100 MHz band."""
    base_freq = overrides.pop("base_freq", 3.5e9)
    num_subcarriers = overrides.pop("num_subcarriers", 32)
    light_speed = overrides.pop("light_speed", LIGHT_SPEED)
    return SystemConfig(
        base_freq=base_freq,
        num_subcarriers=num_subcarriers,
        subcarrier_spacing=overrides.pop("subcarrier_spacing", 100e6 / num_subcarriers),
        antenna_spacing=overrides.pop("antenna_spacing", light_speed / (2 * base_freq)),
        light_speed=light_speed,
        **overrides,
    )


@dataclass(frozen=True)
class PathSet:
    """Per-path propagation parameters: gain, delay, initial phase, departure angle."""

    gains: np.ndarray
    delays: np.ndarray
    phases: np.ndarray
    aods: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("gains", "delays", "phases", "aods"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arrays[name] = arr
            object.__setattr__(self, name, arr)
        lengths = {a.shape[0] for a in arrays.values()}
        if len(lengths) != 1:
            raise ValueError("path parameter arrays must share one length")
        if self.num_paths < 1:
            raise ValueError("at least one path is required")
        if np.any(self.gains < 0):
            raise ValueError("gains must be nonnegative")
        if np.any(np.abs(self.aods) > np.pi / 2):
            raise ValueError("departure angles must lie in [-pi/2, pi/2]")

    @property
    def num_paths(self) -> int:
        return self.gains.shape[0]


def steering_vector(theta: float, freq: float, cfg: SystemConfig) -> np.ndarray:
    """Array response for departure angle theta at the given frequency.

    Element k (1-based) is exp(-j * chi * (k-1) * sin(theta)).
    """
    chi = cfg.phase_slope(freq)
    k = np.arange(cfg.num_antennas, dtype=np.float64)
    return np.exp(-1j * chi * k * np.sin(theta))


def channel_vector(freq: float, paths: PathSet, cfg: SystemConfig,
                   steer_freq: float | None = None) -> np.ndarray:
    """Channel gain vector at one subcarrier: sum over paths of
    gain * exp(-j*2*pi*freq*delay + j*phase) * steering_vector(aod).

    steer_freq picks the frequency at which the per-antenna phase slope is
    evaluated; it defaults to freq itself.
    """
    if steer_freq is None:
        steer_freq = freq
    out = np.zeros(cfg.num_antennas, dtype=np.complex128)
    for p in range(paths.num_paths):
        coeff = paths.gains[p] * np.exp(-2j * np.pi * freq * paths.delays[p]
                                        + 1j * paths.phases[p])
        out += coeff * steering_vector(paths.aods[p], steer_freq, cfg)
    return out


def channel_matrix(paths: PathSet, cfg: SystemConfig) -> np.ndarray:
    """Full channel matrix, one column per subcarrier.

    Column m is the channel at base_freq + (m-1)*spacing with the
    per-antenna phase slope held at the base carrier. The phase is composed
    exactly as in channel_element (delay rotation at the base carrier folded
    into the path coefficient, index-dependent phases added separately);
    composing it instead as one product of the full subcarrier frequency
    with the delay moves entries by ~1e-11 once carrier-delay products reach
    thousands of cycles, which is what channel_vector does.
    """
    coeff = paths.gains * np.exp(-2j * np.pi * cfg.base_freq * paths.delays
                                 + 1j * paths.phases)
    chi = cfg.phase_slope(cfg.base_freq)
    n_idx = np.arange(cfg.num_antennas, dtype=np.float64)[None, :, None]
    m_idx = np.arange(cfg.num_subcarriers, dtype=np.float64)[None, None, :]
    phase = (2.0 * np.pi * m_idx * cfg.subcarrier_spacing * paths.delays[:, None, None]
             + chi * n_idx * np.sin(paths.aods)[:, None, None])
    return np.sum(coeff[:, None, None] * np.exp(-1j * phase), axis=0)


def channel_element(n: int, m: int, paths: PathSet, cfg: SystemConfig) -> complex:
    """Single channel matrix entry as a closed-form function of its indices.

    H[n, m] = sum_p A_p * exp(-j * [2*pi*(m-1)*spacing*delay_p
                                    + chi*(n-1)*sin(aod_p)])
    with A_p = gain_p * exp(-j*2*pi*base_freq*delay_p + j*phase_p) and chi
    evaluated at the base carrier. Indices are 1-based.
    """
    if not (1 <= n <= cfg.num_antennas):
        raise IndexError(f"antenna index {n} outside 1..{cfg.num_antennas}")
    if not (1 <= m <= cfg.num_subcarriers):
        raise IndexError(f"subcarrier index {m} outside 1..{cfg.num_subcarriers}")
    chi = cfg.phase_slope(cfg.base_freq)
    coeff = paths.gains * np.exp(-2j * np.pi * cfg.base_freq * paths.delays
                                 + 1j * paths.phases)
    phase = (2.0 * np.pi * (m - 1) * cfg.subcarrier_spacing * paths.delays
             + chi * (n - 1) * np.sin(paths.aods))
    return complex(np.sum(coeff * np.exp(-1j * phase)))
