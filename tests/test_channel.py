"""Channel synthesis against independent closed-form oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csicodec.channel import (
    LIGHT_SPEED,
    PathSet,
    SystemConfig,
    channel_element,
    channel_matrix,
    channel_vector,
    half_wavelength_config,
    steering_vector,
)


def oracle_entry(n, m, paths, cfg):
    """Scalar re-derivation of one matrix entry using cmath only.

    Kept deliberately free of numpy vector ops so a shared broadcasting
    mistake cannot cancel out between implementation and test. Carrier-delay
    products run to thousands of cycles, so any difference in multiplication
    order shows up as ~1e-11 after phase reduction; comparisons against this
    oracle use 1e-10, not double-precision exactness.
    """
    chi = 2.0 * math.pi * cfg.antenna_spacing * cfg.base_freq / cfg.light_speed
    total = 0j
    for p in range(paths.num_paths):
        amp = paths.gains[p] * cmath.exp(
            complex(0.0, paths.phases[p] - 2.0 * math.pi * cfg.base_freq * paths.delays[p]))
        phase = (2.0 * math.pi * (m - 1) * cfg.subcarrier_spacing * paths.delays[p]
                 + chi * (n - 1) * math.sin(paths.aods[p]))
        total += amp * cmath.exp(complex(0.0, -phase))
    return total


def random_paths(rng, count):
    gains = rng.uniform(0.1, 2.0, count)
    return PathSet(gains,
                   rng.uniform(0.0, 1e-6, count),
                   rng.uniform(0.0, 2.0 * np.pi, count),
                   rng.uniform(-np.pi / 2, np.pi / 2, count))


def small_config(rng):
    return half_wavelength_config(
        num_antennas=int(rng.integers(1, 9)),
        num_subcarriers=int(rng.integers(1, 9)),
        num_paths=int(rng.integers(1, 6)),
        base_freq=float(rng.uniform(1e9, 6e9)),
    )


def test_matrix_matches_scalar_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        cfg = small_config(rng)
        paths = random_paths(rng, cfg.num_paths)
        h = channel_matrix(paths, cfg)
        for n in range(1, cfg.num_antennas + 1):
            for m in range(1, cfg.num_subcarriers + 1):
                assert abs(h[n - 1, m - 1] - oracle_entry(n, m, paths, cfg)) < 1e-10


def test_element_route_equals_matrix_route():
    rng = np.random.default_rng(102)
    for _ in range(20):
        cfg = small_config(rng)
        paths = random_paths(rng, cfg.num_paths)
        h = channel_matrix(paths, cfg)
        for n in range(1, cfg.num_antennas + 1):
            for m in range(1, cfg.num_subcarriers + 1):
                assert abs(h[n - 1, m - 1] - channel_element(n, m, paths, cfg)) < 1e-12


def test_vector_is_matrix_column():
    cfg = half_wavelength_config(num_antennas=6, num_subcarriers=5, num_paths=4)
    paths = random_paths(np.random.default_rng(103), 4)
    h = channel_matrix(paths, cfg)
    for m in range(1, cfg.num_subcarriers + 1):
        freq = cfg.base_freq + (m - 1) * cfg.subcarrier_spacing
        col = channel_vector(freq, paths, cfg, steer_freq=cfg.base_freq)
        # the vector route composes the delay phase from the full
        # subcarrier frequency, so agreement is capped by phase reduction
        assert np.allclose(h[:, m - 1], col, rtol=0, atol=1e-10)


def test_steering_entries_have_unit_modulus():
    cfg = half_wavelength_config(num_antennas=16)
    for theta in (-1.5, -0.3, 0.0, 0.7, 1.5):
        v = steering_vector(theta, cfg.base_freq, cfg)
        assert v[0] == 1.0 + 0j
        np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-15)


def test_entry_magnitude_bounded_by_gain_sum():
    rng = np.random.default_rng(104)
    for _ in range(30):
        cfg = small_config(rng)
        paths = random_paths(rng, cfg.num_paths)
        h = channel_matrix(paths, cfg)
        assert np.all(np.abs(h) <= np.sum(paths.gains) + 1e-12)


def test_paths_superpose_linearly():
    # H(A u B) = H(A) + H(B): the sum over paths is the only coupling
    cfg = half_wavelength_config(num_antennas=5, num_subcarriers=7, num_paths=6)
    paths = random_paths(np.random.default_rng(105), 6)
    first = PathSet(paths.gains[:2], paths.delays[:2], paths.phases[:2], paths.aods[:2])
    second = PathSet(paths.gains[2:], paths.delays[2:], paths.phases[2:], paths.aods[2:])
    total = channel_matrix(first, cfg) + channel_matrix(second, cfg)
    np.testing.assert_allclose(channel_matrix(paths, cfg), total, atol=1e-13)


def test_single_antenna_single_subcarrier_closed_form():
    cfg = half_wavelength_config(num_antennas=1, num_subcarriers=1, num_paths=1)
    paths = PathSet([0.8], [2e-7], [0.5], [0.3])
    # n = m = 1 leaves only the base-carrier delay rotation and the phase
    expected = 0.8 * cmath.exp(complex(0.0, 0.5 - 2 * math.pi * cfg.base_freq * 2e-7))
    assert abs(channel_matrix(paths, cfg)[0, 0] - expected) < 1e-12
    assert abs(channel_element(1, 1, paths, cfg) - expected) < 1e-12


def test_zero_delay_zero_angle_path_is_constant():
    cfg = half_wavelength_config(num_antennas=4, num_subcarriers=4, num_paths=1)
    paths = PathSet([1.0], [0.0], [0.0], [0.0])
    np.testing.assert_allclose(channel_matrix(paths, cfg), np.ones((4, 4)),
                               atol=1e-14)


def test_mean_power_matches_independent_derivation():
    # with iid uniform phases, E|H[n,m]|^2 = sum of squared gains, so the
    # Frobenius norm squared averages to that times the entry count
    rng = np.random.default_rng(106)
    cfg = half_wavelength_config(num_antennas=8, num_subcarriers=8, num_paths=5)
    powers = []
    for _ in range(300):
        paths = random_paths(rng, 5)
        h = channel_matrix(paths, cfg)
        powers.append(np.sum(np.abs(h) ** 2) / np.sum(paths.gains ** 2))
    mean = np.mean(powers)
    assert abs(mean - 64.0) < 0.2 * 64.0


def test_element_rejects_out_of_range_indices():
    cfg = half_wavelength_config(num_antennas=4, num_subcarriers=4, num_paths=1)
    paths = PathSet([1.0], [0.0], [0.0], [0.0])
    for n, m in ((0, 1), (5, 1), (1, 0), (1, 5)):
        with pytest.raises(IndexError):
            channel_element(n, m, paths, cfg)


def test_config_rejects_nonsense():
    with pytest.raises(ValueError):
        SystemConfig(num_antennas=0)
    with pytest.raises(ValueError):
        SystemConfig(subcarrier_spacing=-1.0)
    with pytest.raises(ValueError):
        SystemConfig(num_paths=0)


def test_pathset_validation():
    with pytest.raises(ValueError):
        PathSet([1.0, 2.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        PathSet([-1.0], [0.0], [0.0], [0.0])
    with pytest.raises(ValueError):
        PathSet([1.0], [0.0], [0.0], [2.0])


def test_half_wavelength_spacing_definition():
    cfg = half_wavelength_config(base_freq=2.0e9)
    assert cfg.antenna_spacing == pytest.approx(LIGHT_SPEED / 4.0e9)
    # the phase slope at the base carrier is then exactly pi
    assert cfg.phase_slope(cfg.base_freq) == pytest.approx(math.pi)


@given(theta=st.floats(-math.pi / 2, math.pi / 2),
       n=st.integers(2, 12))
@settings(max_examples=40, deadline=None)
def test_steering_phase_progression_is_geometric(theta, n):
    cfg = half_wavelength_config(num_antennas=n)
    v = steering_vector(theta, cfg.base_freq, cfg)
    step = cmath.exp(-1j * math.pi * math.sin(theta))
    for k in range(1, n):
        assert abs(v[k] - v[k - 1] * step) < 1e-12


@given(scale=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_gain_scaling_is_homogeneous(scale):
    cfg = half_wavelength_config(num_antennas=3, num_subcarriers=3, num_paths=2)
    paths = random_paths(np.random.default_rng(107), 2)
    scaled = PathSet(paths.gains * scale, paths.delays, paths.phases, paths.aods)
    np.testing.assert_allclose(channel_matrix(scaled, cfg),
                               scale * channel_matrix(paths, cfg),
                               rtol=1e-12, atol=1e-12)
