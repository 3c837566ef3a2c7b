"""Dataset generation, normalisation, and the on-disk round trip."""

from dataclasses import replace

import numpy as np
import pytest

from csicodec.channel import channel_matrix, half_wavelength_config
from csicodec.dataset import (
    Dataset,
    SamplingSpec,
    generate_dataset,
    load_dataset,
    sample_paths,
    save_dataset,
    split_dataset,
)

CFG = half_wavelength_config(num_antennas=4, num_subcarriers=6, num_paths=3)


def test_generation_is_seed_deterministic(tmp_path):
    a = generate_dataset(10, 42, CFG)
    b = generate_dataset(10, 42, CFG)
    assert a.norm_scale == b.norm_scale
    assert np.array_equal(a.planes, b.planes)
    save_dataset(a, tmp_path / "a.csid")
    save_dataset(b, tmp_path / "b.csid")
    assert (tmp_path / "a.csid").read_bytes() == (tmp_path / "b.csid").read_bytes()


def test_different_seeds_differ():
    a = generate_dataset(4, 1, CFG)
    b = generate_dataset(4, 2, CFG)
    assert not np.array_equal(a.planes, b.planes)


def test_samples_use_independent_streams():
    # sample i depends only on (seed, i): a longer run starts with the
    # same matrices, so datasets can be extended without regeneration.
    # norm_scale is global, so equality is up to float32 rounding.
    short = generate_dataset(3, 9, CFG)
    long = generate_dataset(6, 9, CFG)
    np.testing.assert_allclose(short.matrices(denormalise=True),
                               long.matrices(denormalise=True)[:3],
                               rtol=2e-7, atol=0)


def test_normalisation_peak_is_one():
    ds = generate_dataset(12, 5, CFG)
    assert abs(np.max(np.abs(ds.planes)) - 1.0) < 1e-6


def test_matrices_invert_the_planes():
    ds = generate_dataset(5, 3, CFG)
    m = ds.matrices(denormalise=True)
    assert m.shape == (5, 4, 6)
    np.testing.assert_allclose(m[2].real, ds.planes[2, :, :, 0] * ds.norm_scale,
                               rtol=1e-6)


def test_regenerates_the_underlying_channels():
    # regeneration oracle: the stored planes must be the float32 image of
    # the exact channel matrices the sampler produces for the same seed
    ds = generate_dataset(4, 11, CFG)
    streams = np.random.SeedSequence(11).spawn(4)
    for i in range(4):
        paths = sample_paths(np.random.Generator(np.random.PCG64(streams[i])),
                             CFG, SamplingSpec())
        h = channel_matrix(paths, CFG) / ds.norm_scale
        np.testing.assert_array_equal(ds.planes[i, :, :, 0],
                                      h.real.astype(np.float32))
        np.testing.assert_array_equal(ds.planes[i, :, :, 1],
                                      h.imag.astype(np.float32))


def test_gain_profile_is_unit_power():
    rng = np.random.default_rng(0)
    for _ in range(50):
        paths = sample_paths(rng, CFG, SamplingSpec())
        assert np.sum(paths.gains ** 2) == pytest.approx(1.0)
        assert np.all(paths.delays <= 1e-6)


def test_save_load_round_trip(tmp_path):
    ds = generate_dataset(7, 13, CFG)
    path = tmp_path / "ds.csid"
    save_dataset(ds, path)
    back = load_dataset(path)
    assert len(back) == 7
    assert back.seed == 13
    assert back.norm_scale == ds.norm_scale
    assert back.cfg is None
    np.testing.assert_array_equal(back.planes, ds.planes)


def test_load_rejects_corruption(tmp_path):
    ds = generate_dataset(3, 1, CFG)
    path = tmp_path / "ds.csid"
    save_dataset(ds, path)
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "m.csid"
    bad_magic.write_bytes(b"XXXX" + bytes(blob[4:]))
    with pytest.raises(ValueError):
        load_dataset(bad_magic)

    truncated = tmp_path / "t.csid"
    truncated.write_bytes(bytes(blob[:-5]))
    with pytest.raises(ValueError):
        load_dataset(truncated)


def test_load_rejects_non_finite_values(tmp_path):
    ds = generate_dataset(4, 1, CFG)
    planes = ds.planes.copy()
    planes[2, 1, 3, 0] = np.nan
    nan_path = tmp_path / "nan.csid"
    save_dataset(replace(ds, planes=planes), nan_path)
    with pytest.raises(ValueError, match="nan.csid: non-finite"):
        load_dataset(nan_path)

    for scale in (0.0, -1.0, np.inf, np.nan):
        path = tmp_path / "scale.csid"
        save_dataset(replace(ds, norm_scale=scale), path)
        with pytest.raises(ValueError, match="scale.csid: norm_scale"):
            load_dataset(path)


def test_split_is_disjoint_and_contiguous():
    ds = generate_dataset(10, 4, CFG)
    tr, va, te = split_dataset(ds, (6, 2, 2))
    assert (len(tr), len(va), len(te)) == (6, 2, 2)
    stacked = np.concatenate([tr.planes, va.planes, te.planes])
    np.testing.assert_array_equal(stacked, ds.planes)
    with pytest.raises(ValueError):
        split_dataset(ds, (8, 2, 2))


def test_sampling_spec_validation():
    with pytest.raises(ValueError):
        SamplingSpec(delay_max=0.0)
    with pytest.raises(ValueError):
        SamplingSpec(jitter_lo=0.8, jitter_hi=0.5)


def test_dataset_dimensions_exposed():
    ds = generate_dataset(2, 1, CFG)
    assert ds.num_antennas == 4
    assert ds.num_subcarriers == 6
