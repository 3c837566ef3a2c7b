"""Architecture container, parameter init, coordinate grid, checkpoint format."""

import dataclasses

import numpy as np
import pytest

from csicodec.codec import FLAG_UNQUANTIZED, Bitstream, decode_matrices
from csicodec.model import (
    ArchConfig,
    CoordinateGrid,
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
)

ARCH = ArchConfig(hidden_dim=32, num_layers=3, codeword_dim=8,
                  omega0=30.0, fourier_scale=2.0)


def test_arch_validation():
    with pytest.raises(ValueError):
        ArchConfig(hidden_dim=0)
    with pytest.raises(ValueError):
        ArchConfig(num_layers=0)
    with pytest.raises(ValueError):
        ArchConfig(omega0=-1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            ArchConfig(omega0=bad)
        with pytest.raises(ValueError, match="positive and finite"):
            ArchConfig(fourier_scale=bad)


def test_grid_coords_cover_unit_square():
    grid = CoordinateGrid(4, 5)
    xy = grid.flat_coords()
    assert xy.shape == (20, 2)
    assert xy.dtype == np.float64
    assert xy[0, 0] == -1.0 and xy[-1, 0] == 1.0
    assert xy[0, 1] == -1.0 and xy[-1, 1] == 1.0


def test_grid_locate_inverts_flat_coords():
    grid = CoordinateGrid(7, 3)
    xy = grid.flat_coords()
    ij = grid.locate(xy)
    expected = np.stack([np.arange(21) // 3 + 1, np.arange(21) % 3 + 1], axis=1)
    np.testing.assert_array_equal(ij, expected)
    with pytest.raises(ValueError):
        grid.locate(np.array([1.5, 0.0]))


def test_degenerate_axis_maps_to_zero():
    xy = CoordinateGrid(1, 4).flat_coords()
    assert np.all(xy[:, 0] == 0.0)


def test_init_is_seed_deterministic():
    a = init_params(3, ARCH)
    b = init_params(3, ARCH)
    for name, block in a.trainable_blocks().items():
        np.testing.assert_array_equal(block, b.trainable_blocks()[name])
    np.testing.assert_array_equal(a.fourier, b.fourier)
    assert not np.array_equal(init_params(4, ARCH).fourier, a.fourier)


def test_fourier_matrix_statistics():
    arch = ArchConfig(hidden_dim=4096, num_layers=2, codeword_dim=4,
                      omega0=30.0, fourier_scale=2.0)
    p = init_params(0, arch)
    assert p.fourier.shape == (4096, 2)
    assert abs(p.fourier.std() - 2.0) < 0.2     # sigma_b within 10%
    assert abs(p.fourier.mean()) < 0.1


def test_modulation_identity_at_zero_codeword():
    # scale_b starts at one and shift_b at zero, so M = 0 leaves every
    # pre-activation untouched; the couplings themselves must be nonzero
    # or no gradient could ever reach the codeword
    p = init_params(1, ARCH, mod_scale=0.5)
    for i in range(ARCH.num_layers):
        np.testing.assert_array_equal(p.scale_b[i], np.ones(32, np.float32))
        np.testing.assert_array_equal(p.shift_b[i], np.zeros(32, np.float32))
        assert np.max(np.abs(p.scale_w[i])) > 0
        assert np.max(np.abs(p.scale_w[i])) <= 0.5
        assert np.max(np.abs(p.shift_w[i])) <= 0.5


def test_param_count_matches_block_sizes():
    for arch in (ARCH, ArchConfig(hidden_dim=5, num_layers=1, codeword_dim=2)):
        p = init_params(0, arch)
        total = p.fourier.size + sum(b.size for b in p.trainable_blocks().values())
        assert arch.param_count() == total


def test_with_blocks_is_functional():
    p = init_params(0, ARCH)
    blocks = p.trainable_blocks()
    bumped = {k: v + 1.0 for k, v in blocks.items()}
    q = p.with_blocks(bumped)
    assert np.array_equal(q.out_b, p.out_b + 1.0)
    # original untouched
    np.testing.assert_array_equal(p.trainable_blocks()["out_b"], blocks["out_b"])


def test_block_shapes_are_computed_once_and_read_only():
    shapes = ARCH.block_shapes()
    assert ARCH.block_shapes() is shapes
    with pytest.raises(TypeError):
        shapes["w1"] = (1, 1)
    assert shapes["w1"] == (32, 64)


def test_a_block_of_the_wrong_shape_is_named():
    p = init_params(0, ARCH)
    bad = p.scale_w[:1] + (np.zeros((32, 7), np.float32),) + p.scale_w[2:]
    with pytest.raises(ValueError, match=r"^scale_w2 must have shape \(32, 8\)$"):
        dataclasses.replace(p, scale_w=bad)
    with pytest.raises(ValueError, match="shift_b must have 3 entries"):
        dataclasses.replace(p, shift_b=p.shift_b[:2])


def test_flat_layout_round_trips_through_views():
    p = dataclasses.replace(init_params(3, ARCH), norm_scale=2.5)
    flat = p.trainable_vector
    blocks = p.trainable_blocks()
    assert flat.size == sum(b.size for b in blocks.values())
    np.testing.assert_array_equal(
        flat, np.concatenate([b.ravel() for b in blocks.values()]))
    q = p.with_vector(flat * 2.0)
    assert q.trainable_vector.base is None and q.norm_scale == 2.5
    assert q.fourier is p.fourier
    for name, block in q.trainable_blocks().items():
        assert block.shape == blocks[name].shape
        assert np.shares_memory(block, q.trainable_vector)
        np.testing.assert_array_equal(block, blocks[name] * 2.0)
    # the views are ordinary params: a cast copies them out
    np.testing.assert_array_equal(q.cast(np.float64).out_w, blocks["out_w"] * 2.0)


def test_an_in_place_write_to_params_raises(tmp_path):
    base = init_params(3, ARCH)
    save_checkpoint(base, tmp_path / "m.csin")
    mine = base.trainable_blocks()["scale_w2"] * 2.0
    made = {"init_params": base, "cast": base.cast(np.float64),
            "load_checkpoint": load_checkpoint(tmp_path / "m.csin"),
            "with_vector": base.with_vector(base.trainable_vector * 2.0),
            "with_blocks": base.with_blocks({**base.trainable_blocks(), "scale_w2": mine})}
    assert not mine.flags.writeable          # the caller's own array too
    for how, p in made.items():
        for arr in (p.fourier, *p.trainable_blocks().values(), p.trainable_vector,
                    *p.modulation):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1
    # the stacked modulation maps are built from the blocks the params hold
    M, _ = made["with_blocks"].modulation
    np.testing.assert_array_equal(M[32:64], mine)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    p = dataclasses.replace(init_params(5, ARCH), norm_scale=1.75)
    path = tmp_path / "m.csin"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.arch == p.arch
    assert q.norm_scale == 1.75
    np.testing.assert_array_equal(q.fourier, p.fourier)
    for name, block in p.trainable_blocks().items():
        np.testing.assert_array_equal(q.trainable_blocks()[name], block)


def test_checkpoint_size_is_header_plus_floats(tmp_path):
    p = init_params(2, ARCH)
    path = tmp_path / "m.csin"
    save_checkpoint(p, path)
    header = 4 + 4 * 4 + 3 * 8            # magic, four u32 fields, three f64
    assert path.stat().st_size == header + 4 * p.arch.param_count()


def test_checkpoint_rejects_truncation_and_bad_magic(tmp_path):
    p = init_params(2, ARCH)
    path = tmp_path / "m.csin"
    save_checkpoint(p, path)
    blob = path.read_bytes()

    short = tmp_path / "short.csin"
    short.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_checkpoint(short)

    wrong = tmp_path / "wrong.csin"
    wrong.write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(ValueError):
        load_checkpoint(wrong)


def test_decoded_matrix_shape_and_scaling():
    p = dataclasses.replace(init_params(0, ARCH), norm_scale=2.0)
    grid = CoordinateGrid(5, 6)
    n = ARCH.codeword_dim
    stream = Bitstream(n, 0, FLAG_UNQUANTIZED, bytes(16), bytes(4 * n), 32 * n)
    h = decode_matrices(p, [stream], grid)[0]
    assert h.shape == (5, 6)
    assert h.dtype == np.complex128
    p4 = dataclasses.replace(p, norm_scale=4.0)
    np.testing.assert_allclose(decode_matrices(p4, [stream], grid)[0], 2.0 * h,
                               rtol=1e-6)
