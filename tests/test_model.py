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


def test_degenerate_axis_maps_to_zero():
    xy = CoordinateGrid(1, 4).flat_coords()
    assert np.all(xy[:, 0] == 0.0)


def test_init_is_seed_deterministic():
    a = init_params(3, ARCH)
    b = init_params(3, ARCH)
    np.testing.assert_array_equal(a.vector, b.vector)
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
    for k in range(1, ARCH.num_layers + 1):
        np.testing.assert_array_equal(p.blocks[f"scale_b{k}"], np.ones(32, np.float32))
        np.testing.assert_array_equal(p.blocks[f"shift_b{k}"], np.zeros(32, np.float32))
        assert np.max(np.abs(p.blocks[f"scale_w{k}"])) > 0
        assert np.max(np.abs(p.blocks[f"scale_w{k}"])) <= 0.5
        assert np.max(np.abs(p.blocks[f"shift_w{k}"])) <= 0.5


def test_param_count_matches_block_sizes():
    for arch in (ARCH, ArchConfig(hidden_dim=5, num_layers=1, codeword_dim=2)):
        p = init_params(0, arch)
        total = p.fourier.size + sum(b.size for b in p.blocks.values())
        assert arch.param_count() == total
        assert arch.vector_size == p.vector.size == total - p.fourier.size


def test_with_blocks_is_functional():
    p = init_params(0, ARCH)
    kept = p.vector.copy()
    q = p.with_blocks({k: v + 1.0 for k, v in p.blocks.items()})
    np.testing.assert_array_equal(q.vector, kept + 1.0)
    # one block alone: the others are kept
    r = p.with_blocks({"out_b": np.array([3.0, 4.0])})
    np.testing.assert_array_equal(r.blocks["out_b"], [3.0, 4.0])
    np.testing.assert_array_equal(r.vector[:-2], kept[:-2])
    assert r.vector.dtype == np.float32
    # original untouched
    np.testing.assert_array_equal(p.vector, kept)


def test_block_shapes_are_computed_once_and_read_only():
    shapes = ARCH.block_shapes()
    assert ARCH.block_shapes() is shapes
    with pytest.raises(TypeError):
        shapes["w1"] = (1, 1)
    assert shapes["w1"] == (32, 64)


def test_a_block_of_the_wrong_shape_is_named():
    p = init_params(0, ARCH)
    # a transposed block has the right size, but never ravels into place
    for bad in (np.zeros((32, 7), np.float32), p.blocks["scale_w2"].T):
        with pytest.raises(ValueError, match=r"^scale_w2 must have shape \(32, 8\)$"):
            p.with_blocks({"scale_w2": bad})
    with pytest.raises(KeyError):
        p.with_blocks({"fourier": p.fourier})


def test_a_vector_or_fourier_of_the_wrong_shape_is_refused():
    p = init_params(0, ARCH)
    n = ARCH.vector_size
    for bad in (p.vector[:-1], np.append(p.vector, 0.0), p.vector.reshape(1, n)):
        with pytest.raises(ValueError, match=rf"^vector must have shape \({n},\)$"):
            dataclasses.replace(p, vector=bad)
        with pytest.raises(ValueError, match=rf"^vector must have shape \({n},\)$"):
            ARCH.split(bad)
    for bad in (p.fourier.T, p.fourier[:-1], p.fourier.ravel()):
        with pytest.raises(ValueError, match=r"^fourier must have shape \(32, 2\)$"):
            dataclasses.replace(p, fourier=bad)


def test_flat_layout_round_trips_through_views():
    p = dataclasses.replace(init_params(3, ARCH), norm_scale=2.5)
    flat, blocks = p.vector, p.blocks
    assert list(blocks) == list(ARCH.block_shapes())[1:]
    np.testing.assert_array_equal(
        flat, np.concatenate([b.ravel() for b in blocks.values()]))
    q = dataclasses.replace(p, vector=flat * 2.0)
    assert q.vector.base is None and q.norm_scale == 2.5
    assert q.fourier is p.fourier
    for name, block in q.blocks.items():
        assert block.shape == blocks[name].shape == ARCH.block_shapes()[name]
        assert np.shares_memory(block, q.vector)
        np.testing.assert_array_equal(block, blocks[name] * 2.0)
    # a cast copies both arrays out
    c = q.cast(np.float64)
    assert not np.shares_memory(c.vector, q.vector)
    np.testing.assert_array_equal(c.blocks["out_w"], blocks["out_w"] * 2.0)
    # split names a gradient's blocks the same way, as writable views
    grad = np.zeros(ARCH.vector_size)
    ARCH.split(grad)["out_b"][...] = 7.0
    np.testing.assert_array_equal(grad[-2:], [7.0, 7.0])
    assert not grad[:-2].any()


def test_an_in_place_write_to_params_raises(tmp_path):
    base = init_params(3, ARCH)
    save_checkpoint(base, tmp_path / "m.csin")
    mine = base.vector * 2.0
    made = {"init_params": base, "cast": base.cast(np.float64),
            "load_checkpoint": load_checkpoint(tmp_path / "m.csin"),
            "replace": dataclasses.replace(base, vector=mine),
            "with_blocks": base.with_blocks({"scale_w2": base.blocks["scale_w2"] * 2.0})}
    assert not mine.flags.writeable          # the caller's own array too
    for how, p in made.items():
        with pytest.raises(TypeError):
            p.blocks["w1"] = np.zeros((32, 64), np.float32)
        for arr in (p.fourier, p.vector, *p.blocks.values(), *p.modulation):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1
    # the stacked modulation maps are built from the blocks the params hold
    M, _ = made["with_blocks"].modulation
    np.testing.assert_array_equal(M[32:64], base.blocks["scale_w2"] * 2.0)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    p = dataclasses.replace(init_params(5, ARCH), norm_scale=1.75)
    path = tmp_path / "m.csin"
    save_checkpoint(p, path)
    q = load_checkpoint(path)
    assert q.arch == p.arch
    assert q.norm_scale == 1.75
    np.testing.assert_array_equal(q.fourier, p.fourier)
    np.testing.assert_array_equal(q.vector, p.vector)
    assert q.fourier.dtype == q.vector.dtype == np.float32


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


@pytest.mark.parametrize("blocks", [("fourier",), ("shift_w2",), ("shift_w2", "out_b"),
                                    ("fourier", "w1")])
def test_checkpoint_names_the_first_non_finite_block(tmp_path, blocks):
    p = init_params(2, ARCH)
    path = tmp_path / "m.csin"
    save_checkpoint(p, path)
    blob = bytearray(path.read_bytes())
    body = len(blob) - 4 * ARCH.param_count()
    # the body is fourier, then the flat vector; find a block's first scalar
    # by naming the blocks of a vector of indices
    index = ARCH.split(np.arange(ARCH.vector_size))
    for name, bad in zip(blocks, (np.nan, np.inf)):
        at = 0 if name == "fourier" else 2 * ARCH.hidden_dim + int(index[name].flat[-1])
        blob[body + 4 * at:body + 4 * at + 4] = np.float32(bad).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=rf"non-finite values in block {blocks[0]}$"):
        load_checkpoint(path)


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
