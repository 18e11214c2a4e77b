import numpy as np
import pytest

from conftest import smooth_image
from wavefuse import fusionopt, losses, metrics, network
from wavefuse.errors import PnmParseError, ShapeError
from wavefuse import imageio as io


def test_p5_scaling(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64]))
    img = io.load_pnm(path)
    assert np.array_equal(img, np.array([[0, 1], [128 / 255, 64 / 255]]))


def test_p6_single_pixel(tmp_path):
    path = tmp_path / "t.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([255, 0, 0]))
    img = io.load_pnm(path)
    assert img.shape == (1, 1, 3)
    assert np.array_equal(img[0, 0], [1.0, 0.0, 0.0])


def test_16bit_big_endian(tmp_path):
    path = tmp_path / "t.pgm"
    path.write_bytes(b"P5\n1 1\n65535\n" + (0x0102).to_bytes(2, "big"))
    img = io.load_pnm(path)
    assert img[0, 0] == 0x0102 / 65535


def test_save_load_roundtrip_8bit(tmp_path, rng):
    img = rng.integers(0, 256, size=(9, 7)).astype(np.float64) / 255.0
    path = tmp_path / "r.pgm"
    io.save_pnm(img, path)
    assert np.array_equal(io.load_pnm(path), img)
    # and again: the quantizer is a fixed point on its own output
    io.save_pnm(io.load_pnm(path), path)
    assert np.array_equal(io.load_pnm(path), img)


def test_save_load_roundtrip_rgb(tmp_path, rng):
    img = rng.integers(0, 256, size=(4, 5, 3)).astype(np.float64) / 255.0
    path = tmp_path / "r.ppm"
    io.save_pnm(img, path)
    assert np.array_equal(io.load_pnm(path), img)


def test_comment_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n1 1\n255\n\x10")
    assert io.load_pnm(path)[0, 0] == 16 / 255


def test_bad_magic_offset(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P7\n1 1\n255\n\x00")
    with pytest.raises(PnmParseError) as exc:
        io.load_pnm(path)
    assert exc.value.offset == 0


def test_truncated_payload_offset(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(PnmParseError, match="truncated") as exc:
        io.load_pnm(path)
    assert exc.value.offset == 11  # first payload byte


def test_bad_maxval(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5\n1 1\n100\n\x00")
    with pytest.raises(PnmParseError):
        io.load_pnm(path)


class TestYCbCr:
    def test_gray_axis(self):
        ycc = io.rgb_to_ycbcr(np.ones((1, 1, 3)))
        assert abs(ycc.y[0, 0] - 1.0) < 1e-15
        assert abs(ycc.cb[0, 0]) < 1e-15
        assert abs(ycc.cr[0, 0]) < 1e-15

    def test_black(self):
        ycc = io.rgb_to_ycbcr(np.zeros((1, 1, 3)))
        assert ycc.y[0, 0] == 0 and ycc.cb[0, 0] == 0 and ycc.cr[0, 0] == 0

    def test_luma_coefficients(self):
        red = np.zeros((1, 1, 3))
        red[..., 0] = 1.0
        assert abs(io.rgb_to_ycbcr(red).y[0, 0] - 0.299) < 1e-15

    def test_roundtrip_1000_random_pixels(self, rng):
        rgb = rng.uniform(0, 1, (20, 50, 3))
        back = io.ycbcr_to_rgb(io.rgb_to_ycbcr(rgb))
        assert np.abs(back - rgb).max() < 1e-12

    def test_plane_shape_mismatch(self):
        with pytest.raises(ShapeError):
            io.YCbCrImage(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 3)))


class TestTensorBridge:
    def test_roundtrip(self, rng):
        img = rng.uniform(0, 1, (6, 7))
        assert np.array_equal(io.from_tensor(io.to_tensor(img)), img)

    def test_clamp(self):
        t = np.array([[[[1.3, -0.2]]]])
        out = io.from_tensor(t)
        assert np.array_equal(out, [[1.0, 0.0]])

    def test_shape_error(self, rng):
        with pytest.raises(ShapeError):
            io.from_tensor(rng.standard_normal((1, 2, 3, 3)))


NET = network.NetConfig(channels=4, blocks=1, window=4, heads=2, reduction=2)

# Every library entry point that takes images, called on (source a, source b, fused).
ENTRY_POINTS = {
    "forward": lambda a, b, f: network.forward(a, b, network.init_weights(NET, 0), NET),
    "optimize": lambda a, b, f: fusionopt.optimize(a, b, fusionopt.OptConfig(max_iters=1)),
    "loss_total": lambda a, b, f: losses.loss_total(f, a, b),
    "ssim": lambda a, b, f: losses.ssim(f, a),
    "q_abf": metrics.q_abf,
    "q_w": metrics.q_w,
    "fmi": metrics.fmi,
    "score": metrics.score,
    "band_correlation_study": metrics.band_correlation_study,
}


class TestCheckImages:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_reject_non_finite(self, entry, bad):
        a = smooth_image(np.random.default_rng(0), 24)
        b = a[::-1].copy()
        f = (a + b) / 2.0
        a[3, 4] = bad
        with pytest.raises(ValueError, match="NaN or Inf"):
            ENTRY_POINTS[entry](a, b, f)

    @pytest.mark.parametrize("shape", [(0, 24), (24, 0)], ids=["0x24", "24x0"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_reject_empty_images(self, entry, shape):
        a = np.zeros(shape)
        with pytest.raises(ShapeError, match="images must be non-empty"):
            ENTRY_POINTS[entry](a, a.copy(), a.copy())

    def test_returns_float64_arrays(self):
        x, y = io.check_images([[0, 1]], np.zeros((1, 2), dtype=np.float32))
        assert x.dtype == y.dtype == np.float64
        assert np.array_equal(x, [[0.0, 1.0]])

    @pytest.mark.parametrize("shapes", [[(4, 4), (4, 5)], [(4, 4, 3), (4, 4, 3)]])
    def test_shape_error(self, shapes):
        with pytest.raises(ShapeError):
            io.check_images(*(np.zeros(s) for s in shapes))
