import numpy as np
import pytest

from conftest import smooth_image
from wavefuse import cli, network, wavelet
from wavefuse.errors import FormatError
from wavefuse.imageio import load_pnm, save_pnm, to_tensor
from wavefuse.wavelet import dwt2


def write_image(path, img):
    save_pnm(img, path)
    return str(path)


@pytest.fixture
def images(tmp_path):
    g = np.random.default_rng(21)
    a = smooth_image(g, 32)
    b = smooth_image(g, 32)
    return (
        write_image(tmp_path / "a.pgm", a),
        write_image(tmp_path / "b.pgm", b),
        tmp_path,
    )


@pytest.fixture
def weights_path(tmp_path):
    cfg = network.NetConfig(channels=8, blocks=1, window=4, heads=2, reduction=2)
    path = tmp_path / "w.wfw"
    network.save_weights(network.init_weights(cfg, 0), path)
    return str(path)


SMALL_FLAGS = [
    "--channels", "8", "--blocks", "1", "--window", "4",
    "--heads", "2", "--reduction", "2",
]


class TestFuse:
    def test_fuse_writes_output(self, images, weights_path):
        a, b, tmp = images
        out = str(tmp / "fused.pgm")
        code = cli.main(["fuse", a, b, "--weights", weights_path, "-o", out]
                        + SMALL_FLAGS)
        assert code == 0
        fused = load_pnm(out)
        assert fused.shape == (32, 32)

    def test_size_mismatch_names_both_sizes(self, images, weights_path, capsys):
        a, _, tmp = images
        small = write_image(tmp / "small.pgm", np.zeros((8, 8)))
        out = str(tmp / "x.pgm")
        code = cli.main(["fuse", a, small, "--weights", weights_path, "-o", out]
                        + SMALL_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert "(32, 32)" in err and "(8, 8)" in err

    def test_corrupt_weights_exit_3(self, images, tmp_path):
        a, b, tmp = images
        bad = tmp_path / "bad.wfw"
        bad.write_bytes(b"XXXX not weights")
        code = cli.main(["fuse", a, b, "--weights", str(bad), "-o", str(tmp / "x.pgm")]
                        + SMALL_FLAGS)
        assert code == 3

    def test_missing_input_exit_2(self, weights_path, tmp_path):
        code = cli.main([
            "fuse", str(tmp_path / "none.pgm"), str(tmp_path / "none.pgm"),
            "--weights", weights_path, "-o", str(tmp_path / "x.pgm"),
        ])
        assert code == 2

    def test_rgb_inputs_rgb_output(self, tmp_path, weights_path):
        g = np.random.default_rng(3)
        rgb_a = g.uniform(0.2, 0.8, (16, 16, 3))
        rgb_b = g.uniform(0.2, 0.8, (16, 16, 3))
        a = write_image(tmp_path / "a.ppm", rgb_a)
        b = write_image(tmp_path / "b.ppm", rgb_b)
        out = str(tmp_path / "f.ppm")
        code = cli.main(["fuse", a, b, "--weights", weights_path, "-o", out]
                        + SMALL_FLAGS)
        assert code == 0
        assert load_pnm(out).shape == (16, 16, 3)


class TestFuseOpt:
    def test_runs_and_traces(self, images, capsys):
        a, b, tmp = images
        out = str(tmp / "f.pgm")
        trace = tmp / "trace.csv"
        code = cli.main([
            "fuse-opt", a, b, "-o", out, "--iters", "5", "--trace", str(trace),
        ])
        assert code == 0
        assert "iterations=" in capsys.readouterr().out
        lines = trace.read_text().splitlines()
        assert lines[0] == "iter,total,l_int,l_text,l_ssim"
        assert load_pnm(out).shape == (32, 32)


class TestDecompose:
    def test_constant_image(self, tmp_path):
        src = write_image(tmp_path / "c.pgm", np.full((16, 16), 0.5))
        out_dir = tmp_path / "bands"
        assert cli.main(["decompose", src, str(out_dir)]) == 0
        ll = load_pnm(out_dir / "c_ll.pgm")
        # LL of a 0.5 constant is 1.0 everywhere; display halves it back.
        assert np.allclose(ll, 0.5, atol=1 / 255)
        for band in ("lh", "hl", "hh"):
            plane = load_pnm(out_dir / f"c_{band}.pgm")
            assert np.allclose(plane, 128 / 255)  # mid-gray: zero detail

    def test_bands_file_exact(self, tmp_path, rng):
        img = rng.uniform(0, 1, (12, 14))
        src = write_image(tmp_path / "r.pgm", np.round(img * 255) / 255)
        out_dir = tmp_path / "bands"
        assert cli.main(["decompose", src, str(out_dir)]) == 0
        subs = wavelet.load_bands(out_dir / "r.bands")
        want = dwt2(to_tensor(load_pnm(src)))
        for band in ("ll", "lh", "hl", "hh"):
            assert np.array_equal(getattr(subs, band), getattr(want, band))

    def test_odd_dims_exit_2(self, tmp_path):
        src = write_image(tmp_path / "odd.pgm", np.zeros((7, 8)))
        assert cli.main(["decompose", src, str(tmp_path / "d")]) == 2


class TestBandsContainer:
    def test_roundtrip(self, tmp_path, rng):
        subs = dwt2(rng.uniform(0, 1, (1, 1, 10, 12)))
        path = tmp_path / "x.bands"
        wavelet.save_bands(subs, path)
        back = wavelet.load_bands(path)
        for band in ("ll", "lh", "hl", "hh"):
            assert np.array_equal(getattr(back, band), getattr(subs, band))

    def test_bad_magic(self, tmp_path, rng):
        subs = dwt2(rng.uniform(0, 1, (1, 1, 4, 4)))
        path = tmp_path / "x.bands"
        wavelet.save_bands(subs, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            wavelet.load_bands(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "x.bands"
        path.write_bytes(b"WBN1\x02")
        with pytest.raises(FormatError, match="truncated"):
            wavelet.load_bands(path)


class TestMetricsAndBands:
    def test_self_fusion_metrics(self, images, capsys):
        a, _, _ = images
        assert cli.main(["metrics", a, a, a]) == 0
        out = capsys.readouterr().out
        rows = dict(line.split(",") for line in out.splitlines()[1:])
        assert float(rows["ssim_a"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows["q_w"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows["fmi"]) == 1.0

    def test_analyze_bands_stdout_and_file(self, images, tmp_path, capsys):
        a, b, _ = images
        assert cli.main(["analyze-bands", a, b, a]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "band,src,ssim_low,ssim_high"
        csv = tmp_path / "study.csv"
        assert cli.main(["analyze-bands", a, b, a, "--out", str(csv)]) == 0
        assert csv.read_text() == out


class TestOtherCommands:
    def test_gradcheck(self, capsys):
        assert cli.main(["gradcheck", "--size", "32"]) == 0
        assert "gradient error" in capsys.readouterr().out

    def test_init_weights_roundtrip(self, tmp_path):
        out = tmp_path / "w.wfw"
        assert cli.main(["init-weights", str(out)] + SMALL_FLAGS) == 0
        cfg = network.NetConfig(channels=8, blocks=1, window=4, heads=2, reduction=2)
        loaded = network.load_weights(out)
        network.validate_weights(loaded, cfg)
        want = network.init_weights(cfg, 0)
        assert all(np.array_equal(loaded[k], want[k]) for k in want)

    def test_selftest(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 8

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuse-opt", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default 500" in out and "default 0.05" in out
