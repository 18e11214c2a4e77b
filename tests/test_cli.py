import argparse
import re
import shlex
import struct
import zlib
from pathlib import Path

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
    network.save_weights(network.init_weights(cfg, 0), cfg, path)
    return str(path)


SMALL_FLAGS = ["--channels", "8", "--blocks", "1", "--reduction", "2", "--window", "4",
               "--heads", "2"]


class TestFuse:
    def test_fuse_writes_output(self, images, weights_path):
        a, b, tmp = images
        out = str(tmp / "fused.pgm")
        code = cli.main(["fuse", a, b, "--weights", weights_path, "-o", out])
        assert code == 0
        fused = load_pnm(out)
        assert fused.shape == (32, 32)

    def test_size_mismatch_names_both_sizes(self, images, weights_path, capsys):
        a, _, tmp = images
        small = write_image(tmp / "small.pgm", np.zeros((8, 8)))
        out = str(tmp / "x.pgm")
        code = cli.main(["fuse", a, small, "--weights", weights_path, "-o", out])
        assert code == 2
        err = capsys.readouterr().err
        assert "(32, 32)" in err and "(8, 8)" in err

    def test_corrupt_weights_exit_3(self, images, tmp_path):
        a, b, tmp = images
        bad = tmp_path / "bad.wfw"
        bad.write_bytes(b"XXXX not weights")
        code = cli.main(["fuse", a, b, "--weights", str(bad), "-o", str(tmp / "x.pgm")])
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
        code = cli.main(["fuse", a, b, "--weights", weights_path, "-o", out])
        assert code == 0
        assert load_pnm(out).shape == (16, 16, 3)

    def test_shapes_come_from_the_weights_file(self, images):
        # Every NetConfig field differs from its default; fuse gets none of them.
        a, b, tmp = images
        wpath, out, ref = (str(tmp / name) for name in ("w.wfw", "f.pgm", "ref.pgm"))
        flags = ["--channels", "8", "--blocks", "3", "--reduction", "2", "--mlp-ratio", "3",
                 "--window", "4", "--heads", "2", "--route", "k"]
        assert cli.main(["init-weights", wpath] + flags) == 0
        assert cli.main(["fuse", a, b, "--weights", wpath, "-o", out]) == 0
        cfg = network.NetConfig(channels=8, blocks=3, window=4, heads=2, reduction=2, mlp_ratio=3,
                                cross_route="k")
        want = network.forward(load_pnm(a), load_pnm(b), network.init_weights(cfg, 0), cfg)
        save_pnm(want, ref)
        assert np.array_equal(load_pnm(out), load_pnm(ref))

    def test_shape_flags_rejected(self, images, weights_path):
        a, b, tmp = images
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuse", a, b, "--weights", weights_path, "-o", str(tmp / "x.pgm"),
                      "--channels", "8"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("edit", ["drop_extractor", "gate_width", "mlp_width"])
    def test_weights_that_are_no_network_exit_3(self, images, weights_path, edit):
        a, b, tmp = images
        w, cfg = network.load_weights(weights_path)
        if edit == "drop_extractor":
            del w["fe1.1.weight"]
        elif edit == "gate_width":
            w["block0.s1.cbam.ca_w1"] = np.zeros((3, 8))
        else:
            w["block0.s1.mlp.w1"] = np.zeros((4, 8))
        bad = str(tmp / "bad.wfw")
        network.save_weights(w, cfg, bad)
        code = cli.main(["fuse", a, b, "--weights", bad, "-o", str(tmp / "x.pgm")])
        assert code == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights_exit_3(self, images, weights_path, value, capsys):
        a, b, tmp = images
        w, cfg = network.load_weights(weights_path)
        w["fuse.3.bias"] = np.full(1, value)
        bad = str(tmp / "bad.wfw")
        network.save_weights(w, cfg, bad)
        out = tmp / "x.pgm"
        assert cli.main(["fuse", a, b, "--weights", bad, "-o", str(out)]) == 3
        assert "fuse.3.bias" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--window", "4", "--heads", "3"],
        ["--window", "0", "--heads", "2"],
        ["--window", "4", "--heads", "-1"],
        ["--route", "k"],
    ])
    def test_bad_attention_flags_exit_2(self, images, weights_path, flags):
        # The weights file records the attention settings; fuse takes none.
        a, b, tmp = images
        out = str(tmp / "x.pgm")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuse", a, b, "--weights", weights_path, "-o", out] + flags)
        assert exc.value.code == 2

    def test_version_1_file_exit_3(self, images, weights_path, capsys):
        # A version-1 file is a version-2 file without the config record.
        a, b, tmp = images
        v2 = Path(weights_path).read_bytes()[:-4]
        v1 = network.MAGIC + struct.pack("<I", 1) + v2[33 + v2[32]:]
        bad = tmp / "v1.wfw"
        bad.write_bytes(v1 + struct.pack("<I", zlib.crc32(v1)))
        assert cli.main(["fuse", a, b, "--weights", str(bad), "-o", str(tmp / "x.pgm")]) == 3
        assert "init-weights" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "flag, value", [("--step", "inf"), ("--step", "nan"), ("--tol", "nan"), ("--alpha", "nan"),
                        ("--beta", "inf")],
    )
    def test_non_finite_setting_exit_2(self, images, capsys, flag, value):
        a, b, tmp = images
        assert cli.main(["fuse-opt", a, b, "-o", str(tmp / "f.pgm"), flag, value]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp / "f.pgm").exists()


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
        bands = wavelet.load_bands(out_dir / "r.bands")
        want = dwt2(to_tensor(load_pnm(src)))
        for k in range(4):  # LL, LH, HL, HH
            assert np.array_equal(bands[k], want[k])

    def test_odd_dims_exit_2(self, tmp_path):
        src = write_image(tmp_path / "odd.pgm", np.zeros((7, 8)))
        assert cli.main(["decompose", src, str(tmp_path / "d")]) == 2


class TestBandsContainer:
    def test_roundtrip(self, tmp_path, rng):
        bands = dwt2(rng.uniform(0, 1, (1, 1, 10, 12)))
        path = tmp_path / "x.bands"
        wavelet.save_bands(bands, path)
        back = wavelet.load_bands(path)
        for k in range(4):  # LL, LH, HL, HH
            assert np.array_equal(back[k], bands[k])

    def test_file_bytes(self, tmp_path, rng):
        bands = dwt2(rng.uniform(0, 1, (1, 1, 10, 12)))
        path = tmp_path / "x.bands"
        wavelet.save_bands(bands, path)
        want = b"WBN1" + struct.pack("<II", 5, 6) + bands[:, 0, 0].astype("<f8").tobytes()
        assert path.read_bytes() == want

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

    @pytest.mark.parametrize("flag", ["--heads", "--reduction", "--blocks", "--window"])
    def test_init_weights_size_zero_exit_2(self, tmp_path, flag):
        assert cli.main(["init-weights", str(tmp_path / "w.wfw"), flag, "0"]) == 2

    def test_init_weights_roundtrip(self, tmp_path):
        out = tmp_path / "w.wfw"
        assert cli.main(["init-weights", str(out)] + SMALL_FLAGS) == 0
        cfg = network.NetConfig(channels=8, blocks=1, window=4, heads=2, reduction=2)
        loaded, got = network.load_weights(out)
        assert got == cfg
        want = network.init_weights(cfg, 0)
        assert all(np.array_equal(loaded[k], want[k]) for k in want)

    def test_help_shows_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fuse-opt", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "default 500" in out and "default 0.05" in out


# Paths the OS refuses: {dir} is a directory, {a} an existing file.
OS_ERROR_ARGV = [
    ["fuse-opt", "{dir}", "{b}", "-o", "{dir}/f.pgm"],
    ["fuse-opt", "{a}", "{b}", "-o", "{dir}", "--iters", "1"],
    ["metrics", "{a}", "{b}", "{dir}"],
    ["init-weights", "{dir}"],
    ["fuse", "{a}", "{b}", "--weights", "{dir}", "-o", "{dir}/f.pgm"],
    ["decompose", "{a}", "{a}"],
]


@pytest.mark.parametrize("argv", OS_ERROR_ARGV, ids=lambda argv: " ".join(argv))
def test_unusable_path_exit_2(images, capsys, argv):
    a, b, tmp = images
    code = cli.main([arg.format(a=a, b=b, dir=tmp) for arg in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_commands_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), flags=re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("wavefuse ")]
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) <= {argv[1] for argv in commands}
