import argparse
import os
import re
import shlex
import struct
import subprocess
import sys
import tracemalloc
import zlib
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import smooth_image, write_wfw
from wavefuse import cli, fusionopt, losses, metrics, network, wavelet
from wavefuse.errors import FormatError, WavefuseError
from wavefuse.imageio import load_pnm, rgb_to_ycbcr, save_pnm, ycbcr_to_rgb
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

    def test_color_from_picks_the_chroma(self, tmp_path, weights_path):
        # the output is the fused luma under the chosen input's Cb and Cr,
        # quantised to 8 bits
        g = np.random.default_rng(4)
        paths = [write_image(tmp_path / f"{s}.ppm", g.uniform(0, 1, (16, 16, 3))) for s in "ab"]
        ycc = [rgb_to_ycbcr(load_pnm(p)) for p in paths]
        weights, cfg = network.load_weights(weights_path)
        fused_y = network.forward(ycc[0][..., 0], ycc[1][..., 0], weights, cfg)
        got = {}
        for k, side in enumerate("ab"):
            out = str(tmp_path / f"f_{side}.ppm")
            argv = ["fuse", *paths, "--weights", weights_path, "-o", out, "--color-from", side]
            assert cli.main(argv) == 0
            got[side] = np.round(load_pnm(out) * 255.0)
            want = ycbcr_to_rgb(np.dstack([fused_y, ycc[k][..., 1], ycc[k][..., 2]]))
            assert np.array_equal(got[side], np.floor(want * 255.0 + 0.5))
        assert not np.array_equal(got["a"], got["b"])

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
        bad = str(write_wfw(tmp / "bad.wfw", w, cfg))
        code = cli.main(["fuse", a, b, "--weights", bad, "-o", str(tmp / "x.pgm")])
        assert code == 3

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_weights_exit_3(self, images, weights_path, value, capsys):
        a, b, tmp = images
        w, cfg = network.load_weights(weights_path)
        w["fuse.3.bias"] = np.full(1, value)
        bad = str(write_wfw(tmp / "bad.wfw", w, cfg))
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

    @pytest.mark.parametrize("edit", ["trailing_bytes", "duplicate_name"])
    def test_malformed_table_exit_3(self, images, weights_path, edit, capsys):
        # The CRC is recomputed, so the check under test is the one that fires.
        a, b, tmp = images
        body = Path(weights_path).read_bytes()[:-4]
        if edit == "trailing_bytes":
            w, _ = network.load_weights(weights_path)
            n = sum(arr.nbytes for arr in w.values())
            message = f"{n + 8} payload bytes, expected {n}"
            body += bytes(8)
        else:  # the renamed tensor's last name byte is the first that differs
            at = body.index(b"block0.s1.mlp.w2") + len("block0.s1.mlp.w")
            message = f"schema at byte {at}: re-create the file with `wavefuse init-weights`"
            body = body.replace(b"block0.s1.mlp.w2", b"block0.s1.mlp.w1", 1)
        bad = tmp / "bad.wfw"
        bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        out = tmp / "x.pgm"
        assert cli.main(["fuse", a, b, "--weights", str(bad), "-o", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="needs /proc/self/statm")
    def test_memory_check_under_address_space_limit(self, tmp_path, monkeypatch):
        # Once numpy is loaded, the child caps its own address space halfway
        # between fuse's 64² and 512² default-config needs: the 512² forward
        # is refused up front and the 64² one still fuses. One BLAS thread
        # keeps the untracked per-thread buffers small on any core count.
        pytest.importorskip("resource")
        cfg = network.NetConfig()
        monkeypatch.setattr(cli, "_headroom", lambda: None)
        need = {n: cli._check_memory("fusing", (n, n), network.peak_bytes(n, n, cfg) * 3 // 2)
                for n in (64, 512)}
        wpath = str(tmp_path / "w.wfw")
        network.save_weights(network.init_weights(cfg, 0), cfg, wpath)
        child = (
            "import os, resource, sys\n"
            "import numpy\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from wavefuse import cli\n"
            "with open('/proc/self/statm') as fh:\n"
            "    size = int(fh.read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + int(sys.argv[2]), hard))\n"
            "sys.exit(cli.main(sys.argv[3:]))\n"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        extra = (need[64] + need[512]) // 2
        env = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1")}
        g = np.random.default_rng(5)
        runs = {}
        for n in (512, 64):
            a, b = (write_image(tmp_path / f"{m}{n}.pgm", g.uniform(0, 1, (n, n))) for m in "ab")
            argv = ["fuse", a, b, "--weights", wpath, "-o", str(tmp_path / f"f{n}.pgm")]
            runs[n] = subprocess.run(
                [sys.executable, "-c", child, src, str(extra), *argv], capture_output=True,
                text=True, timeout=120, env=env,
            )
        assert runs[512].returncode == 2, runs[512].stderr
        assert f"{need[512] / 2**20:.1f} MiB" in runs[512].stderr
        assert not (tmp_path / "f512.pgm").exists()
        assert runs[64].returncode == 0, runs[64].stderr
        assert load_pnm(str(tmp_path / "f64.pgm")).shape == (64, 64)

    @pytest.fixture
    def fake_proc(self, tmp_path, monkeypatch):
        """/proc and /sys faked under tmp_path for cli._headroom; the process's
        own cgroup v2 group is the "0::" line. Returns that group's directory."""
        resource = pytest.importorskip("resource")
        if resource.getrlimit(resource.RLIMIT_AS)[0] != resource.RLIM_INFINITY:
            pytest.skip("an address-space limit takes precedence")
        (tmp_path / "proc/self").mkdir(parents=True)
        (tmp_path / "proc/self/cgroup").write_text("4:memory:/v1\n0::/jobs/one\n")
        group = tmp_path / "sys/fs/cgroup/jobs/one"
        group.mkdir(parents=True)
        (group / "memory.max").write_text("1073741824\n")
        (group / "memory.current").write_text("73741824\n")
        (group / "memory.stat").write_text("anon 70000000\ninactive_file 0\nactive_file 9\n")
        monkeypatch.setattr(cli, "Path", lambda p: tmp_path / p.lstrip("/"))
        return group

    def test_headroom_reads_the_cgroup_v2_limit(self, fake_proc):
        assert cli._headroom() == 10**9
        (fake_proc / "memory.stat").write_text("anon 1\ninactive_file 26258176\n")
        assert cli._headroom() == 10**9 + 26258176

    def test_headroom_falls_back_to_mem_available(self, fake_proc, tmp_path):
        # A memory.max of "max" is no limit: MemAvailable, in kB, is the room.
        (fake_proc / "memory.max").write_text("max\n")
        (tmp_path / "proc/meminfo").write_text(
            "MemTotal:       16384000 kB\nMemFree:          100000 kB\n"
            "MemAvailable:    2048000 kB\nHugePages_Total:       0\n"
        )
        assert cli._headroom() == 2048000 * 1024
        (tmp_path / "proc/meminfo").unlink()
        assert cli._headroom() is None

    def test_headroom_is_the_smallest_limit(self, fake_proc, tmp_path, monkeypatch):
        # A soft address-space limit a launcher set high must not hide a
        # tighter cgroup memory.max; without that limit, the rlimit is the room.
        resource = pytest.importorskip("resource")
        (tmp_path / "proc/self/statm").write_text("25600 100 50 1 0 200 0\n")
        monkeypatch.setattr(resource, "getrlimit", lambda _: (100 * 2**30, resource.RLIM_INFINITY))
        assert cli._headroom() == 10**9
        (fake_proc / "memory.max").write_text("max\n")
        assert cli._headroom() == 100 * 2**30 - 25600 * os.sysconf("SC_PAGE_SIZE")

    def test_fuse_counts_reclaimable_file_cache_as_free(self, images, weights_path, fake_proc):
        # The group is 64 KiB short of memory.max, far below the small pair's
        # estimate, but the kernel reclaims its inactive file cache first.
        a, b, tmp = images
        (fake_proc / "memory.current").write_text(f"{2**30 - 2**16}\n")
        argv = ["fuse", a, b, "--weights", weights_path, "-o", str(tmp / "f.pgm")]
        assert cli.main(argv) == 2
        assert not (tmp / "f.pgm").exists()
        (fake_proc / "memory.stat").write_text("anon 1000\ninactive_file 900000000\n")
        assert cli.main(argv) == 0
        assert load_pnm(str(tmp / "f.pgm")).shape == (32, 32)


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
        want = dwt2(load_pnm(src)[None, None])
        for k in range(4):  # LL, LH, HL, HH
            assert np.array_equal(bands[k], want[k])

    def test_odd_dims_exit_2(self, tmp_path, capsys):
        src = write_image(tmp_path / "odd.pgm", np.zeros((7, 8)))
        assert cli.main(["decompose", src, str(tmp_path / "d")]) == 2
        assert "decompose needs even image sides, got 7x8" in capsys.readouterr().err


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

    @pytest.mark.parametrize("h, w", [(0, 0), (0, 3), (3, 0)])
    def test_empty_bands(self, tmp_path, h, w):
        # save_bands never writes an empty plane; such a header is malformed
        # even when the byte count matches it.
        path = tmp_path / "x.bands"
        path.write_bytes(b"WBN1" + struct.pack("<II", h, w))
        with pytest.raises(FormatError, match="empty"):
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

    def test_metrics_mismatch_names_all_three_shapes(self, images, capsys):
        # score checks its triple on entry, so the error gives the three
        # shapes in argument order, as analyze-bands does.
        g = np.random.default_rng(22)
        a, b, f = (write_image(images[2] / f"{m}.pgm", g.uniform(0, 1, shape))
                   for m, shape in (("a", (40, 36)), ("b", (40, 36)), ("f", (41, 36))))
        assert cli.main(["metrics", a, b, f]) == 2
        captured = capsys.readouterr()
        assert "got [(40, 36), (40, 36), (41, 36)]" in captured.err
        assert captured.out == ""

class TestOtherCommands:
    def test_gradcheck(self, capsys):
        assert cli.main(["gradcheck", "--size", "32"]) == 0
        assert "gradient error" in capsys.readouterr().out

    @pytest.mark.parametrize("size", [0, -1])
    def test_gradcheck_size_below_one_exit_2(self, capsys, size):
        assert cli.main(["gradcheck", "--size", str(size)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --size must be at least 1, got {size}\n"
        assert captured.out == ""

    def test_gradcheck_size_too_small_exit_2(self, capsys):
        # Too few kink-free pixels: the message names the flag and a size that
        # works, and 16 passes on seeds 0-9.
        for size in (2, 12):
            assert cli.main(["gradcheck", "--size", str(size)]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: --size {size} is too small: only ")
            assert captured.err.endswith("; use a larger --size, such as 16\n")
            assert captured.out == ""
        for seed in range(10):
            assert cli.main(["gradcheck", "--size", "16", "--seed", str(seed)]) == 0
        assert capsys.readouterr().err == ""

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


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("h, w", [(64, 64), (256, 256), (300, 200)])
def test_peak_bytes_match_traced_peaks(h, w, monkeypatch):
    a, b = np.random.default_rng(3).uniform(0, 1, (2, h, w))
    f = 0.5 * (a + b)
    opt = traced_peak(fusionopt.optimize, a, b, fusionopt.OptConfig(max_iters=3))
    assert abs(fusionopt.peak_bytes(h, w) / opt - 1.0) <= 0.15
    scoring = traced_peak(metrics.score, a, b, f)
    assert abs(metrics.peak_bytes(h, w) / scoring - 1.0) <= 0.15
    study = traced_peak(metrics.band_correlation_study, a, b, f)
    assert abs(metrics.study_peak_bytes(h, w) / study - 1.0) <= 0.15
    # Each finite difference reaches the same peak: two are as good as 64, and quicker.
    monkeypatch.setattr(losses, "GRADCHECK_SAMPLES", 2)
    check = traced_peak(losses.gradcheck, f, a, b)
    assert abs(losses.gradcheck_peak_bytes(h, w) / check - 1.0) <= 0.15


@pytest.mark.parametrize("command", ["fuse", "fuse-opt", "metrics", "analyze-bands", "gradcheck"])
def test_refuses_a_job_larger_than_the_headroom(command, tmp_path, weights_path, monkeypatch,
                                                 capsys):
    # Each command's need at 128x128 exceeds a fake headroom of 1 MiB: it
    # exits 2 before any work, names both figures and writes nothing. Each
    # need is the library's peak estimate, a sixteenth more and 2.25 MiB; fuse's
    # peak is 3/2 of network.peak_bytes (9.7 MiB here), and gradcheck's counts
    # the three images it makes.
    g = np.random.default_rng(4)
    a, b = (write_image(tmp_path / f"{m}.pgm", smooth_image(g, 128)) for m in "ab")
    out = tmp_path / "out"
    argv, need = {
        "fuse": ([a, b, "--weights", weights_path, "-o", str(out)], "17.0 MiB"),
        "fuse-opt": ([a, b, "-o", str(out), "--trace", str(tmp_path / "trace.csv")], "4.1 MiB"),
        "metrics": ([a, b, a], "4.2 MiB"),
        "analyze-bands": ([a, b, a, "--out", str(out)], "2.8 MiB"),
        "gradcheck": (["--size", "128"], "4.1 MiB"),
    }[command]
    before = set(tmp_path.iterdir())
    monkeypatch.setattr(cli, "_headroom", lambda: 2**20)
    assert cli.main([command, *argv]) == 2
    captured = capsys.readouterr()
    assert f"needs about {need}, more than the 1.0 MiB this process can still" in captured.err
    assert captured.out == ""
    assert set(tmp_path.iterdir()) == before


def test_each_metrics_command_checks_its_own_estimate(tmp_path, monkeypatch, capsys):
    # A headroom of 3 MiB, between the band study's need (2.8 MiB) and
    # score's (4.2 MiB), lets analyze-bands run and still refuses metrics.
    g = np.random.default_rng(4)
    a, b = (write_image(tmp_path / f"{m}.pgm", smooth_image(g, 128)) for m in "ab")
    monkeypatch.setattr(cli, "_headroom", lambda: 3 * 2**20)
    out = tmp_path / "study.csv"
    assert cli.main(["analyze-bands", a, b, a, "--out", str(out)]) == 0
    assert out.read_text().startswith("band,src,ssim_low,ssim_high\n")
    assert cli.main(["metrics", a, b, a]) == 2
    captured = capsys.readouterr()
    assert "scoring 128x128 needs about 4.2 MiB, more than the 3.0 MiB this" in captured.err
    assert captured.out == ""


# Each command at two sizes; each child takes under about 2 s.
RSS_JOBS = [("fuse", 190, 250), ("fuse", 256, 256), ("fuse-opt", 64, 64), ("fuse-opt", 256, 256),
            ("metrics", 512, 512), ("metrics", 1024, 1024), ("analyze-bands", 256, 256),
            ("analyze-bands", 1024, 1024), ("gradcheck", 64, 64), ("gradcheck", 256, 256)]


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
@pytest.mark.parametrize("command, h, w", RSS_JOBS, ids=[f"{c}-{h}x{w}" for c, h, w in RSS_JOBS])
def test_rss_growth_stays_within_the_need(command, h, w, tmp_path):
    # Each command runs through cli.main in a fresh process on one BLAS
    # thread. A wrapper on the memory check notes the RSS there and the need
    # the check computed; the peak RSS from the check to exit (VmHWM, which
    # unlike ru_maxrss does not start at the RSS of the process that spawned
    # it) must not grow past that need.
    child = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from wavefuse import cli, losses\n"
        "def rss(key):\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return next(int(s.split()[1]) for s in fh if s.startswith(key)) * 1024\n"
        "check, seen = cli._check_memory, []\n"
        "def recorded(*args):\n"
        "    seen.append(rss('VmRSS:'))\n"
        "    seen.append(check(*args))\n"
        "    return seen[-1]\n"
        "cli._check_memory = recorded\n"
        "losses.GRADCHECK_SAMPLES = 2  # each finite difference reaches the same peak\n"
        "code = cli.main(sys.argv[2:])\n"
        "before, need = seen\n"
        "print(code, rss('VmHWM:') - before, need)\n"
    )
    g = np.random.default_rng(6)
    a, b, f = (write_image(tmp_path / f"{m}.pgm", g.uniform(0, 1, (h, w))) for m in "abf")
    wpath, cfg = tmp_path / "w.wfw", network.NetConfig()
    network.save_weights(network.init_weights(cfg, 0), cfg, wpath)
    argv = {
        "fuse": [a, b, "--weights", str(wpath), "-o", str(tmp_path / "out.pgm")],
        "fuse-opt": [a, b, "-o", str(tmp_path / "out.pgm"), "--iters", "5"],
        "metrics": [a, b, f],
        "analyze-bands": [a, b, f, "--out", str(tmp_path / "out.csv")],
        "gradcheck": ["--size", str(h)],
    }[command]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"), "1")}
    done = subprocess.run([sys.executable, "-c", child, src, command, *argv],
                          capture_output=True, text=True, check=True, timeout=120, env=env)
    code, grown, need = map(int, done.stdout.split()[-3:])  # after the command's own output
    assert code == 0, done.stderr
    assert 0 < grown <= need, (grown, need)


@pytest.mark.parametrize("command", ["fuse", "metrics"])
def test_memory_error_exit_2(command, images, weights_path, monkeypatch, capsys):
    # A job that passes the memory check can still run out: it exits 2 with
    # an error line, and writes no output.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 384. MiB")

    monkeypatch.setattr(network, "forward", out_of_memory)
    monkeypatch.setattr(metrics, "score", out_of_memory)
    a, b, tmp = images
    argv = {"fuse": ["--weights", weights_path, "-o", str(tmp / "out.pgm")], "metrics": [a]}
    before = set(tmp.iterdir())
    assert cli.main([command, a, b, *argv[command]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory: Unable to allocate")
    assert captured.out == ""
    assert set(tmp.iterdir()) == before


def test_package_error_exit_4(monkeypatch, capsys):
    # A package error that no input or file check names is an internal error.
    def broken(args):
        raise WavefuseError("invariant broken")

    monkeypatch.setattr(cli, "cmd_gradcheck", broken)
    assert cli.main(["gradcheck"]) == 4
    captured = capsys.readouterr()
    assert captured.err == "internal error: invariant broken\n"
    assert captured.out == ""


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


def test_readme_memory_figures_match_the_code(images, weights_path, monkeypatch):
    # Each memory figure README quotes is computed here from the code and
    # looked up, formatted, in README's text (line breaks read as spaces).
    text = " ".join(README.read_text().split())
    with monkeypatch.context() as m:
        m.setattr(cli, "_headroom", lambda: None)
        base = cli._check_memory("checking", (1, 1), 0)
        extra = Fraction(cli._check_memory("checking", (1, 1), 2**24) - base - 2**24, 2**24)
    # The peaks fuse and gradcheck pass to the rule, each refused before any work.
    peaks, check = [], cli._check_memory
    monkeypatch.setattr(cli, "_check_memory", lambda *args: peaks.append(args[2]) or check(*args))
    monkeypatch.setattr(cli, "_headroom", lambda: 1)
    a, b, tmp = images
    assert cli.main(["fuse", a, b, "--weights", weights_path, "-o", str(tmp / "f.pgm")]) == 2
    assert cli.main(["gradcheck", "--size", "32"]) == 2
    fuse_share = Fraction(peaks[0], network.peak_bytes(32, 32, network.load_weights(weights_path)[1]))
    check_px = peaks[1] / 32**2

    cfg = network.NetConfig()
    def net_px(h, w):
        return network.peak_bytes(h, w, cfg) / (h * w)
    # Unaligned inputs: bytes per pixel, and per pixel padded to 2 * window.
    side = 2 * cfg.window
    plain = (network.peak_bytes(side, side, cfg) - network.peak_bytes(side - 1, side, cfg)) / side
    padded = net_px(side, side) - plain
    opt_px = fusionopt.peak_bytes(64, 64) / 64**2
    n = 10**4  # the band study's bytes per pixel approach their large-image limit
    figures = [
        f"{net_px(256, 256):,.0f} B per pixel at the defaults",
        f"{plain:,.0f} B per pixel plus {padded:,.0f} B per pixel of its size padded to {side}",
        f"{plain:,.0f} B per pixel plus {padded:,.0f} B per padded pixel",
        f"{net_px(375, 500):,.0f} B per pixel at 375×500",
        f"{net_px(67, 50):,.0f} B at 67×50",
        f"The estimates are {fuse_share.limit_denominator(8)} of `network.peak_bytes` for `fuse`",
        f"plus {({Fraction(1, 16): 'a sixteenth'}).get(extra, extra)} of it",
        f"plus {base / 2**20:g} MiB for the library code",
        f"`fusionopt.peak_bytes` for `fuse-opt` ({opt_px:.0f} B per pixel",
        f"({opt_px / 8:.0f} images, {opt_px:.0f} B per pixel)",
        f"{metrics.peak_bytes(512, 512) / 512**2:.0f} B per pixel at 512²",
        f"about {metrics.study_peak_bytes(n, n) / n**2:.0f} B per pixel",
        f"({check_px / 8:.0f} images, {check_px:.0f} B per pixel, set by one finite difference",
    ]
    assert [f for f in figures if f not in text] == []
