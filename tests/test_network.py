import os
import re
import struct
import subprocess
import sys
import tracemalloc
import zlib
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_wfw, zero_weights
from oracles import enhance_block_naive, forward_naive, wfw_bytes
from wavefuse.errors import FormatError, ShapeError
from wavefuse import network as net
from wavefuse import tensor as T


SMALL = net.NetConfig(channels=8, blocks=2, window=4, heads=2, reduction=2)
CONFIGS = [
    SMALL,
    replace(SMALL, blocks=3, mlp_ratio=3, cross_route="k"),
    net.NetConfig(channels=12, blocks=1, window=2, heads=3, reduction=3, mlp_ratio=1),
]
# (name, shape): SMALL's init weights with that tensor deleted (shape None) or
# replaced by zeros of that shape, so they are no network of SMALL.
NO_NETWORK = [
    ("fe1.1.weight", None),
    ("block0.s1.cbam.ca_w1", None),
    ("block0.s1.cbam.ca_w1", (0, 8)),
    ("block0.s1.cbam.ca_w1", (3, 8)),
    ("block0.s1.cbam.ca_w1", (16, 8)),
    ("block0.s1.mlp.w1", (4, 8)),
    ("block0.s1.mlp.w1", (20, 8)),
    ("block1.s2.mlp.w1", (24, 8)),
    ("block3.s1.ln1.gain", (8,)),
]


def edited(name, tensor):
    """SMALL's seed-0 init weights with name deleted (tensor None) or set to tensor."""
    w = net.init_weights(SMALL, 0)
    if tensor is None:
        del w[name]
    else:
        w[name] = tensor
    return w


class TestConfigAndSchema:
    def test_bad_divisibility(self):
        with pytest.raises(ShapeError):
            net.NetConfig(channels=10, heads=4)
        with pytest.raises(ShapeError):
            net.NetConfig(channels=10, heads=2, reduction=4)

    @pytest.mark.parametrize("size", [0, -1])
    @pytest.mark.parametrize(
        "field", ["channels", "blocks", "window", "heads", "reduction", "mlp_ratio"]
    )
    def test_sizes_below_one(self, field, size):
        with pytest.raises(ShapeError, match=field):
            net.NetConfig(**{field: size})

    def test_bad_route(self):
        with pytest.raises(ValueError):
            net.NetConfig(cross_route="vk")

    def test_schema_counts(self):
        schema = net.weight_schema(SMALL)
        # 2 branches * 3 layers * 2 tensors = 12 extractor entries,
        # 2 blocks * 2 streams * 20 tensors = 80, head 3 layers * 2 = 6.
        assert len(schema) == 12 + 80 + 6
        assert schema["fe1.1.weight"] == (8, 1, 3, 3)
        assert schema["fuse.1.weight"] == (8, 16, 3, 3)
        assert schema["block0.s2.mlp.w1"] == (16, 8)

    def test_validate_missing_and_unknown(self):
        w = net.init_weights(SMALL, 0)
        extra = dict(w)
        extra["bogus"] = np.zeros(3)
        with pytest.raises(FormatError, match="bogus"):
            net.validate_weights(extra, SMALL)
        short = dict(w)
        del short["fe1.1.bias"]
        with pytest.raises(FormatError, match="fe1.1.bias"):
            net.validate_weights(short, SMALL)

    def test_validate_wrong_shape(self):
        w = net.init_weights(SMALL, 0)
        w["fe1.1.bias"] = np.zeros(7)
        with pytest.raises(FormatError, match="fe1.1.bias"):
            net.validate_weights(w, SMALL)


class TestConfigFromWeights:
    """load_weights returns the NetConfig a file records, checked against its tensors."""

    @pytest.mark.parametrize("cfg", CONFIGS)
    def test_file_records_every_field(self, cfg, tmp_path):
        path = tmp_path / "w.wfw"
        net.save_weights(net.init_weights(cfg, 0), cfg, path)
        assert net.load_weights(path)[1] == cfg

    @pytest.mark.parametrize("name, shape", NO_NETWORK)
    def test_weights_that_are_no_network(self, name, shape, tmp_path):
        w = edited(name, None if shape is None else np.zeros(shape))
        path = write_wfw(tmp_path / "w.wfw", w, SMALL)
        with pytest.raises(FormatError):
            net.load_weights(path)

    def test_heads_must_divide_the_file_channels(self, tmp_path):
        path = write_wfw(tmp_path / "w.wfw", net.init_weights(SMALL, 0), SMALL, heads=3)
        with pytest.raises(FormatError, match="heads"):
            net.load_weights(path)


class TestInit:
    def test_seed_determinism(self):
        a = net.init_weights(SMALL, 3)
        b = net.init_weights(SMALL, 3)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_seeds_differ(self):
        a = net.init_weights(SMALL, 3)
        b = net.init_weights(SMALL, 4)
        assert not np.array_equal(a["fe1.1.weight"], b["fe1.1.weight"])

    def test_gains_one_biases_zero(self):
        w = net.init_weights(SMALL, 0)
        assert np.array_equal(w["block0.s1.ln1.gain"], np.ones(8))
        assert np.abs(w["fe2.3.bias"]).max() == 0.0
        assert np.abs(w["block1.s2.mlp.b1"]).max() == 0.0

    def test_fan_in_bound(self):
        w = net.init_weights(SMALL, 0)
        bound = 1.0 / np.sqrt(8 * 9)
        assert np.abs(w["fe1.2.weight"]).max() <= bound


class TestFeatureExtract:
    def test_zero_weights_zero_features(self, rng):
        w = zero_weights(SMALL)
        img = rng.uniform(0, 1, (1, 1, 8, 8))
        out = net.feature_extract(img, w, 1)
        assert out.shape == (1, 8, 8, 8)
        assert np.abs(out).max() == 0.0

    def test_bias_propagates(self, rng):
        w = zero_weights(SMALL)
        w["fe1.3.bias"] = np.full(8, -2.0)
        out = net.feature_extract(rng.uniform(0, 1, (1, 1, 4, 4)), w, 1)
        # final leaky(0.1) maps -2 to -0.2 everywhere
        assert np.allclose(out, -0.2)


class TestEnhanceBlock:
    def test_zero_weights_exact_identity(self, rng):
        w = zero_weights(SMALL)
        f1 = rng.standard_normal((1, 8, 8, 8))
        f2 = rng.standard_normal((1, 8, 8, 8))
        o1, o2 = net.enhance_block(f1, f2, 0, w, SMALL)
        assert np.abs(o1 - f1).max() == 0.0
        assert np.abs(o2 - f2).max() == 0.0

    def test_zero_weights_identity_odd_size(self, rng):
        w = zero_weights(SMALL)
        f1 = rng.standard_normal((1, 8, 11, 13))
        f2 = rng.standard_normal((1, 8, 11, 13))
        o1, o2 = net.enhance_block(f1, f2, 1, w, SMALL)
        assert np.abs(o1 - f1).max() == 0.0
        assert np.abs(o2 - f2).max() == 0.0

    def test_shape_preserved(self, rng):
        w = net.init_weights(SMALL, 0)
        f1 = rng.standard_normal((1, 8, 10, 14))
        f2 = rng.standard_normal((1, 8, 10, 14))
        o1, o2 = net.enhance_block(f1, f2, 0, w, SMALL)
        assert o1.shape == f1.shape and o2.shape == f2.shape

    def test_matches_loop_oracle(self, rng):
        # block 1 uses shifted windows; 13x9 goes through mirror-pad and crop.
        # Random layer-norm affines and MLP biases check their broadcasting,
        # and batch 2 the channel matmul over a batch.
        w = net.init_weights(SMALL, 0)
        for name in w:
            if name.endswith((".gain", ".shift", ".b1", ".b2")):
                w[name] = rng.standard_normal(w[name].shape)
        for batch in (1, 2):
            f1 = rng.standard_normal((batch, 8, 13, 9))
            f2 = rng.standard_normal((batch, 8, 13, 9))
            got = net.enhance_block(f1, f2, 1, w, SMALL)
            want = enhance_block_naive(f1, f2, 1, w, SMALL)
            for g, o in zip(got, want):
                assert np.abs(g - o).max() <= 1e-12, batch

    def test_mirror_pad_and_crop(self, rng):
        # an unaligned block equals the block on its mirror-padded input, cropped
        cfg = replace(SMALL, blocks=4)
        w = net.init_weights(cfg, 0)
        f1, f2 = rng.standard_normal((2, 1, 8, 13, 9))
        mult = 2 * cfg.window
        pad = ((0, 0), (0, 0), (0, -13 % mult), (0, -9 % mult))
        p1, p2 = (np.pad(f, pad, mode="symmetric") for f in (f1, f2))
        for i in range(cfg.blocks):
            got = net.enhance_block(f1, f2, i, w, cfg)
            want = net.enhance_block(p1, p2, i, w, cfg)
            for g, o in zip(got, want):
                assert np.array_equal(g, o[..., :13, :9])

    def test_window_shift_parity(self, rng):
        # even blocks use unshifted windows and odd blocks shifted ones, so a
        # block's output depends on its weights and the parity of its index
        cfg = replace(SMALL, blocks=4)
        w = net.init_weights(cfg, 0)

        def copy_block(src, dst):
            for name in [n for n in w if n.startswith(f"block{src}.")]:
                w[f"block{dst}" + name[len(f"block{src}"):]] = w[name]

        copy_block(0, 2)
        copy_block(1, 3)
        f1, f2 = rng.standard_normal((2, 1, 8, 13, 9))
        outs = [net.enhance_block(f1, f2, i, w, cfg) for i in range(4)]
        for i in (0, 1):
            assert all(np.array_equal(a, b) for a, b in zip(outs[i], outs[i + 2]))
        copy_block(0, 1)
        shifted = net.enhance_block(f1, f2, 1, w, cfg)
        assert all(not np.array_equal(a, b) for a, b in zip(outs[0], shifted))

    def test_stream_symmetry(self, rng):
        # equal per-stream weights + identical inputs -> identical outputs
        w = net.init_weights(SMALL, 0)
        for name in list(w):
            if ".s2." in name:
                w[name] = w[name.replace(".s2.", ".s1.")].copy()
        f = rng.standard_normal((1, 8, 8, 8))
        o1, o2 = net.enhance_block(f, f.copy(), 0, w, SMALL)
        assert np.array_equal(o1, o2)


NEEDS_TWO_CPUS = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs CPU affinity and at least two usable CPUs",
)
NEEDS_BLAS_SETTER = pytest.mark.skipif(
    T._BLAS_THREADS is None, reason="needs numpy's bundled OpenBLAS"
)


def _assert_lanes_alone_keep_the_bits(tmp_path, *sizes):
    # forward runs BLAS on one thread whatever the setting, so three children
    # differ only in the lanes of softmax_rows, mhsa and conv2d: with every
    # CPU and no BLAS setting, with OPENBLAS_NUM_THREADS=1, and pinned to one
    # CPU. The first two must start lane threads, the third none, and every
    # output must agree bit for bit.
    child = (
        "import os, sys, threading\n"
        "if sys.argv[2] == 'one':\n"
        "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import numpy as np\n"
        "from wavefuse import network as net\n"
        "starts, start = [], threading.Thread.start\n"
        "threading.Thread.start = lambda t: starts.append(t) or start(t)\n"
        "cfg, outs = net.NetConfig(), []\n"
        "for h, wd in zip(map(int, sys.argv[4::2]), map(int, sys.argv[5::2])):\n"
        "    a, b = np.random.default_rng(0).uniform(0, 1, (2, h, wd))\n"
        "    outs.append(net.forward(a, b, net.init_weights(cfg, 0), cfg))\n"
        "np.savez(sys.argv[3], *outs)\n"
        "print(len(starts))\n"
    )
    pins = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    unset = {k: v for k, v in os.environ.items() if k not in pins}
    runs = {"all": unset, "blas1": {**unset, "OPENBLAS_NUM_THREADS": "1"}, "one": unset}
    src = str(Path(net.__file__).resolve().parent.parent)
    lanes, outputs = {}, {}
    for name, env in runs.items():
        out = tmp_path / f"{name}.npz"
        done = subprocess.run(
            [sys.executable, "-c", child, src, name, out, *(str(n) for hw in sizes for n in hw)],
            env=env, check=True, timeout=120, capture_output=True, text=True,
        )
        lanes[name] = int(done.stdout)
        with np.load(out) as arrays:
            outputs[name] = [arrays[f"arr_{i}"] for i in range(len(sizes))]
    assert lanes["one"] == 0 < min(lanes["all"], lanes["blas1"])
    for name in ("blas1", "one"):
        assert all(np.array_equal(x, y) for x, y in zip(outputs["all"], outputs[name])), name


class TestForward:
    def test_output_shape_and_range(self, rng):
        w = net.init_weights(SMALL, 0)
        a = rng.uniform(0, 1, (13, 9))
        b = rng.uniform(0, 1, (13, 9))
        out = net.forward(a, b, w, SMALL)
        assert out.shape == (13, 9)
        assert np.isfinite(out).all()
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_output_clamped_to_unit_range(self, rng):
        # zero weights make the fused image the head's last bias everywhere
        a, b = rng.uniform(0, 1, (2, 9, 11))
        w = zero_weights(SMALL)
        for bias, want in ((1.3, 1.0), (-0.2, 0.0), (0.4, 0.4)):
            w["fuse.3.bias"] = np.full(1, bias)
            assert np.array_equal(net.forward(a, b, w, SMALL), np.full((9, 11), want))

    def test_deterministic(self, rng):
        w = net.init_weights(SMALL, 1)
        a = rng.uniform(0, 1, (16, 16))
        b = rng.uniform(0, 1, (16, 16))
        assert np.array_equal(net.forward(a, b, w, SMALL), net.forward(a, b, w, SMALL))

    def test_modality_swap_symmetry(self, rng):
        # Swapping the inputs equals swapping the streams' weights: fe1<->fe2,
        # .s1.<->.s2., and the two input-channel halves of the fusion head.
        pairs = {"fe1.": "fe2.", "fe2.": "fe1.", ".s1.": ".s2.", ".s2.": ".s1."}

        def swapped_name(name):
            for old, new in pairs.items():
                if old in name:
                    return name.replace(old, new)
            return name

        w = net.init_weights(SMALL, 0)
        sw = {swapped_name(name): value for name, value in w.items()}
        k, c = w["fuse.1.weight"], SMALL.channels
        sw["fuse.1.weight"] = np.concatenate([k[:, c:], k[:, :c]], axis=1)
        for route in ("qv", "k"):
            cfg = replace(SMALL, cross_route=route)
            for h, wd in ((13, 9), (33, 17)):
                a = rng.uniform(0, 1, (h, wd))
                b = rng.uniform(0, 1, (h, wd))
                dev = np.abs(net.forward(a, b, w, cfg) - net.forward(b, a, sw, cfg)).max()
                assert dev <= 1e-12, (route, h, wd, dev)

    def test_matches_loop_oracle(self, rng):
        w = net.init_weights(SMALL, 0)
        a = rng.uniform(0, 1, (13, 9))
        b = rng.uniform(0, 1, (13, 9))
        got = net.forward(a, b, w, SMALL)
        assert np.abs(got - forward_naive(a, b, w, SMALL)).max() <= 1e-12

    def test_rejects_weights_that_do_not_match_cfg(self, rng):
        # forward is the one place the weights are checked against the config;
        # the layers it drives trust them.
        a, b = rng.uniform(0, 1, (2, 16, 16))
        transposed = net.init_weights(SMALL, 0)
        transposed["block0.s1.cbam.ca_w1"] = transposed["block0.s1.cbam.ca_w1"].T
        missing = net.init_weights(SMALL, 0)
        del missing["block0.s2.attn.high.wq"]
        cases = [
            (transposed, SMALL, "block0.s1.cbam.ca_w1"),
            (missing, SMALL, "block0.s2.attn.high.wq"),
            (net.init_weights(SMALL, 0), net.NetConfig(), "missing"),
        ]
        for weights, cfg, match in cases:
            with pytest.raises(FormatError, match=match):
                net.forward(a, b, weights, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["fuse.3.bias", "block1.s2.attn.low.wk"])
    def test_rejects_non_finite_weights(self, rng, name, value):
        a, b = rng.uniform(0, 1, (2, 16, 16))
        w = net.init_weights(SMALL, 0)
        w[name].flat[-1] = value
        with pytest.raises(FormatError, match=rf"{re.escape(name)} has non-finite"):
            net.forward(a, b, w, SMALL)

    @staticmethod
    def traced_peak(a, b, w, cfg):
        tracemalloc.start()
        try:
            net.forward(a, b, w, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_memory_64(self, rng):
        cfg = net.NetConfig()
        a, b = rng.uniform(0, 1, (2, 64, 64))
        assert self.traced_peak(a, b, net.init_weights(cfg, 0), cfg) < 10 * 2**20

    @pytest.mark.parametrize("h, wd, cfg", [
        (64, 64, net.NetConfig()),
        (256, 256, net.NetConfig()),
        (100, 75, net.NetConfig()),
        # a wide MLP moves the peak from the attention to the MLP
        (100, 75, net.NetConfig(mlp_ratio=8, heads=1, window=4)),
        (64, 64, net.NetConfig(mlp_ratio=8)),
        # pads to 80 x 64 and sets the peak of the benchmark's 24 unaligned pairs
        (67, 50, net.NetConfig()),
    ])
    def test_peak_bytes_matches_traced_peak(self, rng, h, wd, cfg):
        a, b = rng.uniform(0, 1, (2, h, wd))
        peak = self.traced_peak(a, b, net.init_weights(cfg, 0), cfg)
        assert abs(net.peak_bytes(h, wd, cfg) / peak - 1.0) <= 0.15
        if cfg == net.NetConfig():
            # BENCHMARK.json bounds the forward's peak_mib at 5 % above the
            # commit before; the default config's peak_bytes is held to it.
            assert peak <= 1.05 * net.peak_bytes(h, wd, cfg)

    @NEEDS_TWO_CPUS
    @NEEDS_BLAS_SETTER
    def test_same_output_on_one_cpu(self, tmp_path):
        # 128^2's 64 low-band windows hold 2^20 logits, at the lanes' gate.
        _assert_lanes_alone_keep_the_bits(tmp_path, (128, 128))

    @NEEDS_TWO_CPUS
    @NEEDS_BLAS_SETTER
    def test_lanes_alone_keep_the_bits(self, tmp_path):
        # 75 x 79 pads to 80^2, whose 75 high-band windows hold 1,228,800
        # logits, past the lanes' gate. Without forward's one BLAS thread, a
        # forward on either pair differs between BLAS on two threads and one.
        _assert_lanes_alone_keep_the_bits(tmp_path, (75, 79), (190, 256))

    @NEEDS_BLAS_SETTER
    def test_blas_thread_count_is_given_back(self, monkeypatch):
        get, put = T._BLAS_THREADS
        before = get()
        w, a = net.init_weights(SMALL, 0), np.full((8, 8), 0.5)
        seen, leaky = [], T.leaky_relu

        def spy(x, slope):
            seen.append(get())
            return leaky(x, slope)

        def fail(x, slope):
            raise RuntimeError("inside the scope")

        try:
            put(before + 1)
            count = get()
            assert count != 1
            monkeypatch.setattr(T, "leaky_relu", spy)
            net.forward(a, a, w, SMALL)
            assert seen and set(seen) == {1}
            assert get() == count
            monkeypatch.setattr(T, "leaky_relu", fail)
            with pytest.raises(RuntimeError, match="inside the scope"):
                net.forward(a, a, w, SMALL)
            assert get() == count
        finally:
            put(before)

    def test_size_mismatch(self, rng):
        w = net.init_weights(SMALL, 0)
        with pytest.raises(ShapeError):
            net.forward(rng.uniform(0, 1, (8, 8)), rng.uniform(0, 1, (8, 9)), w, SMALL)


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        w = net.init_weights(SMALL, 7)
        path = tmp_path / "w.wfw"
        net.save_weights(w, SMALL, path)
        back, cfg = net.load_weights(path)
        assert cfg == SMALL
        assert set(back) == set(w)
        for name in w:
            assert np.array_equal(back[name], w[name])
            assert back[name].dtype == np.float64

    def test_file_bytes(self, tmp_path):
        # README's layout, packed field by field: magic, version, the record,
        # the count, the name/shape table, the payloads in name order, the CRC.
        cfg = net.NetConfig(channels=2, blocks=1, window=2, heads=2, reduction=1, cross_route="k")
        w = net.init_weights(cfg, 0)
        names = sorted(w)
        want = b"WFW1" + struct.pack("<I6IB", 2, 2, 1, 2, 2, 1, 2, 1) + b"k"
        want += struct.pack("<I", len(names))
        for name in names:
            shape = w[name].shape
            want += struct.pack("<H", len(name)) + name.encode("utf-8")
            want += struct.pack(f"<B{len(shape)}I", len(shape), *shape)
        for name in names:
            want += w[name].astype("<f8").tobytes()
        want += struct.pack("<I", zlib.crc32(want))
        path = tmp_path / "w.wfw"
        net.save_weights(w, cfg, path)
        assert path.read_bytes() == want

    @pytest.mark.parametrize("cfg", [*CONFIGS, net.NetConfig()])
    def test_oracle_writer_gives_the_same_bytes(self, cfg, tmp_path):
        w = net.init_weights(cfg, 0)
        path = tmp_path / "w.wfw"
        net.save_weights(w, cfg, path)
        assert path.read_bytes() == wfw_bytes(astuple(cfg)[:6], cfg.cross_route, w)

    @pytest.mark.parametrize("name, tensor", [
        *(pytest.param(name, None if shape is None else np.zeros(shape), id=f"{name}={shape}")
          for name, shape in NO_NETWORK),
        pytest.param("fuse.3.bias", np.zeros(3), id="fuse.3.bias=(3,)"),
        *(pytest.param("fuse.3.bias", np.full(1, value), id=f"fuse.3.bias={value}")
          for value in (np.nan, np.inf, -np.inf)),
    ])
    @pytest.mark.parametrize("exists", [False, True], ids=["absent", "existing"])
    def test_save_refuses_what_load_refuses(self, tmp_path, name, tensor, exists):
        # A missing, extra, mis-shaped or non-finite tensor is refused before
        # the path is opened, so the file is left as it was.
        path = tmp_path / "w.wfw"
        if exists:
            net.save_weights(net.init_weights(SMALL, 1), SMALL, path)
        before = path.read_bytes() if exists else None
        with pytest.raises(FormatError, match=re.escape(name)):
            net.save_weights(edited(name, tensor), SMALL, path)
        assert (path.read_bytes() if path.exists() else None) == before

    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 2),
        heads=st.integers(1, 3),
        reduction=st.integers(1, 3),
        blocks=st.integers(1, 2),
        window=st.integers(1, 4),
        mlp_ratio=st.integers(1, 3),
        route=st.sampled_from(["qv", "k"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_over_configs(self, tmp_path_factory, k, heads, reduction, blocks, window,
                                    mlp_ratio, route, seed):
        channels = k * heads * reduction
        cfg = net.NetConfig(channels, blocks, window, heads, reduction, mlp_ratio, route)
        g = np.random.default_rng(seed)
        w = {n: g.standard_normal(s) for n, s in net.weight_schema(cfg).items()}
        path = tmp_path_factory.mktemp("roundtrip") / "w.wfw"
        net.save_weights(w, cfg, path)
        back, got = net.load_weights(path)
        assert got == cfg
        assert back.keys() == w.keys()
        assert all(np.array_equal(back[n], w[n]) and back[n].dtype == np.float64 for n in w)
        again = path.with_name("again.wfw")
        net.save_weights(back, got, again)
        assert again.read_bytes() == path.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "w.wfw"
        net.save_weights(zero_weights(SMALL), SMALL, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            net.load_weights(path)

    def test_crc_corruption(self, tmp_path):
        path = tmp_path / "w.wfw"
        net.save_weights(net.init_weights(SMALL, 0), SMALL, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="CRC"):
            net.load_weights(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "w.wfw"
        path.write_bytes(b"WFW1\x01\x00")
        with pytest.raises(FormatError, match="truncated"):
            net.load_weights(path)

    def test_bad_version(self, tmp_path):
        body = b"WFW1" + struct.pack("<II", 9, 0)
        body += struct.pack("<I", zlib.crc32(body))
        path = tmp_path / "w.wfw"
        path.write_bytes(body)
        with pytest.raises(FormatError, match="version"):
            net.load_weights(path)

    def test_loaded_weights_drive_forward(self, tmp_path, rng):
        w = net.init_weights(SMALL, 2)
        a = rng.uniform(0, 1, (8, 8))
        b = rng.uniform(0, 1, (8, 8))
        want = net.forward(a, b, w, SMALL)
        path = tmp_path / "w.wfw"
        net.save_weights(w, SMALL, path)
        got = net.forward(a, b, *net.load_weights(path))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, value):
        # The CRC is valid: the file holds exactly what was written.
        path = write_wfw(tmp_path / "w.wfw", edited("fuse.3.bias", np.full(1, value)), SMALL)
        with pytest.raises(FormatError, match=r"fuse\.3\.bias has non-finite"):
            net.load_weights(path)

    @staticmethod
    def resealed(path, body):
        """Write body with its CRC, so that a check after the CRC's fires."""
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        return path

    def test_trailing_bytes_after_payloads(self, tmp_path):
        path = tmp_path / "w.wfw"
        w = net.init_weights(SMALL, 0)
        net.save_weights(w, SMALL, path)
        self.resealed(path, path.read_bytes()[:-4] + b"\x00" * 8)
        n = sum(arr.nbytes for arr in w.values())
        with pytest.raises(FormatError, match=f"{n + 8} payload bytes, expected {n}"):
            net.load_weights(path)

    def test_table_that_names_one_tensor_twice(self, tmp_path):
        path = write_wfw(tmp_path / "w.wfw", {"x": np.zeros(1), "y": np.ones(1)}, SMALL)
        self.resealed(path, path.read_bytes()[:-4].replace(b"\x01\x00y", b"\x01\x00x"))
        # The tensor count (2, where SMALL's schema has 98) is the first byte that differs.
        with pytest.raises(FormatError, match="schema at byte 35: re-create the file"):
            net.load_weights(path)

    def test_record_that_claims_as_many_blocks_as_the_file_allows(self, tmp_path):
        # A default-config file whose record says blocks = tensors = len // 11
        # passes the size bound; its schema would hold 40 tensors per block.
        path = tmp_path / "w.wfw"
        net.save_weights(net.init_weights(net.NetConfig(), 0), net.NetConfig(), path)
        body = bytearray(path.read_bytes()[:-4])
        for offset in (12, 35):  # blocks, and the tensor count after the route "qv"
            struct.pack_into("<I", body, offset, len(body) // 11)
        self.resealed(path, bytes(body))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="schema at byte 35"):
                net.load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_name_that_is_no_utf8(self, tmp_path):
        path = write_wfw(tmp_path / "w.wfw", {"\u00e9": np.zeros(1)}, SMALL)
        body = path.read_bytes()[:-4].replace("\u00e9".encode(), b"\xff\xfe")
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        # One tensor cannot hold SMALL's two blocks: the loader reads no name.
        with pytest.raises(FormatError, match="malformed weights file: 2 blocks and 1 tensors"):
            net.load_weights(path)
