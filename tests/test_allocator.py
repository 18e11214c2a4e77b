"""The allocator setting made at package import: it is a no-op where no C
library with mallopt loads, it never changes a result, and under glibc it
keeps the loss's image-sized temporaries from being faulted in again."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wavefuse

SRC = str(Path(wavefuse.__file__).resolve().parent.parent)

# argv: src, output .npz path, and "block" to make ctypes.CDLL raise first.
OUTPUTS = (
    "import ctypes, sys\n"
    "if sys.argv[3:] == ['block']:\n"
    "    def no_libc(*args, **kwargs):\n"
    "        raise OSError('no C library')\n"
    "    ctypes.CDLL = no_libc\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy as np\n"
    "import wavefuse\n"
    "from wavefuse import fusionopt, network as net\n"
    "rng = np.random.default_rng(3)\n"
    "a, b = rng.uniform(0, 1, (2, 48, 48))\n"
    "cfg = net.NetConfig()\n"
    "fused = net.forward(a, b, net.init_weights(cfg, 0), cfg)\n"
    "opt = fusionopt.optimize(a[:32, :32], b[:32, :32], fusionopt.OptConfig(max_iters=5))[0]\n"
    "np.savez(sys.argv[2], fused, opt)\n"
    "print(wavefuse._MALLOC_TUNED)\n"
)

# argv: src. Prints whether the setting took, then the minor faults of five
# 128² loss_total calls after a warm-up.
FAULTS = (
    "import resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy as np\n"
    "import wavefuse\n"
    "from wavefuse import losses\n"
    "f, a, b = np.random.default_rng(0).uniform(0, 1, (3, 128, 128))\n"
    "for _ in range(3):\n"
    "    losses.loss_total(f, a, b)\n"
    "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
    "for _ in range(5):\n"
    "    losses.loss_total(f, a, b)\n"
    "print(wavefuse._MALLOC_TUNED, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
)


class _Stub:
    """A C library whose mallopt returns 0, as musl's does."""

    @staticmethod
    def mallopt(param, value):
        return 0


def _fail(error):
    def cdll(name):
        raise error

    return cdll


@pytest.mark.parametrize(
    "cdll",
    [_fail(OSError("no C library")), lambda name: object(), _fail(TypeError("CDLL(None)")),
     lambda name: _Stub()],
    ids=["no-libc", "no-mallopt", "windows", "musl-stub"],
)
def test_setting_is_a_no_op_off_glibc(cdll, monkeypatch):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert wavefuse._keep_freed_blocks() is False


def test_import_without_mallopt_gives_the_same_bits(tmp_path):
    tuned, outputs = {}, {}
    for side in ("block", "normal"):
        out = tmp_path / f"{side}.npz"
        done = subprocess.run([sys.executable, "-c", OUTPUTS, SRC, out, side],
                              capture_output=True, text=True, check=True, timeout=120)
        tuned[side] = done.stdout.split()[-1]
        with np.load(out) as arrays:
            outputs[side] = [arrays[name].tobytes() for name in ("arr_0", "arr_1")]
    assert tuned["block"] == "False"
    assert outputs["block"] == outputs["normal"]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the setting needs glibc")
def test_loss_temporaries_are_not_faulted_in_again():
    # Without the setting, these five calls make about 5,500 minor faults.
    done = subprocess.run([sys.executable, "-c", FAULTS, SRC],
                          capture_output=True, text=True, check=True, timeout=120)
    tuned, faults = done.stdout.split()
    assert tuned == "True"
    assert int(faults) < 200
