"""Dense (B, C, H, W) float64 kernels: convolution, softmax, layer norm over
the channel axis, and the elementwise activations.

All functions are deterministic, and none keeps a thread of its own: softmax's
row blocks, attention's window products and conv2d's row strips run in two
lanes once their work reaches 2**20 elements, the second on a thread started
and joined within the call, and every element is computed as on one lane, so
the lanes move no bit. BLAS's own threads can (a product's bits may depend on
how its columns split over them), so network.forward runs its BLAS calls on
one thread where it can set the count (numpy's bundled OpenBLAS;
_one_blas_thread), and then its bits do not depend on the CPU count or on
OPENBLAS_NUM_THREADS. Every kernel but softmax_rows leaves its inputs
unwritten; softmax_rows normalises a contiguous float64 argument in place (its
one caller passes logits it owns). The canonical carrier is a contiguous numpy
float64 array in (batch, channel, height, width) order, and conv2d computes in
it too.
"""

import contextlib
import glob
import math
import os
import threading

import numpy as np
from numpy.lib.stride_tricks import as_strided

_BLOCK = 1 << 18  # elements per softmax block: 2 MiB, about one core's L2 cache
_SPLIT = 1 << 20  # elements from which a kernel runs in two lanes
_STRIP = 1 << 17  # elements of conv2d's column buffer per strip: 1 MiB


def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    wheels bundle, found by symbol, or None: without ctypes, without such a
    library (another BLAS, or a numpy built without one), or when a library
    does not load, nothing is found."""
    try:
        import ctypes

        libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
        for path in glob.glob(os.path.join(libs, "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                         "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
                get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
                if get and put:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    return get, put
    except (ImportError, OSError):
        pass
    return None


_BLAS_THREADS = _openblas_threads()
_BLAS_LOCK = threading.Lock()
_blas_scope = {"depth": 0, "count": 1}  # callers inside _one_blas_thread, and the count before


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with BLAS on one thread, and give back the thread count
    it had before, also when the block raises. The count is the process's, so
    scopes may nest or overlap on several threads: the first to enter saves
    it and the last to leave restores it. Where _BLAS_THREADS is None, the
    block runs on whatever BLAS threads there are."""
    if _BLAS_THREADS is None:
        yield
        return
    get, put = _BLAS_THREADS
    with _BLAS_LOCK:
        if not _blas_scope["depth"]:
            _blas_scope["count"] = get()
            put(1)
        _blas_scope["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _blas_scope["depth"] -= 1
            if not _blas_scope["depth"]:
                put(_blas_scope["count"])


def _lanes(fn, n, size):
    """Run fn(lo, hi) over [0, n), in two lanes when the work is large.

    When size (the elements the work touches) is at least _SPLIT and this
    process may run on two or more CPUs, fn(n // 2, n) runs on a thread
    started and joined here while this thread runs fn(0, n // 2), and the
    worker's exception is raised here; otherwise fn(0, n) is one plain call.
    Three kernels use it: softmax_rows over its blocks, attention over its
    windows and conv2d over its row strips. fn must not call a public
    function: a tracer wrapped around those keeps one span stack, which only
    the caller's thread may touch.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if size < _SPLIT or n < 2 or cpus < 2:
        fn(0, n)
        return
    errors = []

    def second():
        try:
            fn(n // 2, n)
        except BaseException as e:  # re-raised on the caller's thread
            errors.append(e)

    worker = threading.Thread(target=second)
    worker.start()
    try:
        fn(0, n // 2)
    finally:
        worker.join()
    if errors:
        raise errors[0]


def conv2d(x, kernel, bias):
    """Cross-correlation with zero padding of a float64 (B, Cin, H, W) tensor.
    kernel is (Cout, Cin, k, k), k odd, and bias (Cout,); the (k-1)//2 padding
    preserves the spatial size. Shapes are the caller's to match (forward's
    weight schema does), so none is checked here."""
    cout, cin, k, _ = kernel.shape
    b, _, h, w = x.shape
    pad = (k - 1) // 2
    wp = w + 2 * pad
    # Each zero-padded channel plane, with one extra zero row, flattened over
    # (row, column), so that tap (u, v) of a strip starting at row `top` reads
    # the contiguous slice at (top + u) * wp + v. Per image, each strip of
    # rows copies its Cin * k * k slices (a strided view of the plane) into one
    # column buffer of about _STRIP elements, in the kernel's own (Cin, k, k)
    # order, and one (Cout, Cin * k * k) product writes the strip's output.
    # The strips do not depend on B, so an image's bits do not depend on its
    # batch. The wp - w wrap-around columns of each output row are cropped.
    xp = np.zeros((b, cin, h + 2 * pad + 1, wp))
    xp[:, :, pad : pad + h, pad : pad + w] = x
    flat = xp.reshape(b, cin, -1)
    taps = cin * k * k
    kmat = kernel.reshape(cout, taps)
    # A strip holds a multiple of 8 columns where it can. OpenBLAS's kernels
    # (SkylakeX, Haswell, Zen, Nehalem) give a product other bits on two
    # threads than on one when its column count is not a multiple of 8, so
    # where the thread count cannot be set (_one_blas_thread), the strips keep
    # their bits whenever one product over all h * wp columns would.
    group = 8 // math.gcd(wp, 8)
    rows = min(h, max(group, _STRIP // (taps * wp) // group * group))
    per = -(-h // rows)  # strips per image
    out = np.empty((b, cout, h * wp))
    step = (flat.strides[1], 8 * wp, 8, 8)  # a strip's (Cin, k, k, column) taps in flat

    def strips(lo, hi):
        col = np.empty((cin, k, k, rows * wp))
        for i in range(lo, hi):
            j, top = divmod(i, per)
            top *= rows
            n = min(rows, h - top) * wp
            col[..., :n] = as_strided(flat[j, :, top * wp :], (cin, k, k, n), step, writeable=False)
            np.matmul(kmat, col[..., :n].reshape(taps, n), out=out[j, :, top * wp : top * wp + n])

    _lanes(strips, b * per, b * taps * h * wp)
    return out.reshape(b, cout, h, wp)[:, :, :, :w] + bias[:, None, None]


def softmax_rows(m):
    """Row-wise softmax over the last axis, one cache-sized block at a time.

    A C-contiguous float64 `m` is overwritten with its softmax and returned;
    any other input is converted to such a copy first, which is returned.
    The rows go in blocks of about _BLOCK elements, so each block's passes
    hit cache and the logits are read and written once; large inputs split
    the blocks over two lanes (_lanes). In each block, when every logit lies
    in (-700, 700 - ln n), n the row length, each exp is a normal float and
    each row sum finite and at least e^-700, so the logits are exponentiated
    as they are; otherwise each row's max is subtracted first. A block's row
    sums are one matrix-vector product, and each row is scaled by its sum's
    reciprocal.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    n = m.shape[-1]
    rows = m.reshape(-1, n)
    if not rows.size:
        return m
    # Blocks of a multiple of 8 rows: BLAS groups the row sums of the gemv by
    # 4 rows, as on the whole array, so blocking leaves every bit as it was.
    step = max(8, _BLOCK // n // 8 * 8)
    top, ones = 700.0 - math.log(n), np.ones(n)

    def blocks(lo, hi):
        for i in range(lo * step, min(hi * step, len(rows)), step):
            r = rows[i : i + step]
            if not (r.min() > -700.0 and r.max() < top):
                r -= r.max(axis=-1, keepdims=True)
            np.exp(r, out=r)
            s = r @ ones
            np.reciprocal(s, out=s)
            r *= s[:, None]

    _lanes(blocks, -(-len(rows) // step), rows.size)
    return m


def layer_norm(x, gain, shift, eps=1e-5):
    """Normalize the channel vector (axis 1) at every pixel of a (B, C, H, W)
    tensor to zero mean / unit variance, then apply the per-channel affine
    (gain, shift), each of shape (C,)."""
    # The same subtract, square, sum and divide as np.var, with the mean
    # subtracted once and the rest done in place.
    d = x - x.mean(axis=1, keepdims=True)
    var = np.square(d).sum(axis=1, keepdims=True) / x.shape[1]
    d /= np.sqrt(var + eps)
    d *= gain[:, None, None]
    d += shift[:, None, None]
    return d


def leaky_relu(x, slope):
    """max(x, slope * x), written into the slope * x temporary."""
    t = np.multiply(slope, x, out=np.empty(np.shape(x)))
    return np.maximum(x, t, out=t)


def sigmoid(x):
    """1 / (1 + e^-x), computed from e = e^-|x| so that no exp overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
