"""Fuzzed file readers: every truncation and random byte flips of a valid
weights, .bands or PNM file either load or raise the reader's documented
error (FormatError, CLI exit 3; PnmParseError, CLI exit 2), never another
exception. Weights files get their CRC recomputed after each edit, so the
edits reach the parser behind the checksum."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefuse import network, wavelet
from wavefuse.errors import FormatError, PnmParseError
from wavefuse.imageio import load_pnm, save_pnm

CFG = network.NetConfig(channels=2, blocks=1, window=2, heads=2, reduction=1, cross_route="k")

# Each sample file's reader and the one error it may raise.
READERS = {
    "w.wfw": (network.load_weights, FormatError),
    "x.bands": (wavelet.load_bands, FormatError),
    "x.pgm": (load_pnm, PnmParseError),
    "x.ppm": (load_pnm, PnmParseError),
}


def _with_crc(body):
    return bytes(body) + struct.pack("<I", zlib.crc32(body))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """The bytes of one valid file per reader, and a scratch path to load from."""
    tmp = tmp_path_factory.mktemp("fuzz")
    g = np.random.default_rng(5)
    network.save_weights(network.init_weights(CFG, 0), CFG, tmp / "w.wfw")
    wavelet.save_bands(wavelet.dwt2(g.uniform(0, 1, (1, 1, 4, 6))), tmp / "x.bands")
    save_pnm(g.uniform(0, 1, (4, 5)), tmp / "x.pgm")
    save_pnm(g.uniform(0, 1, (3, 2, 3)), tmp / "x.ppm")
    data = {name: (tmp / name).read_bytes() for name in READERS}
    return data, tmp / "probe"


def _load(files, name, data):
    """Run the reader for `name` on `data`; return None or the documented error."""
    path = files[1]
    path.write_bytes(data)
    reader, error = READERS[name]
    try:
        reader(path)
    except error as exc:
        return exc
    return None


@pytest.mark.parametrize("name", READERS)
def test_every_truncation_is_rejected(files, name):
    whole = files[0][name]
    assert _load(files, name, whole) is None
    for n in range(len(whole)):
        assert _load(files, name, whole[:n]) is not None, n
    if name == "w.wfw":
        body = whole[:-4]
        for n in range(len(body)):
            assert _load(files, name, _with_crc(body[:n])) is not None, n


@pytest.mark.parametrize("name", READERS)
@settings(max_examples=300, deadline=None)
@given(flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                      min_size=1, max_size=2))
def test_byte_flips_load_or_raise_the_documented_error(files, name, flips):
    data = bytearray(files[0][name])
    if name == "w.wfw":
        data = data[:-4]
    for where, mask in flips:
        data[int(where * len(data))] ^= mask
    if name == "w.wfw":
        data = _with_crc(data)
    _load(files, name, bytes(data))


def _edit_record(whole, offset, fmt, value):
    body = bytearray(whole[:-4])
    struct.pack_into(fmt, body, offset, value)
    return _with_crc(body)


# Header offsets in a weights file: sizes at 8 + 4 * i (network.SIZES order),
# the route length at 32, the route at 33 and, for the 1-byte route "k", the
# tensor count at 34.
@pytest.mark.parametrize("offset, fmt, value, message", [
    (12, "<I", 2**32 - 1, "blocks"),
    (8, "<I", 2**32 - 1, "channels"),
    (16, "<I", 0, "window"),
    (20, "<I", 0, "heads"),
    (32, "<B", 255, "malformed"),
    (33, "<B", 0xFF, "utf-8"),
    (33, "<B", ord("q"), "cross_route"),
    (34, "<I", 2**32 - 1, "malformed"),
    (28, "<I", 2**32 - 1, "malformed"),  # mlp_ratio: the MLP's 2 * mlp_ratio rows pass u32
])
def test_crafted_records_raise_format_error(files, offset, fmt, value, message):
    exc = _load(files, "w.wfw", _edit_record(files[0]["w.wfw"], offset, fmt, value))
    assert exc is not None and message in str(exc)


def test_record_of_as_many_blocks_as_tensors(files):
    # Blocks no more than the tensors still bound the schema by the file's size.
    body = bytearray(files[0]["w.wfw"][:-4])
    for offset in (12, 34):  # blocks, and the tensor count after the route "k"
        struct.pack_into("<I", body, offset, 2**32 - 1)
    exc = _load(files, "w.wfw", _with_crc(body))
    assert "malformed weights file: 4294967295 blocks and 4294967295 tensors" in str(exc)


def test_shape_whose_size_overflows_int64(files):
    # 8 * (2**32 - 1) * (2**31 + 1) bytes wraps negative in int64 arithmetic.
    # The loader sizes nothing from the file's table: its tensor count is
    # already not CFG's.
    table = struct.pack("<IH", 1, 1) + b"x" + struct.pack("<B2I", 2, 2**32 - 1, 2**31 + 1)
    data = _with_crc(files[0]["w.wfw"][:34] + table + bytes(16))
    assert "schema at byte 34" in str(_load(files, "w.wfw", data))
