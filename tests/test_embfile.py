import os
import stat
import struct
import threading
import types

import numpy as np
import pytest

import gaplab as gl

from conftest import traced_peak


def test_round_trip_is_float32_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 5)) * 3.0
    path = tmp_path / "plain.emb"
    gl.write_embeddings(path, m)
    back, labels = gl.read_embeddings(path)
    assert labels is None
    assert back.dtype == np.float64
    assert np.array_equal(back, m.astype(np.float32).astype(np.float64))


def test_round_trip_with_labels(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((6, 3))
    labels = np.array([0, 5, 2, 2, 9, 1])
    path = tmp_path / "labeled.emb"
    gl.write_embeddings(path, m, labels)
    back, got = gl.read_embeddings(path)
    assert got.dtype == np.int64
    assert np.array_equal(got, labels)
    assert back.shape == (6, 3)


def test_minimal_one_by_one(tmp_path):
    path = tmp_path / "tiny.emb"
    gl.write_embeddings(path, [[2.5]], np.array([7]))
    back, labels = gl.read_embeddings(path)
    assert back[0, 0] == 2.5
    assert labels.tolist() == [7]


def test_values_already_float32_survive_bitwise(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)).astype(np.float32).astype(np.float64)
    path = tmp_path / "f32.emb"
    gl.write_embeddings(path, m)
    back, _ = gl.read_embeddings(path)
    assert np.array_equal(back, m)


def test_write_validates_labels(tmp_path):
    m = np.ones((3, 2))
    path = tmp_path / "bad.emb"
    with pytest.raises(ValueError):
        gl.write_embeddings(path, m, np.array([1, 2]))           # wrong length
    with pytest.raises(ValueError):
        gl.write_embeddings(path, m, np.array([0.0, 1.0, 2.0]))  # floats
    with pytest.raises(ValueError):
        gl.write_embeddings(path, m, np.array([-1, 0, 1]))       # negative
    with pytest.raises(ValueError):
        gl.write_embeddings(path, m, np.array([0, 0, 2**33]))    # overflow


def test_read_rejects_corruption_and_names_the_path(tmp_path):
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 4))
    path = tmp_path / "victim.emb"
    gl.write_embeddings(path, m, np.arange(5))
    blob = path.read_bytes()

    wrong_magic = tmp_path / "magic.emb"
    wrong_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="magic.emb"):
        gl.read_embeddings(wrong_magic)

    truncated = tmp_path / "short.emb"
    truncated.write_bytes(blob[:-3])
    with pytest.raises(ValueError, match="short.emb"):
        gl.read_embeddings(truncated)

    trailing = tmp_path / "long.emb"
    trailing.write_bytes(blob + b"junk")
    with pytest.raises(ValueError, match="long.emb"):
        gl.read_embeddings(trailing)

    header_only = tmp_path / "header.emb"
    header_only.write_bytes(blob[:6])
    with pytest.raises(ValueError, match="truncated"):
        gl.read_embeddings(header_only)

    bad_marker = tmp_path / "marker.emb"
    body = struct.calcsize("<4sII") + 4 * 5 * 4
    bad_marker.write_bytes(blob[:body] + b"NOPE" + blob[body + 4:])
    with pytest.raises(ValueError, match="label marker"):
        gl.read_embeddings(bad_marker)


def test_read_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "nan.emb"
    header = struct.pack("<4sII", b"EMB1", 1, 2)
    payload = np.array([np.nan, 1.0], dtype="<f4").tobytes()
    path.write_bytes(header + payload)
    with pytest.raises(ValueError, match="non-finite"):
        gl.read_embeddings(path)


def test_read_rejects_zero_shape(tmp_path):
    path = tmp_path / "empty.emb"
    path.write_bytes(struct.pack("<4sII", b"EMB1", 0, 3))
    with pytest.raises(ValueError, match="shape"):
        gl.read_embeddings(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(OSError):
        gl.read_embeddings(tmp_path / "absent.emb")


def test_writes_leave_no_temp_files_and_replace_atomically(tmp_path):
    path = tmp_path / "out.emb"
    gl.write_embeddings(path, np.ones((2, 2)))
    first = path.read_bytes()
    gl.write_embeddings(path, np.zeros((2, 2)))        # overwrite in place
    assert path.read_bytes() != first
    assert os.listdir(tmp_path) == ["out.emb"]


def test_atomic_write_bytes_round_trip(tmp_path):
    target = tmp_path / "raw.bin"
    gl.embfile._atomic_write(target, lambda f: f.write(b"\x00\x01\x02"))
    assert target.read_bytes() == b"\x00\x01\x02"
    assert os.listdir(tmp_path) == ["raw.bin"]


# ---------------------------------------------------------------- streaming

def one_shot_bytes(m, labels=None) -> bytes:
    """The EMB1 layout written in one piece, as the format describes it."""
    blob = struct.pack("<4sII", b"EMB1", *m.shape) + m.astype("<f4").tobytes()
    if labels is not None:
        blob += b"LBL1" + np.asarray(labels).astype("<u4").tobytes()
    return blob


def test_streamed_write_and_read_span_several_chunks(tmp_path):
    # 1024 columns give 256 rows per 1 MiB chunk: two full chunks and a part.
    rng = np.random.default_rng(4)
    m = rng.standard_normal((600, 1024))
    labels = rng.integers(0, 2**32 - 1, 600, dtype=np.uint64)
    path = tmp_path / "wide.emb"
    gl.write_embeddings(path, m, labels)
    assert path.read_bytes() == one_shot_bytes(m, labels)
    back, got = gl.read_embeddings(path)
    assert np.array_equal(back, m.astype(np.float32).astype(np.float64))
    assert np.array_equal(got, labels.astype(np.int64))


def test_write_rejects_bad_labels_before_creating_a_file(tmp_path):
    with pytest.raises(ValueError):
        gl.write_embeddings(tmp_path / "bad.emb", np.ones((3, 2)), np.array([1, 2]))
    assert os.listdir(tmp_path) == []


def test_write_rejects_values_beyond_float32_before_creating_a_file(tmp_path):
    # finite in float64, but the float32 cast would write inf, which no read accepts
    for bad in ([[1e39, 1.0], [0.0, 2.0]], [[1.0, 2.0], [-1e39, 0.0]]):
        with pytest.raises(ValueError, match="beyond the float32 range"):
            gl.write_embeddings(tmp_path / "big.emb", bad)
    assert os.listdir(tmp_path) == []
    top = float(np.finfo(np.float32).max)
    gl.write_embeddings(tmp_path / "top.emb", [[top, -top], [1.0, 2.0]])
    back, _ = gl.read_embeddings(tmp_path / "top.emb")
    assert back.tolist() == [[top, -top], [1.0, 2.0]]


def test_read_rejects_non_finite_value_in_a_later_chunk(tmp_path):
    m = np.zeros((600, 1024), dtype="<f4")
    m[599, 1023] = np.inf
    path = tmp_path / "late_inf.emb"
    path.write_bytes(struct.pack("<4sII", b"EMB1", 600, 1024) + m.tobytes())
    with pytest.raises(ValueError, match="late_inf.emb.*non-finite"):
        gl.read_embeddings(path)


@pytest.mark.parametrize("n, d, payload", [
    (2**32 - 1, 2**32 - 1, b""),   # 12-byte file claiming ~1.8e19 values
    (2**31, 512, bytes(16)),       # 2^40 values claimed over a 16-byte payload
])
def test_hostile_header_is_rejected_before_any_allocation(tmp_path, n, d, payload):
    path = tmp_path / "hostile.emb"
    path.write_bytes(struct.pack("<4sII", b"EMB1", n, d) + payload)

    def read():
        with pytest.raises(ValueError, match="hostile.emb") as info:
            gl.read_embeddings(path)
        return str(info.value)

    message, peak = traced_peak(read)
    assert "size" in message
    assert peak < 1 << 20


def test_payload_ending_mid_chunk_is_truncated_not_uninitialized(tmp_path, monkeypatch):
    # A file that shrinks after its size was checked: the size check passes,
    # then the payload runs out partway through the second chunk.
    rng = np.random.default_rng(5)
    m = rng.standard_normal((600, 1024))
    path = tmp_path / "shrunk.emb"
    gl.write_embeddings(path, m)
    full = path.stat().st_size
    path.write_bytes(path.read_bytes()[:12 + 4 * 1024 * 300])

    class ReportsFullSize:
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def fstat(fd):
            return types.SimpleNamespace(st_size=full, st_mode=stat.S_IFREG)

    monkeypatch.setattr(gl.embfile, "os", ReportsFullSize())
    with pytest.raises(ValueError, match="shrunk.emb: truncated"):
        gl.read_embeddings(path)


def test_read_from_a_pipe(tmp_path):
    # A FIFO (or a shell's process substitution) has no size to check up
    # front; it is read whole and validated as a file would be.
    rng = np.random.default_rng(6)
    m = rng.standard_normal((40, 3))
    source = tmp_path / "source.emb"
    gl.write_embeddings(source, m, np.arange(40))
    fifo = tmp_path / "pipe.emb"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(source.read_bytes(),), daemon=True)
    writer.start()
    try:
        back, labels = gl.read_embeddings(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert np.array_equal(back, m.astype(np.float32).astype(np.float64))
    assert np.array_equal(labels, np.arange(40))
