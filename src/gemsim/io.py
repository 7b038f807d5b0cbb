"""Record export/import: CSV for inspection, npz for golden-record regression.

All numeric CSV output uses Python float repr (shortest round-trip,
locale independent), so identical runs produce byte-identical files.
`repr` holds the GIL, so `SnapshotWriter` formats snapshots.csv in a forked
child while the solver runs; the other writers format a finished record in
blocks of rows, and `save_record` writes `np.savez`'s bytes from the arrays' own buffers.
The snapshot store lives in an unlinked spool file, and each process drops
its pages of the store behind what it has written or read (`_release`), so
none keeps more than a block of it resident.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import signal
import struct
import sys
import tempfile
import threading
import traceback
import zipfile
from contextlib import suppress
from itertools import accumulate, repeat

import numpy as np
from numpy.lib import format as npy

from .model import (
    KSpectrumHistory,
    SimulationRecord,
    canonical_json,
    config_from_dict,
    config_to_dict,
)

__all__ = [
    "SnapshotWriter",
    "write_boundary_csv",
    "write_snapshots_csv",
    "write_kspectra_csv",
    "write_windows_json",
    "save_record",
    "load_record",
]


def _rows(*columns) -> str:
    """CSV lines from equal-length columns of formatted values."""
    return "\n".join(map(",".join, zip(*columns))) + "\n"


_BLOCK_ROWS = 1024  # boundary.csv rows formatted at a time
_BLOCK_BYTES = 1 << 20  # record.npz bytes written, spool bytes reserved and store bytes released at a time
_HASH_AT = len("# config_sha256=")  # where the header's hash starts
_PLACEHOLDER = "0" * 64  # a sha256 hex digest's width, until close gives the hash


def _snapshot_head(config_hash: str, n_channels: int) -> str:
    header = ["t", "z"]
    for j in range(n_channels):
        header += [f"re_E{j}", f"im_E{j}"]
    header += ["re_sigma", "im_sigma"]
    return f"# config_sha256={config_hash}\n" + ",".join(header) + "\n"


# MADV_DONTNEED leaves a shared file mapping's data in the file on Linux; elsewhere
# its meaning varies, so the pages are left to the kernel
_DROP = mmap.MADV_DONTNEED if sys.platform == "linux" else None
# a read fault maps the cached pages around it ("fault-around": 64 KiB by
# default, at most one page table's span, 2 MiB on x86-64), pages behind the
# reader included; a release drops them again
_BEHIND = 2 << 20


def _release(*views: np.ndarray) -> None:
    """Drop this process's pages holding each contiguous view that lies in a spool, and _BEHIND bytes before it.

    The data stays in the spool file, and a later access faults it back in.
    The pages at both ends are dropped whole, neighbours' bytes and all.
    """
    if _DROP is None:
        return
    for view in views:
        root = view
        while isinstance(root.base, np.ndarray):
            root = root.base
        spool = getattr(root.base, "obj", None)  # a store's root is a byte array over its whole mapping
        if not isinstance(spool, mmap.mmap) or not view.size:
            continue
        start = view.ctypes.data - root.ctypes.data
        first = max(0, start - _BEHIND) // mmap.PAGESIZE * mmap.PAGESIZE
        spool.madvise(_DROP, first, start + view.nbytes - first)


def _release_behind(arrays, i: int) -> None:
    """Row i of `arrays` is done, rows done in order: release them in blocks of about _BLOCK_BYTES.

    Released row by row, fig2's store cost its solve about 30 ms of madvise
    calls and page faults; a block costs one call an array.
    """
    step = max(1, _BLOCK_BYTES // sum(a.strides[0] for a in arrays))
    if i % step == step - 1 or i == len(arrays[0]) - 1:
        _release(*(a[i - i % step:i + 1] for a in arrays))


def _snapshot_block(zs: list[str], t: np.ndarray, fields: np.ndarray, sigma: np.ndarray, i: int) -> str:
    """The nz rows of snapshot i: its time, z, then each field and the coherence as re, im.

    The snapshots formatted are released behind, a block at a time.
    """
    columns = [map(repr, v.tolist()) for p in (*fields[i], sigma[i]) for v in (p.real, p.imag)]
    block = _rows(repeat(repr(float(t[i]))), zs, *columns)
    _release_behind((t, fields, sigma), i)
    return block


def _write_snapshots(path, config_hash: str, n_channels: int, zs: list[str], t, fields, sigma) -> None:
    """snapshots.csv of the snapshot arrays: one block of nz rows per snapshot."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_snapshot_head(config_hash, n_channels))
        fh.writelines(_snapshot_block(zs, t, fields, sigma, i) for i in range(len(t)))


_FAILED = 255  # the child's exit status for a failure other than an OSError


class SnapshotWriter:
    """Writes snapshots.csv while `solver.run(..., sink=writer)` is solving.

    `allocate` carves the run's snapshot store, its four arrays, from one
    shared mapping of a spool file in the output directory and forks one
    child; `publish(i)` sends the child the index of each finished snapshot
    through a pipe, 4 bytes a snapshot, and the child formats and writes the
    blocks in order.  `close` waits for the child.
    The spool is unlinked as soon as it is made, so no exit leaves it behind,
    and its blocks are reserved before it is mapped, so a full disk raises
    OSError from `allocate` rather than SIGBUS from a write to the mapping.
    `publish` drops the run's pages of the snapshots published, and the
    child its pages of those it has formatted, a block of about a MiB at a
    time: the data stays in the file, and neither process keeps more than
    a block or two of the store resident.
    Where fork is unavailable or unsafe (not Linux, or another thread
    running: fork copies the locks other threads hold, not the threads),
    `close` formats the store in this process instead.  Leaving the `with`
    block without `close`, on an error, kills the child and removes the
    file, so no partial snapshots.csv remains.  A second `allocate` of the
    same shape (a run continuing one that stopped early) returns the same
    store, and one of another shape raises ValueError: the child serves one
    store.

    The configuration hash is given to `close`: `simulate` knows it only
    once calibration ends, when the snapshots are under way.  The child
    writes a placeholder of a sha256 digest's width, which `close` overwrites.
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self.pid: int | None = None  # the child, until it is reaped
        self._pipe: int | None = None  # the write end, while the child may read it
        self._finished = False
        self.store: tuple[np.ndarray, ...] | None = None  # once allocated

    def __enter__(self) -> "SnapshotWriter":
        return self

    def __exit__(self, *exc) -> None:
        if not self._finished:
            self._discard()

    def allocate(self, n: int, n_channels: int, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """The store for the run to fill: times (n,), fields (n, n_channels, nz), coherences and |psi(k)| (n, nz)."""
        nz = len(z)
        layout = ((float, (n,)), (complex, (n, n_channels, nz)), (complex, (n, nz)), (float, (n, nz)))
        if self.store is not None:
            if self.store[1].shape != layout[1][1]:
                raise ValueError(f"the snapshot store has fields of shape {self.store[1].shape}, not {layout[1][1]}")
            return self.store
        self._zs = list(map(repr, z.tolist()))
        sizes = [np.dtype(kind).itemsize * math.prod(shape) for kind, shape in layout]
        whole = np.frombuffer(self._spool(sum(sizes) or 1), dtype=np.uint8)
        self.store = tuple(whole[at:at + size].view(kind).reshape(shape)
                           for (kind, shape), at, size in zip(layout, accumulate(sizes, initial=0), sizes))
        if n and sys.platform == "linux" and threading.active_count() == 1:
            self._fork(n)
        return self.store

    def _spool(self, size: int) -> mmap.mmap:
        """A shared mapping of `size` bytes of an unlinked file beside snapshots.csv, its blocks reserved."""
        with tempfile.TemporaryFile(dir=os.path.dirname(os.path.abspath(self.path)), suffix=".spool") as fh:
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(fh.fileno(), 0, size)
            else:  # macOS: write the file out
                zeros = memoryview(bytes(_BLOCK_BYTES))
                for at in range(0, size, _BLOCK_BYTES):
                    fh.write(zeros[:size - at])
                fh.flush()
            return mmap.mmap(fh.fileno(), size)  # MAP_SHARED: the child reads what the run writes

    def _fork(self, n: int) -> None:
        read, self._pipe = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:  # no child: close formats the store here
            os.close(self._pipe)
            self._pipe = None
        if self.pid == 0:
            code = _FAILED
            try:
                os.close(self._pipe)
                code = self._serve(read, n)
            except OSError as exc:
                code = exc.errno or _FAILED
            except Exception:
                traceback.print_exc()
            finally:
                os._exit(code)  # never back into the caller's stack, nor flush its buffers
        os.close(read)

    def _serve(self, read: int, n: int) -> int:
        """The child: write each published block, then exit 0; _FAILED if the pipe closes first."""
        t, fields, sigma, _ = self.store
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(_snapshot_head(_PLACEHOLDER, fields.shape[1]))
            pending, done = b"", 0
            while done < n:
                data = os.read(read, 4 * (n - done))
                if not data:
                    return _FAILED
                pending += data
                whole = len(pending) - len(pending) % 4
                for (i,) in struct.iter_unpack("=I", pending[:whole]):
                    fh.write(_snapshot_block(self._zs, t, fields, sigma, i))
                pending, done = pending[whole:], done + whole // 4
        return 0

    def publish(self, i: int) -> None:
        """Snapshot i is complete; the run's pages of it are dropped with its block's."""
        if self._pipe is not None:
            try:
                os.write(self._pipe, struct.pack("=I", i))
            except BrokenPipeError:  # the child has died; close reports how
                os.close(self._pipe)
                self._pipe = None
        _release_behind(self.store, i)

    def close(self, config_hash: str) -> None:
        """Finish snapshots.csv, headed by `config_hash`; raises OSError naming it if that fails."""
        if len(config_hash) != len(_PLACEHOLDER):
            raise ValueError(f"the configuration hash must be a sha256 hex digest, got {config_hash!r}")
        if self.pid is None:
            _write_snapshots(self.path, config_hash, self.store[1].shape[1], self._zs, *self.store[:3])
        else:
            if self._pipe is not None:
                os.close(self._pipe)
                self._pipe = None
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            if code:
                self._discard()
                if 0 < code < _FAILED:  # the errno of the child's OSError
                    raise OSError(code, os.strerror(code), self.path)
                how = f"was killed by {signal.Signals(-code).name}" if code < 0 else "failed"
                raise OSError(f"{self.path}: the snapshot writer {how}")
            fd = os.open(self.path, os.O_WRONLY)
            try:
                os.pwrite(fd, config_hash.encode("ascii"), _HASH_AT)
            finally:
                os.close(fd)
        self._finished = True

    def _discard(self) -> None:
        """Kill the child, if any, and remove the unfinished file."""
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        if not os.path.isdir(self.path):  # a directory is not the writer's to remove
            with suppress(FileNotFoundError):
                os.unlink(self.path)


def write_boundary_csv(record: SimulationRecord, path, config_hash: str) -> None:
    nch = record.boundary_out.shape[1]
    header = ["t"]
    columns = [record.t]
    for j in range(nch):
        header += [f"re_E{j}_out", f"im_E{j}_out", f"re_E{j}_in", f"im_E{j}_in"]
        out, inp = record.boundary_out[:, j], record.boundary_in[:, j]
        columns += [out.real, out.imag, inp.real, inp.imag]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_hash}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(_rows(*(map(repr, column[i:i + _BLOCK_ROWS].tolist()) for column in columns))
                      for i in range(0, len(record.t), _BLOCK_ROWS))


def write_snapshots_csv(record: SimulationRecord, path, config_hash: str) -> None:
    """One block of nz rows per snapshot."""
    _write_snapshots(path, config_hash, record.boundary_out.shape[1], list(map(repr, record.z.tolist())),
                     record.snapshot_t, record.snapshot_fields, record.snapshot_sigma)


def write_kspectra_csv(record: SimulationRecord, path, config_hash: str) -> None:
    spec = record.k_spectra
    ks = list(map(repr, spec.k.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_hash}\nt,k,abs_psi\n")
        for i, (t, mag) in enumerate(zip(spec.t, spec.magnitude)):
            fh.write(_rows(repeat(repr(float(t))), ks, map(repr, mag.tolist())))
            _release_behind((spec.t, spec.magnitude), i)


def write_windows_json(record: SimulationRecord, path, config_hash: str) -> None:
    doc = {
        "config_sha256": config_hash,
        "window_energies": {k: float(v) for k, v in sorted(record.window_energies.items())},
        "input_energy": record.input_energy(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_record(record: SimulationRecord, path, config_hash: str) -> None:
    """Binary round-trip format: the bytes of `np.savez(path, **members)`, uncompressed.

    Each member's data is written from the array's own buffer, where `np.savez`
    copies it through `tobytes()`, in blocks, and the pages of each block of a
    snapshot store's spool are released once written.  Complex doubles barely
    compress, so compression would cost far more time than the few bytes it saves.
    """
    members = dict(
        config_json=canonical_json(config_to_dict(record.config)),
        config_sha256=config_hash,
        t=record.t,
        z=record.z,
        boundary_out=record.boundary_out,
        boundary_in=record.boundary_in,
        snap_t=record.snapshot_t,
        snap_fields=record.snapshot_fields,
        snap_sigma=record.snapshot_sigma,
        kspec_t=record.k_spectra.t,
        kspec_k=record.k_spectra.k,
        kspec_mag=record.k_spectra.magnitude,
        window_names=np.array(sorted(record.window_energies), dtype=str),
        window_values=np.array([record.window_energies[k] for k in sorted(record.window_energies)]),
        strides=np.array([record.snapshot_stride] * 2),  # snapshots and k-spectra, taken together
        coherence_norm=record.coherence_norm,
    )
    with zipfile.ZipFile(path, "w", allowZip64=True) as archive:
        for name, value in zip(members, map(np.asanyarray, members.values())):
            with archive.open(name + ".npy", "w", force_zip64=True) as member:
                npy.write_array_header_1_0(member, npy.header_data_from_array_1_0(value))
                if not value.flags.c_contiguous:
                    member.write(value.tobytes("A"))  # "A": the header's order
                    continue
                data = value.reshape(-1).view(np.uint8)
                for at in range(0, data.size, _BLOCK_BYTES):
                    member.write(data[at:at + _BLOCK_BYTES].data)
                    _release(data[at:at + _BLOCK_BYTES])


def load_record(path) -> SimulationRecord:
    """Inverse of save_record; refuses object arrays, so loading never unpickles."""
    with np.load(path, allow_pickle=False) as data:
        config = config_from_dict(json.loads(str(data["config_json"])))
        return SimulationRecord(
            config=config,
            t=data["t"],
            z=data["z"],
            boundary_out=data["boundary_out"],
            boundary_in=data["boundary_in"],
            snapshot_t=data["snap_t"],
            snapshot_fields=data["snap_fields"],
            snapshot_sigma=data["snap_sigma"],
            k_spectra=KSpectrumHistory(t=data["kspec_t"], k=data["kspec_k"], magnitude=data["kspec_mag"]),
            window_energies={str(k): float(v) for k, v in zip(data["window_names"], data["window_values"])},
            snapshot_stride=int(data["strides"][0]),
            coherence_norm=data["coherence_norm"],
        )
