"""Record export/import: CSV for inspection, npz for golden-record regression.

All numeric CSV output uses Python float repr (shortest round-trip,
locale independent), so identical runs produce byte-identical files.
`repr` holds the GIL, so `SnapshotWriter` formats snapshots.csv in a forked
child while the solver runs; the other writers format a finished record in
blocks of rows, and `save_record` writes `np.savez`'s bytes from the arrays' own buffers.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import signal
import struct
import sys
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
_HASH_AT = len("# config_sha256=")  # where the header's hash starts
_PLACEHOLDER = "0" * 64  # a sha256 hex digest's width, until close gives the hash


def _snapshot_head(config_hash: str, n_channels: int) -> str:
    header = ["t", "z"]
    for j in range(n_channels):
        header += [f"re_E{j}", f"im_E{j}"]
    header += ["re_sigma", "im_sigma"]
    return f"# config_sha256={config_hash}\n" + ",".join(header) + "\n"


def _snapshot_block(zs: list[str], t, fields: np.ndarray, sigma: np.ndarray) -> str:
    """The nz rows of one snapshot: its time, z, then each field and the coherence as re, im."""
    columns = [map(repr, v.tolist()) for p in (*fields, sigma) for v in (p.real, p.imag)]
    return _rows(repeat(repr(float(t))), zs, *columns)


def _write_snapshots(path, config_hash: str, n_channels: int, zs: list[str], t, fields, sigma) -> None:
    """snapshots.csv of the snapshot arrays: one block of nz rows per snapshot."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_snapshot_head(config_hash, n_channels))
        fh.writelines(_snapshot_block(zs, *row) for row in zip(t, fields, sigma))


_FAILED = 255  # the child's exit status for a failure other than an OSError


class SnapshotWriter:
    """Writes snapshots.csv while `solver.run(..., sink=writer)` is solving.

    `allocate` carves the run's snapshot store, its four arrays, from one
    anonymous shared mapping and forks one child; `publish(i)` sends the
    child the index of each finished snapshot through a pipe, 4 bytes a
    snapshot, and the child formats and writes the blocks in order.  `close`
    waits for the child.
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
        mapping = mmap.mmap(-1, sum(sizes) or 1)  # MAP_SHARED: the child reads what the run writes
        self.store = tuple(np.frombuffer(mapping, dtype=kind, count=math.prod(shape), offset=at).reshape(shape)
                           for (kind, shape), at in zip(layout, accumulate(sizes, initial=0)))
        if n and sys.platform == "linux" and threading.active_count() == 1:
            self._fork(n)
        return self.store

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
                    fh.write(_snapshot_block(self._zs, t[i], fields[i], sigma[i]))
                pending, done = pending[whole:], done + whole // 4
        return 0

    def publish(self, i: int) -> None:
        """Snapshot i is complete."""
        if self._pipe is not None:
            try:
                os.write(self._pipe, struct.pack("=I", i))
            except BrokenPipeError:  # the child has died; close reports how
                os.close(self._pipe)
                self._pipe = None

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
        fh.writelines(_rows(repeat(repr(float(t))), ks, map(repr, mag.tolist()))
                      for t, mag in zip(spec.t, spec.magnitude))


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
    copies it through `tobytes()`.  Complex doubles barely compress, so
    compression would cost far more time than the few bytes it saves.
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
                member.write(value.data if value.flags.c_contiguous else value.tobytes("A"))  # "A": the header's order


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
