"""Record export/import: CSV for inspection, npz for golden-record regression.

All numeric CSV output uses Python float repr (shortest round-trip,
locale independent), so identical runs produce byte-identical files.
`repr` holds the GIL, so the snapshot and k-spectrum writers each fork one
child for half their blocks, and join it before they return.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import threading
from contextlib import suppress
from itertools import chain, repeat

import numpy as np

from .model import (
    CoherenceState,
    FieldState,
    KSpectrumHistory,
    SimulationRecord,
    canonical_json,
    config_from_dict,
    config_to_dict,
)

__all__ = [
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


def _write_part(part: str, texts) -> None:
    """The child's half; an OSError exits with its errno, without a traceback."""
    try:
        with open(part, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    except OSError as exc:
        sys.exit(exc.errno or 1)


def _write_blocks(path, head: str, blocks, fmt) -> None:
    """Write `head`, then `fmt(block)` for each block, to `path`.

    A forked child writes the second half of the blocks to a part file that
    is appended once it is joined, so the bytes are those of one loop.  The
    child is joined (terminated first on an error here) and the part file
    removed on every exit path.  Fewer than two blocks, or a process with
    other threads (fork copies the locks they hold but not the threads),
    are written here alone.
    """
    # the split needs fork, and a sendfile that writes to a regular file: Linux
    alone = sys.platform != "linux" or threading.active_count() > 1 or len(blocks) < 2
    split = len(blocks) if alone else len(blocks) // 2
    part, child = f"{os.fspath(path)}.part", None
    if not alone:
        child = multiprocessing.get_context("fork").Process(target=_write_part, args=(part, map(fmt, blocks[split:])))
        child.start()
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chain([head], map(fmt, blocks[:split])))
        if child is not None:
            child.join()
            code = child.exitcode  # the child's errno, or minus the signal that ended it
            if code:
                raise OSError(code, os.strerror(code) if code > 0 else f"killed by signal {-code}", part)
            with open(part, "rb") as src, open(path, "r+b") as dst:  # sendfile fails on O_APPEND
                dst.seek(0, os.SEEK_END)
                while os.sendfile(dst.fileno(), src.fileno(), None, 1 << 30):
                    pass
    finally:
        if child is not None:
            child.terminate()
            child.join()
            with suppress(FileNotFoundError, IsADirectoryError):  # not made, or not ours
                os.unlink(part)


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
        fh.write(_rows(*(map(repr, column.tolist()) for column in columns)))


def write_snapshots_csv(record: SimulationRecord, path, config_hash: str) -> None:
    """One block of nz rows per snapshot, split between two processes."""
    nch = record.boundary_out.shape[1]
    header = ["t", "z"]
    for j in range(nch):
        header += [f"re_E{j}", f"im_E{j}"]
    header += ["re_sigma", "im_sigma"]
    zs = list(map(repr, record.z.tolist()))

    def block(snapshot) -> str:
        fs, cs = snapshot
        values = [map(repr, v.tolist()) for p in (*fs.fields, cs.sigma) for v in (p.real, p.imag)]
        return _rows(repeat(repr(float(fs.t))), zs, *values)

    head = f"# config_sha256={config_hash}\n" + ",".join(header) + "\n"
    _write_blocks(path, head, record.snapshots, block)


def write_kspectra_csv(record: SimulationRecord, path, config_hash: str) -> None:
    spec = record.k_spectra
    ks = list(map(repr, spec.k.tolist()))

    def block(i: int) -> str:
        return _rows(repeat(repr(float(spec.t[i]))), ks, map(repr, spec.magnitude[i].tolist()))

    _write_blocks(path, f"# config_sha256={config_hash}\nt,k,abs_psi\n", range(len(spec.t)), block)


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
    """Binary round-trip format: a single npz, stored uncompressed.

    Complex doubles barely compress, so compression would cost far more
    time than the few bytes it saves.
    """
    snap_t = np.array([fs.t for fs, _ in record.snapshots])
    snap_fields = np.array([fs.fields for fs, _ in record.snapshots])
    snap_sigma = np.array([cs.sigma for _, cs in record.snapshots])
    np.savez(
        path,
        config_json=canonical_json(config_to_dict(record.config)),
        config_sha256=config_hash,
        t=record.t,
        z=record.z,
        boundary_out=record.boundary_out,
        boundary_in=record.boundary_in,
        snap_t=snap_t,
        snap_fields=snap_fields,
        snap_sigma=snap_sigma,
        kspec_t=record.k_spectra.t,
        kspec_k=record.k_spectra.k,
        kspec_mag=record.k_spectra.magnitude,
        window_names=np.array(sorted(record.window_energies), dtype=str),
        window_values=np.array([record.window_energies[k] for k in sorted(record.window_energies)]),
        strides=np.array([record.snapshot_stride, record.kspec_stride]),
        coherence_norm=record.coherence_norm,
    )


def load_record(path) -> SimulationRecord:
    """Inverse of save_record; refuses object arrays, so loading never unpickles."""
    with np.load(path, allow_pickle=False) as data:
        config = config_from_dict(json.loads(str(data["config_json"])))
        snapshots = [
            (FieldState(t=float(t), fields=f), CoherenceState(t=float(t), sigma=s))
            for t, f, s in zip(data["snap_t"], data["snap_fields"], data["snap_sigma"])
        ]
        return SimulationRecord(
            config=config,
            t=data["t"],
            z=data["z"],
            boundary_out=data["boundary_out"],
            boundary_in=data["boundary_in"],
            snapshots=snapshots,
            k_spectra=KSpectrumHistory(t=data["kspec_t"], k=data["kspec_k"], magnitude=data["kspec_mag"]),
            window_energies={str(k): float(v) for k, v in zip(data["window_names"], data["window_values"])},
            snapshot_stride=int(data["strides"][0]),
            kspec_stride=int(data["strides"][1]),
            coherence_norm=data["coherence_norm"],
        )
