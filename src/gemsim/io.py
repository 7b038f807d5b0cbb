"""Record export/import: CSV for inspection, npz for golden-record regression.

All numeric CSV output uses Python float repr (shortest round-trip,
locale independent), so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from itertools import repeat

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
    """One block of nz rows per snapshot, each written as soon as it is formatted."""
    nch = record.boundary_out.shape[1]
    header = ["t", "z"]
    for j in range(nch):
        header += [f"re_E{j}", f"im_E{j}"]
    header += ["re_sigma", "im_sigma"]
    zs = list(map(repr, record.z.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_hash}\n")
        fh.write(",".join(header) + "\n")
        for fs, cs in record.snapshots:
            parts = [*fs.fields, cs.sigma]
            values = [map(repr, v.tolist()) for p in parts for v in (p.real, p.imag)]
            fh.write(_rows(repeat(repr(float(fs.t))), zs, *values))


def write_kspectra_csv(record: SimulationRecord, path, config_hash: str) -> None:
    spec = record.k_spectra
    ks = list(map(repr, spec.k.tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={config_hash}\n")
        fh.write("t,k,abs_psi\n")
        for t, mags in zip(spec.t, spec.magnitude):
            fh.write(_rows(repeat(repr(float(t))), ks, map(repr, mags.tolist())))


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
