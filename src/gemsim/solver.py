"""Coupled field/coherence integrator on the (t, z) grid.

Working equations, in the co-moving frame with the excited state
adiabatically eliminated (single shared spin coherence, one optical
channel j per coupling channel):

    dE_j/dz     = i (g N conj(Omega_j(t)) / Delta) sigma(t, z)
    dsigma/dt   = -[gamma0 + i eta(t) z + i sum_c |Omega_c(t)|^2 / Delta] sigma
                  + i (g / Delta) sum_j Omega_j(t) E_j(t, z)

The optical envelopes are slaved to the coherence: at any instant,
E_j(t, z) = E_j(t, 0) + i kappa_j(t) * integral_0^z sigma dz', so the
state vector is the coherence alone and the method of lines applies.
Time stepping is classical fourth order Runge-Kutta; the z integral is the
trapezoid rule, giving global error O(dt^4 + dz^2).  Piecewise constant
controls (gradient switches, coupling steps, pulse support edges) are
aligned with step boundaries so no step straddles a switch.

Write the right-hand side as L sigma + d(t), with L v = coef * v - w2 C(v),
coef = -(gamma0 + i(eta z + stark)) and C(v) the z integral of v.  Where
eta, stark and w2 are the same at all three stage times of a step, L is
constant over it, and the step takes RK4's Taylor form, the same map in
exact arithmetic: with d0, d_mid, d1 the drive at the step's start, middle
and end,

    v1 = L sigma + d0            v2 = L v1 + 2 (d_mid - d0) / h
    v3 = L v2                    v4 = L v3 + 4 (d0 - 2 d_mid + d1) / h^3
    sigma += h v1 + h^2/2 v2 + h^3/6 v3 + h^4/24 v4

Its four operator applications are chained, so it needs no stage states,
and the drive enters as three per-step values, the two differences made
once per run.  A step whose controls change inside it (one that ends on a
switch, and every step of a modulated coupling) takes the classical staged
form, k = L(sigma + a h k_prev) + d at each stage.  Both run in place in
buffers and views made once per run, and a step allocates nothing.  Each
state L is applied to (sigma, k1..k3, a stage state) sits in a contiguous
[v; C(v)] slot of one buffer, and A = [coef; w2] has the same shape, so L v
is one stacked multiply A * [v; C(v)], the drive added to its first half,
and one subtract of its halves: coef v + d - w2 C(v), rounded as written.
k1..k4 (v1..v4) are strided rows of the slot buffer, so the update is one
dot product with the step's weights, made once per distinct step size, and
one add.  Each node's state is copied into a ring of at most NORM_RING
elements (16 nodes at nz 256, one for a 16-row state); their coherence
norms are taken by one np.vecdot (the BLAS dot np.vdot calls) and checked
once the ring is full and at the loop's end, and a norm that is not finite
is reported at its own node and row.  Outside those flushes a Taylor step
makes 20 numpy calls, 23 where some pulse is on; a staged one 26, plus a
drive add in each stage where some pulse is on.  The loop keeps the z
integral unscaled, as the cumulative sum of v[1:] + v[:-1] (added over the
flattened state, one contiguous loop for any number of rows); the
trapezoid's dz/2 is folded into the coefficients that read it (w2 per stage,
kappa per node).  The z integral of each new state serves both its boundary
output and the next step's first application of L, so a step takes four
cumulative integrals; its value at z = L is kept per node, and the boundary
traces are built from those after the loop.

Only the steps a result depends on are integrated.  From zero coherence, a
step none of whose stages sees a nonzero drive leaves the state exactly
+0, so the loop starts at the first step with a driven stage; the
coherence norm of the silent lead-in is the zeros it was allocated with.
A run can also stop early, at the first node at or after a caller's
`until` time: its record is the prefix of the whole run's (the snapshot
plan is the whole grid's, and a snapshot due at its last node is left to
the run that continues it), and carries sigma at that node.  Nor is a
prefix two configs share integrated twice.  At a node, sigma is the loop's
only state (c is rebuilt from it, and the local coefficient a continuing
run holds is computed from the same eta and stark), so a run that
continues an early-stopped record holds the same bits as an uninterrupted
one, once the stage arrays its record reads (the time grid included) are
checked equal to the record's, bit for bit, up to that node.  `simulate`
so continues the probe-only run, stopped before the steering starts, into
both the bare calibration and the main solve, and a time-domain sweep its
two calibration runs, stopped where E1 closes, into its basis rows.
Many solves share the same loop.  `run_many` integrates configs on one time
grid, whose steps take the same form, as the rows of one state, at most
MAX_ROWS configs a solve; each row carries its own eta, stark, w2 and drive
as one (rows, 1) column per stage, its Taylor drive differences as one per
step, and its own mode mismatch, coherence norm and finiteness check.  A row's
arithmetic depends on those alone, so configs whose eta, stark, w2, drive
and mode mismatch are equal to the bit share one row; each config keeps
its own kappa and boundary traces.  A one-row solve keeps a 1-D state and
scalar stage coefficients.  Every operation is elementwise in the rows
except the update's dot product, whose rows OpenBLAS computes alike however
many there are; tests compare batched records with lone runs to the bit.

Energy bookkeeping uses the normalisation constant s = 1: the conserved
quantity at gamma0 = 0 is N * integral |sigma|^2 dz plus the net boundary
flux integral of sum_j |E_j|^2 (influx at z=0 minus outflux at z=L).

The spatial-spectrum diagnostics use the normalised forward DFT
F[f](k) = (1/nz) sum_m f(z_m) exp(-i k z_m) on k = 2 pi fftfreq(nz, dz),
so a unit-amplitude plane wave has unit peak height.  The polariton is
psi(t, k) = k E(t, k) + (N Omega_c / Delta) sigma(t, k); the DC bin is
excluded from every check that involves the 1/k factor, because the
(t, z) equations never divide by k.
"""

from __future__ import annotations

import hashlib
import math
from typing import Sequence

import numpy as np

from .errors import EmptySpectrum, NoCrossing, NonFinite, StabilityBound
from .model import (
    CoherenceState,
    EnsembleParams,
    FieldState,
    KSpectrumHistory,
    ScenarioConfig,
    SimulationRecord,
    dt_violations,
)

__all__ = [
    "run",
    "polariton_spectrum",
    "k_grid",
    "k_centroid_track",
    "crossing_phase",
    "maxwell_residual",
]


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _event_times(config: ScenarioConfig) -> list[float]:
    t_end = config.grid.t_end
    events = {0.0, t_end}
    events.update(config.gradient.switch_times())
    for ch in config.coupling.channels:
        events.update(s.t_start for s in ch.segments[1:])
    for p in config.pulses:
        events.update(p.support())
    if config.mismatch_time is not None:
        events.add(config.mismatch_time)
    inside = sorted(t for t in events if 0.0 <= t <= t_end)
    merged = [inside[0]]
    for t in inside[1:]:
        if t - merged[-1] > 1e-12 * max(1.0, t_end):
            merged.append(t)
    if merged[-1] != t_end:
        merged.append(t_end)
    return merged


def _time_grid(config: ScenarioConfig) -> np.ndarray:
    """Step-boundary times: uniform within each inter-event segment, ending on its event exactly."""
    dt0 = config.grid.dt
    edges = _event_times(config)
    pieces = [np.array([0.0])]
    for a, b in zip(edges, edges[1:]):
        n = max(1, math.ceil((b - a) / dt0 - 1e-12))
        pieces.append(np.append(a + (b - a) * np.arange(1, n) / n, b))
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# main integrator
# ---------------------------------------------------------------------------

# configs (so state rows at most) per batched solve: per-row throughput still rises at 16 rows
MAX_ROWS = 16
# elements of the ring of node states whose coherence norms are taken together
NORM_RING = 4096


def _distinct_rows(parts: list[_Controls]) -> tuple[list[int], list[int]]:
    """The first part of each distinct state row, and each part's row.

    Parts share a row where eta, stark, w2, drive and mode mismatch are equal
    to the bit; the sha256 keys are built only for a solve of many parts.
    """
    if len(parts) == 1:
        return [0], [0]
    index: dict[bytes, int] = {}
    inverse = []
    for p in parts:
        key = hashlib.sha256(repr((p.config.mismatch_time, p.config.mode_mismatch)).encode())
        for a in (p.eta_h, p.stark_h, p.w2_h, p.drive):
            key.update(a)
        inverse.append(index.setdefault(key.digest(), len(index)))
    return [inverse.index(d) for d in range(len(index))], inverse


def _step_weights(dt: float) -> tuple:
    """A step's half and full size and its update weights as complex numbers:
    (dt/6, dt/3, dt/3, dt/6) for the staged form, (dt, dt^2/2, dt^3/6, dt^4/24)
    for the Taylor form."""
    taylor = [dt]
    for j in (2, 3, 4):
        taylor.append(taylor[-1] * dt / j)
    return (complex(0.5 * dt), complex(dt), np.array([dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0], dtype=complex),
            np.array(taylor, dtype=complex))


def _check_stability(config: ScenarioConfig) -> None:
    violations = dt_violations(config)
    if violations:
        raise StabilityBound("; ".join(violations))


class _Controls:
    """One config's controls and drive on the stage grid of its time nodes."""

    def __init__(self, config: ScenarioConfig, t_nodes: np.ndarray):
        ens = config.ensemble
        nch = config.n_channels
        n_steps = len(t_nodes) - 1
        self.config, self.t_nodes = config, t_nodes
        self.z = np.linspace(0.0, ens.length, config.grid.nz)
        dz = self.z[1] - self.z[0]

        # stage-time grid: nodes interleaved with midpoints
        t_half = np.empty(2 * n_steps + 1)
        t_half[0::2] = t_nodes
        t_half[1::2] = 0.5 * (t_nodes[:-1] + t_nodes[1:])

        # controls evaluated on the stage grid; eta at midpoints uses the value
        # of the segment the step lies in (steps never straddle a switch)
        eta_h = np.asarray(config.gradient.eta_at(np.minimum(t_half, t_nodes[-1])), dtype=float)
        eta_h[1::2] = np.asarray(config.gradient.eta_at(t_nodes[:-1]), dtype=float)
        omegas_h = np.stack(
            [np.asarray(ch.omega_at(t_half), dtype=complex) for ch in config.coupling.channels]
        )  # (nch, 2*n_steps+1)
        for c, ch in enumerate(config.coupling.channels):
            if ch.modulation is None:
                # keep midpoints on the piecewise value of their own step
                omegas_h[c, 1::2] = np.asarray(ch.omega_at(t_nodes[:-1]), dtype=complex)
        e_in_h = np.zeros((nch, 2 * n_steps + 1), dtype=complex)
        for p in config.pulses:
            e_in_h[p.channel] += p.envelope(t_half)

        # the loop's c is the unscaled cumulative sum of sigma[1:] + sigma[:-1];
        # the dz/2 of the trapezoid rule is folded into kappa (the field source
        # coefficient, needed only at the nodes) and into w2
        half_dz = 0.5 * dz
        kappa = 1j * ens.g * ens.n_density * np.conj(omegas_h[:, 0::2]) / ens.delta
        kappa *= half_dz
        self.drive = 1j * (ens.g / ens.delta) * np.sum(omegas_h * e_in_h, axis=0)  # (2*n_steps+1,)
        power = np.sum(np.abs(omegas_h) ** 2, axis=0)
        stark_h = power / ens.delta
        w2_h = (ens.g**2 * ens.n_density / ens.delta**2) * power
        w2_h *= half_dz
        w2_h = w2_h.astype(complex)  # as numpy would cast it at each call
        # after the first stage run, the local coefficient and w2 are read again
        # only at a stage whose (eta, stark, w2) differs from the stage before
        self.eta_changed = np.ones(2 * n_steps + 1, dtype=bool)
        self.eta_changed[1:] = eta_h[1:] != eta_h[:-1]
        self.changed = self.eta_changed.copy()
        self.changed[1:] |= (stark_h[1:] != stark_h[:-1]) | (w2_h[1:] != w2_h[:-1])
        self.t_half, self.eta_h, self.stark_h, self.w2_h, self.omegas_h = t_half, eta_h, stark_h, w2_h, omegas_h
        self.e_in_h, self.kappa = e_in_h, kappa

        # per step: its size, and whether its controls change inside it (the
        # staged RK4 step) or not (RK4's Taylor form)
        self.h = np.diff(t_nodes)
        self.staged = self.changed[1::2] | self.changed[2::2]

    def taylor_drive(self) -> tuple[np.ndarray, np.ndarray]:
        """Per step, the drive terms RK4's Taylor form adds to L v1 and L v3."""
        d0, d_mid, d1, h = self.drive[:-1:2], self.drive[1::2], self.drive[2::2], self.h
        return 2 * (d_mid - d0) / h, 4 * (d0 - 2 * d_mid + d1) / (h * h * h)


def _key(config: ScenarioConfig) -> tuple:
    """What configs integrated on one state (or one after another) must share besides the time grid."""
    return config.grid.nz, config.ensemble, config.n_channels


def _record_inputs(p: _Controls, n: int) -> list[np.ndarray]:
    """Every array a direct run's record reads of its controls, over the first n stages.

    Stage times (the time grid), eta, stark, w2, drive, e_in and omega per
    stage, kappa per node (node m at stages 2m and 2m + 1), and the mode
    mismatch as the factor applied to the state of its node.
    """
    mismatch = np.ones(len(p.t_half))
    config = p.config
    if config.mismatch_time is not None and config.mode_mismatch != 1.0:
        node = max(1, int(np.searchsorted(p.t_nodes, config.mismatch_time - 1e-12)))
        if 2 * node < len(mismatch):
            mismatch[2 * node] = config.mode_mismatch
    kappa = np.repeat(p.kappa, 2, axis=-1)
    return [a[..., :n] for a in (p.t_half, p.eta_h, p.stark_h, p.w2_h, p.drive, p.e_in_h, p.omegas_h,
                                 kappa, mismatch)]


def run(
    config: ScenarioConfig,
    stride: int | None = None,
    start: SimulationRecord | np.ndarray | None = None,
    until: float | None = None,
    sink=None,
) -> SimulationRecord:
    """Integrate a validated scenario and return its record.

    Raises StabilityBound when the grid step breaks a bound of
    model.dt_bounds.  Window energies and boundary traces are always
    recorded; a (field, coherence) snapshot and its |psi(k)| spectrum every
    `stride` steps and at the last step: about 512 for None, none for 0.

    With `until` in (0, t_end] the run stops at the first node at or after
    it, and its record is the prefix of the whole run's: its times, traces
    and coherence norm end at that node, and window energies are taken over
    the nodes it has.  Its snapshot plan is the whole grid's; the snapshots
    before that node are recorded, and one due at the node itself is left
    to the run that continues the record.  From zero coherence the steps
    before the first nonzero drive are not integrated, since they leave the
    state at zero; the record is the same as if they were.

    `start` is a coherence of shape (nz,) at node 0, or a record to
    continue: the direct run of `until` above, carrying its coherence at its
    last node in `coherence_end`.  A continuation integrates from that node
    and holds the same bits as an uninterrupted run (the prefix's traces,
    norms and snapshots taken from the record; with stride 0, no snapshots
    at all), and its steps_integrated counts only the steps it integrated.
    It raises ValueError where its record inputs up to that node differ
    from the record's by a bit, or its stride is neither the record's nor 0.

    `record.diagnostics` counts the steps this run integrated (the skipped
    lead-in and a continued prefix excluded), the coherence rows of the
    solve that produced it (1 for a direct run), and the integrated steps
    that took staged RK4 (those whose controls change inside the step).

    The snapshots live in one store sized before the loop, four arrays laid
    out as record.npz holds them: times (n,), fields (n, nch, nz),
    coherences (n, nz) and |psi(k)| (n, nz).  The record's snapshot arrays
    and k-spectra are their first rows.  Without a `sink` the store is
    in memory.  A `sink` places the store, `sink.allocate(n, nch, z)`
    returning the four arrays, and `sink.publish(i)` is called once row i
    is complete; the run never reads a published row again, so the sink
    may release its pages as long as the record can read them back
    (io.SnapshotWriter maps the store from a spool file, drops the pages
    of the rows published and formats them while the run goes on).  A continuation given the store its record's
    snapshots are in publishes only its own.
    """
    _check_stability(config)
    t_nodes = _time_grid(config)
    steps = len(t_nodes) - 1  # the whole grid's, which the snapshot plan follows
    stride = max(1, round(steps / 512)) if stride is None else stride
    if stride < 0:
        raise ValueError(f"stride must be >= 0, got {stride}")
    if until is not None:
        if not (math.isfinite(until) and 0.0 < until <= config.grid.t_end):
            raise ValueError(f"until must lie in (0, t_end={config.grid.t_end}], got {until}")
        t_nodes = t_nodes[: min(int(np.searchsorted(t_nodes, until)), steps) + 1]
    controls = _Controls(config, t_nodes)
    if isinstance(start, SimulationRecord):
        if stride not in (0, start.snapshot_stride):
            raise ValueError(f"a continuation's stride is its record's ({start.snapshot_stride}) or 0, "
                             f"got {stride}")
        n = 2 * len(start.t) - 1
        prefix = _Controls(start.config, start.t)
        if start.coherence_end is None or _key(start.config) != _key(config) or not all(
                a.tobytes() == b.tobytes() for a, b in zip(_record_inputs(prefix, n), _record_inputs(controls, n))):
            raise ValueError("the run does not repeat the record it continues up to that record's last node")
    elif start is not None and np.shape(start) != (config.grid.nz,):
        raise ValueError(f"a start coherence has shape ({config.grid.nz},), got {np.shape(start)}")
    return _integrate([controls], stride, start, sink, steps)[0]


def run_many(configs: Sequence[ScenarioConfig]) -> list[SimulationRecord]:
    """`run(config, stride=0)` of each config, in input order.

    Configs with the same time grid, nz, ensemble and channel count, whose
    controls change inside the same steps, are integrated together, at most
    MAX_ROWS a solve, equal ones sharing a state row; no row's arithmetic
    depends on the others, so each record holds the bits of its lone run.
    All configs are checked for stability before solving.
    """
    groups: dict[tuple, tuple[np.ndarray, list[int]]] = {}
    for i, config in enumerate(configs):
        _check_stability(config)
        t_nodes = _time_grid(config)
        key = (t_nodes.tobytes(),) + _key(config)
        groups.setdefault(key, (t_nodes, []))[1].append(i)
    records: list = [None] * len(configs)

    def solve(chunk: list[tuple[int, _Controls]]) -> None:
        for (i, _), record in zip(chunk, _integrate([p for _, p in chunk], 0)):
            records[i] = record

    for t_nodes, members in groups.values():
        # a step takes the staged form in a solve if it does in one row, so
        # rows share a solve only where they take the same form at every step
        pending: dict[bytes, list[tuple[int, _Controls]]] = {}
        for i in members:
            p = _Controls(configs[i], t_nodes)
            form = p.staged.tobytes()
            chunk = pending.setdefault(form, [])
            chunk.append((i, p))
            if len(chunk) == MAX_ROWS:
                solve(pending.pop(form))
        for chunk in pending.values():
            solve(chunk)
    return records


def _integrate(
    parts: list[_Controls],
    stride: int,
    start: SimulationRecord | np.ndarray | None = None,
    sink=None,
    steps: int = 0,
) -> list[SimulationRecord]:
    """The records of configs on one time grid, integrated as the rows of one state.

    Each distinct row gets one coherence norm and one finiteness check.
    Snapshots (stride > 0), a sink and a start need a single part; `steps`
    is the whole grid's step count, which the snapshot plan follows.
    """
    first = parts[0]
    ens, z, t_nodes = first.config.ensemble, first.z, first.t_nodes
    nz, nch, dz = len(z), first.config.n_channels, z[1] - z[0]
    n_steps = len(t_nodes) - 1
    node = len(start.t) - 1 if isinstance(start, SimulationRecord) else 0  # where a continued record ends
    firsts, inverse = _distinct_rows(parts)
    rows = [parts[i] for i in firsts]

    # one row keeps a 1-D state and scalar stage coefficients; otherwise the
    # state is (rows, nz), with one (rows, 1) column per stage of each row's
    # own eta, stark, w2 and drive, and per step of its Taylor drive terms
    single = len(rows) == 1
    if single:
        eta_h, stark_h, w2_h, drive_h = first.eta_h, first.stark_h, first.w2_h, first.drive
        v2_drive, v4_drive = first.taylor_drive()
        shape = (nz,)
    else:
        eta_h, stark_h, w2_h, drive_h, v2_drive, v4_drive = (
            np.stack(arrays, axis=1)[..., None] for arrays in zip(
                *((p.eta_h, p.stark_h, p.w2_h, p.drive, *p.taylor_drive()) for p in rows)))
        shape = (len(rows), nz)
    changed = np.logical_or.reduce([p.changed for p in rows])
    eta_changed = np.logical_or.reduce([p.eta_changed for p in rows]).tobytes()
    staged = np.logical_or.reduce([p.staged for p in rows])
    # stages with a nonzero drive; adding a +-0 drive could flip only the sign
    # of a zero, and tests/test_reference.py checks that no recorded bit shows it
    driven = np.logical_or.reduce([p.drive != 0 for p in rows])
    step_driven = driven[:-1:2] | driven[1::2] | driven[2::2]

    # RK4 works in place in these buffers and views.  Z holds six contiguous
    # [v; C(v)] slots, a state and its unscaled z integral: sigma, k1..k4 (the
    # Taylor form's v1..v4) and the staged form's stage state.  A = [coef; w2],
    # so L v is multiply(A, slot, T), the drive added to T[0], and
    # T[0] - T[1].  Z starts at zero and only C(v)[..., 1:] is written, so
    # every integral keeps its first element at +0.
    Z = np.zeros((6, 2) + shape, dtype=complex)
    Z_sigma, Z_k1, Z_k2, Z_k3, _, Z_stage = Z
    sigma, k1, k2, k3, k4, stage = Z[:, 0]
    c, c_last = Z[0, 1], Z[0, 1, ..., -1]
    if start is not None:
        sigma[...] = start.coherence_end if node else start
    K_flat = Z[1:5, 0].reshape(4, -1)  # k1..k4, strided rows of Z
    flat = Z[:, 0].reshape(6, -1)
    sigma_hi, k1_hi, k2_hi, k3_hi, _, stage_hi = flat[:, 1:]
    sigma_lo, k1_lo, k2_lo, k3_lo, _, stage_lo = flat[:, :-1]
    c_tail, k1_c, k2_c, k3_c, _, stage_c = Z[:, 1, ..., 1:]
    A, T = np.empty((2, 2) + shape, dtype=complex)
    coef, T0, T1 = A[0], T[0], T[1]
    eta_z, lam = np.empty((2,) + shape)  # eta z, and eta z + stark
    update = np.empty(sigma.size, dtype=complex)
    update_state = update.reshape(shape)
    # pair[..., j] = v[..., j + 1] + v[..., j], added over the flattened state
    # in one contiguous loop; in a multi-row state the last column of
    # pair_rows mixes two rows and is never read
    pair_rows = np.empty_like(sigma)
    pair_flat, pair = pair_rows.reshape(-1)[:-1], pair_rows[..., :-1]
    weights = np.full(nz, complex(dz))  # trapezoid rule
    weights[[0, -1]] *= 0.5
    n_density = ens.n_density
    add, subtract, multiply, accumulate, dot = np.add, np.subtract, np.multiply, np.add.accumulate, np.dot

    def local(i: int) -> None:
        """Fill A with the local coefficient -(gamma0 + i(eta z + stark)) and w2 of stage i.

        eta z is kept until eta changes (a modulated coupling changes stark and
        w2 at every stage, eta only at a gradient switch).  Both rows of A have
        the state's shape: a multiply by a (rows, 1) column costs about twice a
        full one.
        """
        if eta_changed[i]:
            multiply(eta_h[i], z, eta_z)
        add(eta_z, stark_h[i], lam)
        multiply(1j, lam, coef)
        add(ens.gamma0, coef, coef)
        np.negative(coef, coef)
        A[1] = w2_h[i]

    # c[..., -1] per node, made into the boundary outputs after the loop
    c_end = np.zeros((n_steps + 1,) + shape[:-1], dtype=complex)
    own = [sigma] if single else list(sigma)  # each row's state
    norms = np.zeros((len(rows), n_steps + 1))
    # each node's state is copied into a ring of at most NORM_RING elements;
    # their coherence norms are taken and checked once the ring is full, and at
    # the loop's end
    ring = np.empty((max(1, NORM_RING // sigma.size), len(rows), nz), dtype=complex)
    sigma_rows = sigma.reshape(len(rows), nz)

    def flush(m: int, count: int) -> None:
        """The coherence norms of nodes m - count + 1 .. m, from the ring;
        NonFinite at the first node and row whose norm is not finite."""
        states = ring[:count]
        block = n_density * np.vecdot(states, weights * states).real
        first_node = m - count + 1
        norms[:, first_node:m + 1] = block.T
        if not np.isfinite(block).all():
            b, r = np.argwhere(~np.isfinite(block))[0]
            finite = np.abs(states[b, r][np.isfinite(states[b, r])])
            amax = float(finite.max()) if finite.size else math.inf
            raise NonFinite(step=first_node + int(b), time=float(t_nodes[first_node + b]), max_abs=amax)

    # a snapshot at every multiple of stride and at the whole grid's last step;
    # a run stopped early leaves one at its last node to the run continuing it,
    # and a continuation takes those before its first node from its record
    before = len(start.snapshot_t) if node and stride else 0
    end = n_steps + (n_steps == steps)  # a stopped run leaves its last node's to the run continuing it
    due = [m for m in [*range(0, steps, stride), steps] if node <= m < end] if stride else []
    count = before + len(due)  # the snapshots the record holds
    n_snap = steps // stride + 1 + (steps % stride != 0) if stride else 0
    store = (np.empty(n_snap), np.empty((n_snap, nch, nz), complex), np.empty((n_snap, nz), complex),
             np.empty((n_snap, nz))) if sink is None else sink.allocate(n_snap, nch, z)
    snap_t, snap_fields, snap_sigma, snap_psi = store
    if before and not np.shares_memory(snap_t, start.snapshot_t):  # not the record's own store
        prefix = (start.snapshot_t, start.snapshot_fields, start.snapshot_sigma, start.k_spectra.magnitude)
        for a, b in zip(store, prefix):
            a[:before] = b
        if sink is not None:
            for k in range(before):
                sink.publish(k)

    def snapshot(m: int) -> None:
        """Record the snapshot and k-spectrum of node m, whose state's integral c holds."""
        k = -(-m // stride)  # m / stride, rounded up at a last step off the stride
        snap_t[k] = t_nodes[m]
        fields = snap_fields[k]
        np.multiply(first.kappa[:, m][:, None], c, out=fields)
        np.add(first.e_in_h[:, 2 * m][:, None], fields, out=fields)
        snap_sigma[k] = sigma
        psi = _bright_polariton(fields, sigma, ens, first.omegas_h[:, 2 * m])
        np.abs(np.fft.fftshift(psi), out=snap_psi[k])
        if sink is not None:
            sink.publish(k)

    # from zero coherence, steps before m0 see no drive and keep sigma (and
    # its integral c) at +0: each stage is +-0 and +0 + (-0) = +0, and the
    # coherence norm and c_end of their nodes are the zeros they were made with
    if start is None:
        live = np.flatnonzero(driven)
        m0 = max(0, (int(live[0]) - 1) // 2) if live.size else n_steps
    else:  # a coherence at node 0, or a continued record's at its last node
        m0 = node
        if node:
            norms[0, :node] = start.coherence_norm[:node]
    # the nodes where the loop records a snapshot, in the order popped; those
    # in a skipped lead-in are recorded here
    for m in due:
        if m < m0:
            snapshot(m)
    stops = [m for m in due if m >= m0]
    stops.reverse()
    next_stop = stops.pop() if stops else -1
    # mode mismatch, applied to a row after the first step ending at or after
    # its time; a skipped step applied it, to a zero state
    mismatches = sorted(((p.config.mismatch_time - 1e-12, row, p.config.mode_mismatch)
                         for p, row in zip(rows, own)
                         if p.config.mismatch_time is not None and p.config.mode_mismatch != 1.0
                         and not (m0 > 0 and t_nodes[m0] >= p.config.mismatch_time - 1e-12)),
                        key=lambda item: item[0], reverse=True)
    next_mismatch = mismatches[-1][0] if mismatches else math.inf
    # each step's weights, once per distinct step size; the items of h_at and
    # of the flags index as Python floats and ints
    t_at, h_at = memoryview(t_nodes), memoryview(first.h)
    rk4 = {dt: _step_weights(dt) for dt in set(h_at[m0:])}
    changed, driven, staged_at, step_driven = (a.tobytes() for a in (changed, driven, staged, step_driven))
    multiply(eta_h[2 * m0], z, eta_z)
    local(2 * m0)
    filled, block_len = 0, len(ring)

    for m in range(m0, n_steps + 1):
        # node m: the z-integral of its state (also this step's k1 integral),
        # its boundary values, a copy into the norm ring, and a snapshot when due
        add(sigma_hi, sigma_lo, pair_flat)
        accumulate(pair, -1, None, c_tail)
        c_end[m] = c_last
        ring[filled] = sigma_rows
        filled += 1
        if filled == block_len or m == n_steps:
            flush(m, filled)
            filled = 0
        if m == next_stop:
            snapshot(m)
            next_stop = stops.pop() if stops else -1
        if m == n_steps:
            break

        # one RK4 step, with L v = coef * v - w2 c(v) and c(v) the integral of
        # v; both forms begin with k1 = v1 = L sigma + drive
        half, full, rk4_weights, taylor_weights = rk4[h_at[m]]
        i = 2 * m
        multiply(A, Z_sigma, T)
        if driven[i]:
            add(T0, drive_h[i], T0)
        subtract(T0, T1, k1)

        if staged_at[m]:
            # the staged step, where L changes inside it: k = L(state) + drive,
            # with state sigma + h k_in
            i += 1
            if changed[i]:
                local(i)
            multiply(half, k1, stage)
            add(sigma, stage, stage)
            add(stage_hi, stage_lo, pair_flat)
            accumulate(pair, -1, None, stage_c)
            multiply(A, Z_stage, T)
            if driven[i]:
                add(T0, drive_h[i], T0)
            subtract(T0, T1, k2)

            multiply(half, k2, stage)
            add(sigma, stage, stage)
            add(stage_hi, stage_lo, pair_flat)
            accumulate(pair, -1, None, stage_c)
            multiply(A, Z_stage, T)
            if driven[i]:
                add(T0, drive_h[i], T0)
            subtract(T0, T1, k3)

            i += 1
            if changed[i]:
                local(i)
            multiply(full, k3, stage)
            add(sigma, stage, stage)
            add(stage_hi, stage_lo, pair_flat)
            accumulate(pair, -1, None, stage_c)
            multiply(A, Z_stage, T)
            if driven[i]:
                add(T0, drive_h[i], T0)
            subtract(T0, T1, k4)
            update_weights = rk4_weights  # (h/6, h/3, h/3, h/6)
        else:
            # RK4's Taylor form, the same map while L holds over the step:
            # v2 = L v1 + 2(d_mid - d0)/h, v3 = L v2, v4 = L v3 + 4(d0 - 2 d_mid + d1)/h^3
            add(k1_hi, k1_lo, pair_flat)
            accumulate(pair, -1, None, k1_c)
            multiply(A, Z_k1, T)
            if step_driven[m]:
                add(T0, v2_drive[m], T0)
            subtract(T0, T1, k2)

            add(k2_hi, k2_lo, pair_flat)
            accumulate(pair, -1, None, k2_c)
            multiply(A, Z_k2, T)
            subtract(T0, T1, k3)

            add(k3_hi, k3_lo, pair_flat)
            accumulate(pair, -1, None, k3_c)
            multiply(A, Z_k3, T)
            if step_driven[m]:
                add(T0, v4_drive[m], T0)
            subtract(T0, T1, k4)
            update_weights = taylor_weights  # (h, h^2/2, h^3/6, h^4/24)

        # the update, one dot product of the weights with k1..k4
        dot(update_weights, K_flat, update)
        add(sigma, update_state, sigma)
        while t_at[m + 1] >= next_mismatch:
            _, row, factor = mismatches.pop()
            np.multiply(row, factor, out=row)
            next_mismatch = mismatches[-1][0] if mismatches else math.inf

    k_axis = np.fft.fftshift(k_grid(nz, dz))
    n_staged = int(np.count_nonzero(staged[m0:]))
    records = []
    for p, j in zip(parts, inverse):
        # E_j(t, L) = E_j(t, 0) + kappa_j(t) integral_0^L sigma dz, one integral
        # for every channel (dz/2 in kappa; a + b == b + a to the bit); a
        # skipped lead-in has zero source and integral
        out = np.multiply(p.kappa.T, (c_end if single else c_end[:, j])[:, None], order="C")
        np.add(out, p.e_in_h[:, 0::2].T, out=out)
        if node:
            out[:node] = start.boundary_out[:node]  # a continued prefix's
        record = SimulationRecord(
            config=p.config,
            t=t_nodes,
            z=z,
            boundary_out=out,
            boundary_in=np.ascontiguousarray(p.e_in_h[:, 0::2].T),
            snapshot_t=snap_t[:count],
            snapshot_fields=snap_fields[:count],
            snapshot_sigma=snap_sigma[:count],
            k_spectra=KSpectrumHistory(t=snap_t[:count], k=k_axis, magnitude=snap_psi[:count]),
            window_energies={},
            snapshot_stride=stride,
            coherence_norm=norms[j],
            coherence_end=own[j].copy(),
            diagnostics={"steps_integrated": n_steps - m0, "rows_integrated": len(rows),
                         "staged_steps": n_staged},
        )
        record.window_energies = record.recompute_window_energies()
        records.append(record)
    return records


def SolverSettings(snapshot_stride: int | None = None, kspec_stride: int | None = None) -> int | None:
    """The `stride` of `run` under its former name, kept only for perfbench/run.py."""
    return snapshot_stride


# ---------------------------------------------------------------------------
# polariton diagnostics
# ---------------------------------------------------------------------------

def k_grid(nz: int, dz: float) -> np.ndarray:
    """Diagnostic spatial-frequency grid (unshifted FFT order)."""
    return 2.0 * math.pi * np.fft.fftfreq(nz, d=dz)


def _dft(values: np.ndarray) -> np.ndarray:
    return np.fft.fft(values) / values.shape[-1]


def _bright_polariton(
    fields: np.ndarray, sigma: np.ndarray, ens: EnsembleParams, omegas: np.ndarray
) -> np.ndarray:
    """psi(k) for the coupling-weighted bright field combination.

    Reduces to k E + (N Omega_c/Delta) sigma for a single channel with a
    real positive coupling; multi-channel records use the weighted sum
    sum_j conj(Omega_j) E_j / Omega_rms so that only the combination that
    actually exchanges with the coherence is tracked.
    """
    nz = sigma.shape[0]
    dz = ens.length / (nz - 1)
    kvec = k_grid(nz, dz)
    omega_rms = math.sqrt(float(np.sum(np.abs(omegas) ** 2)))
    if omega_rms == 0.0:
        bright = np.zeros(nz, dtype=complex)
        weight = 0.0
    else:
        bright = np.tensordot(np.conj(omegas) / omega_rms, fields, axes=(0, 0))
        weight = ens.n_density * omega_rms / ens.delta
    return kvec * _dft(bright) + weight * _dft(sigma)


def polariton_spectrum(
    field: FieldState,
    coh: CoherenceState,
    params: EnsembleParams,
    omega_c: complex,
) -> tuple[np.ndarray, np.ndarray]:
    """Normal-mode spectrum psi(k) = k E(k) + (N Omega_c/Delta) sigma(k).

    Returns (k, psi) with k ascending (fftshifted).  Uses the normalised
    forward DFT, so sigma(z) = exp(i k0 z) with k0 on the grid gives
    |psi(k0)| = N |Omega_c| / |Delta|.
    """
    e_field = field.fields[0] if field.fields.ndim == 2 else field.fields
    nz = coh.sigma.shape[0]
    dz = params.length / (nz - 1)
    kvec = k_grid(nz, dz)
    psi = kvec * _dft(e_field) + (params.n_density * omega_c / params.delta) * _dft(coh.sigma)
    return np.fft.fftshift(kvec), np.fft.fftshift(psi)


CENTROID_FLOOR = 1e-3  # relative to the record-wide |psi| maximum


def k_centroid_track(
    record: SimulationRecord, floor: float = CENTROID_FLOOR
) -> list[tuple[float, float]]:
    """Weighted centroid k(t) of |psi(k)|^2, skipping empty spectra.

    Bins below floor * max|psi| (max over the whole record) are ignored;
    sample times whose total surviving weight vanishes are dropped.
    Raises EmptySpectrum when nothing survives at all.
    """
    spec = record.k_spectra
    peak = float(spec.magnitude.max(initial=0.0))
    if peak <= 0.0:
        raise EmptySpectrum("polariton spectrum is identically zero")
    cut = floor * peak
    out = []
    for i, t in enumerate(spec.t):
        mag = spec.magnitude[i]
        mask = mag >= cut
        if not mask.any():
            continue
        w = mag[mask] ** 2
        out.append((float(t), float(np.sum(spec.k[mask] * w) / np.sum(w))))
    if not out:
        raise EmptySpectrum("no spectrum sample exceeds the magnitude floor")
    return out


def _centroid_crossings(track: Sequence[tuple[float, float]], window) -> list[float]:
    crossings = []
    for (t0, k0), (t1, k1) in zip(track, track[1:]):
        if window[0] <= t1 and t0 <= window[1] and k0 * k1 < 0:
            crossings.append(t0 + (t1 - t0) * (-k0) / (k1 - k0))
    return crossings


def crossing_phase(record: SimulationRecord, window: tuple[float, float]) -> float:
    """Phase jump of arg[E(t, k) conj(sigma(t, k))] across a k=0 crossing.

    The relative phase is estimated at snapshot times on either side of
    the crossing by aggregating E(k) conj(sigma(k)) over the dominant
    coherence modes on the packet's side of the spectrum (DC bins
    excluded); the |sigma|-weighted sum is insensitive to the nulls of
    the fringed packet spectrum and to spectral leakage from the freely
    escaping field.  The change across the crossing is returned in
    [0, 2 pi).
    """
    track = k_centroid_track(record)
    crossings = _centroid_crossings(track, window)
    if not crossings:
        raise NoCrossing(f"centroid does not cross k=0 within {window}")
    t_cross = crossings[0]

    nz = record.z.shape[0]
    dz = record.z[1] - record.z[0]
    kvec = np.fft.fftshift(k_grid(nz, dz))
    dk = kvec[1] - kvec[0]

    track_t = np.array([t for t, _ in track])
    track_k = np.array([k for _, k in track])

    samples = []
    for fs, cs in record.snapshots:
        if not (window[0] <= fs.t <= window[1]):
            continue
        kbar = float(np.interp(fs.t, track_t, track_k))
        if abs(kbar) < 3.0 * dk:
            continue  # too close to the singular DC region
        e_hat = np.fft.fftshift(_dft(fs.fields[0]))
        s_hat = np.fft.fftshift(_dft(cs.sigma))
        mask = (np.sign(kvec) == np.sign(kbar)) & (np.abs(kvec) >= 1.5 * dk)
        mask &= np.abs(s_hat) >= 0.1 * np.abs(s_hat[mask]).max(initial=0.0)
        if not mask.any():
            continue
        weighted = np.sum(e_hat[mask] * np.conj(s_hat[mask]) * np.abs(s_hat[mask]))
        if weighted == 0.0:
            continue
        samples.append((fs.t, complex(weighted / abs(weighted)), fs.t > t_cross))

    def side_phase(side: list[complex]) -> float:
        mean = sum(side)
        phase = math.atan2(mean.imag, mean.real)
        # one round of outlier rejection against the circular mean
        ref = complex(math.cos(phase), math.sin(phase))
        kept = [u for u in side if abs(np.angle(u * np.conj(ref))) < 1.0]
        if kept:
            mean = sum(kept)
            phase = math.atan2(mean.imag, mean.real)
        return phase

    before = [u for t, u, after in samples if not after][-6:]
    after = [u for t, u, after in samples if after][:6]
    if not before or not after:
        raise NoCrossing("not enough snapshots on both sides of the crossing")
    jump = side_phase(after) - side_phase(before)
    return float(np.mod(jump, 2.0 * math.pi))


def maxwell_residual(
    field: FieldState,
    coh: CoherenceState,
    params: EnsembleParams,
    omega_c: complex,
    floor: float = 0.05,
) -> float:
    """Worst relative error of k E(k) = g N (conj(Omega_c)/Delta) sigma(k).

    Checked over the dominant coherence modes (|sigma(k)| above floor of
    its peak, DC bin excluded).  The equations hold on a finite cell, not
    a periodic one, so the transform is trapezoid-corrected and the
    boundary contribution -i [E(L) e^{-ikL} - E(0)] / L is added back.
    """
    e_field = field.fields[0] if field.fields.ndim == 2 else field.fields
    nz = coh.sigma.shape[0]
    dz = params.length / (nz - 1)
    length = params.length
    kvec = k_grid(nz, dz)

    def dft_trap(values: np.ndarray) -> np.ndarray:
        # trapezoid-rule transform (1/L) integral_0^L f exp(-ikz) dz
        total = np.fft.fft(values)
        edge = 0.5 * (values[0] + values[-1] * np.exp(-1j * kvec * (nz - 1) * dz))
        return (total - edge) * dz / length

    e_hat = dft_trap(e_field)
    s_hat = dft_trap(coh.sigma)
    weight = params.g * params.n_density * np.conj(omega_c) / params.delta
    boundary = -1j * (e_field[-1] * np.exp(-1j * kvec * length) - e_field[0]) / length
    lhs = kvec * e_hat + boundary
    rhs_vals = weight * s_hat
    mask = (np.abs(s_hat) >= floor * np.abs(s_hat).max()) & (kvec != 0.0)
    if not mask.any():
        raise EmptySpectrum("no dominant coherence modes above the floor")
    return float(np.max(np.abs(lhs[mask] - rhs_vals[mask]) / np.abs(rhs_vals[mask])))
