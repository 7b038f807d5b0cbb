"""Lumped beamsplitter model: closed-form values and unitarity properties."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemsim import oracle
from gemsim.errors import NoRoot, ZeroGradient
from gemsim.model import EnsembleParams

TWO_PI = 2 * math.pi


# ---------------------------------------------------------------------------
# effective optical depth
# ---------------------------------------------------------------------------

def test_effective_beta_zero_coupling():
    params = EnsembleParams(g=1, n_density=1, delta=1, length=1)
    assert oracle.effective_beta(params, eta=2.0, omega_c=0.0) == 0.0


def test_effective_beta_direct_value():
    # g N / eta = 1 and a 3/4 coupling ratio
    params = EnsembleParams(g=1.0, n_density=2.0, delta=1.0)
    assert oracle.effective_beta(params, eta=2.0, omega_c=0.75) == 0.5625


def test_effective_beta_quadratic_in_coupling():
    params = EnsembleParams(g=1.0, n_density=5.0, delta=2.0)
    b1 = oracle.effective_beta(params, eta=3.0, omega_c=0.4)
    b2 = oracle.effective_beta(params, eta=3.0, omega_c=0.8)
    assert b2 == pytest.approx(4 * b1, rel=1e-14)


def test_effective_beta_uses_magnitudes():
    params = EnsembleParams(g=1.0, n_density=5.0, delta=-2.0)
    assert oracle.effective_beta(params, eta=-3.0, omega_c=0.4j) == pytest.approx(
        oracle.effective_beta(EnsembleParams(g=1, n_density=5, delta=2), 3.0, 0.4), rel=1e-14
    )


def test_effective_beta_zero_gradient():
    with pytest.raises(ZeroGradient):
        oracle.effective_beta(EnsembleParams(), eta=0.0, omega_c=0.5)


# ---------------------------------------------------------------------------
# transmissivity / reflectivity
# ---------------------------------------------------------------------------

def test_transmission_identity_case():
    assert oracle.transmissivity(0.0) == 1.0
    assert oracle.reflectivity(0.0) == 0.0


def test_transmission_direct_value():
    assert oracle.transmissivity(0.25) == pytest.approx(math.exp(-math.pi / 2), rel=1e-15)
    assert oracle.reflectivity(0.25) == pytest.approx(1 - math.exp(-math.pi / 2), rel=1e-15)


def test_first_recall_reflectivity_back_solve():
    # a 37% recall reflectivity corresponds to beta = ln(1/0.63)/(2 pi)
    beta = math.log(1 / 0.63) / TWO_PI
    assert beta == pytest.approx(0.0735, abs=5e-5)
    assert oracle.reflectivity(beta) == pytest.approx(0.37, rel=1e-12)


@given(st.floats(min_value=0.0, max_value=60.0, allow_nan=False))
def test_t_plus_r_is_exactly_one(beta):
    assert oracle.transmissivity(beta) + oracle.reflectivity(beta) == 1.0


@given(
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=1e-6, max_value=5.0),
)
def test_transmissivity_strictly_decreasing(beta, step):
    assert oracle.transmissivity(beta + step) < oracle.transmissivity(beta)


# ---------------------------------------------------------------------------
# interference events
# ---------------------------------------------------------------------------

def test_interfere_plain_read():
    e_out, stored = oracle.interfere( (0.6 + 0.1j), 0.0, beta=0.3)
    r_amp = math.sqrt(oracle.reflectivity(0.3))
    t_amp = math.sqrt(oracle.transmissivity(0.3))
    assert e_out == pytest.approx(r_amp * (0.6 + 0.1j), rel=1e-14)
    assert stored == pytest.approx(t_amp * (0.6 + 0.1j), rel=1e-14)


def test_interfere_balanced_suppression():
    # stored arm sqrt(R1) e^{-gamma0 tau} Ep against a balanced steering input
    r1, gamma0, tau, ep, es = 0.8, 0.05, 2.0, 1.0, 0.9
    beta2 = oracle.balance_coupling(r1, gamma0, tau, ep, es)
    a = math.sqrt(r1) * math.exp(-gamma0 * tau) * ep
    e_out, _ = oracle.interfere(a, es, beta2, theta=math.pi)
    assert abs(e_out) < 1e-9


def test_interfere_unitarity_example():
    beta_half = math.log(2.0) / TWO_PI  # T = R = 1/2
    e_out, stored = oracle.interfere(math.sqrt(0.5), 1.0, beta_half, theta=0.0, mu=1.0)
    assert abs(e_out) ** 2 + abs(stored) ** 2 == pytest.approx(1.5, rel=1e-12)


@settings(max_examples=200)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_interfere_is_unitary_at_full_overlap(beta, theta, a, b):
    e_out, stored = oracle.interfere(a, b, beta, theta, mu=1.0)
    assert abs(e_out) ** 2 + abs(stored) ** 2 == pytest.approx(
        abs(a) ** 2 + abs(b) ** 2, rel=1e-10, abs=1e-12
    )


@settings(max_examples=100)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=-math.pi, max_value=math.pi),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_interfere_never_gains_energy(beta, theta, mu):
    e_out, stored = oracle.interfere(0.7 + 0.2j, -0.3 + 0.9j, beta, theta, mu)
    total_in = abs(0.7 + 0.2j) ** 2 + abs(-0.3 + 0.9j) ** 2
    assert abs(e_out) ** 2 + abs(stored) ** 2 <= total_in * (1 + 1e-12)


# ---------------------------------------------------------------------------
# cascades
# ---------------------------------------------------------------------------

def test_write_hold_read_closed_form():
    beta, gamma0, tau = 0.25, 0.08, 3.0
    state = oracle.predict_record(
        [1.0],
        [oracle.BsEvent("write", beta), oracle.BsEvent("read", beta)],
        gamma0=gamma0,
        hold_times=[tau],
    )
    r = oracle.reflectivity(beta)
    assert state.energies()[1] == pytest.approx(r * r * math.exp(-2 * gamma0 * tau), rel=1e-12)


def test_interference_cascade_matches_fold_algebra():
    # write(b1), hold t1, interfere(b2, theta), hold t2, read(b3)
    b1, b2, b3 = 0.225, 0.1103, 0.225
    theta, gamma0, t1, t2 = math.pi, 0.03, 2.0, 2.5
    ep, es = 1.0, 0.7
    state = oracle.predict_record(
        [ep, es],
        [
            oracle.BsEvent("write", b1),
            oracle.BsEvent("interfere", b2, theta=theta),
            oracle.BsEvent("read", b3),
        ],
        gamma0=gamma0,
        hold_times=[t1, t2],
    )
    # independent fold from the T/R algebra
    d1, d2 = math.exp(-gamma0 * t1), math.exp(-gamma0 * t2)
    sr = [math.sqrt(oracle.reflectivity(b)) for b in (b1, b2, b3)]
    st_ = [math.sqrt(oracle.transmissivity(b)) for b in (b1, b2, b3)]
    a = sr[0] * ep * d1
    e1 = sr[1] * a + cmath.exp(1j * theta) * st_[1] * es
    stored = (st_[1] * a - cmath.exp(1j * theta) * sr[1] * es) * d2
    e2 = sr[2] * stored
    assert state.optical_out[1] == pytest.approx(e1, rel=1e-12)
    assert state.optical_out[2] == pytest.approx(e2, rel=1e-12)
    # at theta = pi the cross term into storage is constructive
    assert abs(stored) ** 2 > st_[1] ** 2 * a**2 + sr[1] ** 2 * es**2


def test_balanced_cascade_suppresses_first_output():
    b1 = 0.3
    r1 = oracle.reflectivity(b1)
    gamma0, tau = 0.02, 4.0
    b2 = oracle.balance_coupling(r1, gamma0, tau, 1.0, 1.0)
    state = oracle.predict_record(
        [1.0, 1.0],
        [oracle.BsEvent("write", b1), oracle.BsEvent("interfere", b2, theta=math.pi)],
        gamma0=gamma0,
        hold_times=[tau],
    )
    assert state.energies()[1] < 1e-18


def test_full_decay_limit():
    theta = 0.9
    state = oracle.predict_record(
        [1.0, 0.8],
        [oracle.BsEvent("write", 0.4), oracle.BsEvent("interfere", 0.2, theta=theta)],
        gamma0=1.0,
        hold_times=[1e4],
    )
    expected = cmath.exp(1j * theta) * math.sqrt(oracle.transmissivity(0.2)) * 0.8
    assert state.optical_out[1] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=math.tau),
)
def test_cascade_conserves_energy_without_decay(betas, theta):
    events = [oracle.BsEvent("write", betas[0])]
    pulses = [1.0]
    for b in betas[1:]:
        events.append(oracle.BsEvent("interfere", b, theta=theta))
        pulses.append(0.5)
    state = oracle.predict_record(pulses, events, gamma0=0.0, hold_times=[1.0] * (len(events) - 1))
    total_in = sum(abs(p) ** 2 for p in pulses)
    total_out = sum(state.energies()) + state.stored_energy()
    assert total_out == pytest.approx(total_in, rel=1e-10)


# ---------------------------------------------------------------------------
# balance solving
# ---------------------------------------------------------------------------

def test_balance_equal_arms_is_half_split():
    beta2 = oracle.balance_coupling(1.0, 0.0, 0.0, 1.0, 1.0)
    assert beta2 == pytest.approx(math.log(2.0) / TWO_PI, rel=1e-8)
    assert beta2 == pytest.approx(0.1103, abs=5e-5)


@pytest.mark.parametrize("r1", [0.05, 0.5, 1.0])
@pytest.mark.parametrize("gamma0, tau", [(0.0, 0.0), (0.05, 2.0), (0.3, 7.0)])
@pytest.mark.parametrize("ep, es", [(1.0, 1.0), (0.3, 2.0), (4.0, 0.01)])
def test_balance_is_the_log1p_form(r1, gamma0, tau, ep, es):
    expected = math.log1p(es**2 / (r1 * math.exp(-2.0 * gamma0 * tau) * ep**2)) / TWO_PI
    assert oracle.balance_coupling(r1, gamma0, tau, ep, es) == pytest.approx(expected, rel=1e-15)


def test_balance_refuses_a_negative_reflectivity():
    with pytest.raises(ValueError):
        oracle.balance_coupling(-2.0, 0.0, 0.0, 1.0, 1.0)


def test_balance_no_steering_raises():
    with pytest.raises(NoRoot):
        oracle.balance_coupling(1.0, 0.0, 0.0, 1.0, 0.0)


def test_balance_dead_stored_arm_raises():
    with pytest.raises(NoRoot):
        oracle.balance_coupling(0.0, 0.0, 0.0, 1.0, 1.0)


def test_balance_matches_closed_form():
    # T2 = R1 D^2 Ep^2 / (Es^2 + R1 D^2 Ep^2), here with e^{-2 gamma0 tau} = 0.9
    r1, ep, es = 0.8, 1.0, 1.0
    gamma0 = 0.05
    tau = -math.log(0.9) / (2 * gamma0)
    beta2 = oracle.balance_coupling(r1, gamma0, tau, ep, es)
    t2_closed = r1 * 0.9 * ep**2 / (es**2 + r1 * 0.9 * ep**2)
    beta_closed = -math.log(t2_closed) / TWO_PI
    assert beta2 == pytest.approx(beta_closed, rel=1e-9)
    residual = math.sqrt(r1 * oracle.reflectivity(beta2)) * math.sqrt(0.9) * ep - math.sqrt(
        oracle.transmissivity(beta2)
    ) * es
    assert abs(residual) < 1e-9


# ---------------------------------------------------------------------------
# fringe structure
# ---------------------------------------------------------------------------

def test_fringe_visibility_unity_at_balance():
    beta = 0.21
    t_int, r_int = oracle.transmissivity(beta), oracle.reflectivity(beta)
    a = 1.3
    b = a * math.sqrt(r_int / t_int)
    assert oracle.fringe_visibility(beta, a, b) == pytest.approx(1.0, rel=1e-12)


@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.floats(min_value=0.05, max_value=0.95),
    st.floats(min_value=0.05, max_value=2.0),
)
def test_fringe_visibility_monotone_in_overlap_when_balanced(mu, dmu_frac, beta):
    # on a configuration balanced at mu=1 the visibility is 2 mu/(1+mu^2),
    # strictly increasing over (0, 1]
    a = 1.0
    b = a * math.sqrt(oracle.reflectivity(beta) / oracle.transmissivity(beta))
    mu2 = mu * dmu_frac
    v_hi = oracle.fringe_visibility(beta, a, b, mu)
    v_lo = oracle.fringe_visibility(beta, a, b, mu2)
    assert v_lo < v_hi
    assert v_hi == pytest.approx(2 * mu / (1 + mu * mu), rel=1e-9)


def test_fringe_anti_correlation():
    """Output fringes of the two ports are exact sinusoids in anti-phase."""
    beta, a, b = 0.2, 0.9, 0.7
    thetas = [2 * math.pi * i / 16 for i in range(16)]
    out_e = []
    out_s = []
    for theta in thetas:
        e_out, stored = oracle.interfere(a, b, beta, theta)
        out_e.append(abs(e_out) ** 2)
        out_s.append(abs(stored) ** 2)
        assert abs(e_out) ** 2 + abs(stored) ** 2 == pytest.approx(a**2 + b**2, rel=1e-12)
    assert max(out_e) == pytest.approx(a**2 + b**2 - min(out_s), rel=1e-12)
    assert thetas[out_e.index(max(out_e))] == thetas[out_s.index(min(out_s))]


def test_visibility_formula_matches_swept_fringe():
    beta, a, b, mu = 0.32, 1.1, 0.6, 0.77
    thetas = [2 * math.pi * i / 256 for i in range(256)]
    energies = [abs(oracle.interfere(a, b, beta, th, mu)[0]) ** 2 for th in thetas]
    swept = (max(energies) - min(energies)) / (max(energies) + min(energies))
    assert oracle.fringe_visibility(beta, a, b, mu) == pytest.approx(swept, rel=1e-6)
