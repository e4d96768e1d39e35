"""The self-check suite and every form only it and the tests read.

``validate`` runs the CHECKS table, which compares the exact Chebyshev
pipeline against dense oracles and the closed forms.  The references it
needs beyond what the commands write live here, so no figure command
imports this module (``cli.main`` loads it for ``validate`` only): the
strong-charger amplitudes, the charging time and the peak ergotropy, the
locked energy, the ergotropy window and its bisection, the power at the
charging time, the independent two-battery populations, the dense
oracles (the full Hamiltonian scattered from model.terms, build_total;
its LAPACK eigendecomposition, eigh; spectral propagation with that on a
time grid, evolve_on_grid; the sliced Taylor-series propagator and the
Gershgorin bound of a dense matrix), the looped partial trace, the
corrupted coupling, the states of a whole expansion or trajectory at
once and the full-space start vector, and the oracle gaps that
acceptance criterion 8 calls with larger cases.  A part of H is read from
build_total with the other parts switched off.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .analytic import (
    AnalyticParams,
    _times,
    ergotropy_analytic,
    excited_population,
    stored_energy_analytic,
)
from .config import InitialStateSpec, ModelSpec, replace
from .dynamics import Trajectory, _place, charger_state, random_state, trajectory
from .experiments import POWER_PEAK_COEFF, _max_gap, analytic_reference, run_series
from .linalg import GRID_BLOCK, _check_state, chebyshev_series, interpolate, state_blocks
from .model import battery_energies, battery_positions, sector_layout, terms, total_matvec
from .observables import charging_power, reduce_to_battery

# ---------------------------------------------------------------------------
# strong-charger forms that no command writes


def amplitudes(p: AnalyticParams, t):
    """Ground/excited battery amplitudes (A, B) at time t.

    At omega = 0 the frozen limit (1, 0) follows from r = s = 0.
    """
    half = p.omega * _times(t) / 2.0
    return np.cos(half) + 1j * p.s * np.sin(half), 1j * p.r * np.sin(half)


def unavailable_analytic(p: AnalyticParams, t):
    """Energy locked by charger-battery correlations: delta * (1 - |B(t)|^2).

    Equals stored energy minus ergotropy on the nonzero-ergotropy window,
    and is positive for every t and every parameter choice.
    """
    return p.delta * (1.0 - excited_population(p, t))


def charging_time(p: AnalyticParams) -> float:
    """First time the stored energy peaks: T = pi / omega."""
    if p.omega == 0.0:
        raise ValueError("charging time is undefined for delta = kappa = 0")
    return float(np.pi / p.omega)


def max_ergotropy(p: AnalyticParams) -> float:
    """Peak extractable work delta (r^2 - s^2), reached at T.

    Clamped at 0 below the 2 kappa >= delta threshold; grows monotonically
    with the coupling and saturates at delta.
    """
    return max(0.0, p.delta * (p.r * p.r - p.s * p.s))


def window_times(p: AnalyticParams):
    """First window (t1, t2) of nonzero ergotropy, or None when 2 kappa < delta.

    t = (2/omega) arccos(+-sqrt((4 kappa^2 - delta^2) / (8 kappa^2))); the
    window is symmetric about the charging time.  At 2 kappa = delta it
    degenerates to the single point t1 = t2 = T.
    """
    if p.kappa == 0.0 or 2.0 * p.kappa < p.delta:
        return None
    arg = np.sqrt((4.0 * p.kappa ** 2 - p.delta ** 2) / (8.0 * p.kappa ** 2))
    t1 = 2.0 / p.omega * np.arccos(arg)
    t2 = 2.0 / p.omega * np.arccos(-arg)
    return float(t1), float(t2)


def bisect_window(p: AnalyticParams):
    """Locate the ergotropy window by sign-change bracketing plus bisection.

    Independent of ``window_times``: scans delta*(2|B|^2 - 1) at 512 points
    of one period and bisects each sign change to 1e-9.  Returns (t1, t2) or
    None when there is no sign change (including the tangent case
    2 kappa = delta, where the window is a single point).
    """
    if p.omega == 0.0:
        return None
    grid = np.linspace(0.0, 2.0 * np.pi / p.omega, 512)
    raw = lambda t: p.delta * (2.0 * float(excited_population(p, t)) - 1.0)
    values = p.delta * (2.0 * excited_population(p, grid) - 1.0)
    crossings = []
    for k in range(1, grid.size):
        lo, hi = float(grid[k - 1]), float(grid[k])
        if values[k - 1] == 0.0 or np.sign(values[k - 1]) == np.sign(values[k]):
            continue
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if np.sign(raw(mid)) == np.sign(raw(lo)):
                lo = mid
            else:
                hi = mid
        crossings.append(0.5 * (lo + hi))
    if len(crossings) < 2:
        return None
    return crossings[0], crossings[1]


def power_at_T(p: AnalyticParams) -> float:
    """Power at the charging time: 4 delta kappa^2 / (pi omega)."""
    if p.omega == 0.0:
        raise ValueError("undefined for delta = kappa = 0")
    return float(4.0 * p.delta * p.kappa ** 2 / (np.pi * p.omega))


class TwoBatteryResult(NamedTuple):
    """Corner populations and figures of merit for two batteries.

    lambda1/lambda4 are the |00><00| / |11><11| populations of the reduced
    two-battery state; both stored energy and ergotropy are exactly twice
    the single-battery values at every time.
    """

    lambda1: np.ndarray
    lambda4: np.ndarray
    stored_energy: np.ndarray
    ergotropy: np.ndarray


def two_battery(p: AnalyticParams, t) -> TwoBatteryResult:
    """Two-battery closed forms from the even/odd time-power resummation:
    an oracle for the n-battery forms, derived without them."""
    t = _times(t)
    half_sq = np.sin(p.omega * t / 2.0) ** 2
    coupling_frac = p.r * p.r
    lambda1 = (
        np.cos(p.omega * t) ** 2
        + coupling_frac ** 2 * half_sq ** 2
        + 2.0 * coupling_frac * np.cos(p.omega * t) * half_sq
        + p.s ** 2 * np.sin(p.omega * t) ** 2
    )
    lambda4 = (coupling_frac * half_sq) ** 2
    stored = p.delta * (1.0 + lambda4 - lambda1)
    work = np.maximum(0.0, 2.0 * p.delta * (2.0 * coupling_frac * half_sq - 1.0))
    return TwoBatteryResult(lambda1, lambda4, stored, work)


# ---------------------------------------------------------------------------
# dense oracles

HERMITICITY_TOL = 1e-12


def _matrix_of(operator) -> np.ndarray:
    """The operand as a square matrix."""
    m = np.asarray(operator)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def eigh(operator) -> tuple[np.ndarray, np.ndarray]:
    """``(eigenvalues, eigenvectors)`` of a dense Hermitian matrix, as from
    np.linalg.eigh.  Real symmetric input (every model Hamiltonian) is solved
    in real arithmetic, several times faster than the complex driver."""
    m = _matrix_of(operator)
    if m.shape[0] == 0:
        raise ValueError("cannot diagonalize an empty matrix")
    asymmetry = _max_gap(m, m.conj().T)
    if asymmetry > HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |H - H^dag| entry = {asymmetry:.3e}"
        )
    if np.iscomplexobj(m) and np.count_nonzero(m.imag):
        return np.linalg.eigh(m)
    return np.linalg.eigh(m.real)


def evolve_on_grid(decomp, psi0, times) -> np.ndarray:
    """psi0 propagated to every grid time, shape (len(times), dim), with the
    ``(eigenvalues, eigenvectors)`` pair of eigh(); grid points are batched
    into matrix-matrix products, GRID_BLOCK at a time."""
    eigenvalues, eigenvectors = decomp
    psi0 = _check_state(eigenvectors.shape[0], psi0)
    times = np.asarray(times, dtype=float)
    w = eigenvectors.conj().T @ psi0
    out = np.empty((times.size, psi0.size), dtype=np.complex128)
    for lo in range(0, times.size, GRID_BLOCK):
        chunk = times[lo:lo + GRID_BLOCK]
        phases = np.exp(-1j * np.outer(eigenvalues, chunk))
        out[lo:lo + chunk.size] = (eigenvectors @ (phases * w[:, None])).T
    return out


def build_total(spec: ModelSpec) -> np.ndarray:
    """Full Hamiltonian H_c + H_b + V_cb as a dense matrix, scattered from
    terms(); the reference the matrix-free path is checked against.  A part
    of H is build_total with the other parts switched off (h, delta or
    kappa set to 0)."""
    diagonal, flips = terms(spec)
    out = np.zeros((spec.dim, spec.dim))
    idx = np.arange(spec.dim)
    out[idx, idx] += diagonal
    for mask, coef in flips:
        out[idx ^ mask, idx] += coef
    return out


def row_sum_bound(matrix) -> float:
    """Gershgorin bound max_i sum_j |H_ij|, an upper bound on ||H||_2."""
    return float(np.max(np.abs(_matrix_of(matrix)).sum(axis=1)))


def expm_series_oracle(operator, psi0, t: float) -> np.ndarray:
    """Taylor-series propagator with time slicing (test oracle).

    t is sliced so that ||H||_inf * dt <= 1, then exp(-i H dt) is applied
    stepwise as sum_k (-i H dt)^k / k! psi, truncating once the term norm
    drops below 1e-16.  Accurate to ~1e-10 per amplitude at the
    scales used here; independent of the spectral path.
    """
    m = _matrix_of(operator)
    psi = _check_state(m.shape[0], psi0)
    hnorm = row_sum_bound(m)
    nsteps = max(1, int(np.ceil(hnorm * abs(t))))
    dt = t / nsteps
    for _ in range(nsteps):
        term = psi
        acc = psi.astype(np.complex128, copy=True)
        for k in range(1, 400):
            term = (-1j * dt / k) * (m @ term)
            acc = acc + term
            if float(np.linalg.norm(term)) < 1e-16:
                break
        else:
            raise ArithmeticError("propagator series did not converge")
        psi = acc
    return psi


def series_states(coefficients, vectors) -> np.ndarray:
    """Every state of a ``chebyshev_series`` expansion, shape (T, dim) complex."""
    states = np.empty((len(coefficients), np.shape(vectors)[2]), dtype=np.complex128)
    for lo, real, imag in state_blocks(coefficients, vectors):
        states.real[lo:lo + real.shape[0]] = real
        states.imag[lo:lo + real.shape[0]] = imag
    return states


def trajectory_states(traj: Trajectory) -> np.ndarray:
    """Every grid state of a trajectory at once in the natural basis order,
    shape (T, dim); row k is the state at times[k], interpolated from the
    states at the nodes."""
    states = np.zeros((len(traj.times), traj.spec.dim), dtype=np.complex128)
    states[:, traj.layout.basis] = interpolate(
        traj.nodes, series_states(traj.coefficients, traj.vectors), traj.times)
    return states


def initial_state(spec: ModelSpec, init: InitialStateSpec, seed: int | None = None) -> np.ndarray:
    """Prepared charger, a random one drawn from ``seed``, tensor all-ground
    batteries, on the full space."""
    return _place(charger_state(init, spec.L, seed), sector_layout(spec), spec.n)


# ---------------------------------------------------------------------------
# self-check suite

VALIDATE_SEED = 20240601


def _naive_partial_trace(psi: np.ndarray, L: int, n: int) -> np.ndarray:
    """Index-looped reference partial trace (oracle, intentionally slow)."""
    return np.array([[sum(psi[(c << n) | a] * np.conj(psi[(c << n) | b]) for c in range(1 << L))
                      for b in range(1 << n)] for a in range(1 << n)], dtype=np.complex128)


def propagator_gap(rng, dims, models) -> float:
    """Largest amplitude gap to expm_series_oracle, from random states, of
    both chebyshev_series (the production propagator) and evolve_on_grid
    (dense eigh): a random Hermitian matrix per size in ``dims`` at t = 0.1
    and 1.0, then each ModelSpec in ``models`` at t = 0.7, matrix-free.  All
    are drawn from ``rng`` in that order; ``models`` is read lazily, so a
    generator may draw each spec's parameters from ``rng`` too."""
    def gap(matrix, matvec, bound, times):
        psi = random_state(rng, len(matrix))
        coefficients, vectors = chebyshev_series(matvec, bound, psi, times)
        worst = 0.0
        for t, chebyshev, dense in zip(times, series_states(coefficients, vectors),
                                       evolve_on_grid(eigh(matrix), psi, times)):
            exact = expm_series_oracle(matrix, psi, t)
            worst = max(worst, _max_gap(chebyshev, exact), _max_gap(dense, exact))
        return worst

    worst = 0.0
    for dim in dims:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ham = (raw + raw.conj().T) / 2
        worst = max(worst, gap(ham, lambda v: ham @ v, row_sum_bound(ham), (0.1, 1.0)))
    for spec in models:
        worst = max(worst, gap(build_total(spec), *total_matvec(spec), (0.7,)))
    return worst


def partial_trace_gap(rng, shapes) -> float:
    """Largest entry gap of the production partial trace reduce_to_battery to
    _naive_partial_trace, over one random normalized state (drawn from
    ``rng``) per (L, n) shape."""
    worst = 0.0
    for L, n in shapes:
        psi = random_state(rng, 1 << (L + n))
        worst = max(worst, _max_gap(reduce_to_battery(psi, L, n), _naive_partial_trace(psi, L, n)))
    return worst


def amplitude_residual(rng, draws: int, param_max: float, t_max: float) -> float:
    """Largest | |A|^2 + |B|^2 - 1 | over ``draws`` random (delta, kappa, t),
    with delta and kappa uniform on [0, param_max] and t on [0, t_max]."""
    worst = 0.0
    for _ in range(draws):
        p = AnalyticParams(rng.uniform(0, param_max), rng.uniform(0, param_max))
        a, b = amplitudes(p, rng.uniform(0, t_max))
        worst = max(worst, float(abs(abs(a) ** 2 + abs(b) ** 2 - 1.0)))
    return worst


def conservation_drift(states: np.ndarray, matrix: np.ndarray) -> float:
    """Largest norm drift, or energy spread relative to max(1, |E|), along
    the rows of ``states`` evolved under the Hamiltonian ``matrix``."""
    norms = np.linalg.norm(states, axis=1)
    energies = np.real(np.einsum("ti,ij,tj->t", states.conj(), matrix, states))
    scale = max(1.0, float(np.max(np.abs(energies))))
    return max(_max_gap(norms, 1.0), float(np.ptp(energies)) / scale)


def _check_propagators(rng):
    models = [ModelSpec(L, n, d=1, h=0.3, delta=0.4, kappa=0.8) for L, n in ((2, 1), (3, 2))]
    worst = propagator_gap(rng, (8, 16, 32), models)
    return worst <= 1e-8, f"max amplitude diff {worst:.2e}"


def _check_partial_trace(rng):
    worst = partial_trace_gap(rng, ((2, 1), (3, 2), (4, 2), (3, 3)))
    return worst <= 1e-12, f"max entry diff {worst:.2e}"


def _check_amplitudes(rng):
    worst = amplitude_residual(rng, 200, 3.0, 10.0)
    return worst <= 1e-12, f"max | |A|^2+|B|^2 - 1 | {worst:.2e}"


def _check_analytic_chain(rng):
    """Closed-form identities at strong coupling, the window by bisection
    and the period; and POWER_PEAK_COEFF, an upper bound, within 5e-3
    above the power maximum sampled over one period."""
    p = AnalyticParams(0.5, 2.0)
    t_charge = charging_time(p)
    t1, t2 = window_times(p)
    inside = np.linspace(t1 + 1e-6, t2 - 1e-6, 101)
    bis = bisect_window(p)
    period = 2 * np.pi / p.omega
    sample = np.linspace(0, period, 37)
    chain_dev = max(
        _max_gap(stored_energy_analytic(p, inside) - ergotropy_analytic(p, inside),
                 unavailable_analytic(p, inside)),
        abs(power_at_T(p) - stored_energy_analytic(p, t_charge) / t_charge),
        abs(max_ergotropy(p) - ergotropy_analytic(p, t_charge)),
        abs((t1 + t2) - 2 * t_charge),
        abs(bis[0] - t1), abs(bis[1] - t2),
        _max_gap(ergotropy_analytic(p, sample), ergotropy_analytic(p, sample + period)),
    )
    grid = np.linspace(0, period, 2001)
    peak = float(np.max(charging_power(stored_energy_analytic(p, grid), grid)))
    coeff_dev = 1 - peak / (POWER_PEAK_COEFF * p.delta * p.kappa ** 2 / p.omega)
    return (chain_dev <= 1e-8 and 0 <= coeff_dev <= 5e-3,
            f"max identity residual {chain_dev:.2e}, power peak {coeff_dev:.2e} "
            f"from POWER_PEAK_COEFF")


def _check_two_battery_analytic(rng):
    p = AnalyticParams(0.5, 2.0)
    t_random = rng.uniform(0, 10, 100)
    pair = two_battery(p, t_random)
    twice_dev = max(_max_gap(pair.stored_energy, 2 * stored_energy_analytic(p, t_random)),
                    _max_gap(pair.ergotropy, 2 * ergotropy_analytic(p, t_random)))
    occupancy_ok = bool(np.all(pair.lambda1 + pair.lambda4 <= 1 + 1e-12))
    return (twice_dev <= 1e-12 and occupancy_ok,
            f"max residual {twice_dev:.2e}, corner populations bounded {occupancy_ok}")


def _charger(spec: ModelSpec) -> np.ndarray:
    """H_c (x) 1_b: build_total with the batteries and the coupling off."""
    return build_total(replace(spec, delta=0.0, kappa=0.0))


def corrupted_coupling(spec: ModelSpec) -> np.ndarray:
    """Deliberately wrong interaction (z-type at the attachment site) used to
    prove the structural checks can fail.  A mere sign flip of kappa would be
    invisible: it is a local basis change on the battery."""
    out = np.zeros((spec.dim, spec.dim))
    idx = np.arange(spec.dim)
    for i, site in enumerate(battery_positions(spec), start=1):
        zvals = 1.0 - 2.0 * ((idx >> (spec.n + spec.L - site)) & 1)
        out[idx ^ (1 << (spec.n - i)), idx] += -spec.kappa * zvals
    return out


def _charger_commutator(spec: ModelSpec, other: np.ndarray) -> float:
    h_c = _charger(spec)
    return _max_gap(h_c @ other, other @ h_c)


_COMMUTING_MODEL = ModelSpec(4, 2, h=0.0, delta=0.5, kappa=2.0)


def _check_commutator(rng):
    spec = _COMMUTING_MODEL
    comm = _charger_commutator(spec, build_total(spec) - _charger(spec))
    return comm <= 1e-10, f"max |[H_c, H_b+V]| entry {comm:.2e}"


def _check_mutation(rng):
    bad = _charger_commutator(_COMMUTING_MODEL, corrupted_coupling(_COMMUTING_MODEL))
    return bad > 1e-3, f"corrupted coupling commutator {bad:.2e} (must be far from zero)"


def _check_ghz_energy(rng):
    worst = 0.0
    for L, h in ((2, 0.0), (3, 0.1), (5, 0.7)):
        spec = ModelSpec(L, 0, J=1.3, h=h)  # n = 0: build_total is H_c
        state = charger_state(InitialStateSpec("ghz_plus"), L)
        energy = float(np.real(state.conj() @ (build_total(spec) @ state)))
        worst = max(worst, abs(energy + spec.L * spec.J))
    return worst <= 1e-10, f"max |<H_c> + L*J| {worst:.2e}"


def _check_battery_spectrum(rng):
    """Battery levels -n d/2 + k d with binomial multiplicity, read from the
    diagonal of H at h = 0, where only H_b is on it."""
    spec = ModelSpec(3, 3, d=1, delta=0.7)
    full = np.sort(np.diagonal(build_total(replace(spec, h=0.0))))
    levels = battery_energies(spec.n, spec.delta)
    spectrum_ok = np.allclose(full, np.sort(np.tile(levels, 1 << spec.L)), atol=1e-12)
    binomial_ok = all(
        int(np.sum(np.isclose(levels, spec.delta * (k - spec.n / 2)))) == math.comb(spec.n, k)
        for k in range(spec.n + 1)
    )
    return (spectrum_ok and binomial_ok,
            f"levels match {spectrum_ok}, multiplicities binomial {binomial_ok}")


def _check_conservation(rng):
    spec = ModelSpec(5, 1, h=0.1)
    traj = trajectory(spec, InitialStateSpec(), np.linspace(0.0, 3.0, 120))
    drift = conservation_drift(trajectory_states(traj), build_total(spec))
    return drift <= 1e-9, f"max norm/energy drift {drift:.2e}"


def _check_no_work_below_threshold(rng):
    spec = ModelSpec(5, 1, h=0.1, delta=0.5, kappa=0.2)
    peak = run_series(spec, InitialStateSpec(), np.linspace(0, 6, 240)).ergotropy.max()
    return peak <= 1e-12, f"max work {peak:.2e}"


def _check_two_battery_ed(rng):
    spec = ModelSpec(10, 2, h=0.1, delta=0.5, kappa=2.0)
    times = np.linspace(0.0, 2.0, 2000)
    series = run_series(spec, InitialStateSpec(), times)
    stored, work = analytic_reference(spec, times)[:2]
    dev = max(_max_gap(series.ergotropy, work), _max_gap(series.stored_energy, stored))
    return dev <= 0.05, f"L={spec.L} max |ED - 2x single| {dev:.3e}"


# Every self-check as (name, check) in the order validate runs it; each
# check(rng) returns (ok, detail).
CHECKS = (
    ("propagator_oracle_agreement", _check_propagators),
    ("partial_trace_oracle", _check_partial_trace),
    ("amplitude_normalization", _check_amplitudes),
    ("analytic_consistency", _check_analytic_chain),
    ("two_battery_twice_analytic", _check_two_battery_analytic),
    ("commutator_h0", _check_commutator),
    ("coupling_mutation_detected", _check_mutation),
    ("ghz_charger_energy", _check_ghz_energy),
    ("battery_spectrum", _check_battery_spectrum),
    ("trajectory_conservation", _check_conservation),
    ("ergotropy_zero_below_threshold", _check_no_work_below_threshold),
    ("two_battery_twice_ed", _check_two_battery_ed),
)


def cmd_validate() -> int:
    """Run the CHECKS table in order on one generator seeded with
    VALIDATE_SEED; print one line per check, nonzero on failure."""
    rng = np.random.default_rng(VALIDATE_SEED)
    failed = 0
    for name, check in CHECKS:
        ok, detail = check(rng)
        failed += not ok
        print(f"CHECK {name} {'PASS' if ok else 'FAIL'} {detail}")
    print(f"validate: {len(CHECKS) - failed}/{len(CHECKS)} checks passed")
    return 1 if failed else 0
