"""Initial-state factory and exact time evolution on explicit time grids.

The charger starts in a cat state, an x-basis product state, or a seeded
Haar-random state; the batteries always start in the all-ground state
|00...0>.  Evolution is exact at any time through the spectral
decomposition of the Hamiltonian on the parity sectors the initial state
occupies (one for a cat-state charger, both for a random one), so grids
carry no step-size error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SpectralDecomposition, decompose, evolve_on_grid
from .model import ModelSpec, bit_counts, build_total, config_fields, parity_sectors

CHARGER_KINDS = ("ghz_plus", "ghz_minus", "eigenstate", "random")


def ghz_plus(L: int) -> np.ndarray:
    """Even cat state (|++..+> + |--..->)/sqrt(2) in the z basis.

    Nonzero amplitude 2**((1-L)/2) on every even-weight bit string; the
    charger ground state for J >> h.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    parity = bit_counts(np.arange(1 << L)) & 1
    return np.where(parity == 0, 2.0 ** ((1 - L) / 2), 0.0).astype(np.complex128)


def ghz_minus(L: int) -> np.ndarray:
    """Odd cat state (|++..+> - |--..->)/sqrt(2): amplitude on odd-weight strings."""
    if L < 1:
        raise ValueError("L must be >= 1")
    parity = bit_counts(np.arange(1 << L)) & 1
    return np.where(parity == 1, 2.0 ** ((1 - L) / 2), 0.0).astype(np.complex128)


def xbasis_product_state(L: int, pattern: int) -> np.ndarray:
    """Product of |+>/|-> factors; a set bit (L-i) of ``pattern`` puts site i in |->.

    These are exact charger eigenstates at h = 0.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    if not 0 <= pattern < (1 << L):
        raise ValueError(f"pattern {pattern} outside [0, 2**{L})")
    signs = 1.0 - 2.0 * (bit_counts(np.arange(1 << L) & pattern) & 1)
    return (signs * 2.0 ** (-L / 2)).astype(np.complex128)


def random_state(rng, dim: int) -> np.ndarray:
    """Normalized vector of ``dim`` independent standard complex Gaussian
    amplitudes drawn from ``rng``; Haar-distributed."""
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def random_charger(L: int, seed: int) -> np.ndarray:
    """Haar-distributed charger state from a seeded deterministic generator.

    Amplitudes are independent standard complex Gaussians (PCG64 stream),
    normalized; rotation invariance of the Gaussian makes the result Haar.
    """
    if L < 1:
        raise ValueError("L must be >= 1")
    return random_state(np.random.default_rng(seed), 1 << L)


def battery_ground(n: int) -> np.ndarray:
    """All-ground battery register |00...0>."""
    if n < 0:
        raise ValueError("n must be >= 0")
    state = np.zeros(1 << n, dtype=np.complex128)
    state[0] = 1.0
    return state


def compose(charger: np.ndarray, battery: np.ndarray) -> np.ndarray:
    """Tensor product under the model bit convention (charger block high)."""
    charger = np.asarray(charger)
    battery = np.asarray(battery)
    if charger.ndim != 1 or battery.ndim != 1:
        raise ValueError("compose expects two vectors")
    return np.kron(charger, battery)


@dataclass(frozen=True)
class InitialStateSpec:
    """Charger preparation; the battery register is always all-ground.

    charger_kind: ghz_plus | ghz_minus | eigenstate | random
    index: x-basis sign pattern, required for "eigenstate"
    seed: generator seed, required for "random" (the experiment runner
          fills it from the run seed when left unset)
    """

    charger_kind: str = "ghz_plus"
    index: int | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.charger_kind not in CHARGER_KINDS:
            raise ValueError(
                f"unknown charger kind {self.charger_kind!r}; expected one of {CHARGER_KINDS}"
            )
        if self.charger_kind == "eigenstate":
            if self.index is None or self.index < 0:
                raise ValueError("eigenstate initial state needs a pattern index >= 0")
        elif self.index is not None:
            raise ValueError(f"index is only valid for 'eigenstate', not {self.charger_kind!r}")
        if self.charger_kind != "random" and self.seed is not None:
            raise ValueError(f"seed is only valid for 'random', not {self.charger_kind!r}")

    def charger_state(self, L: int) -> np.ndarray:
        if self.charger_kind == "ghz_plus":
            return ghz_plus(L)
        if self.charger_kind == "ghz_minus":
            return ghz_minus(L)
        if self.charger_kind == "eigenstate":
            return xbasis_product_state(L, self.index)
        if self.seed is None:
            raise ValueError("random initial state has no seed set")
        return random_charger(L, self.seed)

    @classmethod
    def from_dict(cls, data: dict) -> "InitialStateSpec":
        return cls(**config_fields(cls, "initial-state", data, ints=("index", "seed")))


def initial_state(spec: ModelSpec, init: InitialStateSpec) -> np.ndarray:
    """Composite initial state: prepared charger tensor all-ground batteries."""
    return compose(init.charger_state(spec.L), battery_ground(spec.n))


@dataclass
class Trajectory:
    """States on a time grid; row k of ``states`` is the state at times[k]."""

    spec: ModelSpec
    times: np.ndarray
    states: np.ndarray


def trajectory(spec: ModelSpec, init: InitialStateSpec, times,
               decomposition: SpectralDecomposition | None = None) -> Trajectory:
    """Evolve the composite initial state to every grid time.

    Without ``decomposition`` the Hamiltonian is decomposed on the parity
    sectors where the initial state has weight, once for all grid points.
    Pass ``decomposition`` (such as ``build_total(spec).decomposition()``,
    which holds both sectors) to reuse one across several runs of the same
    model; it is read-only and thread-safe.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("time grid must be a non-empty 1-D array")
    if times[0] < 0:
        raise ValueError("time grid must start at t >= 0")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("time grid must be strictly increasing")
    psi0 = initial_state(spec, init)
    if decomposition is None:
        occupied = [idx for idx in parity_sectors(spec.dim) if psi0[idx].any()]
        decomposition = decompose(build_total(spec), occupied)
    if decomposition.dim != spec.dim:
        raise ValueError(
            f"decomposition dimension {decomposition.dim} does not match model dimension {spec.dim}"
        )
    states = evolve_on_grid(decomposition, psi0, times)
    return Trajectory(spec, times, states)
