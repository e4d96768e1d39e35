import os

import numpy as np
import pytest

from sunburst_battery.config import InitialStateSpec, physical_memory
from sunburst_battery.experiments import run_series

# default grid used by the reference runs: 2000 uniform points on [0, 2]
REFERENCE_GRID = np.linspace(0.0, 2.0, 2000)
GHZ = InitialStateSpec()


def numpy_figures(rho, levels) -> dict:
    """Stored energy, population and spectral ergotropy and linear entropy
    of each matrix of the stack ``rho``, shape (T, d, d), one matrix at a
    time in plain numpy: an oracle that shares no code with observables."""
    levels = np.asarray(levels, dtype=float)
    ascending = np.sort(levels)
    columns = {"stored_energy": [], "ergotropy": [], "ergotropy_spectral": [],
               "linear_entropy": []}
    for matrix in rho:
        populations = np.real(np.diagonal(matrix))
        energy = populations @ levels
        # weights sorted descending on the levels sorted ascending
        passive = [np.sort(weights)[::-1] @ ascending
                   for weights in (populations, np.linalg.eigvalsh(matrix))]
        columns["stored_energy"].append(energy - levels.min())
        columns["ergotropy"].append(max(0.0, energy - passive[0]))
        columns["ergotropy_spectral"].append(max(0.0, energy - passive[1]))
        columns["linear_entropy"].append(1.0 - np.trace(matrix @ matrix).real)
    return {name: np.array(values) for name, values in columns.items()}


def report_physical_memory(monkeypatch, memory) -> int:
    """Make os.sysconf report ``memory`` bytes of physical memory, in whole
    pages; the bytes that ``physical_memory`` then reads."""
    page, sysconf = os.sysconf("SC_PAGE_SIZE"), os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda key: int(memory) // page
                        if key == "SC_PHYS_PAGES" else sysconf(key))
    return physical_memory()


class HeavyCache:
    """Shares the full-size results across test modules.

    Merit series are memoized per (model, initial state, grid, run seed),
    keyed on the frozen specs themselves, so every field of each is part of
    the key: a dimension-4096 Chebyshev trajectory takes a fraction of a
    second, but the acceptance criteria read the same reference runs many
    times.  Trajectories are not kept: a test that needs one calls
    ``trajectory`` itself.
    """

    def __init__(self):
        self._series = {}

    def series(self, spec, init=GHZ, times=REFERENCE_GRID, seed=None):
        key = (spec, init, (float(times[0]), float(times[-1]), len(times)), seed)
        if key not in self._series:
            self._series[key] = run_series(spec, init, times, seed)
        return self._series[key]


@pytest.fixture(scope="session")
def heavy():
    return HeavyCache()
