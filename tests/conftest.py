import numpy as np
import pytest

from sunburst_battery import (
    InitialStateSpec,
    build_total,
    linalg,
    merit_series,
    parity_sectors,
    trajectory,
)

# default grid used by the reference runs: 2000 uniform points on [0, 2]
REFERENCE_GRID = np.linspace(0.0, 2.0, 2000)
GHZ = InitialStateSpec()


class HeavyCache:
    """Shares the full-size results across test modules.

    Merit series are memoized per (model, initial state, grid): a
    dimension-4096 Chebyshev trajectory takes a fraction of a second, but
    the acceptance criteria read the same reference runs many times.  The
    dense spectrum of a model, solved block by block on its two parity
    sectors (two dimension-2048 ``linalg.eigh`` solves at the reference
    scale, ~1.4 s each on two cores), is solved only for the full-scale
    spectral tests that read it, once per model.  Trajectories are not
    kept: a test that needs one calls ``trajectory`` itself.
    """

    def __init__(self):
        self._spectra = {}
        self._series = {}

    @staticmethod
    def _model_key(spec):
        return (spec.L, spec.n, spec.d, spec.J, spec.h, spec.delta, spec.kappa)

    def sector_spectra(self, spec):
        """``(indices, eigenvalues, eigenvectors)`` of the dense Hamiltonian's
        block on each parity sector, even then odd."""
        key = self._model_key(spec)
        if key not in self._spectra:
            matrix = build_total(spec)
            self._spectra[key] = [(idx, *linalg.eigh(matrix[np.ix_(idx, idx)]))
                                  for idx in parity_sectors(spec.dim)]
        return self._spectra[key]

    def series(self, spec, init=GHZ, times=REFERENCE_GRID):
        key = (
            self._model_key(spec),
            (init.charger_kind, init.index, init.seed),
            (float(times[0]), float(times[-1]), len(times)),
        )
        if key not in self._series:
            self._series[key] = merit_series(trajectory(spec, init, times))
        return self._series[key]


@pytest.fixture(scope="session")
def heavy():
    return HeavyCache()
