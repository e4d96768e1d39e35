import numpy as np
import pytest

from sunburst_battery import InitialStateSpec, build_total, merit_series, trajectory

# default grid used by the reference runs: 2000 uniform points on [0, 2]
REFERENCE_GRID = np.linspace(0.0, 2.0, 2000)
GHZ = InitialStateSpec()


class HeavyCache:
    """Shares the full-size results across test modules.

    Merit series are memoized per (model, initial state, grid): a
    dimension-4096 Chebyshev trajectory takes a fraction of a second, but
    the acceptance criteria read the same reference runs many times.  The
    dense decomposition of a model (two dimension-2048 eigh solves, ~1.4 s
    each on two cores) is solved only for the full-scale spectral tests that
    read it, once per model.  Trajectories are not kept: a test that needs
    one calls ``trajectory`` itself.
    """

    def __init__(self):
        self._decompositions = {}
        self._series = {}

    @staticmethod
    def _model_key(spec):
        return (spec.L, spec.n, spec.d, spec.J, spec.h, spec.delta, spec.kappa)

    def decomposition(self, spec):
        """Dense decomposition of the model on both parity sectors."""
        key = self._model_key(spec)
        if key not in self._decompositions:
            self._decompositions[key] = build_total(spec).decomposition()
        return self._decompositions[key]

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
