import numpy as np
import pytest

from sunburst_battery import (
    InitialStateSpec,
    build_total,
    merit_series,
    trajectory,
)

# default grid used by the reference runs: 2000 uniform points on [0, 2]
REFERENCE_GRID = np.linspace(0.0, 2.0, 2000)
GHZ = InitialStateSpec()


class HeavyCache:
    """Shares the expensive full-size runs across test modules.

    A dimension-4096 model is decomposed as two dimension-2048 parity
    blocks, ~2-3 s on two cores, so every test that needs one goes through
    this cache, which keeps both sectors so that any initial state can be
    propagated; merit series (small) are memoized per (model, initial
    state, grid), trajectories (131 MB of states) are not kept.
    """

    def __init__(self):
        self._decomps = {}
        self._series = {}

    @staticmethod
    def _model_key(spec):
        return (spec.L, spec.n, spec.d, spec.J, spec.h, spec.delta, spec.kappa)

    def decomposition(self, spec):
        key = self._model_key(spec)
        if key not in self._decomps:
            self._decomps[key] = build_total(spec).decomposition()
        return self._decomps[key]

    def trajectory(self, spec, init=GHZ, times=REFERENCE_GRID):
        return trajectory(spec, init, times, self.decomposition(spec))

    def series(self, spec, init=GHZ, times=REFERENCE_GRID):
        key = (
            self._model_key(spec),
            (init.charger_kind, init.index, init.seed),
            (float(times[0]), float(times[-1]), len(times)),
        )
        if key not in self._series:
            self._series[key] = merit_series(self.trajectory(spec, init, times))
        return self._series[key]


@pytest.fixture(scope="session")
def heavy():
    return HeavyCache()
