import numpy as np
import pytest

from sunburst_battery import (
    InitialStateSpec,
    SpectralDecomposition,
    build_total,
    decompose,
    initial_state,
    merit_series,
    parity_sectors,
    trajectory,
)

# default grid used by the reference runs: 2000 uniform points on [0, 2]
REFERENCE_GRID = np.linspace(0.0, 2.0, 2000)
GHZ = InitialStateSpec()


class HeavyCache:
    """Shares the expensive full-size runs across test modules.

    A dimension-4096 model is decomposed as two dimension-2048 parity
    blocks, ~1.4 s each on two cores, so every test that needs one goes
    through this cache.  Blocks are cached per (model, parity) and solved
    only when first asked for: a trajectory asks for the sectors its
    initial state occupies (the even one for a cat state), so each block
    is solved at most once per session and only if some test reads it.
    Merit series (small) are memoized per (model, initial state, grid);
    trajectories (131 MB of states) are not kept.
    """

    def __init__(self):
        self._blocks = {}
        self._series = {}

    @staticmethod
    def _model_key(spec):
        return (spec.L, spec.n, spec.d, spec.J, spec.h, spec.delta, spec.kappa)

    def decomposition(self, spec, parities=(0, 1)):
        """The model on the listed parity sectors (0 even, 1 odd)."""
        key = self._model_key(spec)
        missing = [p for p in parities if (key, p) not in self._blocks]
        if missing:
            sectors = parity_sectors(spec.dim)
            solved = decompose(build_total(spec), [sectors[p] for p in missing])
            self._blocks.update(((key, p), block) for p, block in zip(missing, solved.sectors))
        return SpectralDecomposition(spec.dim, tuple(self._blocks[key, p] for p in parities))

    def trajectory(self, spec, init=GHZ, times=REFERENCE_GRID):
        psi0 = initial_state(spec, init)
        occupied = [p for p, idx in enumerate(parity_sectors(spec.dim)) if psi0[idx].any()]
        return trajectory(spec, init, times, self.decomposition(spec, occupied))

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
