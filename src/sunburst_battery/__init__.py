"""Sunburst quantum Ising battery: exact dynamics and closed-form analytics.

A transverse-field Ising ring (the charger) charges n external qubits (the
batteries) through sigma^x Sigma^x couplings.  The package spells the
composite Hamiltonian as one list of bit-flip terms, evolves states exactly
by a matrix-free Chebyshev expansion that serves a whole time grid at once,
reduces them to the battery register, and verifies stored energy,
ergotropy, linear entropy and charging power against their strong-charger
closed forms and against dense exact-diagonalization oracles.

The names below are imported from their submodule at first access (PEP
562), so importing the package loads no numpy: the command line sets the
BLAS thread default before anything loads it (``cli.main``).
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "analytic": """
        AnalyticParams TwoBatteryResult amplitudes bisect_window charging_time
        ergotropy_analytic excited_population linear_entropy_analytic max_ergotropy
        power_analytic power_at_T stored_energy_analytic two_battery
        unavailable_analytic window_times""",
    "dynamics": """
        InitialStateSpec Trajectory battery_ground compose ghz_minus ghz_plus
        initial_state random_charger trajectory xbasis_product_state""",
    "experiments": """
        CSV_COLUMNS ExperimentConfig SweepSpec TimeGrid analytic_reference cmd_fig1
        cmd_fig2 cmd_fig3 cmd_fig4 cmd_sweep cmd_validate load_config read_csv
        run_series write_csv""",
    "linalg": "chebyshev_series eigh evolve_on_grid expm_series_oracle",
    "model": """
        Layout ModelSpec battery_energies battery_positions build_batteries
        build_charger build_coupling build_total parity_sectors sector_layout terms
        total_matvec""",
    "observables": """
        MeritSeries charging_power ergotropy ergotropy_populations linear_entropy
        merit_series reduce_to_battery reduced_states stored_energy""",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _SOURCE.keys())
