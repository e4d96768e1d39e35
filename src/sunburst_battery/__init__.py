"""Sunburst quantum Ising battery: exact dynamics and closed-form analytics.

A transverse-field Ising ring (the charger) charges n external qubits (the
batteries) through sigma^x Sigma^x couplings.  The package spells the
composite Hamiltonian as one list of bit-flip terms, evolves states exactly
by a matrix-free Chebyshev expansion that serves a whole time grid at once,
reduces them to the battery register, and verifies stored energy,
ergotropy, linear entropy and charging power against their strong-charger
closed forms and against dense exact-diagonalization oracles.
"""

from .analytic import (
    AnalyticParams,
    TwoBatteryResult,
    amplitudes,
    bisect_window,
    charging_time,
    ergotropy_analytic,
    excited_population,
    linear_entropy_analytic,
    max_ergotropy,
    max_power,
    power_analytic,
    power_at_T,
    stored_energy_analytic,
    two_battery,
    unavailable_analytic,
    window_times,
)
from .dynamics import (
    InitialStateSpec,
    Trajectory,
    battery_ground,
    compose,
    ghz_minus,
    ghz_plus,
    initial_state,
    random_charger,
    trajectory,
    xbasis_product_state,
)
from .experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    SweepSpec,
    TimeGrid,
    analytic_reference,
    cmd_fig1,
    cmd_fig2,
    cmd_fig3,
    cmd_fig4,
    cmd_sweep,
    cmd_validate,
    load_config,
    read_csv,
    run_series,
    write_csv,
)
from .linalg import (
    chebyshev_series,
    eigh,
    evolve_on_grid,
    expm_series_oracle,
)
from .model import (
    Layout,
    ModelSpec,
    battery_energies,
    battery_positions,
    build_batteries,
    build_charger,
    build_coupling,
    build_total,
    parity_sectors,
    sector_layout,
    terms,
    total_matvec,
)
from .observables import (
    MeritSeries,
    charging_power,
    check_density_matrix,
    ergotropy,
    ergotropy_populations,
    linear_entropy,
    merit_series,
    passive_state,
    reduce_to_battery,
    stored_energy,
)

__version__ = "0.1.0"
