import numpy as np
import pytest

from sunburst_battery.config import ExperimentConfig, InitialStateSpec, ModelSpec, replace
from sunburst_battery.dynamics import charger_state
from sunburst_battery.model import (
    battery_energies,
    battery_positions,
    sector_layout,
    terms,
    total_matvec,
)
from sunburst_battery.validate import build_total, eigh

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]])
ID2 = np.eye(2)


def kron_chain(ops):
    out = ops[0]
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


def site_op(op, which, total):
    ops = [ID2] * total
    ops[which] = op
    return kron_chain(ops)


def reference_total(spec):
    """Kronecker-product construction, independent of the bitmask builder.

    Qubit order high-to-low: charger sites 1..L then batteries 1..n,
    matching the documented basis convention.
    """
    total = spec.L + spec.n
    ham = np.zeros((spec.dim, spec.dim))
    for i in range(spec.L):
        ham -= spec.J * site_op(SX, i, total) @ site_op(SX, (i + 1) % spec.L, total)
        ham -= spec.h * site_op(SZ, i, total)
    for b in range(spec.n):
        ham -= spec.delta / 2 * site_op(SZ, spec.L + b, total)
    for b, site in enumerate(battery_positions(spec)):
        ham -= spec.kappa * site_op(SX, site - 1, total) @ site_op(SX, spec.L + b, total)
    return ham


def charger(spec):
    """H_c (x) 1_b: the total with the batteries and the coupling off."""
    return build_total(replace(spec, delta=0.0, kappa=0.0))


def coupling(spec):
    """V_cb: the total less the total with the coupling off."""
    return build_total(spec) - build_total(replace(spec, kappa=0.0))


def test_battery_positions_examples():
    assert battery_positions(ModelSpec(11, 1, d=1)) == [1]
    assert battery_positions(ModelSpec(10, 2, d=5)) == [1, 6]
    assert battery_positions(ModelSpec(8, 4, d=2)) == [1, 3, 5, 7]


def test_default_spacing_is_equispaced():
    assert ModelSpec(10, 2).d == 5
    assert ModelSpec(9, 3).d == 3
    assert ModelSpec(8, 4).d == 2
    with pytest.raises(ValueError, match="spacing"):
        ModelSpec(9, 2)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(1, 0)
    with pytest.raises(ValueError):
        ModelSpec(4, -1)
    with pytest.raises(ValueError):
        ModelSpec(4, 1, J=0.0)
    with pytest.raises(ValueError):
        ModelSpec(4, 1, h=-0.1)
    with pytest.raises(ValueError):
        ModelSpec(4, 2, d=0)
    with pytest.raises(ValueError, match="do not fit"):
        ModelSpec(4, 3, d=2)


@pytest.mark.parametrize("name", ["J", "h", "delta", "kappa"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_spec_refuses_a_non_finite_coupling_by_name(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite, got {value!r}$"):
        ModelSpec(4, 1, **{name: value})


def test_spec_accepts_numpy_floats_as_the_equal_python_floats():
    values = {"J": 1.3, "h": 0.2, "delta": 0.5, "kappa": 2.0}
    spec = ModelSpec(4, 1, **{name: np.float64(value) for name, value in values.items()})
    assert spec == ModelSpec(4, 1, **values)


def test_two_site_ring_double_counts_the_bond():
    # both i=1 and i=2 contribute the same sx_1 sx_2 bond on a 2-ring
    spec = ModelSpec(2, 0, J=1.0, h=0.0)  # n = 0: the total is H_c
    eigenvalues, _ = eigh(build_total(spec))
    assert np.isclose(eigenvalues[0], -2.0)


@pytest.mark.parametrize("L,h,J", [
    pytest.param(L, h, J, id=f"{L}-{h}" if J == 1.7 else f"{L}-{h}-J{J}")
    for L, h, J in ((2, 0.0, 1.7), (3, 0.5, 1.7), (4, 0.1, 1.7), (5, 1.0, 1.7),
                    (2, 0.0, 1.0), (4, 0.3, 1.0), (5, 0.9, 1.0))
])
def test_ghz_charger_energy_is_minus_LJ(L, h, J):
    spec = ModelSpec(L, 0, J=J, h=h)
    state = charger_state(InitialStateSpec("ghz_plus"), L)  # n = 0: the charger alone
    energy = np.real(state.conj() @ (build_total(spec) @ state))
    assert abs(energy + spec.L * spec.J) <= 1e-10


def test_battery_factor_diagonals():
    # battery block diagonal sits in the first 2**n entries (charger index 0);
    # at h = 0 it is the whole diagonal of H
    spec1 = ModelSpec(2, 1, h=0.0, delta=0.5)
    assert np.allclose(np.diagonal(build_total(spec1))[:2], [-0.25, 0.25])
    spec2 = ModelSpec(4, 2, h=0.0, delta=0.5)
    assert np.allclose(
        np.diagonal(build_total(spec2))[:4], [-0.5, 0.0, 0.0, 0.5]
    )
    assert np.allclose(battery_energies(2, 0.5), [-0.5, 0.0, 0.0, 0.5])


def test_no_batteries_edge_case():
    spec = ModelSpec(3, 0)
    # H_b + V vanishes: the total is H_c
    assert not (build_total(spec) - charger(spec)).any()
    assert battery_positions(spec) == []
    assert battery_energies(0, 0.5).tolist() == [0.0]
    with pytest.raises(ValueError, match="n must be >= 0"):
        battery_energies(-1, 0.5)


def test_coupling_zero_when_switched_off():
    # H_b + V is V plus a diagonal, so at kappa = 0 it is diagonal
    spec = ModelSpec(3, 1, kappa=0.0)
    rest = build_total(spec) - charger(spec)
    assert not (rest - np.diag(np.diagonal(rest))).any()


def test_coupling_explicit_eight_dim():
    # L=2, n=1: V = -kappa sx_1 (x) 1 (x) Sx, built by hand
    spec = ModelSpec(2, 1, d=1, kappa=1.3)
    expected = -1.3 * kron_chain([SX, ID2, SX])
    assert np.max(np.abs(coupling(spec) - expected)) == 0.0


def test_coupling_commutes_with_charger_at_zero_field():
    spec = ModelSpec(4, 2, h=0.0, kappa=2.0)
    h_c = charger(spec)
    v = coupling(spec)
    assert np.max(np.abs(h_c @ v - v @ h_c)) <= 1e-10
    rest = build_total(spec) - h_c
    assert np.max(np.abs(h_c @ rest - rest @ h_c)) <= 1e-10


def test_total_is_traceless():
    spec = ModelSpec(3, 2, d=1, h=0.3, delta=0.4, kappa=0.9)
    assert abs(np.trace(build_total(spec))) <= 1e-12


def test_decoupled_limit_commutes_with_all_local_terms():
    spec = ModelSpec(3, 1, h=0.0, kappa=0.0)
    total = build_total(spec)
    for qubit in range(spec.L):
        op = site_op(SX, qubit, spec.L + spec.n)
        assert np.max(np.abs(total @ op - op @ total)) <= 1e-12
    for qubit in range(spec.L, spec.L + spec.n):
        op = site_op(SZ, qubit, spec.L + spec.n)
        assert np.max(np.abs(total @ op - op @ total)) <= 1e-12


def test_hermiticity_for_random_specs():
    rng = np.random.default_rng(5)
    for _ in range(10):
        spec = ModelSpec(
            int(rng.integers(2, 5)), int(rng.integers(0, 3)), d=1,
            J=float(rng.uniform(0.2, 2)), h=float(rng.uniform(0, 1)),
            delta=float(rng.uniform(0, 1)), kappa=float(rng.uniform(0, 2)),
        )
        m = build_total(spec)
        assert np.max(np.abs(m - m.conj().T)) <= 1e-12


def test_bitmask_builders_match_kronecker_reference():
    # each random model and the parts of it that the checks read: the
    # charger (delta = kappa = 0), the diagonal at h = 0 and the ring (n = 0)
    rng = np.random.default_rng(11)
    for L, n in ((2, 1), (3, 1), (2, 2), (4, 2), (3, 3)):
        spec = ModelSpec(L, n, d=1, J=float(rng.uniform(0.5, 1.5)),
                         h=float(rng.uniform(0, 1)), delta=float(rng.uniform(0, 1)),
                         kappa=float(rng.uniform(0, 2)))
        for case in (spec, replace(spec, delta=0.0, kappa=0.0), replace(spec, h=0.0),
                     replace(spec, n=0)):
            assert np.max(np.abs(build_total(case) - reference_total(case))) <= 1e-12, case


def accumulated_total(spec):
    """The dense builder as it was before the term list: each part of the
    Hamiltonian accumulated straight into one matrix, zero parts skipped."""
    out = np.zeros((spec.dim, spec.dim))
    idx = np.arange(spec.dim)
    top = spec.n + spec.L

    def zdiag(bits):
        diag = np.zeros(spec.dim)
        for bit in bits:
            diag += 1.0 - 2.0 * ((idx >> bit) & 1)
        return diag

    for site in range(1, spec.L + 1):
        mask = (1 << (top - site)) | (1 << (top - site % spec.L - 1))
        out[idx ^ mask, idx] += -spec.J
    if spec.h != 0.0:
        out[idx, idx] += -spec.h * zdiag([top - site for site in range(1, spec.L + 1)])
    if spec.n and spec.delta != 0.0:
        out[idx, idx] += -(spec.delta / 2.0) * zdiag([spec.n - i for i in range(1, spec.n + 1)])
    if spec.n and spec.kappa != 0.0:
        for i, site in enumerate(battery_positions(spec), start=1):
            out[idx ^ ((1 << (top - site)) | (1 << (spec.n - i))), idx] += -spec.kappa
    return out


@pytest.mark.parametrize("spec", [
    ModelSpec(2, 1, d=1, J=1.3, h=0.4, delta=0.6, kappa=0.7),
    ModelSpec(2, 0, h=0.2),
    ModelSpec(5, 0, J=0.8, h=0.3),
    ModelSpec(4, 2, h=0.3, kappa=0.0),
    ModelSpec(4, 2, h=0.0, delta=0.9, kappa=1.1),
    ModelSpec(3, 3, d=1, h=0.0, delta=0.0, kappa=0.0),
    ModelSpec(6, 3, d=2, h=0.37, delta=0.11, kappa=1.3),
], ids=["L2-double-bond", "L2n0", "L5n0", "kappa0", "h0", "h0-delta0-kappa0", "L6n3d2"])
def test_term_list_scatters_to_the_accumulated_matrix_bit_for_bit(spec):
    # the L=2 ring lists its single bond twice, which doubles that entry
    diagonal, flips = terms(spec)
    assert len(flips) == spec.L + spec.n
    dense = build_total(spec)
    assert np.array_equal(dense.view(np.uint64), accumulated_total(spec).view(np.uint64))
    assert np.array_equal(np.diagonal(dense), diagonal)
    # the matrix-free product and its norm bound agree with the dense matrix
    matvec, bound = total_matvec(spec)
    psi = np.array([1.0, 1j]) @ np.random.default_rng(spec.dim).standard_normal((2, spec.dim))
    assert np.max(np.abs(matvec(psi) - dense @ psi)) <= 1e-13
    assert bound == pytest.approx(np.max(np.abs(dense).sum(axis=1)), abs=1e-13)
    assert bound >= np.max(np.abs(np.linalg.eigvalsh(dense))) - 1e-12  # tight at h = 0


def test_norm_bound_from_the_fields_is_the_diagonal_scan_bit_for_bit():
    # the largest diagonal entry is h L + (delta/2) n in size, so the bound
    # total_matvec takes from the fields is the scan of the diagonal, also
    # for fields from the least subnormal to the float limit
    rng = np.random.default_rng(37)
    for _ in range(300):
        L = int(rng.integers(2, 8))
        n = int(rng.integers(0, L + 1))
        J, h, delta, kappa = 10.0 ** rng.uniform(-323, 308, 4)
        spec = ModelSpec(L, n, d=1, J=J, h=h, delta=delta, kappa=kappa)
        diagonal, flips = terms(spec)
        scan = float(np.max(np.abs(diagonal))) + sum(abs(coef) for _, coef in flips)
        assert total_matvec(spec)[1] == scan, spec
    # where the ring and battery parts overflow with opposite signs the
    # diagonal reads inf - inf = nan, without a warning; the bound is inf
    spec = ModelSpec(7, 4, d=1, h=1e308, delta=1e308)
    diagonal, _ = terms(spec)
    assert np.isnan(diagonal).any()
    assert total_matvec(spec)[1] == np.inf


@pytest.mark.parametrize("spec", [
    ModelSpec(5, 0, h=0.3),
    ModelSpec(4, 1, h=0.2),
    ModelSpec(4, 2, h=0.3, delta=0.7, kappa=1.1),
    ModelSpec(3, 3, d=1, h=0.4),
], ids=["L5n0", "L4n1", "L4n2", "L3n3"])
def test_sector_layout_orders_each_parity_sector_in_blocks(spec):
    full = sector_layout(spec)
    assert np.array_equal(full.basis, np.arange(spec.dim))
    assert np.array_equal(full.labels, [np.arange(1 << spec.n)])
    dense = build_total(spec)
    # every term flips two bits or none: no entry couples the two sectors,
    # so a flip of a sector entry never leaves its layout
    odd = np.array([bin(i).count("1") % 2 for i in range(spec.dim)], dtype=bool)
    even, odd = np.flatnonzero(~odd), np.flatnonzero(odd)
    assert not dense[np.ix_(even, odd)].any() and not dense[np.ix_(odd, even)].any()
    psi = np.random.default_rng(spec.dim).standard_normal(spec.dim)
    for parity, sector in enumerate((even, odd)):
        layout = sector_layout(spec, parity)
        assert np.array_equal(np.sort(layout.basis), sector)
        # one block per charger parity r, its battery levels of parity
        # parity ^ r; with n = 0 the block with no level is left out
        assert layout.labels.shape == ((2, 1 << spec.n >> 1) if spec.n else (1, 1))
        rows = layout.basis.size // layout.labels.size
        assert rows == 1 << (spec.L - 1)
        lo = 0
        for labels in layout.labels:
            chunk = layout.basis[lo:lo + rows * labels.size].reshape(rows, labels.size)
            chargers = chunk >> spec.n
            assert np.all(chunk % (1 << spec.n) == labels) and np.all(chargers == chargers[:, :1])
            r, = {bin(c).count("1") % 2 for c in chargers[:, 0].tolist()}
            assert {bin(a).count("1") % 2 for a in labels.tolist()} == {parity ^ r}
            lo += rows * labels.size
        assert lo == spec.dim // 2
        # the matrix-free product in that layout is the dense sector block,
        # with the full-space norm bound
        matvec, bound = total_matvec(spec, layout.basis)
        block = dense[np.ix_(layout.basis, layout.basis)]
        assert np.max(np.abs(matvec(psi[layout.basis]) - block @ psi[layout.basis])) <= 1e-13
        assert bound == total_matvec(spec)[1]


def test_every_flip_is_an_xor_on_the_layout_index():
    # total_matvec gathers entry i's partner at position[basis[i] ^ mask]; on
    # the full space and on either parity sector that position is i ^ x, one
    # constant x per flip, so a flip maps every block of a layout onto one
    # block, entry for entry
    flips = 0
    for L in range(2, 9):
        for n in range(5):
            for d in range(1, L + 1):
                if n * d > L:
                    continue
                spec = ModelSpec(L, n, d=d)
                for parity in (None, 0, 1):
                    basis = sector_layout(spec, parity).basis
                    position = np.zeros(spec.dim, dtype=basis.dtype)
                    position[basis] = np.arange(basis.size)
                    for mask, _ in terms(spec)[1]:
                        partner = position[basis ^ mask]
                        assert np.array_equal(partner, np.arange(basis.size) ^ partner[0]), (
                            spec, parity, mask)
                        flips += 1
    assert flips == 2130


def test_battery_spectrum_multiplicities():
    levels = battery_energies(4, 0.6)
    values, counts = np.unique(np.round(levels, 12), return_counts=True)
    assert np.allclose(values, 0.6 * (np.arange(5) - 2.0))
    assert counts.tolist() == [1, 4, 6, 4, 1]
    # symmetric +- pairs
    assert np.allclose(np.sort(levels), -np.sort(-levels)[::-1])


def test_full_scale_dimension_and_tracelessness():
    # the two parity sectors of the reference (11, 1) model split its 4096
    # indices into halves
    spec = ModelSpec(11, 1)
    bases = [sector_layout(spec, parity).basis for parity in (0, 1)]
    assert [basis.size for basis in bases] == [2048, 2048]
    assert np.array_equal(np.sort(np.concatenate(bases)), np.arange(4096))
    # the operator is a sum of Pauli strings; every flip term is off the
    # diagonal, so its trace is the sum of the diagonal and vanishes
    diagonal, flips = terms(spec)
    assert all(mask != 0 for mask, _ in flips)
    assert abs(diagonal.sum()) <= 1e-8


def test_model_spec_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown model keys"):
        ExperimentConfig.from_dict({"model": {"L": 4, "n": 1, "coupling": 2.0}})
    with pytest.raises(ValueError, match="requires"):
        ExperimentConfig.from_dict({"model": {"L": 4}})
