from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linetherm.core import SystemParams, ValidationError
from linetherm.shotnoise import (
    N_MAX,
    DispersiveRegimeWarning,
    OutOfRange,
    bose_einstein,
    dephasing_full,
    dephasing_linear,
    photons_from_dephasing,
    temperature_from_photons,
)

# Frozen oracle values, computed by direct complex evaluation of the
# dephasing relation and the closed-form per-photon coefficients at the
# reference parameters (kappa/2pi = 4.10 MHz, chi/2pi = -2.70 MHz).
GAMMA_FULL_2P2E3 = 17137.859589592204
DF_FULL_2P2E3 = -4138.285938077839
GAMMA_PER_PHOTON_LIN = 7792453.346319114
DF_PER_PHOTON_LIN = -1883278.008298755


def oracle_full(n_bar, sys):
    """(gamma_n, delta_f_total) of the shot-noise relation in 50-digit decimal arithmetic.

    With z = x + iy, sqrt(z) = sqrt((|z| + x)/2) + i*sign(y)*sqrt((|z| - x)/2).
    """
    with localcontext() as ctx:
        ctx.prec = 50
        kappa, c = Decimal(sys.kappa), Decimal(sys.chi) / Decimal(sys.kappa)
        x, y = 1 - c * c, 2 * c + 4 * c * Decimal(n_bar)
        r = (x * x + y * y).sqrt()
        re, im = ((r + x) / 2).sqrt(), ((r - x) / 2).sqrt().copy_sign(y)
        return float(kappa / 2 * (re - 1)), float(kappa / 2 * im / Decimal(2 * np.pi))


def test_zero_photons_gives_pure_lamb_shift(table1):
    pt = dephasing_full(0.0, table1)
    assert pt.gamma_n == 0.0
    assert pt.delta_f_stark == 0.0
    assert pt.lamb_shift == pytest.approx(-1.35e6, rel=1e-12)
    assert pt.delta_f_total == pytest.approx(-1.35e6, rel=1e-12)


def test_full_model_at_2p2e3(table1):
    pt = dephasing_full(2.2e-3, table1)
    assert pt.gamma_n == pytest.approx(GAMMA_FULL_2P2E3, rel=1e-12)
    assert pt.delta_f_stark == pytest.approx(DF_FULL_2P2E3, rel=1e-12)
    # cross-check against the linearization within its stated accuracy
    lin = dephasing_linear(2.2e-3, table1)
    assert pt.gamma_n == pytest.approx(lin.gamma_n, rel=1e-2)
    assert pt.delta_f_stark == pytest.approx(lin.delta_f_stark, rel=1e-2)


def test_full_model_matches_inline_oracle(table1):
    for n in (1e-12, 1e-8, 1e-4, 3.3e-3, 0.05, 0.7):
        gamma, df_total = oracle_full(n, table1)
        pt = dephasing_full(n, table1)
        assert pt.gamma_n == pytest.approx(gamma, rel=1e-12, abs=0.0)
        assert pt.delta_f_total == pytest.approx(df_total, rel=1e-12, abs=0.0)


def test_full_model_tends_to_the_linear_one(table1):
    # The two differ by O(n_bar) relatively: below 1e-8 at n_bar = 1e-9.
    n = np.geomspace(1e-12, 1e-9, 7)
    full, lin = dephasing_full(n, table1), dephasing_linear(n, table1)
    assert full.gamma_n.tolist() == pytest.approx(lin.gamma_n.tolist(), rel=1e-8, abs=0.0)
    assert full.delta_f_stark.tolist() == pytest.approx(lin.delta_f_stark.tolist(), rel=1e-8,
                                                         abs=0.0)


def test_reported_photon_band_dephasing(table1):
    assert dephasing_full(3.5e-3, table1).gamma_n == pytest.approx(2.7e4, rel=0.03)


def test_linear_per_photon_coefficients(table1):
    pt = dephasing_linear(1e-3, table1)
    assert pt.gamma_n == pytest.approx(GAMMA_PER_PHOTON_LIN * 1e-3, rel=1e-12)
    assert pt.delta_f_stark == pytest.approx(DF_PER_PHOTON_LIN * 1e-3, rel=1e-12)
    zero = dephasing_linear(0.0, table1)
    assert zero.gamma_n == 0.0 and zero.delta_f_stark == 0.0


def test_linearization_error_bounds(table1):
    n = np.linspace(1e-5, 0.01, 500)
    full = dephasing_full(n, table1).gamma_n
    lin = dephasing_linear(n, table1).gamma_n
    assert np.max(np.abs(full - lin) / full) < 0.01
    n = np.linspace(1e-5, 0.1, 500)
    full = dephasing_full(n, table1).gamma_n
    lin = dephasing_linear(n, table1).gamma_n
    assert np.max(np.abs(full - lin) / full) < 0.10


def test_branch_positivity_and_monotonicity(table1):
    n = np.linspace(0.0, 10.0, 2001)
    pt = dephasing_full(n, table1)
    assert np.all(pt.gamma_n >= 0.0)
    assert np.all(np.diff(pt.gamma_n) > 0.0)
    assert np.all(np.diff(np.abs(pt.delta_f_stark)) > 0.0)


def test_photons_from_dephasing_reported_band(table1):
    assert photons_from_dephasing(7e3, table1) == pytest.approx(0.9e-3, rel=0.10)
    assert photons_from_dephasing(2.7e4, table1) == pytest.approx(3.5e-3, rel=0.05)
    assert photons_from_dephasing(0.0, table1) == 0.0


def test_photons_from_dephasing_out_of_range(table1):
    top = dephasing_full(10.0, table1).gamma_n
    with pytest.raises(OutOfRange):
        photons_from_dephasing(top * 1.01, table1)
    with pytest.raises(ValidationError):
        photons_from_dephasing(-1.0, table1)


def test_inversion_round_trip(table1):
    for n in np.concatenate([np.geomspace(1e-5, 1.0, 25), np.geomspace(2.0, N_MAX, 4)]):
        gamma = dephasing_full(n, table1).gamma_n
        assert photons_from_dephasing(gamma, table1) == pytest.approx(n, rel=1e-10, abs=0.0)
    assert n == N_MAX == 10.0


@settings(deadline=None)
@given(st.lists(st.floats(np.log(1e-12), np.log(N_MAX)), min_size=1, max_size=20))
def test_array_inversion_matches_scalar_calls_and_round_trips(table1, log_n):
    n = np.minimum(np.exp(log_n), N_MAX)
    gamma = dephasing_full(n, table1).gamma_n
    photons = photons_from_dephasing(gamma, table1)
    assert np.array_equal(photons, [photons_from_dephasing(float(g), table1) for g in gamma])
    assert photons.tolist() == pytest.approx(n.tolist(), rel=1e-12, abs=0.0)


def test_inversion_scalar_in_float_out(table1):
    for gamma in (7e3, np.float64(7e3), 0.0, np.array(7e3)):
        assert type(photons_from_dephasing(gamma, table1)) is float
    assert photons_from_dephasing([7e3], table1).shape == (1,)


def test_array_inversion_errors_name_the_first_offending_rate(table1):
    with pytest.raises(ValidationError, match=r"got -2\.0$"):
        photons_from_dephasing(np.array([1e3, -2.0, np.nan, -3.0]), table1)
    with pytest.raises(ValidationError, match=r"got nan$"):
        photons_from_dephasing([1e3, np.nan, -3.0], table1)
    with pytest.raises(OutOfRange, match=r"^gamma_n=1\.5e\+08 "):
        photons_from_dephasing([1e3, 1.5e8, 2e8], table1)
    # Every rate is validated before any is range-checked.
    with pytest.raises(ValidationError):
        photons_from_dephasing([1e12, -1.0], table1)


@pytest.mark.parametrize("chi", [2 * np.pi * (-2.70e6), 2 * np.pi * 2.70e6])
def test_inversion_small_rate_matches_linear_limit(chi):
    sp = SystemParams(f_r=7.458e9, kappa=2 * np.pi * 4.10e6, chi=chi)
    for gamma in np.geomspace(1e-6, 1e-3, 13):
        linear = gamma * (sp.kappa**2 + chi**2) / (sp.kappa * chi**2)
        assert photons_from_dephasing(gamma, sp) == pytest.approx(linear, rel=1e-9, abs=0.0)


def test_inversion_without_dispersive_shift_is_out_of_range():
    sp = SystemParams(f_r=7.458e9, kappa=2 * np.pi * 4.10e6, chi=0.0)
    assert photons_from_dephasing(0.0, sp) == 0.0
    with pytest.raises(OutOfRange):
        photons_from_dephasing(1e-6, sp)


def test_nan_and_infinite_inputs_rejected(table1):
    f = table1.f_r
    for call in (
        lambda: photons_from_dephasing(float("nan"), table1),
        lambda: dephasing_full(float("nan"), table1),
        lambda: dephasing_full(np.array([1e-3, np.inf]), table1),
        lambda: dephasing_linear(np.inf, table1),
        lambda: bose_einstein(np.array([0.05, np.nan]), f),
        lambda: bose_einstein(0.05, float("nan")),
        lambda: temperature_from_photons(float("nan"), f),
        lambda: temperature_from_photons(1e-3, float("nan")),
    ):
        with pytest.raises(ValidationError):
            call()


def test_negative_photon_number_rejected(table1):
    with pytest.raises(ValidationError):
        dephasing_full(-1e-3, table1)


def test_linear_warns_outside_dispersive_regime():
    sp = SystemParams(f_r=7.458e9, kappa=2 * np.pi * 1.0e6, chi=2 * np.pi * (-2.70e6))
    with pytest.warns(DispersiveRegimeWarning):
        dephasing_linear(1e-3, sp)


def test_bose_einstein_anchors():
    f = 7.458e9
    assert temperature_from_photons(6.5e-3, f) == pytest.approx(0.071, abs=1e-3)
    assert bose_einstein(0.058, f) == pytest.approx(2.0931741327607427e-3, rel=1e-12)
    assert 1.9e-3 < bose_einstein(0.058, f) < 2.3e-3


def test_bose_einstein_low_temperature_limit():
    f = 7.458e9
    temps = np.array([0.5e-3, 1e-3, 5e-3, 20e-3, 0.1, 1.0])
    n = bose_einstein(temps, f)
    assert np.all(np.diff(n) > 0.0)
    assert bose_einstein(1e-4, f) == 0.0  # underflows cleanly to zero


@settings(deadline=None)
@given(st.floats(1e-3, 1e3))
def test_bose_einstein_round_trip(temp):
    f = 7.458e9
    n = bose_einstein(temp, f)
    assert temperature_from_photons(n, f) == pytest.approx(temp, rel=1e-12)


def test_bose_einstein_domain_errors():
    with pytest.raises(ValidationError):
        bose_einstein(0.0, 1e9)
    with pytest.raises(ValidationError):
        bose_einstein(0.05, -1e9)
    with pytest.raises(ValidationError):
        temperature_from_photons(0.0, 1e9)
