"""Slot and energy bookkeeping for digital versus analog uploads."""

import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

from otafl.accounting import (
    DEFAULT_FIXED_OVERHEAD,
    DEFAULT_SPECTRAL_EFFICIENCY,
    SLOT_DURATION_S,
    EnergyModel,
    SpectralProfile,
    digital_round_energy,
    digital_slots,
    digital_slots_raw,
    energy_gain,
    format_from_grid,
    gains_table,
    ota_slots,
    round_energy,
    spectrum_gain,
)
from otafl.errors import FieldError
from otafl.grid import GridConfig

P = 71_666  # reference parameter count
FMT = GridConfig()  # 14 x 256 resource elements


def test_reference_slot_numbers():
    """The reference configuration: 71666 params, 32-bit words, 7.4063
    bits per resource element over 3584-element slots."""
    raw = digital_slots_raw(P, 32, DEFAULT_SPECTRAL_EFFICIENCY, FMT)
    assert raw == pytest.approx(71_666 * 32 / (7.4063 * 3584), rel=1e-12)
    assert raw == pytest.approx(86.3958, abs=1e-3)
    assert math.ceil(raw) == 87
    profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, 5)
    assert digital_slots(P, 32, profile, FMT) == 5 * 87 == 435
    assert ota_slots(P, FMT) == 10  # ceil(71666 / 7168)
    assert spectrum_gain(P, 32, profile, FMT) == pytest.approx(43.5, rel=1e-12)


def test_ota_slots_independent_of_client_count():
    for m in (1, 2, 50):
        profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, m)
        assert digital_slots(P, 32, profile, FMT) == m * 87
    assert ota_slots(P, FMT) == 10


def test_mixed_efficiency_profile():
    profile = SpectralProfile((7.4063, 2.0))
    want = 87 + math.ceil(P * 32 / (2.0 * 3584))
    assert digital_slots(P, 32, profile, FMT) == want


def test_slot_format_resource_elements():
    assert FMT.res_per_slot == 3584
    small = format_from_grid(2, 8, 15e3)
    assert small.res_per_slot == 16
    assert format_from_grid(14, 300, 15e3).res_per_slot == 14 * 300


def test_slot_counts_validation():
    with pytest.raises(ValueError):
        digital_slots_raw(0, 32, 7.4, FMT)
    with pytest.raises(ValueError):
        digital_slots_raw(P, 32, 0.0, FMT)
    with pytest.raises(ValueError):
        ota_slots(0, FMT)
    with pytest.raises(ValueError):
        SpectralProfile(())
    with pytest.raises(ValueError):
        SpectralProfile.uniform(7.4, 0)
    with pytest.raises(ValueError):
        format_from_grid(0, 256, 15e3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_inputs_are_rejected(bad):
    for kwargs in ({"tx_power_dbm": bad}, {"fixed_overhead": bad}):
        with pytest.raises(ValueError):
            EnergyModel(**kwargs)
    with pytest.raises(ValueError):
        SpectralProfile((7.4, bad))
    with pytest.raises(ValueError):
        SpectralProfile.uniform(bad, 2)
    with pytest.raises(ValueError):
        digital_slots_raw(P, 32, bad, FMT)


# ---------------------------------------------------------------- energy


@pytest.mark.parametrize("power_dbm, energy", [(5000.0, "inf"), (-5000.0, "0.0")])
def test_slot_energy_outside_float_range_names_the_power(power_dbm, energy):
    """A finite power whose slot energy overflows, or underflows to zero
    and would make every energy ratio 0 / 0, is rejected by name."""
    with pytest.raises(ValueError, match=rf"tx_power_dbm {power_dbm!r} gives {energy} J per slot"):
        EnergyModel(tx_power_dbm=power_dbm)


def test_an_efficiency_whose_bill_overflows_is_named():
    with pytest.raises(ValueError, match=r"efficiency 1e-320 give no finite slot count"):
        digital_slots_raw(P, 32, 1e-320, FMT)
    with pytest.raises(ValueError, match=r"efficiency 7.4063 give no finite slot count"):
        digital_slots_raw(10**400, 32, 7.4063, FMT)
    assert math.isfinite(digital_slots_raw(P, 32, 1e-300, FMT))
    # each client's 6.4e307 slots fit a float; three clients' do not
    assert digital_slots(P, 32, SpectralProfile.uniform(1e-305, 2), FMT) < 1.8e308
    with pytest.raises(ValueError, match=r"efficiency 1e-305 gives 3 clients more slots"):
        digital_slots(P, 32, SpectralProfile.uniform(1e-305, 3), FMT)
    with pytest.raises(ValueError, match=r"efficiency 1e-305 gives 3 clients more slots"):
        gains_table(range(2, 4), P, 32, efficiency=1e-305)


@pytest.mark.parametrize("power_dbm, overhead", [(3000.0, 1e20), (3100.0, 0.0)])
def test_a_round_energy_past_float_range_is_named(power_dbm, overhead):
    """A slot energy that fits a float can still give a round energy that
    does not, through the overhead or the slot count; both round bills and
    the accounting table say so instead of returning inf."""
    model = EnergyModel(tx_power_dbm=power_dbm, fixed_overhead=overhead)
    named = re.escape(f"tx_power_dbm {power_dbm!r} and fixed_overhead {overhead!r} give a round")
    with pytest.raises(ValueError, match=named):
        round_energy(3, 10**9, model)
    with pytest.raises(ValueError, match=named):
        digital_round_energy(3 * 10**9, model)
    with pytest.raises(ValueError, match=named):
        gains_table(range(2, 3), 10**7, 32, model=model)  # 12 056 slots per client
    small = EnergyModel(tx_power_dbm=power_dbm - 100.0, fixed_overhead=overhead)
    assert math.isfinite(round_energy(3, 10**9, small))
    assert math.isfinite(digital_round_energy(3 * 10**9, small))


def test_slot_energy_at_reference_power():
    # 20 dBm = 0.1 W over 1 ms = 1e-4 J
    assert EnergyModel().slot_energy_j == pytest.approx(1e-4, rel=1e-12)
    assert EnergyModel(tx_power_dbm=30.0).slot_energy_j == pytest.approx(1e-3, rel=1e-12)
    assert SLOT_DURATION_S == 1e-3  # one slot at 15 kHz spacing
    assert [f.name for f in dataclasses.fields(EnergyModel)] == ["tx_power_dbm", "fixed_overhead"]


def test_round_energy_formula():
    model = EnergyModel(fixed_overhead=10.0)
    e = model.slot_energy_j
    assert round_energy(3, 87, model) == pytest.approx((10 + 3 * 87) * e, rel=1e-12)
    assert digital_round_energy(3 * 87, model) == (10 + 3 * 87) * e
    with pytest.raises(ValueError):
        round_energy(0, 87, model)


def test_energy_gain_anchor_points():
    """The fixed overhead c = 94/3 makes the two-client ratio land exactly
    on 4.0; twenty clients give about 7.66."""
    assert DEFAULT_FIXED_OVERHEAD == pytest.approx(94.0 / 3.0, rel=1e-15)
    assert energy_gain(2, 87, 10) == pytest.approx(4.0, abs=1e-12)
    g20 = energy_gain(20, 87, 10)
    assert 7.0 <= g20 <= 8.0
    assert g20 == pytest.approx((94 / 3 + 20 * 87) / (94 / 3 + 20 * 10), rel=1e-12)


def test_readme_numbers_for_the_papers_43x_and_7x():
    """The README's account of the abstract's 43x and 7x, to the digits it
    prints: the slot ratio at P = 71 666 and M = 5, the energy gain at five
    clients, the first client count whose gain reaches 7, and the gain
    criterion 7 checks at twenty clients."""
    profile = SpectralProfile.uniform(DEFAULT_SPECTRAL_EFFICIENCY, 5)
    gains = {m: energy_gain(m, 87, 10) for m in range(1, 21)}
    first_seven = min(m for m, g in gains.items() if g >= 7.0)
    quoted = [
        f"{spectrum_gain(P, 32, profile, FMT):.1f}",
        f"{gains[5]:.2f}",
        f"M = {first_seven} ({gains[first_seven]:.2f})",
        f"M = 20 ({gains[20]:.2f})",
    ]
    assert quoted == ["43.5", "5.73", "M = 12 (7.11)", "M = 20 (7.66)"]
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8").split())
    assert [text for text in quoted if text not in readme] == []


def test_energy_gain_monotone_and_bounded():
    gains = [energy_gain(m, 87, 10) for m in range(1, 60)]
    assert all(b > a for a, b in zip(gains, gains[1:]))
    # asymptote: slots ratio 87/10
    assert all(g < 8.7 for g in gains)
    assert gains[-1] > 8.0


def test_energy_gain_independent_of_tx_power():
    a = energy_gain(5, 87, 10, EnergyModel(tx_power_dbm=20.0))
    b = energy_gain(5, 87, 10, EnergyModel(tx_power_dbm=26.0))
    assert a == pytest.approx(b, rel=1e-12)


# ----------------------------------------------------------------- table


def test_gains_table_reference_rows():
    rows = gains_table(range(2, 6), P, 32)
    assert len(rows) == 8  # digital + ota per client count
    by_key = {(r["num_ues"], r["mode"]): r for r in rows}
    dig5 = by_key[(5, "digital")]
    assert dig5["slots"] == 435
    assert dig5["gain"] == pytest.approx(43.5, rel=1e-12)
    ota2 = by_key[(2, "ota")]
    assert ota2["slots"] == 10
    assert ota2["gain"] == pytest.approx(4.0, abs=1e-12)  # energy ratio
    assert ota2["energy_j"] == pytest.approx(round_energy(2, 10), rel=1e-12)


def test_gains_table_slots_scale_linearly():
    rows = gains_table(range(1, 30), P, 32)
    dig = [r for r in rows if r["mode"] == "digital"]
    slopes = np.diff([r["slots"] for r in dig])
    np.testing.assert_array_equal(slopes, 87)
    ota = [r for r in rows if r["mode"] == "ota"]
    assert all(r["slots"] == 10 for r in ota)


@pytest.mark.parametrize("build, field", [
    (lambda: EnergyModel(tx_power_dbm=5000.0), "tx_power_dbm"),
    (lambda: EnergyModel(fixed_overhead=-1.0), "fixed_overhead"),
    (lambda: SpectralProfile((7.4, 0.0)), "efficiencies"),
    (lambda: SpectralProfile.uniform(7.4, 0), "efficiencies"),
])
def test_accounting_parts_name_the_field_they_reject(build, field):
    with pytest.raises(FieldError) as exc:
        build()
    assert exc.value.field == field
