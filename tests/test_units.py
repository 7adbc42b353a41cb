import math

import pytest

from timefringe import units
from timefringe.errors import DomainError
from timefringe.units import (PhysicalSetup, kinetic_from_photons,
                              momentum_from_kinetic, photon_energy)

REL = 1e-4  # CODATA revisions stay well below this


def test_rest_energy_consistent_with_mass():
    derived = units.ELECTRON_MASS_KG * units.C_M_PER_S**2 / units.EV_TO_JOULE
    assert derived == pytest.approx(units.ELECTRON_REST_ENERGY_EV, rel=1e-6)


def test_hc_consistent_with_hbar_c():
    derived = (units.HBAR_JS * units.C_M_PER_S * 2.0 * math.pi
               / (units.EV_TO_JOULE * 1e-9))
    assert derived == pytest.approx(units.HC_EV_NM, rel=1e-6)


def test_rest_energy_matches_tabulated_value():
    # CODATA 2018: m_e c^2 = 510998.95 eV
    assert units.ELECTRON_REST_ENERGY_EV == pytest.approx(510998.95, rel=1e-8)


def test_hc_matches_tabulated_value():
    # CODATA 2018: hc = 1239.84198 eV nm
    assert units.HC_EV_NM == pytest.approx(1239.84198, rel=1e-8)


class TestPhotonEnergy:
    def test_laser_line_850nm(self):
        # published companion value: about 1.46 eV
        assert photon_energy(850.0) == pytest.approx(1.4586376, rel=REL)
        assert photon_energy(850.0) == pytest.approx(1.46, rel=5e-3)

    def test_definition_at_hc(self):
        assert photon_energy(1239.84) == pytest.approx(1.0, rel=1e-4)

    def test_inverse_proportionality(self):
        assert photon_energy(425.0) == pytest.approx(2 * photon_energy(850.0),
                                                     rel=1e-12)

    def test_product_constant_over_wavelength(self):
        values = [photon_energy(lam) * lam for lam in (10.0, 850.0, 5e4)]
        for v in values[1:]:
            assert v == pytest.approx(values[0], rel=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            photon_energy(0.0)
        with pytest.raises(DomainError):
            photon_energy(-1.0)


class TestKineticFromPhotons:
    def test_three_hundred_photons(self):
        # oracle: 300 * hc / 850 with tabulated constants = 437.5913 eV
        assert kinetic_from_photons(300, 850.0) == pytest.approx(437.5913,
                                                                 rel=REL)

    def test_single_photon(self):
        assert kinetic_from_photons(1, 850.0) == photon_energy(850.0)

    def test_linearity(self):
        assert kinetic_from_photons(2, 532.0) == pytest.approx(
            2 * kinetic_from_photons(1, 532.0), rel=1e-12)

    def test_rejects_zero_photons(self):
        with pytest.raises(DomainError):
            kinetic_from_photons(0, 850.0)


class TestMomentumFromKinetic:
    def test_nonrelativistic_chain_value(self):
        # oracle: sqrt(2 * 510998.95 * 437.5913) = 21147.5 eV
        cp = momentum_from_kinetic(437.5913, "nonrelativistic")
        assert cp == pytest.approx(2.11475e4, rel=REL)

    def test_rest(self):
        assert momentum_from_kinetic(0.0, "nonrelativistic") == 0.0
        assert momentum_from_kinetic(0.0, "relativistic") == 0.0

    def test_models_agree_at_low_energy(self):
        nr = momentum_from_kinetic(437.6, "nonrelativistic")
        r = momentum_from_kinetic(437.6, "relativistic")
        assert abs(r - nr) / nr < 1e-3

    def test_relativistic_exceeds_nonrelativistic(self):
        # exact on-shell cp = sqrt(2 mc^2 E + E^2) > sqrt(2 mc^2 E) for E > 0
        for e in (1.0, 437.6, 5e4, 1e6):
            assert (momentum_from_kinetic(e, "relativistic")
                    > momentum_from_kinetic(e, "nonrelativistic"))

    @pytest.mark.parametrize("model", ["nonrelativistic", "relativistic"])
    def test_monotone_in_kinetic_energy(self, model):
        energies = [0.0, 0.5, 10.0, 437.6, 1e4, 1e6]
        values = [momentum_from_kinetic(e, model) for e in energies]
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            momentum_from_kinetic(-1.0)


class TestPhysicalSetupInvariants:
    def test_rejects_invalid_fields(self):
        with pytest.raises(DomainError):
            PhysicalSetup(wavelength=-850.0)
        with pytest.raises(DomainError):
            PhysicalSetup(photon_count=0)
        with pytest.raises(DomainError):
            PhysicalSetup(flight_distance_L=0.0)
        with pytest.raises(DomainError):
            PhysicalSetup(momentum_model="ultrarelativistic")
