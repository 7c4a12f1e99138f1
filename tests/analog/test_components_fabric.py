"""Tests for analog components and the Fabric/Chip/Tile hierarchy."""

import numpy as np
import pytest

from repro.analog.components import Adc, Dac, Fanout, Integrator, Multiplier
from repro.analog.fabric import (
    Fabric,
    FabricCapacityError,
    INTEGRATORS_PER_TILE,
    MULTIPLIERS_PER_TILE,
    TILES_PER_CHIP,
)
from repro.analog.noise import NoiseModel


@pytest.fixture
def noise():
    return NoiseModel()


class TestComponents:
    def test_multiplier_product(self, noise):
        mul = Multiplier("m", noise)
        np.testing.assert_allclose(mul.evaluate(np.array(0.5), np.array(0.4)), 0.2)

    def test_multiplier_gain_error_applies(self, noise):
        mul = Multiplier("m", noise, gain_error=0.1)
        assert mul.evaluate(np.array(0.5), np.array(0.4)) == pytest.approx(0.22)

    def test_multiplier_saturates(self, noise):
        mul = Multiplier("m", noise)
        mul.set_gain(10.0)
        assert mul.evaluate(np.array(0.9), np.array(0.9)) == pytest.approx(1.0)

    def test_fanout_copies(self, noise):
        fan = Fanout("f", noise)
        out = fan.evaluate(np.array(0.3), copies=3)
        assert out.shape == (3,)
        np.testing.assert_allclose(out, 0.3)

    def test_fanout_validation(self, noise):
        with pytest.raises(ValueError):
            Fanout("f", noise).evaluate(np.array(0.1), copies=0)

    def test_integrator_initial_condition_quantized(self, noise):
        integ = Integrator("i", noise)
        integ.set_initial(0.123456789)
        step = 2.0 / 2**noise.dac_bits
        assert abs(integ.initial_condition - 0.123456789) <= step / 2

    def test_dac_output_quantized_and_railed(self, noise):
        dac = Dac("d", noise)
        dac.code_value = 5.0
        assert dac.output() <= 1.0

    def test_adc_measure_quantizes(self, noise):
        adc = Adc("a", noise)
        rng = np.random.default_rng(0)
        out = adc.measure(0.5, rng)
        assert abs(out - 0.5) < 0.05

    def test_adc_averaging_reduces_variance(self):
        noisy = NoiseModel(thermal_noise_sigma=0.05)
        adc = Adc("a", noisy)
        rng = np.random.default_rng(0)
        singles = [adc.measure(0.3, rng) for _ in range(200)]
        averaged = [adc.analog_avg(0.3, repeats=16, rng=rng) for _ in range(200)]
        assert np.std(averaged) < np.std(singles)

    def test_adc_repeats_validation(self, noise):
        with pytest.raises(ValueError):
            Adc("a", noise).analog_avg(0.1, repeats=0, rng=np.random.default_rng(0))

    def test_allocation_protocol(self, noise):
        mul = Multiplier("m", noise)
        mul.allocate("problem1")
        with pytest.raises(RuntimeError):
            mul.allocate("problem2")
        mul.release()
        mul.allocate("problem2")


class TestFabric:
    def test_prototype_board_has_eight_tiles(self):
        fabric = Fabric(num_chips=2)
        assert fabric.num_tiles == 8

    def test_tile_inventory(self):
        fabric = Fabric(num_chips=1)
        tile = fabric.chips[0].tiles[0]
        assert len(tile.integrators) == INTEGRATORS_PER_TILE
        assert len(tile.multipliers) == MULTIPLIERS_PER_TILE
        assert len(fabric.chips[0].tiles) == TILES_PER_CHIP

    def test_for_variables_rounds_up(self):
        fabric = Fabric.for_variables(9)
        assert fabric.num_tiles == 12  # 3 chips

    def test_calibration_assigns_residual_errors(self):
        fabric = Fabric(num_chips=1)
        fabric.calibrate()
        errors = [c.gain_error for c in fabric.chips[0].tiles[0].components()]
        assert any(e != 0.0 for e in errors)
        assert np.std(errors) < 0.1

    def test_same_seed_same_die(self):
        a = Fabric(num_chips=1, seed=5)
        b = Fabric(num_chips=1, seed=5)
        a.calibrate()
        b.calibrate()
        ea = [c.gain_error for c in a.chips[0].tiles[0].components()]
        eb = [c.gain_error for c in b.chips[0].tiles[0].components()]
        np.testing.assert_array_equal(ea, eb)

    def test_allocation_and_capacity(self):
        fabric = Fabric(num_chips=1)
        fabric.calibrate()
        tiles = fabric.allocate_tiles(3, "p")
        assert len(tiles) == 3
        assert len(fabric.free_tiles()) == 1
        with pytest.raises(FabricCapacityError):
            fabric.allocate_tiles(2, "q")

    def test_lifecycle_enforced(self):
        fabric = Fabric(num_chips=1)
        with pytest.raises(RuntimeError):
            fabric.cfg_commit()  # not calibrated
        fabric.calibrate()
        with pytest.raises(RuntimeError):
            fabric.exec_start()  # not committed
        fabric.cfg_commit()
        fabric.exec_start()
        with pytest.raises(RuntimeError):
            fabric.allocate_tiles(1, "p")  # executing
        fabric.exec_stop()
        fabric.allocate_tiles(1, "p")

    def test_validation(self):
        with pytest.raises(ValueError):
            Fabric(num_chips=0)
        with pytest.raises(ValueError):
            Fabric.for_variables(0)
