"""Tests for straggler identification and optimization-target determination."""

import numpy as np
import pytest

from repro.core import OptimizationTargetPolicy, StragglerIdentifier
from repro.hardware import TrainingCostModel

from ..conftest import FAST_DEVICE, SLOW_DEVICE, make_device, make_tiny_model


@pytest.fixture
def identifier():
    return StragglerIdentifier(make_tiny_model(), (1, 8, 8),
                               samples_per_cycle=2000, batch_size=20)


@pytest.fixture
def fleet():
    return [FAST_DEVICE.scaled(name="capable-0"),
            FAST_DEVICE.scaled(name="capable-1"),
            SLOW_DEVICE.scaled(name="straggler-0"),
            make_device("straggler-1", compute=8.0, memory_bw=3.0)]


class TestResourceIdentification:
    def test_flags_slow_devices(self, identifier, fleet):
        report = identifier.identify_by_resources(fleet)
        assert report.method == "resource"
        assert set(report.straggler_indices) == {2, 3}

    def test_ranking_slowest_first(self, identifier, fleet):
        report = identifier.identify_by_resources(fleet)
        seconds = report.cycle_seconds
        assert seconds[report.ranking[0]] == max(seconds.values())
        assert seconds[report.ranking[-1]] == min(seconds.values())

    def test_top_k_selects_exactly_k(self, identifier, fleet):
        report = identifier.identify_by_resources(fleet, top_k=1)
        assert len(report.straggler_indices) == 1
        # The single flagged device is the slowest one.
        assert report.straggler_indices[0] == report.ranking[0]

    def test_top_k_out_of_range(self, identifier, fleet):
        with pytest.raises(ValueError):
            identifier.identify_by_resources(fleet, top_k=10)

    def test_homogeneous_fleet_has_no_stragglers(self, identifier):
        fleet = [FAST_DEVICE.scaled(name=f"node-{i}") for i in range(4)]
        report = identifier.identify_by_resources(fleet)
        assert report.straggler_indices == []

    def test_report_helpers(self, identifier, fleet):
        report = identifier.identify_by_resources(fleet)
        assert report.is_straggler(2)
        assert not report.is_straggler(0)
        assert set(report.capable_indices()) == {0, 1}
        assert report.slowdown_factor(2) > 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            StragglerIdentifier(make_tiny_model(), (1, 8, 8),
                                samples_per_cycle=100,
                                slowdown_threshold=1.0)


class TestTimeIdentification:
    def test_matches_resource_identification(self, identifier, fleet):
        """With small noise, both paths should agree on this fleet."""
        resource = identifier.identify_by_resources(fleet)
        timed = identifier.identify_by_time(fleet, noise_std=0.01,
                                            rng=np.random.default_rng(0))
        assert set(timed.straggler_indices) == set(
            resource.straggler_indices)
        assert timed.method == "time"

    def test_measurement_scaled_to_full_cycle(self, identifier, fleet):
        resource = identifier.identify_by_resources(fleet)
        timed = identifier.identify_by_time(fleet, noise_std=0.0)
        for index in resource.cycle_seconds:
            np.testing.assert_allclose(timed.cycle_seconds[index],
                                       resource.cycle_seconds[index],
                                       rtol=1e-6)


class TestTargetPolicy:
    def test_resource_adapted_volumes_in_range(self, fleet):
        model = make_tiny_model()
        identifier = StragglerIdentifier(model, (1, 8, 8),
                                         samples_per_cycle=2000)
        report = identifier.identify_by_resources(fleet)
        policy = OptimizationTargetPolicy(model, (1, 8, 8))
        assignment = policy.assign_resource_adapted(
            report, fleet, samples_per_cycle={i: 2000 for i in range(4)})
        assert set(assignment.volumes) == set(report.straggler_indices)
        for volume in assignment.volumes.values():
            assert 0.0 < volume < 1.0

    def test_resource_adapted_meets_pace(self, fleet):
        model = make_tiny_model()
        identifier = StragglerIdentifier(model, (1, 8, 8),
                                         samples_per_cycle=2000)
        report = identifier.identify_by_resources(fleet)
        policy = OptimizationTargetPolicy(model, (1, 8, 8), min_volume=0.05)
        assignment = policy.assign_resource_adapted(
            report, fleet, samples_per_cycle={i: 2000 for i in range(4)})
        for index, volume in assignment.volumes.items():
            cost_model = TrainingCostModel(model, (1, 8, 8),
                                           samples_per_cycle=2000)
            fractions = {layer.name: volume for layer in model.neuron_layers()}
            achieved = cost_model.estimate(fleet[index], fractions).total_seconds
            # Shrunk cycle must be within the slack of the reference pace
            # unless the volume already hit the floor.
            if volume > 0.05 + 1e-9:
                assert achieved <= assignment.target_seconds * 1.05

    def test_capable_devices_get_full_volume(self, fleet):
        model = make_tiny_model()
        identifier = StragglerIdentifier(model, (1, 8, 8),
                                         samples_per_cycle=2000)
        report = identifier.identify_by_resources(fleet)
        policy = OptimizationTargetPolicy(model, (1, 8, 8))
        assignment = policy.assign_resource_adapted(
            report, fleet, samples_per_cycle={i: 2000 for i in range(4)})
        assert assignment.volume_for(0) == 1.0

    def test_predefined_levels_slowest_gets_smallest(self, fleet):
        model = make_tiny_model()
        identifier = StragglerIdentifier(model, (1, 8, 8),
                                         samples_per_cycle=2000)
        report = identifier.identify_by_resources(fleet)
        policy = OptimizationTargetPolicy(model, (1, 8, 8))
        assignment = policy.assign_predefined_levels(report)
        slowest = report.ranking[0]
        other = [i for i in report.straggler_indices if i != slowest][0]
        assert assignment.volumes[slowest] <= assignment.volumes[other]

    def test_invalid_policy_arguments(self):
        model = make_tiny_model()
        with pytest.raises(ValueError):
            OptimizationTargetPolicy(model, (1, 8, 8), min_volume=0.0)
        with pytest.raises(ValueError):
            OptimizationTargetPolicy(model, (1, 8, 8), volume_levels=())
        with pytest.raises(ValueError):
            OptimizationTargetPolicy(model, (1, 8, 8), volume_levels=(1.5,))
