"""Unit tests for the fault-injection plane and retry policies."""

import pytest

from repro.ring.faults import (
    FAULT_PROFILE_ENV,
    FAULT_PROFILES,
    FaultPlane,
    RetryPolicy,
    plane_from_profile,
    validate_probability,
)
from repro.ring.identifier import IdentifierSpace
from repro.ring.network import RingNetwork

from tests.conftest import make_loaded_network


class TestValidation:
    def test_rates_must_be_below_one(self):
        # Rates of exactly 1.0 would retry/lose forever.
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            validate_probability("loss_rate", 1.0)
        with pytest.raises(ValueError, match="loss_rate"):
            validate_probability("loss_rate", -0.1)
        assert validate_probability("loss_rate", 0.99) == 0.99

    def test_fractions_may_reach_one(self):
        assert validate_probability("f", 1.0, upper_inclusive=True) == 1.0
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            validate_probability("f", 1.01, upper_inclusive=True)

    def test_network_loss_rate_validated(self):
        # The rate is validated where it is configured: on the plane.
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlane(loss_rate=-0.5)
        with pytest.raises(TypeError):
            RingNetwork(IdentifierSpace(16), loss_rate=0.1)
        with pytest.raises(TypeError):
            RingNetwork.create(4, seed=0, loss_rate=0.1)

    def test_plane_construction_validated(self):
        with pytest.raises(ValueError, match="loss_rate"):
            FaultPlane(loss_rate=1.0)
        plane = FaultPlane()
        with pytest.raises(ValueError, match="rounds"):
            plane.stall([1], rounds=0)
        with pytest.raises(ValueError, match="cut points"):
            plane.partition([5])
        with pytest.raises(ValueError, match="round"):
            plane.at(-1, stall_fraction=0.1)
        with pytest.raises(ValueError, match="crash_fraction"):
            plane.at(0, crash_fraction=1.5)
        with pytest.raises(ValueError, match="stall_fraction"):
            plane.at(0, stall_fraction=-0.1)
        with pytest.raises(ValueError, match="loss_rate"):
            plane.at(0, loss_rate=1.0)

    def test_retry_policy_validated(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="max_hops"):
            RetryPolicy(max_hops=-1)


class TestRetryPolicy:
    def test_presets(self):
        assert RetryPolicy.UNBOUNDED.max_attempts is None
        assert RetryPolicy.DEFAULT.max_attempts == 4

    def test_with_hop_budget(self):
        policy = RetryPolicy(max_attempts=3).with_hop_budget(10)
        assert policy.max_hops == 10
        assert policy.max_attempts == 3


class TestFaultPlane:
    def test_inert_by_default(self):
        plane = FaultPlane(seed=1)
        assert not plane.active
        # Base loss alone does not make the plane structurally active: it
        # is delegated to the network's legacy (bit-exact) loss machinery.
        assert not FaultPlane(seed=1, loss_rate=0.3).active

    def test_structural_faults_activate(self):
        plane = FaultPlane()
        plane.stall([3])
        assert plane.active
        plane.heal()
        assert not plane.active
        plane.partition([0, 100])
        assert plane.active
        plane.heal()
        plane.at(2, stall_fraction=0.5)
        assert plane.active

    def test_attach_installs_base_loss(self):
        network, _ = make_loaded_network(n_peers=8, n_items=50)
        plane = network.install_faults(FaultPlane(seed=0, loss_rate=0.2))
        assert network.faults is plane
        assert network.loss_rate == 0.2

    def test_stall_expiry(self):
        network, _ = make_loaded_network(n_peers=8, n_items=50)
        plane = network.install_faults(FaultPlane(seed=0))
        victim = next(iter(network.peer_ids()))
        plane.stall([victim], rounds=2)
        # Stalled immediately at round 0 with duration 2: observable for
        # the rest of round 0 plus rounds 1 and 2, recovered by the
        # advance that closes round 2.
        assert plane.is_stalled(victim)
        report1 = plane.advance(network)
        assert plane.is_stalled(victim)
        plane.advance(network)
        assert plane.is_stalled(victim)
        report3 = plane.advance(network)
        assert not plane.is_stalled(victim)
        assert report1.recovered_stalls == 0
        assert report3.recovered_stalls == 1

    def test_partition_geometry(self):
        plane = FaultPlane()
        plane.partition([0, 100])
        # [0, 100) is one arc, [100, max] wraps through 0's side.
        assert plane.reachable(10, 50)
        assert plane.reachable(150, 200)
        assert not plane.reachable(10, 150)
        assert plane.reachable(5, 5)  # self-messages always deliver
        plane.heal()
        assert plane.reachable(10, 150)

    def test_link_loss_overrides(self):
        """There are none: every link delivers and the plane draws nothing."""
        plane = FaultPlane(seed=7, loss_rate=0.5)
        assert not hasattr(plane, "set_link_loss")
        state_before = plane.rng.bit_generator.state
        assert plane.link_delivers(1, 2) and plane.link_delivers(9, 9)
        assert plane.rng.bit_generator.state == state_before
        assert not plane.active  # loss alone is the network's base rate

    def test_crash_burst_keeps_one_alive(self):
        network, _ = make_loaded_network(n_peers=4, n_items=50)
        plane = network.install_faults(FaultPlane(seed=0))
        plane.crash_burst(network, fraction=1.0)
        assert network.n_peers >= 1

    def test_schedule_applies_in_round_order(self):
        network, _ = make_loaded_network(n_peers=16, n_items=200)
        plane = network.install_faults(FaultPlane(seed=5))
        plane.at(0, crash_count=2).at(1, stall_fraction=0.25, stall_rounds=1)
        before = network.n_peers
        report0 = plane.advance(network)
        assert report0.crashes == 2
        assert network.n_peers == before - 2
        report1 = plane.advance(network)
        assert report1.stalled > 0
        assert plane.stalled_ids
        plane.advance(network)  # stall duration expires
        assert not plane.stalled_ids

    def test_identical_schedules_replay_identically(self):
        def run_once():
            network, _ = make_loaded_network(n_peers=32, n_items=500, seed=11)
            plane = network.install_faults(FaultPlane(seed=3))
            plane.at(0, crash_count=3).at(1, stall_fraction=0.2)
            victims = []
            for _ in range(3):
                plane.advance(network)
                victims.append((sorted(plane.stalled_ids), sorted(network.peer_ids())))
            return victims

        assert run_once() == run_once()


class TestProfiles:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            plane_from_profile("nope")

    def test_partitioned_profile_needs_ring_size(self):
        assert FAULT_PROFILES["heavy"]["partition_arcs"] == 2
        with pytest.raises(ValueError, match="ring_size"):
            plane_from_profile("heavy")
        plane = plane_from_profile("heavy", seed=1, ring_size=1 << 16)
        assert plane.partitioned

    def test_env_profile_attaches_on_create(self, monkeypatch):
        monkeypatch.setenv(FAULT_PROFILE_ENV, "light")
        network = RingNetwork.create(8, seed=2)
        assert network.faults is not None
        assert network.loss_rate == FAULT_PROFILES["light"]["loss_rate"]
        monkeypatch.delenv(FAULT_PROFILE_ENV)
        clean = RingNetwork.create(8, seed=2)
        assert clean.faults is None
