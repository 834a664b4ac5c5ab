"""Unit tests for the network model (Table 3 NETTHRU)."""

import math

import pytest

from repro.despy import Simulation, ms_to_ticks
from repro.core import Network, VOODBConfig
from tests.core.nowait import as_process


def make_network(netthru=1.0):
    sim = Simulation()
    return sim, Network(sim, VOODBConfig(netthru=netthru))


class TestTransferTicks:
    def test_one_megabyte_at_one_mbps_takes_one_second(self):
        sim, net = make_network(netthru=1.0)
        assert net.transfer_ticks(2**20) == ms_to_ticks(1000.0)

    def test_infinite_throughput_is_instant(self):
        sim, net = make_network(netthru=math.inf)
        assert net.transfer_ticks(10**9) == 0
        assert net.infinite

    def test_faster_network_scales_linearly(self):
        __, slow = make_network(netthru=1.0)
        __, fast = make_network(netthru=10.0)
        nbytes = 4096
        assert slow.transfer_ticks(nbytes) == 10 * fast.transfer_ticks(nbytes)


class TestTransfers:
    def test_transfer_advances_clock(self):
        sim, net = make_network(netthru=1.0)
        sim.process(as_process(net.transfer_nowait, 2**20))
        sim.run()
        assert sim.now_ms == pytest.approx(1000.0)
        assert net.messages == 1
        assert net.bytes_sent == 2**20

    def test_infinite_network_still_counts_messages(self):
        sim, net = make_network(netthru=math.inf)

        def work():
            yield from as_process(net.transfer_nowait, 4096)
            yield from as_process(net.transfer_nowait, 128)

        sim.process(work())
        sim.run()
        assert sim.now == 0
        assert net.messages == 2
        assert net.bytes_sent == 4096 + 128

    def test_medium_serializes_transfers(self):
        sim, net = make_network(netthru=1.0)
        finished = []

        def sender(tag):
            yield from as_process(net.transfer_nowait, 2**20)
            finished.append((tag, sim.now_ms))

        sim.process(sender(0))
        sim.process(sender(1))
        sim.run()
        assert finished[0][1] == pytest.approx(1000.0)
        assert finished[1][1] == pytest.approx(2000.0)

    def test_reset_counters(self):
        sim, net = make_network()
        sim.process(as_process(net.transfer_nowait, 100))
        sim.run()
        net.reset_counters()
        assert net.messages == 0
        assert net.bytes_sent == 0
