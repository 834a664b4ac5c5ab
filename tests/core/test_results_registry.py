"""The phase-statistic registry of :mod:`repro.core.results`.

Every scalar phase counter is declared once, on its ``PhaseResults``
field; the model's snapshot/delta, ``to_metrics``, the report blocks and
the scenario schema's metric-name check all read those declarations.
These tests pin the declarations themselves and the derived surfaces.
"""

import dataclasses

import pytest

from repro.core.model import VOODBSimulation, run_replication
from repro.core.results import (
    ALWAYS,
    COUNTERS,
    METRIC_NAMES,
    PHASE_STATS,
    PhaseResults,
    is_metric_name,
    report_metrics,
)
from repro.systems.o2 import o2_config
from tests.core.test_aggregation import aggregated_config
from tests.core.test_faults import fault_config


class TestDeclarations:
    def test_names_are_unique(self):
        names = [name for name, _stat in PHASE_STATS]
        assert len(names) == len(set(names))

    def test_counter_defaults_follow_the_tick_flag(self):
        defaults = {f.name: f.default for f in dataclasses.fields(PhaseResults)}
        for name, stat in COUNTERS:
            default = defaults[name]
            assert type(default) is (float if stat.ticks else int), name
            assert default == 0

    def test_features_name_phase_attributes(self):
        phase = PhaseResults()
        for name, stat in PHASE_STATS:
            if stat.feature != ALWAYS:
                assert hasattr(phase, stat.feature), name

    def test_every_counter_source_resolves_on_a_cluster_model(self):
        model = VOODBSimulation(fault_config(), seed=1)
        assert len(model._counters) == len(COUNTERS)
        values = [read(model) for _name, read, _ticks in model._counters]
        assert all(value == 0 for value in values)

    def test_single_server_model_skips_cluster_counters(self):
        model = VOODBSimulation(o2_config(nc=10, no=500, hotn=30), seed=1)
        read = {name for name, _read, _ticks in model._counters}
        assert read == {
            name
            for name, stat in COUNTERS
            if not stat.source.startswith("cluster.")
        }

    def test_fault_block_lines_and_labels(self):
        assert [label for _m, label in report_metrics("faults")] == [
            "partitions",
            "partition ms",
            "gray episodes",
            "degraded reads",
        ]
        assert [metric for metric, _l in report_metrics("recovery")] == [
            "remote_timeouts",
            "remote_retries",
            "abandoned_reads",
            "elections",
            "promotions",
            "repair_pages",
            "read_repairs",
        ]


class TestToMetrics:
    def test_feature_gates(self):
        plain = PhaseResults(transactions=3, repair_pages=5, cluster_reads=0)
        metrics = plain.to_metrics()
        assert metrics["transactions"] == 3.0
        assert "repair_pages" not in metrics
        assert "interconnect_messages" not in metrics
        assert "cluster_reads" not in metrics
        clustered = PhaseResults(
            server_ios=(1, 2),
            server_accesses=(3, 4),
            server_busy_ms=(0.5, 0.5),
            cluster_reads=4,
        )
        metrics = clustered.to_metrics()
        assert metrics["cluster_servers"] == 2.0
        assert metrics["cluster_reads"] == 4.0
        assert "stale_reads_per_1000_reads" in metrics
        assert "repair_pages" not in metrics
        faulted = PhaseResults(
            server_ios=(1,),
            server_accesses=(1,),
            server_busy_ms=(0.5,),
            fault_layer=True,
            repair_pages=5,
        )
        assert faulted.to_metrics()["repair_pages"] == 5.0

    def test_unexported_counters_stay_out(self):
        metrics = PhaseResults(buffer_hits=9, lock_acquisitions=4).to_metrics()
        assert "buffer_hits" not in metrics
        assert "lock_acquisitions" not in metrics

    def test_prefix_applies_to_every_metric(self):
        metrics = PhaseResults().to_metrics(prefix="cold_")
        assert all(name.startswith("cold_") for name in metrics)


@pytest.fixture(scope="module")
def reported_names():
    """Metric names of a fault-layer cluster run and an aggregated run:
    between them every metric family a replication can report."""
    names = set()
    for config in (fault_config(), aggregated_config(probe_cohort=20, hotn=120)):
        names.update(run_replication(config, seed=3).to_metrics())
    return names


class TestMetricNames:
    def test_every_reported_metric_is_a_known_name(self, reported_names):
        unknown = [name for name in reported_names if not is_metric_name(name)]
        assert unknown == []

    def test_every_known_name_is_reported(self, reported_names):
        assert set(METRIC_NAMES) <= reported_names

    def test_names_are_unique(self):
        assert len(METRIC_NAMES) == len(set(METRIC_NAMES))

    def test_unknown_names_rejected(self):
        assert not is_metric_name("nonsense_metric")
        assert not is_metric_name("server1_nonsense")
        assert not is_metric_name("buffer_hits")
        assert is_metric_name("server12_total_ios")
