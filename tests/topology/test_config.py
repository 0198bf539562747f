"""Tests for system configurations."""

import pytest

from repro.errors import TopologyError
from repro.topology.config import (
    CacheConfig,
    SystemConfig,
    TopologyKind,
    bench_hierarchical,
    bench_monolithic,
    fig4_mcm_ring,
    fig4_multi_gpu_xbar,
    monolithic,
    paper_hierarchical,
    scaled_hierarchical,
)


class TestCacheConfig:
    def test_num_sets(self):
        cfg = CacheConfig(size=32 * 1024, assoc=16, sector_bytes=32)
        assert cfg.num_sets == 64

    def test_indivisible_rejected(self):
        with pytest.raises(TopologyError):
            CacheConfig(size=1000)

    def test_line_must_hold_sectors(self):
        with pytest.raises(TopologyError):
            CacheConfig(line_bytes=48)


class TestSystemConfig:
    def test_paper_table3(self):
        cfg = paper_hierarchical()
        assert cfg.num_nodes == 16
        assert cfg.total_sms == 256
        assert cfg.mem_bw_per_node == 180e9
        assert cfg.total_mem_bw == 16 * 180e9

    def test_monolithic_single_node(self):
        cfg = monolithic()
        assert cfg.num_nodes == 1
        assert not cfg.flush_l2_between_kernels

    def test_monolithic_must_be_single(self):
        with pytest.raises(TopologyError):
            SystemConfig(name="bad", kind=TopologyKind.MONOLITHIC, num_gpus=2)

    def test_flat_requires_single_chiplet(self):
        with pytest.raises(TopologyError):
            SystemConfig(
                name="bad", kind=TopologyKind.FLAT_XBAR, num_gpus=4, chiplets_per_gpu=2
            )

    @pytest.mark.parametrize("size", [0, -1])
    def test_l1_filter_size_must_be_positive(self, size):
        with pytest.raises(TopologyError, match="l1_filter_sectors"):
            paper_hierarchical().with_(l1_filter_sectors=size)
        assert paper_hierarchical().with_(l1_filter_sectors=1).l1_filter_sectors == 1

    def test_with_returns_modified_copy(self):
        base = paper_hierarchical()
        other = base.with_(sms_per_node=8)
        assert other.sms_per_node == 8
        assert base.sms_per_node == 16

    def test_fig4_configs(self):
        xbar = fig4_multi_gpu_xbar(90)
        assert xbar.inter_gpu_link_bw == 90e9
        assert xbar.num_nodes == 4
        ring = fig4_mcm_ring(1.4)
        assert ring.ring_bw_per_gpu == 1.4e12

    def test_bench_pair_resources_match(self):
        hier = bench_hierarchical()
        mono = bench_monolithic()
        assert mono.total_sms == hier.total_sms
        assert mono.mem_bw_per_node == hier.total_mem_bw
        assert mono.l2.size == hier.num_nodes * hier.l2.size

    def test_scaled_preserves_bandwidth_ratios(self):
        base = paper_hierarchical()
        scaled = scaled_hierarchical(8)
        assert scaled.mem_bw_per_node == base.mem_bw_per_node
        assert scaled.inter_gpu_link_bw == base.inter_gpu_link_bw
