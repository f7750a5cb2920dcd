//! The 562-metric LDMS namespace of the paper's dataset.
//!
//! The public Taxonomist artifact exposes 562 of the original 721 metrics,
//! drawn from the LDMS sampler plugins running on a Cray XC: `/proc/vmstat`,
//! `/proc/meminfo`, `/proc/stat` (per-core), Cray Aries NIC and router-tile
//! counters, `/proc/net/dev`, load averages, and node power sensors. The
//! paper's Tables 3–4 name metrics in `<field>_<sampler>` form
//! (`nr_mapped_vmstat`, `Committed_AS_meminfo`, `AMO_PKTS_metric_set_nic`);
//! this module reconstructs that namespace with realistic field names and
//! per-category magnitude scales, filling the tail of the router-tile
//! counters programmatically so the total is exactly [`CATALOG_SIZE`].

use crate::metric::{MetricCatalog, MetricCategory};

/// Number of metrics in the public Taxonomist dataset (and in
/// [`taxonomist_catalog`]).
pub const CATALOG_SIZE: usize = 562;

/// `/proc/vmstat` counter fields (suffix `_vmstat`).
pub const VMSTAT_FIELDS: &[&str] = &[
    "nr_free_pages",
    "nr_alloc_batch",
    "nr_inactive_anon",
    "nr_active_anon",
    "nr_inactive_file",
    "nr_active_file",
    "nr_unevictable",
    "nr_mlock",
    "nr_anon_pages",
    "nr_mapped",
    "nr_file_pages",
    "nr_dirty",
    "nr_writeback",
    "nr_slab_reclaimable",
    "nr_slab_unreclaimable",
    "nr_page_table_pages",
    "nr_kernel_stack",
    "nr_unstable",
    "nr_bounce",
    "nr_vmscan_write",
    "nr_vmscan_immediate_reclaim",
    "nr_writeback_temp",
    "nr_isolated_anon",
    "nr_isolated_file",
    "nr_shmem",
    "nr_dirtied",
    "nr_written",
    "numa_hit",
    "numa_miss",
    "numa_foreign",
    "numa_interleave",
    "numa_local",
    "numa_other",
    "workingset_refault",
    "workingset_activate",
    "workingset_nodereclaim",
    "nr_anon_transparent_hugepages",
    "nr_free_cma",
    "nr_dirty_threshold",
    "nr_dirty_background_threshold",
    "pgpgin",
    "pgpgout",
    "pswpin",
    "pswpout",
    "pgalloc_dma",
    "pgalloc_dma32",
    "pgalloc_normal",
    "pgalloc_movable",
    "pgfree",
    "pgactivate",
    "pgdeactivate",
    "pgfault",
    "pgmajfault",
    "pgrefill_normal",
    "pgsteal_kswapd_normal",
    "pgscan_kswapd_normal",
];

/// `/proc/meminfo` gauge fields in kB (suffix `_meminfo`).
pub const MEMINFO_FIELDS: &[&str] = &[
    "MemTotal",
    "MemFree",
    "MemAvailable",
    "Buffers",
    "Cached",
    "SwapCached",
    "Active",
    "Inactive",
    "Active_anon",
    "Inactive_anon",
    "Active_file",
    "Inactive_file",
    "Unevictable",
    "Mlocked",
    "SwapTotal",
    "SwapFree",
    "Dirty",
    "Writeback",
    "AnonPages",
    "Mapped",
    "Shmem",
    "Slab",
    "SReclaimable",
    "SUnreclaim",
    "KernelStack",
    "PageTables",
    "NFS_Unstable",
    "Bounce",
    "WritebackTmp",
    "CommitLimit",
    "Committed_AS",
    "VmallocTotal",
    "VmallocUsed",
    "VmallocChunk",
    "HardwareCorrupted",
    "AnonHugePages",
    "HugePages_Total",
    "HugePages_Free",
    "HugePages_Rsvd",
    "HugePages_Surp",
    "Hugepagesize",
    "DirectMap4k",
    "DirectMap2M",
    "DirectMap1G",
];

/// Per-core `/proc/stat` jiffy fields (suffix `_procstat`, expanded per
/// core as `<field>_cpu<k>`).
pub const PROCSTAT_CORE_FIELDS: &[&str] =
    &["user", "nice", "sys", "idle", "iowait", "irq", "softirq"];

/// Aggregate `/proc/stat` fields.
pub const PROCSTAT_TOTAL_FIELDS: &[&str] = &[
    "cpu_user_total",
    "cpu_nice_total",
    "cpu_sys_total",
    "cpu_idle_total",
    "cpu_iowait_total",
    "intr",
    "ctxt",
    "procs_running",
    "procs_blocked",
    "softirq_total",
];

/// Cores per node on the simulated system (Haswell-era Cray XC node).
pub const CORES_PER_NODE: usize = 32;

/// Cray Aries NIC counters (suffix `_metric_set_nic`); the paper's Table 3
/// lists `AMO_PKTS`, `AMO_FLITS` and `PI_PKTS` among the top metrics.
pub const NIC_FIELDS: &[&str] = &[
    "AMO_PKTS",
    "AMO_FLITS",
    "BTE_RD_PKTS",
    "BTE_RD_FLITS",
    "BTE_WR_PKTS",
    "BTE_WR_FLITS",
    "FMA_PKTS",
    "FMA_FLITS",
    "PI_PKTS",
    "PI_FLITS",
    "NIC_RX_PKTS",
    "NIC_RX_FLITS",
    "NIC_TX_PKTS",
    "NIC_TX_FLITS",
    "ORB_PKTS",
    "ORB_FLITS",
    "RAT_PKTS",
    "RAT_FLITS",
    "WC_PKTS",
    "WC_FLITS",
];

/// `/proc/net/dev` fields, expanded per interface.
pub const NETDEV_FIELDS: &[&str] = &[
    "rx_bytes",
    "tx_bytes",
    "rx_packets",
    "tx_packets",
    "rx_errs",
    "tx_errs",
    "rx_drop",
    "tx_drop",
];

/// Monitored network interfaces.
pub const NETDEV_IFACES: &[&str] = &["eth0", "ipogif0"];

/// Load-average fields (suffix `_loadavg`).
pub const LOADAVG_FIELDS: &[&str] = &["load1", "load5", "load15", "runnable", "total_procs"];

/// Node power/thermal sensors (suffix `_power`).
pub const POWER_FIELDS: &[&str] = &["node_power_w", "node_energy_j", "cpu_temp_c", "mem_temp_c"];

/// Router-tile counter kinds used to fill the remainder of the catalog.
const RTR_COUNTERS: &[&str] = &["INQ_PKTS", "INQ_FLITS", "INQ_STALL"];

/// Build the full 562-metric catalog.
///
/// Deterministic: the same names in the same order every call, so
/// [`crate::metric::MetricId`]s are stable across processes.
pub fn taxonomist_catalog() -> MetricCatalog {
    let mut c = MetricCatalog::new();

    for f in VMSTAT_FIELDS {
        // vmstat counters live in the thousands-of-pages range.
        c.register(format!("{f}_vmstat"), MetricCategory::Vmstat, 8.0e3);
    }
    for f in MEMINFO_FIELDS {
        // meminfo gauges are kB on a 128 GB node.
        c.register(format!("{f}_meminfo"), MetricCategory::Meminfo, 2.0e6);
    }
    for f in PROCSTAT_TOTAL_FIELDS {
        c.register(format!("{f}_procstat"), MetricCategory::Procstat, 5.0e4);
    }
    for core in 0..CORES_PER_NODE {
        for f in PROCSTAT_CORE_FIELDS {
            c.register(
                format!("{f}_cpu{core}_procstat"),
                MetricCategory::Procstat,
                1.0e3,
            );
        }
    }
    for f in NIC_FIELDS {
        c.register(format!("{f}_metric_set_nic"), MetricCategory::Nic, 4.0e4);
    }
    for iface in NETDEV_IFACES {
        for f in NETDEV_FIELDS {
            c.register(
                format!("{f}_{iface}_procnetdev"),
                MetricCategory::Netdev,
                1.0e5,
            );
        }
    }
    for f in LOADAVG_FIELDS {
        c.register(format!("{f}_loadavg"), MetricCategory::Loadavg, 3.0e1);
    }
    for f in POWER_FIELDS {
        c.register(format!("{f}_power"), MetricCategory::Power, 3.0e2);
    }
    c.register("current_freemem", MetricCategory::Misc, 6.0e7);

    // Fill the remainder with Aries router-tile counters so the catalog
    // lands exactly on the dataset's 562 metrics.
    let mut tile = 0usize;
    'fill: loop {
        for counter in RTR_COUNTERS {
            if c.len() >= CATALOG_SIZE {
                break 'fill;
            }
            let row = tile / 8;
            let col = tile % 8;
            c.register(
                format!("{counter}_{row}_{col}_metric_set_rtr"),
                MetricCategory::Router,
                2.0e4,
            );
        }
        tile += 1;
    }

    debug_assert_eq!(c.len(), CATALOG_SIZE);
    c
}

/// A small catalog for unit tests and examples: one representative metric
/// per category (9 metrics, including `nr_mapped_vmstat`).
pub fn small_catalog() -> MetricCatalog {
    let mut c = MetricCatalog::new();
    c.register("nr_mapped_vmstat", MetricCategory::Vmstat, 8.0e3);
    c.register("Committed_AS_meminfo", MetricCategory::Meminfo, 2.0e6);
    c.register("cpu_user_total_procstat", MetricCategory::Procstat, 5.0e4);
    c.register("AMO_PKTS_metric_set_nic", MetricCategory::Nic, 4.0e4);
    c.register("INQ_PKTS_0_0_metric_set_rtr", MetricCategory::Router, 2.0e4);
    c.register("load1_loadavg", MetricCategory::Loadavg, 3.0e1);
    c.register("rx_bytes_ipogif0_procnetdev", MetricCategory::Netdev, 1.0e5);
    c.register("node_power_w_power", MetricCategory::Power, 3.0e2);
    c.register("current_freemem", MetricCategory::Misc, 6.0e7);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use efd_util::FxHashSet;

    #[test]
    fn exactly_562_metrics() {
        let c = taxonomist_catalog();
        assert_eq!(c.len(), CATALOG_SIZE);
    }

    #[test]
    fn names_are_unique() {
        let c = taxonomist_catalog();
        let names: FxHashSet<&str> = c.ids().map(|id| c.name(id)).collect();
        assert_eq!(names.len(), c.len());
    }

    #[test]
    fn paper_table3_metrics_present() {
        let c = taxonomist_catalog();
        for name in [
            "nr_mapped_vmstat",
            "Committed_AS_meminfo",
            "nr_active_anon_vmstat",
            "nr_anon_pages_vmstat",
            "Active_meminfo",
            "Mapped_meminfo",
            "AnonPages_meminfo",
            "MemFree_meminfo",
            "PageTables_meminfo",
            "nr_page_table_pages_vmstat",
            "AMO_PKTS_metric_set_nic",
            "AMO_FLITS_metric_set_nic",
            "PI_PKTS_metric_set_nic",
        ] {
            assert!(c.id(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn deterministic_ids() {
        let a = taxonomist_catalog();
        let b = taxonomist_catalog();
        assert_eq!(a.id("nr_mapped_vmstat"), b.id("nr_mapped_vmstat"));
        assert_eq!(
            a.ids().map(|i| a.name(i).to_string()).collect::<Vec<_>>(),
            b.ids().map(|i| b.name(i).to_string()).collect::<Vec<_>>(),
        );
    }

    #[test]
    fn every_category_represented() {
        let c = taxonomist_catalog();
        for cat in MetricCategory::ALL {
            assert!(!c.ids_in(cat).is_empty(), "category {} missing", cat.name());
        }
    }

    #[test]
    fn small_catalog_one_per_category() {
        let c = small_catalog();
        assert_eq!(c.len(), MetricCategory::ALL.len());
        for cat in MetricCategory::ALL {
            assert_eq!(c.ids_in(cat).len(), 1, "category {}", cat.name());
        }
    }
}
