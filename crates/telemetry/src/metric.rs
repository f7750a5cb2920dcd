//! Metric identities and the metric catalog (interner).
//!
//! Metrics are referred to by dense [`MetricId`]s everywhere in the
//! workspace; the [`MetricCatalog`] owns the id ↔ name mapping plus the
//! per-metric metadata the workload models need (category, typical
//! magnitude, a stable salt for deterministic per-metric variation).

use efd_util::rng::str_tag;
use efd_util::FxHashMap;

/// Dense identifier of a metric within a [`MetricCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId(pub u32);

serde::impl_serde_newtype!(MetricId);

impl MetricId {
    /// Index into catalog-ordered storage.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Broad source category of a metric, mirroring the LDMS sampler plugins in
/// the Taxonomist dataset. The workload models key their behavior (scale,
/// app-separability, noise level) off this category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricCategory {
    /// `/proc/vmstat` counters (pages, faults, …), suffix `_vmstat`.
    Vmstat,
    /// `/proc/meminfo` gauges in kB, suffix `_meminfo`.
    Meminfo,
    /// `/proc/stat` CPU jiffies, per core and aggregate, suffix `_procstat`.
    Procstat,
    /// Cray Aries NIC counters, suffix `_metric_set_nic`.
    Nic,
    /// Cray Aries router-tile counters, suffix `_metric_set_rtr`.
    Router,
    /// Load averages and process counts, suffix `_loadavg`.
    Loadavg,
    /// `/proc/net/dev` interface counters, suffix `_procnetdev`.
    Netdev,
    /// Node energy/power/thermal sensors, suffix `_power`.
    Power,
    /// Miscellaneous singleton gauges (e.g. `current_freemem`).
    Misc,
}

impl MetricCategory {
    /// All categories, in catalog order.
    pub const ALL: [MetricCategory; 9] = [
        MetricCategory::Vmstat,
        MetricCategory::Meminfo,
        MetricCategory::Procstat,
        MetricCategory::Nic,
        MetricCategory::Router,
        MetricCategory::Loadavg,
        MetricCategory::Netdev,
        MetricCategory::Power,
        MetricCategory::Misc,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MetricCategory::Vmstat => "vmstat",
            MetricCategory::Meminfo => "meminfo",
            MetricCategory::Procstat => "procstat",
            MetricCategory::Nic => "nic",
            MetricCategory::Router => "router",
            MetricCategory::Loadavg => "loadavg",
            MetricCategory::Netdev => "netdev",
            MetricCategory::Power => "power",
            MetricCategory::Misc => "misc",
        }
    }
}

/// Metadata for one metric.
#[derive(Debug, Clone)]
pub struct MetricInfo {
    /// Full metric name as it appears in the dataset,
    /// e.g. `nr_mapped_vmstat` or `AMO_PKTS_metric_set_nic`.
    pub name: String,
    /// Source category.
    pub category: MetricCategory,
    /// Typical magnitude of the metric's values (used by workload models to
    /// place app-specific levels on a realistic scale).
    pub base_scale: f64,
    /// Stable 64-bit salt derived from the name; workload models mix this
    /// into seeds so every metric gets its own deterministic behavior.
    pub salt: u64,
}

/// Owning interner for metric names and metadata.
///
/// Ids are assigned densely in insertion order, so `Vec`s indexed by
/// [`MetricId::index`] are the canonical per-metric storage.
#[derive(Debug, Clone, Default)]
pub struct MetricCatalog {
    infos: Vec<MetricInfo>,
    by_name: FxHashMap<String, MetricId>,
}

impl MetricCatalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a metric; returns the existing id if the name is already
    /// present (metadata of the first registration wins).
    pub fn register(
        &mut self,
        name: impl Into<String>,
        category: MetricCategory,
        base_scale: f64,
    ) -> MetricId {
        let name = name.into();
        if let Some(&id) = self.by_name.get(&name) {
            return id;
        }
        let id = MetricId(self.infos.len() as u32);
        let salt = str_tag(&name);
        self.by_name.insert(name.clone(), id);
        self.infos.push(MetricInfo {
            name,
            category,
            base_scale,
            salt,
        });
        id
    }

    /// Look up a metric by its full name.
    pub fn id(&self, name: &str) -> Option<MetricId> {
        self.by_name.get(name).copied()
    }

    /// Metadata for an id. Panics on a foreign id (ids are only minted by
    /// this catalog).
    pub fn info(&self, id: MetricId) -> &MetricInfo {
        &self.infos[id.index()]
    }

    /// Name for an id.
    pub fn name(&self, id: MetricId) -> &str {
        &self.info(id).name
    }

    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }

    /// All ids, in catalog order.
    pub fn ids(&self) -> impl Iterator<Item = MetricId> + '_ {
        (0..self.infos.len() as u32).map(MetricId)
    }

    /// All ids in a category.
    pub fn ids_in(&self, category: MetricCategory) -> Vec<MetricId> {
        self.ids()
            .filter(|&id| self.info(id).category == category)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut c = MetricCatalog::new();
        let a = c.register("nr_mapped_vmstat", MetricCategory::Vmstat, 7000.0);
        let b = c.register("MemFree_meminfo", MetricCategory::Meminfo, 6.0e7);
        assert_eq!(c.len(), 2);
        assert_eq!(c.id("nr_mapped_vmstat"), Some(a));
        assert_eq!(c.id("MemFree_meminfo"), Some(b));
        assert_eq!(c.id("nonexistent"), None);
        assert_eq!(c.name(a), "nr_mapped_vmstat");
        assert_eq!(c.info(b).category, MetricCategory::Meminfo);
    }

    #[test]
    fn duplicate_registration_returns_same_id() {
        let mut c = MetricCatalog::new();
        let a = c.register("x_vmstat", MetricCategory::Vmstat, 1.0);
        let b = c.register("x_vmstat", MetricCategory::Vmstat, 999.0);
        assert_eq!(a, b);
        assert_eq!(c.len(), 1);
        // first registration's metadata wins
        assert_eq!(c.info(a).base_scale, 1.0);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut c = MetricCatalog::new();
        for i in 0..10 {
            c.register(format!("m{i}_vmstat"), MetricCategory::Vmstat, 1.0);
        }
        let ids: Vec<u32> = c.ids().map(|m| m.0).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn salts_differ_per_name() {
        let mut c = MetricCatalog::new();
        let a = c.register("a_vmstat", MetricCategory::Vmstat, 1.0);
        let b = c.register("b_vmstat", MetricCategory::Vmstat, 1.0);
        assert_ne!(c.info(a).salt, c.info(b).salt);
    }

    #[test]
    fn category_filter() {
        let mut c = MetricCatalog::new();
        c.register("a_vmstat", MetricCategory::Vmstat, 1.0);
        c.register("b_meminfo", MetricCategory::Meminfo, 1.0);
        c.register("c_vmstat", MetricCategory::Vmstat, 1.0);
        assert_eq!(c.ids_in(MetricCategory::Vmstat).len(), 2);
        assert_eq!(c.ids_in(MetricCategory::Nic).len(), 0);
    }
}
