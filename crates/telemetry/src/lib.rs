//! Simulated LDMS-style monitoring substrate.
//!
//! The paper evaluates the EFD on telemetry collected by LDMS (the
//! Lightweight Distributed Metric Service, Agelastos et al., SC'14): for
//! every compute node of every job, 562 system metrics are sampled once per
//! second and labeled with the application that produced them. That dataset
//! is not redistributable here, so this crate rebuilds the *substrate*: the
//! metric namespace, the sampling discipline, the time-series containers,
//! and the windowing/streaming machinery that both the EFD and the
//! Taxonomist baseline consume. The companion `efd-workload` crate supplies
//! the application behavior models that drive these samplers.
//!
//! Layout:
//!
//! * [`metric`] — interned metric identities ([`MetricId`]) and the catalog.
//! * [`catalog`] — the 562-metric LDMS namespace used by the paper's dataset
//!   (vmstat, meminfo, procstat, Cray Aries NIC/router counters, …).
//! * [`interval`] — `[start:end]` second windows, e.g. the paper's `[60:120]`.
//! * [`series`] — dense 1 Hz time series with NaN gaps and window statistics.
//! * [`trace`] — per-node, per-metric series for one execution, plus labels.
//! * [`sampler`] — the 1 Hz collector with timing jitter and dropouts.
//! * [`noise`] — measurement-noise processes (Gaussian, OU drift, spikes).
//! * [`streaming`] — online window aggregation for during-execution
//!   recognition (the paper's low-latency motivation).
//! * [`csv`] — the LDMS per-node CSV layout `efd generate` writes and
//!   `efd ingest-csv` reads.
//! * [`prom`] — Prometheus text-exposition primitives (counters, gauges,
//!   explicit-bucket histograms) backing the serving daemon's `/metrics`
//!   endpoint.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod catalog;
pub mod csv;
pub mod interval;
pub mod metric;
pub mod noise;
pub mod prom;
pub mod sampler;
pub mod series;
pub mod streaming;
pub mod trace;

pub use catalog::taxonomist_catalog;
pub use interval::Interval;
pub use metric::{MetricCatalog, MetricCategory, MetricId, MetricInfo};
pub use sampler::{CollectorConfig, LdmsCollector, MetricSource};
pub use series::TimeSeries;
pub use trace::{AppLabel, ExecutionTrace, MetricSelection, NodeId, NodeTrace};
