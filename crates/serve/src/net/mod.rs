//! Network serving: the socket-facing layer over the engine API.
//!
//! * [`protocol`] — length-prefixed frame codec and the line grammar
//!   (`RECOGNIZE`, `STREAM`/`PUSH`/`FINISH`, `LEARN`, `SWAP`, ...).
//! * [`server`] — the daemon: acceptor + one thread per connection, hot
//!   snapshot swap by `Arc` republication, idle-timeout discipline,
//!   and a same-port HTTP `/metrics` + `/healthz` endpoint.
//! * [`metrics`] — the Prometheus instrument set the daemon exports.
//! * [`drift`] — the sliding-window drift monitor judging live verdict
//!   rates against the served catalog version's published baseline.
//! * [`loadgen`] — the pipelined/paced load client behind
//!   `efd loadgen`.
//!
//! Everything here is `std`-only: `TcpListener`, threads, atomics. The
//! protocol is deliberately small enough to speak from a test with raw
//! socket writes, which is how the robustness suite drives torn and
//! malformed frames.

pub mod drift;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod server;

pub use drift::{DriftBaseline, DriftConfig, DriftMonitor, DriftSnapshot, DriftState};
pub use metrics::DaemonMetrics;
pub use protocol::{FrameError, FrameReader, Request, MAX_FRAME};
pub use server::{Engine, EngineLoader, ServeSummary, Server, ServerConfig};
