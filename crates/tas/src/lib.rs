//! TAS: TCP Acceleration as an OS Service — the paper's contribution.
//!
//! TAS splits TCP processing into three components connected purely by
//! shared-memory queues (paper §3):
//!
//! * **Fast path** ([`fastpath`]): common-case RX/TX on dedicated cores.
//!   Holds exactly the per-flow state of the paper's Table 3 ([`flow`]),
//!   deposits payload directly into per-flow user-space receive buffers,
//!   generates ACKs (with DCTCP-accurate ECN echo and timestamps), enforces
//!   slow-path-configured rate limits via per-flow buckets, segments
//!   transmit data, and handles exactly two exceptions inline: duplicate-ACK
//!   fast recovery and one tracked out-of-order interval. Everything else
//!   is forwarded to the slow path.
//! * **Slow path** ([`slowpath`]): connection control (handshakes, port
//!   allocation, neighbour resolution), congestion-control policy (the
//!   `tas_cc` rate laws, DCTCP and TIMELY, over per-flow state the slow
//!   path keeps itself), retransmission-timeout detection, and
//!   the workload-proportionality controller that grows and shrinks the set
//!   of fast-path cores (§3.4: add a core below 0.2 aggregate idle, remove
//!   above 1.25, block idle cores after 10 ms).
//! * **libTAS** (inside [`host`]): the untrusted per-application user-space
//!   stack offering POSIX-style sockets or the low-level context-queue API,
//!   implemented over per-flow payload rings and context descriptor queues.
//!
//! [`host::TasHost`] glues the three onto a simulated machine (NIC, fast
//! path cores, app cores) as one network agent.
// Panic-freedom is a stack invariant: unwrap/expect are denied in
// production code (tests are exempt). Packet-path code degrades
// gracefully via let-else + debug_assert; the fast-path modules deny
// the full R4 list (DESIGN.md §11).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod config;
pub mod fastpath;
pub mod flow;
pub mod host;
pub mod slowpath;

pub use config::{ApiKind, CcAlgo, TasConfig, TasCosts};
pub use flow::{FlowState, FLOW_STATE_BYTES};
pub use host::TasHost;
