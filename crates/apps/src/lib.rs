//! Evaluation applications from the paper, written against the
//! stack-agnostic [`tas_netsim::app`] interface so the *same* application
//! binary runs over TAS, Linux-model, IX-model, and mTCP-model hosts —
//! exactly as the paper runs unmodified binaries over TAS and Linux.
//!
//! * [`echo`] — the RPC echo server and closed-loop/pipelined clients
//!   behind Figures 4–6 (connection scalability, short-lived connections,
//!   pipelined RPCs).
//! * [`kv`] — the memcached-like key-value store and its memslap-like
//!   workload clients (Figures 8–9, Tables 5–7): zipf(0.9) key popularity,
//!   90% GET / 10% SET, 32-byte keys, 64-byte values.
//! * [`flexstorm`] — the real-time analytics pipeline of Figure 10 /
//!   Table 8: demultiplexer → workers → batching multiplexer per node,
//!   tuples streaming over TCP between nodes.
//! * [`loadgen`] — a lightweight raw-TCP load-generator *host* (not an
//!   app) able to hold tens of thousands of closed-loop client
//!   connections cheaply; used where the paper uses banks of client
//!   machines whose stacks are not under test.
//! * [`adversary`] — misbehaving clients for the isolation scenarios: a
//!   slow reader that pins its rx byte-ring full, an ACK-division
//!   client, and a receive-window stuffer.
//! * `raw` (crate-private) — the raw-TCP connection engine the load
//!   generator and the header-level adversaries both drive.
//! * `rpc` (crate-private) — the request/response connection engine the
//!   echo and key-value clients both drive over the socket API.

pub mod adversary;
pub mod bulk;
pub mod echo;
pub mod flexstorm;
pub mod flows;
pub mod kv;
pub mod loadgen;
mod raw;
mod rpc;
pub mod util;
