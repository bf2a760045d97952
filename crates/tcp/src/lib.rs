//! A complete reference TCP engine.
//!
//! This is the protocol substrate the baseline stacks (Linux-model,
//! IX-model, mTCP-model) are built on, playing the role the mature kernel
//! TCP implementation plays in the paper's evaluation. It is a sans-IO
//! engine: [`TcpConn`] consumes segments and timer expirations and stages
//! outgoing segments and application events; host agents move the staged
//! segments onto the simulated network.
//!
//! Implemented: the full RFC 793 state machine, option negotiation (MSS,
//! window scaling, timestamps, SACK-permitted), flow control with window
//! scaling, full out-of-order reassembly (every received segment is kept,
//! like a SACK-capable Linux receiver), RTT estimation (Jacobson/Karels
//! via timestamps), RTO with exponential backoff, fast retransmit +
//! NewReno fast recovery, and pluggable congestion control: NewReno and
//! window-based DCTCP with ECN negotiation and per-packet accurate ECN
//! echo.
//!
//! Simplifications (documented in DESIGN.md): every data segment is ACKed
//! immediately (no delayed ACK — all stacks in the evaluation are compared
//! with the same ACK policy, and TAS's fast path also ACKs per packet), no
//! Nagle (datacenter stacks disable it), no urgent data, short TIME_WAIT.
// Panic-freedom is a stack invariant: unwrap/expect are denied in
// production code (tests are exempt). Packet-path code degrades
// gracefully via let-else + debug_assert (DESIGN.md §11).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod audit;
pub mod conn;
pub mod reasm;
pub mod rtt;

pub use conn::{ConnStats, EndpointInfo, TcpConfig, TcpConn, TcpEvent, TcpState};
pub use reasm::Reassembler;
pub use rtt::RttEstimator;
pub use tas_cc::CcKind;
