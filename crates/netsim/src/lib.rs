//! Network substrate for the TAS reproduction.
//!
//! Rebuilds the paper's evaluation environments in the discrete-event
//! engine: the testbed's Ethernet fabric (hosts with multi-queue NICs
//! behind an ECN-marking switch) and the ns-3 setups (single bottleneck
//! link, 3-level FatTree).
//!
//! * [`NetMsg`] — the message type all network agents exchange.
//! * [`HostNic`] — a multi-queue NIC with Toeplitz RSS, a 128-entry
//!   redirection table (updated by TAS's proportionality controller), TX
//!   serialization, and optional loss injection.
//! * [`Switch`] — an output-queued switch with per-port drop-tail queues,
//!   DCTCP-style ECN threshold marking, ECMP routing by flow hash
//!   (connection-stable multi-path, as the paper assumes of datacenter
//!   fabrics), and queue-length sampling for Figure 11b.
//! * [`topo`] — topology builders (star, FatTree) with
//!   shortest-path/ECMP route computation.
//! * [`fault`] — deterministic per-direction fault injection (seeded
//!   uniform/bursty drops, duplication, reordering, jitter, corruption)
//!   that NIC uplinks and switch ports apply at their delivery points.
//! * [`runtime`] — the application half every host shares: the app, its
//!   handler frame, deferred delivery, app timers and posts.

pub mod app;
pub mod fault;
pub mod nic;
pub mod rss;
pub mod runtime;
pub mod switch;
pub mod topo;

pub use fault::{DropModel, FaultInjector, FaultSpec};
pub use nic::{HostNic, NicConfig};
pub use rss::{toeplitz_hash, RssTable, TOEPLITZ_KEY};
pub use switch::{PortConfig, Switch};

use tas_proto::Segment;

/// Messages exchanged between network agents.
#[derive(Debug)]
pub enum NetMsg {
    /// A packet delivered to a device.
    Packet(Segment),
    /// Harness- or host-defined control signalling (e.g. "client: start
    /// issuing requests", "host: add a connection"). `kind` scopes the
    /// meaning to the receiving agent.
    Ctl {
        /// Receiver-defined discriminator.
        kind: u32,
        /// First payload word.
        a: u64,
        /// Second payload word.
        b: u64,
    },
}

// Every queued event of a network simulation is an `Event<NetMsg>`, so
// a byte added here is a byte added to each of them (DESIGN.md §12).
const _: () = assert!(std::mem::size_of::<tas_sim::Event<NetMsg>>() <= 112);

impl NetMsg {
    /// Convenience constructor for control messages.
    pub fn ctl(kind: u32, a: u64, b: u64) -> NetMsg {
        NetMsg::Ctl { kind, a, b }
    }
}
