//! Packet formats for the TAS reproduction: Ethernet, IPv4, and TCP.
//!
//! Two representations coexist:
//!
//! * **Structured** headers ([`EthHeader`], [`Ipv4Header`], [`TcpHeader`],
//!   combined into a [`Segment`]) — what the simulator passes between
//!   agents, avoiding per-packet serialization in multi-million-packet
//!   experiments.
//! * **Wire** form — full byte-level serialization and parsing with Internet
//!   checksums and TCP options, via [`wire`]. Round-trip equivalence between
//!   the two is property-tested; the fast path's header handling cost is
//!   accounted by the CPU model either way.
//!
//! ECN is modeled faithfully (IP ECT/CE codepoints plus the TCP ECE/CWR
//! flags) because the DCTCP experiments depend on it.

pub mod checksum;
pub mod eth;
pub mod flow_index;
pub mod ipv4;
pub mod payload;
pub mod segment;
pub mod slab;
pub mod tcp;
pub mod wire;

pub use eth::{EthHeader, EtherType, MacAddr};
pub use flow_index::FlowIndex;
pub use ipv4::{Ecn, Ipv4Header};
pub use payload::PayloadBuf;
pub use segment::{FlowKey, Segment};
pub use slab::Slab;
pub use tcp::{Seq, TcpFlags, TcpHeader, TcpOptions};

/// Errors produced when parsing wire-format packets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// Input shorter than the fixed header (or stated lengths).
    Truncated,
    /// A checksum did not verify.
    BadChecksum,
    /// A version/length field had an unsupported value.
    Unsupported,
    /// A malformed option list.
    BadOptions,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ParseError::Truncated => "truncated packet",
            ParseError::BadChecksum => "checksum mismatch",
            ParseError::Unsupported => "unsupported header field",
            ParseError::BadOptions => "malformed options",
        };
        f.write_str(s)
    }
}

impl std::error::Error for ParseError {}
