//! The structured packet the simulator passes between agents.

use crate::eth::{EthHeader, MacAddr};
use crate::ipv4::{Ecn, Ipv4Header};
use crate::payload::PayloadBuf;
use crate::tcp::TcpHeader;
use std::net::Ipv4Addr;

/// A full Ethernet/IPv4/TCP packet in structured form.
///
/// `wire_len` reports the exact bytes the packet would occupy on the wire
/// (including option padding); links and switches charge serialization time
/// from it, so structured and wire forms are time-equivalent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Ethernet header.
    pub eth: EthHeader,
    /// IPv4 header.
    pub ip: Ipv4Header,
    /// TCP header.
    pub tcp: TcpHeader,
    /// TCP payload bytes (pooled and reference-counted; cloning a segment
    /// shares the buffer instead of copying it).
    pub payload: PayloadBuf,
}

// Every staged packet is moved by value through the fast path's output
// vectors; a field that grows it is a per-segment cost.
const _: () = assert!(std::mem::size_of::<Segment>() == 112);

impl Segment {
    /// Builds a TCP segment between two simulated hosts, filling the IP
    /// total-length field and datacenter defaults (DF, TTL 64).
    pub fn tcp(
        src_mac: MacAddr,
        dst_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
        tcp: TcpHeader,
        payload: impl Into<PayloadBuf>,
        ecn_capable: bool,
    ) -> Segment {
        let payload = payload.into();
        let ip = Ipv4Header::tcp(
            src_ip,
            dst_ip,
            (tcp.wire_len() + payload.len()) as u16,
            ecn_capable,
        );
        Segment {
            eth: EthHeader::ipv4(src_mac, dst_mac),
            ip,
            tcp,
            payload,
        }
    }

    /// Payload length in bytes.
    pub fn payload_len(&self) -> u32 {
        self.payload.len() as u32
    }

    /// Bytes this packet occupies on the wire.
    pub fn wire_len(&self) -> usize {
        EthHeader::LEN + Ipv4Header::LEN + self.tcp.wire_len() + self.payload.len()
    }

    /// The flow key from the receiver's perspective.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            local_ip: self.ip.dst,
            local_port: self.tcp.dst_port,
            remote_ip: self.ip.src,
            remote_port: self.tcp.src_port,
        }
    }

    /// True when the congestion-experienced codepoint is set.
    pub fn is_ce_marked(&self) -> bool {
        self.ip.ecn == Ecn::Ce
    }
}

/// A connection identifier from the local host's perspective.
///
/// # Examples
///
/// ```
/// use tas_proto::FlowKey;
/// use std::net::Ipv4Addr;
/// let k = FlowKey::new(Ipv4Addr::new(10, 0, 0, 1), 80, Ipv4Addr::new(10, 0, 0, 2), 5000);
/// assert_eq!(k.reversed().local_port, 5000);
/// assert_eq!(k.reversed().reversed(), k);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Local (this host's) address.
    pub local_ip: Ipv4Addr,
    /// Local port.
    pub local_port: u16,
    /// Remote address.
    pub remote_ip: Ipv4Addr,
    /// Remote port.
    pub remote_port: u16,
}

impl FlowKey {
    /// Creates a flow key.
    pub fn new(
        local_ip: Ipv4Addr,
        local_port: u16,
        remote_ip: Ipv4Addr,
        remote_port: u16,
    ) -> FlowKey {
        FlowKey {
            local_ip,
            local_port,
            remote_ip,
            remote_port,
        }
    }

    /// The same connection from the peer's perspective.
    pub fn reversed(&self) -> FlowKey {
        FlowKey {
            local_ip: self.remote_ip,
            local_port: self.remote_port,
            remote_ip: self.local_ip,
            remote_port: self.local_port,
        }
    }
}

impl std::fmt::Display for FlowKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}<->{}:{}",
            self.local_ip, self.local_port, self.remote_ip, self.remote_port
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpFlags;

    fn sample(flags: TcpFlags, payload: usize) -> Segment {
        Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TcpHeader::new(5000, 80, 100, 200, flags),
            vec![0xab; payload],
            true,
        )
    }

    #[test]
    fn wire_len_accounts_all_layers() {
        let s = sample(TcpFlags::ACK, 64);
        assert_eq!(s.wire_len(), 14 + 20 + 20 + 64);
        assert_eq!(s.ip.total_len, 20 + 20 + 64);
    }

    #[test]
    fn flow_key_is_receiver_perspective() {
        let s = sample(TcpFlags::ACK, 0);
        let k = s.flow_key();
        assert_eq!(k.local_port, 80);
        assert_eq!(k.remote_port, 5000);
        assert_eq!(k.local_ip, Ipv4Addr::new(10, 0, 0, 2));
    }

    #[test]
    fn ce_marking() {
        let mut s = sample(TcpFlags::ACK, 0);
        assert!(!s.is_ce_marked());
        s.ip.ecn = Ecn::Ce;
        assert!(s.is_ce_marked());
    }
}
