//! The raw-TCP client engine that [`LoadGenHost`](crate::loadgen::LoadGenHost)
//! and [`AdversaryHost`](crate::adversary::AdversaryHost) both drive:
//! minimal but correct TCP with a handshake with options, one outstanding
//! request per connection, and a watchdog that resends stalled requests
//! and SYNs. Each agent keeps only its policy (what it ACKs, which window
//! it advertises, what it records) and passes what it differs in as
//! values: its [`Profile`] and the advertised window.
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::net::{Ipv4Addr, SocketAddrV4};
use tas_netsim::topo::mac_for_ip;
use tas_netsim::{HostNic, NetMsg};
use tas_proto::{MacAddr, PayloadBuf, Segment, Seq, TcpFlags, TcpHeader};
use tas_sim::{Ctx, SimTime};

/// The watchdog period, and how long a request or handshake may make no
/// progress before the sweep resends it.
pub(crate) const WATCHDOG: SimTime = SimTime::from_ms(50);

/// How an agent's connections differ on the wire. Connection `i` binds
/// local port `base + i % ports` (a port reused by a later connection
/// maps to that one), and its SYN offers window scale `wscale`.
#[derive(Clone, Copy, Debug)]
pub struct Profile {
    /// First local port.
    pub base: u16,
    /// Local ports in the cycle.
    pub ports: u32,
    /// The SYN's window-scale option.
    pub wscale: Option<u8>,
}

/// One connection's record.
#[derive(Debug)]
pub struct RawConn {
    /// The handshake is complete (else the SYN awaits its SYN-ACK).
    pub established: bool,
    /// Response bytes the current request still awaits.
    pub awaiting: usize,
    /// When the current request went out.
    pub sent_at: SimTime,
    port: u16,
    iss: Seq,
    irs: Seq,
    /// Request-stream bytes sent (offset past the SYN).
    sent_off: u64,
    /// Response-stream bytes received in order.
    rcv_off: u64,
    ts_recent: u32,
    last_progress: SimTime,
}

impl RawConn {
    /// A connection whose SYN goes out at `now`.
    fn new(port: u16, iss: Seq, now: SimTime) -> Self {
        RawConn {
            established: false,
            awaiting: 0,
            sent_at: now,
            port,
            iss,
            irs: Seq(0),
            sent_off: 0,
            rcv_off: 0,
            ts_recent: 0,
            last_progress: now,
        }
    }

    /// The cumulative ACK: the server's sequence number past every
    /// response byte received in order.
    fn cum_ack(&self) -> Seq {
        self.irs + 1 + self.rcv_off as u32
    }
}

/// What an arriving segment means for connection `idx`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rx {
    /// Not ours, or nothing to answer: a SYN-ACK that does not
    /// acknowledge our SYN, or a segment without data.
    Ignored,
    /// The SYN-ACK completed the handshake.
    Established(u32),
    /// In-order response bytes `[seq, seq + len)`, of which the current
    /// request awaited `got`.
    Span {
        idx: u32,
        seq: Seq,
        len: usize,
        got: usize,
    },
    /// Old or out-of-order data: answer with a duplicate ACK.
    DupAck(u32),
}

/// The engine: one host's raw connections to one server.
pub struct RawClient {
    ip: Ipv4Addr,
    mac: MacAddr,
    server: SocketAddrV4,
    server_mac: MacAddr,
    nic: HostNic,
    profile: Profile,
    /// The request every connection repeats.
    req: PayloadBuf,
    /// Response bytes each request awaits.
    resp: usize,
    conns: Vec<RawConn>,
    /// Connection index by local port, at `port - profile.base`.
    by_port: Vec<Option<u32>>,
}

impl RawClient {
    /// An engine with no connections yet. Its connections to `server`
    /// repeat `req`, each awaiting `resp` response bytes.
    pub fn new(
        ip: Ipv4Addr,
        mac: MacAddr,
        nic: HostNic,
        server: SocketAddrV4,
        profile: Profile,
        req: PayloadBuf,
        resp: usize,
    ) -> Self {
        RawClient {
            ip,
            mac,
            server,
            server_mac: mac_for_ip(*server.ip()),
            nic,
            profile,
            req,
            resp,
            conns: Vec::new(),
            by_port: Vec::new(),
        }
    }

    /// Connection `idx`'s record.
    pub fn conn(&self, idx: u32) -> Option<&RawConn> {
        self.conns.get(idx as usize)
    }

    /// Connection `idx`'s cumulative ACK.
    pub fn cum_ack(&self, idx: u32) -> Seq {
        self.conn(idx).map_or(Seq(0), RawConn::cum_ack)
    }

    /// Opens the next connection: draws its ISS, indexes its local port
    /// and sends its SYN.
    pub fn open(&mut self, ctx: &mut Ctx<'_, NetMsg>) {
        let idx = self.conns.len();
        let slot = idx % self.profile.ports as usize;
        if slot >= self.by_port.len() {
            self.by_port.resize(slot + 1, None);
        }
        self.by_port[slot] = Some(idx as u32);
        let (port, iss) = (self.profile.base + slot as u16, Seq(ctx.rng().next_u32()));
        self.conns.push(RawConn::new(port, iss, ctx.now()));
        self.syn(idx, ctx);
    }

    /// Sends connection `idx`'s next request, acknowledging every
    /// response byte received so far.
    pub fn request(&mut self, idx: u32, window: u16, ctx: &mut Ctx<'_, NetMsg>) {
        let Some(c) = self.conns.get_mut(idx as usize) else {
            return;
        };
        c.sent_off += self.req.len() as u64;
        c.awaiting = self.resp;
        (c.sent_at, c.last_progress) = (ctx.now(), ctx.now());
        let ack = c.cum_ack();
        self.send(idx as usize, ack, window, self.req.clone(), ctx);
    }

    /// Sends a pure ACK of `ack` on connection `idx`.
    pub fn ack(&mut self, idx: u32, ack: Seq, window: u16, ctx: &mut Ctx<'_, NetMsg>) {
        self.send(idx as usize, ack, window, PayloadBuf::empty(), ctx);
    }

    /// Classifies an arriving segment and updates its connection's
    /// record: the timestamp to echo, the handshake, and the in-order
    /// response stream.
    pub fn receive(&mut self, seg: &Segment, now: SimTime) -> Rx {
        let slot = seg.tcp.dst_port.checked_sub(self.profile.base);
        let Some(&Some(idx)) = slot.and_then(|s| self.by_port.get(usize::from(s))) else {
            return Rx::Ignored;
        };
        let Some(c) = self.conns.get_mut(idx as usize) else {
            return Rx::Ignored;
        };
        if let Some((tsval, _)) = seg.tcp.options.timestamp {
            c.ts_recent = tsval;
        }
        if !c.established {
            let syn_ack = seg.tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK);
            if !syn_ack || seg.tcp.ack != c.iss + 1 {
                return Rx::Ignored;
            }
            c.irs = seg.tcp.seq;
            c.established = true;
            c.last_progress = now;
            return Rx::Established(idx);
        }
        let seq = c.cum_ack();
        if seg.payload.is_empty() {
            return Rx::Ignored;
        }
        if seg.tcp.seq != seq {
            return Rx::DupAck(idx);
        }
        let len = seg.payload.len();
        c.rcv_off += len as u64;
        c.last_progress = now;
        let got = len.min(c.awaiting);
        c.awaiting -= got;
        Rx::Span { idx, seq, len, got }
    }

    /// The watchdog sweep, run every [`WATCHDOG`]. Each established
    /// connection whose request has made no progress for longer than that
    /// resends it from its first byte, with the cumulative ACK and the
    /// advertised window `window` returns; then each handshake stalled as
    /// long resends its SYN. Returns the number of requests resent.
    pub fn watchdog(&mut self, ctx: &mut Ctx<'_, NetMsg>, mut window: impl FnMut() -> u16) -> u64 {
        let (now, mut resent) = (ctx.now(), 0);
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if c.established && c.awaiting > 0 && now - c.last_progress > WATCHDOG {
                c.last_progress = now;
                let ack = c.cum_ack();
                self.send(i, ack, window(), self.req.clone(), ctx);
                resent += 1;
            }
        }
        for i in 0..self.conns.len() {
            let c = &mut self.conns[i];
            if !c.established && now - c.last_progress > WATCHDOG {
                c.last_progress = now;
                self.syn(i, ctx);
            }
        }
        resent
    }

    /// Sends connection `idx`'s SYN.
    fn syn(&mut self, idx: usize, ctx: &mut Ctx<'_, NetMsg>) {
        let Some(c) = self.conns.get(idx) else {
            return;
        };
        let mut h = TcpHeader::new(c.port, self.server.port(), c.iss.0, 0, TcpFlags::SYN);
        h.options.mss = Some(1448);
        h.options.wscale = self.profile.wscale;
        h.options.timestamp = Some((ctx.now().as_micros() as u32, 0));
        h.window = u16::MAX;
        self.tx(h, PayloadBuf::empty(), ctx);
    }

    /// Sends a pure ACK (empty `payload`) or the current request from its
    /// first byte on connection `idx`.
    fn send(
        &mut self,
        idx: usize,
        ack: Seq,
        window: u16,
        payload: PayloadBuf,
        ctx: &mut Ctx<'_, NetMsg>,
    ) {
        let Some(c) = self.conns.get(idx) else {
            return;
        };
        let seq = c.iss + 1 + c.sent_off.saturating_sub(payload.len() as u64) as u32;
        let mut flags = TcpFlags::ACK;
        if !payload.is_empty() {
            flags |= TcpFlags::PSH;
        }
        let mut h = TcpHeader::new(c.port, self.server.port(), seq.0, ack.0, flags);
        h.window = window;
        h.options.timestamp = Some((ctx.now().as_micros() as u32, c.ts_recent));
        self.tx(h, payload, ctx);
    }

    fn tx(&mut self, h: TcpHeader, payload: PayloadBuf, ctx: &mut Ctx<'_, NetMsg>) {
        let (src, dst) = (self.ip, *self.server.ip());
        let seg = Segment::tcp(self.mac, self.server_mac, src, dst, h, payload, false);
        self.nic.tx(ctx.now(), seg, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tas_netsim::NicConfig;

    const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const PORT: u16 = 2048;

    /// One connection on local port 2048 with ISS 1000, awaiting its
    /// SYN-ACK (IRS 4999, so response data starts at 5000).
    fn client() -> RawClient {
        let mac = MacAddr::for_host(2);
        let nic = HostNic::new(mac, NicConfig::client_10g(1), 0);
        let (server, req) = (SocketAddrV4::new(SERVER, 7), PayloadBuf::empty());
        let profile = Profile {
            base: PORT,
            ports: 60_000,
            wscale: None,
        };
        let mut raw = RawClient::new(SERVER, mac, nic, server, profile, req, 0);
        raw.conns.push(RawConn::new(PORT, Seq(1000), SimTime::ZERO));
        raw.by_port.push(Some(0));
        raw
    }

    /// A segment from the server to local port `dport`.
    fn seg(dport: u16, flags: TcpFlags, seq: u32, ack: u32, len: usize) -> Segment {
        let h = TcpHeader::new(7, dport, seq, ack, flags);
        let mac = MacAddr::for_host(1);
        Segment::tcp(mac, mac, SERVER, SERVER, h, vec![7u8; len], false)
    }

    /// [`client`] after its handshake, awaiting `awaiting` response bytes.
    fn established(awaiting: usize) -> RawClient {
        let mut raw = client();
        let syn_ack = seg(PORT, TcpFlags::SYN | TcpFlags::ACK, 4999, 1001, 0);
        assert_eq!(raw.receive(&syn_ack, SimTime::ZERO), Rx::Established(0));
        raw.conns[0].awaiting = awaiting;
        raw
    }

    #[test]
    fn syn_ack_with_the_wrong_ack_is_ignored() {
        let mut raw = client();
        let t = SimTime::from_us(5);
        for (flags, ack) in [(TcpFlags::SYN | TcpFlags::ACK, 1000), (TcpFlags::ACK, 1001)] {
            assert_eq!(raw.receive(&seg(PORT, flags, 4999, ack, 0), t), Rx::Ignored);
        }
        assert!(!raw.conns[0].established);
        let syn_ack = seg(PORT, TcpFlags::SYN | TcpFlags::ACK, 4999, 1001, 0);
        assert_eq!(raw.receive(&syn_ack, t), Rx::Established(0));
        assert_eq!((raw.cum_ack(0), raw.conns[0].last_progress), (Seq(5000), t));
    }

    #[test]
    fn old_and_out_of_order_data_yield_a_dup_ack() {
        let (mut raw, t) = (established(20), SimTime::ZERO);
        let first = raw.receive(&seg(PORT, TcpFlags::ACK, 5000, 1001, 10), t);
        assert!(matches!(first, Rx::Span { .. }));
        for seq in [5000, 5020, 4000] {
            let rx = raw.receive(&seg(PORT, TcpFlags::ACK, seq, 1001, 10), t);
            assert_eq!(rx, Rx::DupAck(0), "seq {seq}");
        }
        assert_eq!((raw.cum_ack(0), raw.conns[0].awaiting), (Seq(5010), 10));
        // Nothing to answer: no data, or not our port.
        for (dport, len) in [(PORT, 0), (PORT - 1, 10), (PORT + 1, 10)] {
            let rx = raw.receive(&seg(dport, TcpFlags::ACK, 5010, 1001, len), t);
            assert_eq!(rx, Rx::Ignored, "port {dport}, {len} bytes");
        }
    }

    #[test]
    fn in_order_span_advances_the_response_offset() {
        let (mut raw, t) = (established(67), SimTime::from_us(9));
        let span = |seq, len, got| Rx::Span {
            idx: 0,
            seq: Seq(seq),
            len,
            got,
        };
        let rx = raw.receive(&seg(PORT, TcpFlags::ACK, 5000, 1001, 40), t);
        assert_eq!(rx, span(5000, 40, 40));
        assert_eq!((raw.cum_ack(0), raw.conns[0].awaiting), (Seq(5040), 27));
        assert_eq!(raw.conns[0].last_progress, t);
        // More than the request awaits: the frontier takes every byte.
        let rx = raw.receive(&seg(PORT, TcpFlags::ACK, 5040, 1001, 40), t);
        assert_eq!(rx, span(5040, 40, 27));
        assert_eq!((raw.cum_ack(0), raw.conns[0].awaiting), (Seq(5080), 0));
    }
}
