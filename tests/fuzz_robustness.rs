//! Robustness fuzzing: arbitrary (including malformed) segments fired at
//! live hosts and connections must never panic or corrupt state. A
//! network stack's first property is surviving hostile input.

mod common;

use common::{linux, pair, tas};
use std::net::Ipv4Addr;
use tas_bench::testbed::{self, build, Net, Testbed};
use tas_bench::{app, HostCfg};
use tas_repro::apps::echo::{EchoServer, ServerMode, SinkClient};
use tas_repro::baselines::{profiles, StackHost, StackHostConfig};
use tas_repro::netsim::app::{App, AppEvent, SockId, StackApi};
use tas_repro::netsim::topo::{build_star, host_ip, HostSpec};
use tas_repro::netsim::{NetMsg, NicConfig, PortConfig, Switch};
use tas_repro::proto::{Ecn, MacAddr, Segment, TcpFlags, TcpHeader};
use tas_repro::sim::{impl_as_any, Agent, AgentId, Ctx, Event, Rng, Sim, SimTime};
use tas_repro::tas::{TasConfig, TasHost};
use tas_repro::tcp::EndpointInfo;

/// A random segment from a stranger: any ports (often the listener's),
/// numbers, flags, window, timestamp, ECN bits, fragment bit, and up to
/// 199 payload bytes.
fn hostile_segment(rng: &mut Rng) -> Segment {
    let any_port = rng.next_u64() as u16;
    let dst_port = *rng.choose(&[7, 9, any_port]);
    let mut h = TcpHeader::new(
        rng.next_u64() as u16,
        dst_port,
        rng.next_u32(),
        rng.next_u32(),
        TcpFlags(rng.next_u64() as u8),
    );
    h.window = rng.next_u64() as u16;
    h.options.timestamp = (rng.below(4) > 0).then(|| (rng.next_u32(), rng.next_u32()));
    let ecn = Ecn::from_bits(rng.below(4) as u8);
    let payload: Vec<u8> = (0..rng.below(200)).map(|_| rng.next_u64() as u8).collect();
    let mut seg = Segment::tcp(
        MacAddr::for_host(9),
        MacAddr::for_host(1),
        Ipv4Addr::new(10, 0, 0, 9),
        host_ip(0),
        h,
        payload,
        false,
    );
    seg.ip.ecn = ecn;
    seg.ip.more_fragments = rng.chance(0.5);
    seg
}

/// `lo` to `hi - 1` hostile segments.
fn hostile_segments(rng: &mut Rng, lo: u64, hi: u64) -> Vec<Segment> {
    (0..rng.range_inclusive(lo, hi - 1))
        .map(|_| hostile_segment(rng))
        .collect()
}

/// Source port of the live client's one connection (a `StackHost`
/// allocates ephemeral ports from 40 000).
const LIVE_CLIENT_PORT: u16 = 40_000;

/// TSecr is peer-controlled: a value ahead of the host clock (the sims
/// here end well before one second), the largest value, and the smallest
/// one the fast path does not ignore.
fn hostile_tsecr(rng: &mut Rng) -> u32 {
    let ahead = rng.range_inclusive(1_000_000, 1_999_999) as u32;
    *rng.choose(&[ahead, u32::MAX, 1])
}

/// A segment on the live client's 4-tuple (host 1 to the echo server at
/// host 0), so it passes the server's flow lookup.
fn on_flow(seq: u32, ack: u32, flags: TcpFlags, tsecr: u32, payload: &[u8]) -> Segment {
    let mut h = TcpHeader::new(LIVE_CLIENT_PORT, 7, seq, ack, flags);
    h.window = 1000;
    h.options.timestamp = Some((seq, tsecr));
    let (client, server) = (MacAddr::for_host(2), MacAddr::for_host(1));
    Segment::tcp(
        client,
        server,
        host_ip(1),
        host_ip(0),
        h,
        payload.to_vec(),
        false,
    )
}

fn endpoints() -> (EndpointInfo, EndpointInfo) {
    let a = EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, 1),
        port: 80,
        mac: MacAddr::for_host(1),
    };
    let b = EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, 9),
        port: 999,
        mac: MacAddr::for_host(9),
    };
    (a, b)
}

/// A TAS echo server with one established flow from a Linux-model client
/// that connects and then stays silent.
fn build_tas() -> (Sim<NetMsg>, AgentId) {
    let echo = EchoServer::new(7, 64, ServerMode::Echo, 100);
    let sink = SinkClient::new(host_ip(0), 7, 1);
    let linux1 = HostCfg::Model(Box::new(profiles::linux()), StackHostConfig::linux(1));
    let tb = pair(
        11,
        tas(TasConfig::rpc_bench(2, 2), echo),
        testbed::Agent::stack(linux1, Box::new(sink)),
    );
    let Net { mut sim, hosts, .. } = build(tb);
    sim.run_until(SimTime::from_us(500));
    (sim, hosts[0])
}

/// Records what the host under test sends it, so a test can aim ACKs at
/// the host's live sequence space.
#[derive(Default)]
struct Tap(Vec<Segment>);

impl Agent<NetMsg> for Tap {
    fn on_event(&mut self, ev: Event<NetMsg>, _: &mut Ctx<'_, NetMsg>) {
        if let Event::Msg {
            msg: NetMsg::Packet(seg),
            ..
        } = ev
        {
            self.0.push(seg);
        }
    }
    impl_as_any!();
}

/// A Linux-model echo server with one established flow from a raw peer
/// (the [`Tap`], host 1) that sent one 64-byte request: the echo is in
/// flight. Returns the server and the ACK number that acknowledges it.
fn build_linux_with_flow() -> (Sim<NetMsg>, AgentId, u32) {
    let mut sim: Sim<NetMsg> = Sim::new(13);
    let hosts = build_linux_star(&mut sim, 2);
    let (server, tap) = (hosts[0], hosts[1]);
    sim.run_until(SimTime::from_us(100));
    let syn = on_flow(500, 0, TcpFlags::SYN, 0, &[]);
    sim.inject_msg(SimTime::from_us(100), server, NetMsg::Packet(syn));
    sim.run_until(SimTime::from_us(200));
    let iss = sim.agent::<Tap>(tap).0[0].tcp.seq.0;
    let req = on_flow(
        501,
        iss.wrapping_add(1),
        TcpFlags::ACK | TcpFlags::PSH,
        0,
        &[7; 64],
    );
    sim.inject_msg(SimTime::from_us(200), server, NetMsg::Packet(req));
    sim.run_until(SimTime::from_us(300));
    assert_eq!(
        sim.agent::<Tap>(tap).0.last().map(|s| s.payload.len()),
        Some(64),
        "echoed"
    );
    (sim, server, iss.wrapping_add(65))
}

fn build_linux() -> (Sim<NetMsg>, AgentId) {
    let mut sim: Sim<NetMsg> = Sim::new(12);
    let hosts = build_linux_star(&mut sim, 1);
    sim.run_until(SimTime::from_us(100));
    (sim, hosts[0])
}

/// `n` hosts in a star: a Linux-model echo server on port 7 at host 0,
/// [`Tap`]s behind it; every host's start timer is injected.
fn build_linux_star(sim: &mut Sim<NetMsg>, n: usize) -> Vec<AgentId> {
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index > 0 {
            return sim.add_agent(Box::new(Tap::default()));
        }
        let app: Box<dyn App> = Box::new(EchoServer::new(7, 64, ServerMode::Echo, 100));
        sim.add_agent(Box::new(StackHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            profiles::linux(),
            StackHostConfig::linux(2),
            spec.uplink,
            app,
        )))
    };
    let topo = build_star(
        sim,
        n,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    for &h in &topo.hosts {
        sim.inject_timer(SimTime::ZERO, h, 0, 0);
    }
    topo.hosts
}

/// An application that hands every socket call a socket id its host never
/// gave out, and records what each call returned.
#[derive(Default)]
struct UnknownSockets {
    returns: Vec<usize>,
    /// A `recv_with` closure ran.
    offered: bool,
}

impl App for UnknownSockets {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for sock in [9_999, SockId::MAX] {
            self.returns.push(api.send(sock, b"x"));
            self.returns.push(api.recv(sock, 16).len());
            let offered = &mut self.offered;
            let n = api.recv_with(sock, 16, &mut |d| {
                *offered = true;
                d.len()
            });
            self.returns.push(n);
            self.returns.push(api.readable(sock));
            api.close(sock);
        }
    }
    fn on_event(&mut self, _: AppEvent, _: &mut dyn StackApi) {}
    impl_as_any!();
}

/// The application side of the trust boundary: a socket id the host never
/// handed out reads as empty, accepts nothing and closes nothing, on both
/// hosts, and the host keeps running.
#[test]
fn unknown_socket_ids_are_empty_on_both_hosts() {
    for tas in [true, false] {
        let cfg = if tas {
            HostCfg::Tas(TasConfig::rpc_bench(1, 1))
        } else {
            HostCfg::Model(Box::new(profiles::linux()), StackHostConfig::linux(1))
        };
        let agent = testbed::Agent::stack(cfg, Box::new(UnknownSockets::default()));
        let Net { mut sim, hosts, .. } = build(Testbed::uniform(14, PortConfig::tengig(), [agent]));
        let host = hosts[0];
        // Past the deferred close work both hosts queue.
        sim.run_until(SimTime::from_ms(5));
        let app = app::<UnknownSockets>(&sim, host);
        assert_eq!(app.returns, [0; 8], "tas {tas}");
        assert!(!app.offered, "tas {tas}: nothing to offer");
    }
}

/// Accepts on port 7, reads everything, and closes the first accepted
/// socket once a second connection arrives.
#[derive(Default)]
struct CloseFirstOnSecond {
    socks: Vec<SockId>,
    /// Bytes read on the second socket.
    second_read: usize,
}

impl App for CloseFirstOnSecond {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Accepted { sock, .. } => {
                self.socks.push(sock);
                if self.socks.len() == 2 {
                    api.close(self.socks[0]);
                }
            }
            AppEvent::Readable { sock } => {
                let n = api.recv(sock, 4096).len();
                if self.socks.get(1) == Some(&sock) {
                    self.second_read += n;
                }
            }
            _ => {}
        }
    }
    impl_as_any!();
}

/// A peer reset detaches its socket from the flow: once the reset flow's
/// id is recycled for a new connection, closing the reset socket must not
/// reach (and tear down) the connection that now holds the id.
#[test]
fn closing_a_reset_socket_leaves_the_recycled_flow_alone() {
    let mut sim: Sim<NetMsg> = Sim::new(15);
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index > 0 {
            return sim.add_agent(Box::new(Tap::default()));
        }
        sim.add_agent(Box::new(TasHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            TasConfig::rpc_bench(1, 1),
            spec.uplink,
            Box::new(CloseFirstOnSecond::default()),
        )))
    };
    let topo = build_star(
        &mut sim,
        2,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    let (host, tap) = (topo.hosts[0], topo.hosts[1]);
    for &h in &topo.hosts {
        sim.inject_timer(SimTime::ZERO, h, 0, 0);
    }
    let mut t = SimTime::from_us(100);
    let mut send = |sim: &mut Sim<NetMsg>, sport: u16, seq: u32, ack: u32, flags, data: &[u8]| {
        let mut seg = on_flow(seq, ack, flags, 0, data);
        seg.tcp.src_port = sport;
        sim.inject_msg(t, host, NetMsg::Packet(seg));
        t += SimTime::from_us(200);
        sim.run_until(t);
    };
    let synack_seq = |sim: &Sim<NetMsg>, port: u16| {
        let seg = sim.agent::<Tap>(tap).0.iter().rev().find(|s| {
            s.tcp.dst_port == port && s.tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK)
        });
        seg.expect("SYN-ACK").tcp.seq.0
    };
    // Connection A: handshake, then the peer resets it.
    send(&mut sim, 40_000, 500, 0, TcpFlags::SYN, &[]);
    let iss_a = synack_seq(&sim, 40_000);
    send(&mut sim, 40_000, 501, iss_a + 1, TcpFlags::ACK, &[]);
    assert_eq!(sim.agent::<TasHost>(host).flow_count(), 1);
    send(&mut sim, 40_000, 501, iss_a + 1, TcpFlags::RST, &[]);
    assert_eq!(sim.agent::<TasHost>(host).flow_count(), 0);
    // Connection B takes A's flow id; accepting it makes the app close A.
    send(&mut sim, 40_001, 900, 0, TcpFlags::SYN, &[]);
    let iss_b = synack_seq(&sim, 40_001);
    send(&mut sim, 40_001, 901, iss_b + 1, TcpFlags::ACK, &[]);
    send(
        &mut sim,
        40_001,
        901,
        iss_b + 1,
        TcpFlags::ACK | TcpFlags::PSH,
        &[7; 64],
    );
    let h = sim.agent::<TasHost>(host);
    assert_eq!(h.flow_count(), 1, "B stays installed");
    assert_eq!(
        h.app_as::<CloseFirstOnSecond>().second_read,
        64,
        "B delivers"
    );
}

/// A TAS host fed random garbage (SYN floods, bogus ACKs, random flags,
/// fragments) from a stranger, and ACKs with hostile timestamp echoes on
/// an established flow, keeps running and never panics.
#[test]
fn tas_host_survives_garbage() {
    for case in 0..96 {
        let mut rng = Rng::new(case);
        let segs = hostile_segments(&mut rng, 1, 40);
        let acks: Vec<Segment> = (0..rng.range_inclusive(2, 7))
            .map(|_| {
                let (seq, ack) = (rng.next_u32(), rng.next_u32());
                on_flow(seq, ack, TcpFlags::ACK, hostile_tsecr(&mut rng), &[])
            })
            .collect();
        let (mut sim, host) = build_tas();
        let h = sim.agent::<TasHost>(host);
        assert_eq!(h.flow_count(), 1, "case {case}: the client connected");
        let fast_path_before = h.fp_stats().pkts_rx;
        let on_flow_count = acks.len() as u64;
        let mut t = SimTime::from_us(600);
        for seg in segs.into_iter().chain(acks) {
            sim.inject_msg(t, host, NetMsg::Packet(seg));
            t += SimTime::from_us(3);
        }
        // Let retries, control loops, and teardowns churn.
        sim.run_until(t + SimTime::from_ms(50));
        let h = sim.agent::<TasHost>(host);
        // Sanity: state is still consistent enough to accept a real SYN.
        assert!(h.sp_stats().exceptions > 0, "case {case}");
        assert!(
            h.fp_stats().pkts_rx - fast_path_before >= on_flow_count,
            "case {case}: the on-flow ACKs reached the fast path"
        );
    }
}

/// Same for a Linux-model host.
#[test]
fn linux_host_survives_garbage() {
    for case in 0..96 {
        let segs = hostile_segments(&mut Rng::new(case), 1, 40);
        let (mut sim, host) = build_linux();
        let mut t = SimTime::from_us(200);
        for seg in segs {
            sim.inject_msg(t, host, NetMsg::Packet(seg));
            t += SimTime::from_us(3);
        }
        sim.run_until(t + SimTime::from_ms(50));
        let _ = sim.agent::<StackHost>(host).telemetry_snapshot();
    }
}

/// A Linux-model host fed ACKs with hostile timestamp echoes on an
/// established flow, each acknowledging part of its in-flight echo so that
/// it reaches the RTT estimator, keeps running and never panics.
#[test]
fn linux_host_survives_hostile_tsecr_on_flow() {
    for case in 0..96 {
        let mut rng = Rng::new(case);
        let (mut sim, host, echo_acked) = build_linux_with_flow();
        let n = rng.range_inclusive(1, 7);
        let mut t = SimTime::from_us(300);
        for _ in 0..n {
            let back = rng.range_inclusive(0, 64) as u32;
            let tsecr = hostile_tsecr(&mut rng);
            let seg = on_flow(
                565,
                echo_acked.wrapping_sub(back),
                TcpFlags::ACK,
                tsecr,
                &[],
            );
            sim.inject_msg(t, host, NetMsg::Packet(seg));
            t += SimTime::from_us(3);
        }
        sim.run_until(t + SimTime::from_ms(50));
        // The request, then every ACK, reached the connection.
        let segs_in = sim.agent::<StackHost>(host).tcp_stats().segs_in;
        assert_eq!(segs_in, 1 + n, "case {case}");
    }
}

/// A SYN-ACK that acknowledges our SYN but echoes a hostile timestamp
/// completes the handshake; an echo ahead of the clock is no RTT sample.
#[test]
fn tcp_conn_handshake_survives_hostile_tsecr() {
    use tas_repro::tcp::{TcpConfig, TcpConn, TcpState};
    for case in 0..96 {
        let tsecr = hostile_tsecr(&mut Rng::new(case));
        let (a, b) = endpoints();
        let mut conn = TcpConn::connect(SimTime::from_us(1), TcpConfig::default(), a, b, 42);
        let now = SimTime::from_us(10);
        let mut h = TcpHeader::new(b.port, a.port, 7_000, 43, TcpFlags::SYN | TcpFlags::ACK);
        h.options.timestamp = Some((5, tsecr));
        conn.on_segment(
            now,
            Segment::tcp(b.mac, a.mac, b.ip, a.ip, h, Vec::new(), false),
        );
        assert_eq!(conn.state(), TcpState::Established, "case {case}");
        // Timestamp time wraps: only an echo less than 2^31 µs behind the
        // clock is a sample, so no echo can inflate the estimate past that.
        let srtt = conn.srtt();
        assert!(
            srtt.is_none_or(|rtt| rtt < SimTime::from_us(1 << 31)),
            "case {case}"
        );
    }
}

/// A live TcpConn fed random segments never panics and keeps its sequence
/// bookkeeping self-consistent.
#[test]
fn tcp_conn_survives_garbage() {
    use tas_repro::tcp::{TcpConfig, TcpConn};
    for case in 0..96 {
        let segs = hostile_segments(&mut Rng::new(case), 1, 60);
        let (a, b) = endpoints();
        let mut conn = TcpConn::connect(SimTime::from_us(1), TcpConfig::default(), a, b, 42);
        conn.take_outgoing();
        let mut t = SimTime::from_us(10);
        for seg in segs {
            conn.on_segment(t, seg);
            conn.take_outgoing();
            conn.take_events();
            if conn.next_timer().is_some_and(|d| d <= t) {
                conn.on_timer(t);
            }
            t += SimTime::from_us(7);
        }
        conn.send(b"still alive");
        conn.poll(t);
        // Bookkeeping invariant: in-flight never exceeds what was buffered.
        assert!(conn.in_flight() as usize <= 256 * 1024, "case {case}");
    }
}

/// A live RPC workload pushed through a corruption-enabled fault injector
/// — seeded drops, duplicates, reordering, and header AND payload
/// bit-flips in both directions — must never panic the hosts, the
/// reference TCP engine, or the invariant auditors. Full e2e sims per
/// case: keep the case count moderate.
#[test]
fn stacks_survive_corrupting_fault_injector() {
    use tas_repro::apps::echo::{Lifetime, RpcClient};
    use tas_repro::netsim::{DropModel, FaultSpec};
    for case in 0..12 {
        let mut rng = Rng::new(case);
        let (seed, corrupt_pm) = (rng.next_u64(), rng.below(100));
        let spec = FaultSpec {
            seed: seed | 1,
            drop: DropModel::Uniform(0.02),
            dup_prob: 0.01,
            reorder_prob: 0.02,
            reorder_window: 2,
            jitter: SimTime::from_ns(500),
            corrupt_prob: corrupt_pm as f64 / 1000.0,
            corrupt_payload: true,
        };
        let echo = EchoServer::new(7, 64, ServerMode::Echo, 300);
        let mut c = RpcClient::new(host_ip(0), 7, 1, 1, 64, Lifetime::Persistent);
        c.max_requests = 50;
        let stack = |app: Box<dyn App>| testbed::Agent::stack(linux(), app);
        let mut tb = pair(seed, stack(Box::new(echo)), stack(Box::new(c)));
        tb.nodes[0].port.fault = spec;
        tb.nodes[1].port.fault = spec;
        let Net {
            mut sim,
            switches,
            hosts,
        } = build(tb);
        sim.run_until(SimTime::from_ms(100));
        // Survival is the property; also confirm the injector was live and
        // the hosts are still coherent enough to report state.
        let to_client = sim.agent::<Switch>(switches[0]).port_fault_snapshot(1);
        assert!(
            to_client.counter("fault.seen", tas_repro::sim::Scope::Global) > 0,
            "case {case}: injector must have seen traffic"
        );
        let _ = sim.agent::<StackHost>(hosts[0]).telemetry_snapshot();
        let _ = sim.agent::<StackHost>(hosts[1]).telemetry_snapshot();
    }
}
