//! Robustness fuzzing: arbitrary (including malformed) segments fired at
//! live hosts and connections must never panic or corrupt state. A
//! network stack's first property is surviving hostile input.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use tas_repro::apps::echo::{EchoServer, ServerMode};
use tas_repro::baselines::{profiles, StackHost, StackHostConfig};
use tas_repro::netsim::app::{App, AppEvent, SockId, StackApi};
use tas_repro::netsim::topo::{build_star, host_ip, HostSpec};
use tas_repro::netsim::{NetMsg, NicConfig, PortConfig};
use tas_repro::proto::{Ecn, MacAddr, Segment, TcpFlags, TcpHeader};
use tas_repro::sim::{impl_as_any, Agent, AgentId, Ctx, Event, Sim, SimTime};
use tas_repro::tas::{TasConfig, TasHost};
use tas_repro::tcp::EndpointInfo;

fn arb_hostile_segment() -> impl Strategy<Value = Segment> {
    (
        any::<u16>(),                                   // src port
        prop_oneof![Just(7u16), Just(9), any::<u16>()], // dst port (often the listener)
        any::<u32>(),                                   // seq
        any::<u32>(),                                   // ack
        any::<u8>(),                                    // flags
        any::<u16>(),                                   // window
        proptest::option::of(any::<(u32, u32)>()),      // ts
        0u8..=3,                                        // ecn
        proptest::collection::vec(any::<u8>(), 0..200),
        any::<bool>(), // fragment bit
    )
        .prop_map(|(sp, dp, seq, ack, flags, win, ts, ecn, payload, frag)| {
            let mut h = TcpHeader::new(sp, dp, seq, ack, TcpFlags(flags));
            h.window = win;
            h.options.timestamp = ts;
            let mut seg = Segment::tcp(
                MacAddr::for_host(9),
                MacAddr::for_host(1),
                Ipv4Addr::new(10, 0, 0, 9),
                host_ip(0),
                h,
                payload,
                false,
            );
            seg.ip.ecn = Ecn::from_bits(ecn);
            seg.ip.more_fragments = frag;
            seg
        })
}

/// Source port of the live client's one connection (a `StackHost`
/// allocates ephemeral ports from 40 000).
const LIVE_CLIENT_PORT: u16 = 40_000;

/// TSecr is peer-controlled: a value ahead of the host clock (the sims
/// here end well before one second), the largest value, and the smallest
/// one the fast path does not ignore.
fn arb_hostile_tsecr() -> impl Strategy<Value = u32> {
    prop_oneof![1_000_000u32..2_000_000, Just(u32::MAX), Just(1u32)]
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
    use tas_repro::apps::echo::SinkClient;
    let mut sim: Sim<NetMsg> = Sim::new(11);
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index == 1 {
            return sim.add_agent(Box::new(StackHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                profiles::linux(),
                StackHostConfig::linux(1),
                spec.uplink,
                Box::new(SinkClient::new(host_ip(0), 7, 1)),
            )));
        }
        let app: Box<dyn App> = Box::new(EchoServer::new(7, 64, ServerMode::Echo, 100));
        sim.add_agent(Box::new(TasHost::new(
            spec.ip,
            spec.mac,
            spec.nic,
            TasConfig::rpc_bench(2, 2),
            spec.uplink,
            app,
        )))
    };
    let topo = build_star(
        &mut sim,
        2,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    for &h in &topo.hosts {
        sim.inject_timer(SimTime::ZERO, h, 0, 0);
    }
    sim.run_until(SimTime::from_us(500));
    (sim, topo.hosts[0])
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
    sim.inject_msg(SimTime::from_us(100), 0, server, NetMsg::Packet(syn));
    sim.run_until(SimTime::from_us(200));
    let iss = sim.agent::<Tap>(tap).0[0].tcp.seq.0;
    let req = on_flow(
        501,
        iss.wrapping_add(1),
        TcpFlags::ACK | TcpFlags::PSH,
        0,
        &[7; 64],
    );
    sim.inject_msg(SimTime::from_us(200), 0, server, NetMsg::Packet(req));
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
        let mut sim: Sim<NetMsg> = Sim::new(14);
        let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
            let app: Box<dyn App> = Box::new(UnknownSockets::default());
            if tas {
                let cfg = TasConfig::rpc_bench(1, 1);
                sim.add_agent(Box::new(TasHost::new(
                    spec.ip,
                    spec.mac,
                    spec.nic,
                    cfg,
                    spec.uplink,
                    app,
                )))
            } else {
                let cfg = StackHostConfig::linux(1);
                sim.add_agent(Box::new(StackHost::new(
                    spec.ip,
                    spec.mac,
                    spec.nic,
                    profiles::linux(),
                    cfg,
                    spec.uplink,
                    app,
                )))
            }
        };
        let topo = build_star(
            &mut sim,
            1,
            |_| PortConfig::tengig(),
            |_| NicConfig::client_10g(1),
            &mut factory,
        );
        let host = topo.hosts[0];
        sim.inject_timer(SimTime::ZERO, host, 0, 0);
        // Past the deferred close work both hosts queue.
        sim.run_until(SimTime::from_ms(5));
        let app: &UnknownSockets = if tas {
            sim.agent::<TasHost>(host).app_as()
        } else {
            sim.agent::<StackHost>(host).app_as()
        };
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
        sim.inject_msg(t, 0, host, NetMsg::Packet(seg));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A TAS host fed arbitrary garbage (SYN floods, bogus ACKs, random
    /// flags, fragments) from a stranger, and ACKs with hostile timestamp
    /// echoes on an established flow, keeps running and never panics.
    #[test]
    fn tas_host_survives_garbage(
        segs in proptest::collection::vec(arb_hostile_segment(), 1..40),
        flow_acks in proptest::collection::vec((any::<u32>(), any::<u32>(), arb_hostile_tsecr()), 2..8),
    ) {
        let (mut sim, host) = build_tas();
        prop_assert_eq!(sim.agent::<TasHost>(host).flow_count(), 1, "the client connected");
        let fast_path_before = sim.agent::<TasHost>(host).fp_stats().pkts_rx;
        let mut t = SimTime::from_us(600);
        let on_flow_count = flow_acks.len() as u64;
        let acks = flow_acks.into_iter().map(|(seq, ack, tsecr)| on_flow(seq, ack, TcpFlags::ACK, tsecr, &[]));
        for seg in segs.into_iter().chain(acks) {
            sim.inject_msg(t, 0, host, NetMsg::Packet(seg));
            t += SimTime::from_us(3);
        }
        // Let retries, control loops, and teardowns churn.
        sim.run_until(t + SimTime::from_ms(50));
        let h = sim.agent::<TasHost>(host);
        // Sanity: state is still consistent enough to accept a real SYN.
        prop_assert!(h.sp_stats().exceptions > 0);
        prop_assert!(
            h.fp_stats().pkts_rx - fast_path_before >= on_flow_count,
            "the on-flow ACKs reached the fast path"
        );
    }

    /// Same for a Linux-model host.
    #[test]
    fn linux_host_survives_garbage(segs in proptest::collection::vec(arb_hostile_segment(), 1..40)) {
        let (mut sim, host) = build_linux();
        let mut t = SimTime::from_us(200);
        for seg in segs {
            sim.inject_msg(t, 0, host, NetMsg::Packet(seg));
            t += SimTime::from_us(3);
        }
        sim.run_until(t + SimTime::from_ms(50));
        let _ = sim.agent::<StackHost>(host).telemetry_snapshot();
    }

    /// A Linux-model host fed ACKs with hostile timestamp echoes on an
    /// established flow, each acknowledging part of its in-flight echo so
    /// that it reaches the RTT estimator, keeps running and never panics.
    #[test]
    fn linux_host_survives_hostile_tsecr_on_flow(
        acks in proptest::collection::vec((0u32..=64, arb_hostile_tsecr()), 1..8),
    ) {
        let (mut sim, host, echo_acked) = build_linux_with_flow();
        let n = acks.len() as u64;
        let mut t = SimTime::from_us(300);
        for (back, tsecr) in acks {
            let seg = on_flow(565, echo_acked.wrapping_sub(back), TcpFlags::ACK, tsecr, &[]);
            sim.inject_msg(t, 0, host, NetMsg::Packet(seg));
            t += SimTime::from_us(3);
        }
        sim.run_until(t + SimTime::from_ms(50));
        // The request, then every ACK, reached the connection.
        prop_assert_eq!(sim.agent::<StackHost>(host).tcp_stats().segs_in, 1 + n);
    }

    /// A SYN-ACK that acknowledges our SYN but echoes a hostile timestamp
    /// completes the handshake; an echo ahead of the clock is no RTT sample.
    #[test]
    fn tcp_conn_handshake_survives_hostile_tsecr(tsecr in arb_hostile_tsecr()) {
        use tas_repro::tcp::{TcpConfig, TcpConn, TcpState};
        let (a, b) = endpoints();
        let mut conn = TcpConn::connect(SimTime::from_us(1), TcpConfig::default(), a, b, 42);
        let now = SimTime::from_us(10);
        let mut h = TcpHeader::new(b.port, a.port, 7_000, 43, TcpFlags::SYN | TcpFlags::ACK);
        h.options.timestamp = Some((5, tsecr));
        conn.on_segment(now, Segment::tcp(b.mac, a.mac, b.ip, a.ip, h, Vec::new(), false));
        prop_assert_eq!(conn.state(), TcpState::Established);
        // Timestamp time wraps: only an echo less than 2^31 µs behind the
        // clock is a sample, so no echo can inflate the estimate past that.
        prop_assert!(conn.srtt().is_none_or(|rtt| rtt < SimTime::from_us(1 << 31)));
    }

    /// A live TcpConn fed arbitrary segments never panics and keeps its
    /// sequence bookkeeping self-consistent.
    #[test]
    fn tcp_conn_survives_garbage(segs in proptest::collection::vec(arb_hostile_segment(), 1..60)) {
        use tas_repro::tcp::{TcpConfig, TcpConn};
        let (a, b) = endpoints();
        let mut conn = TcpConn::connect(SimTime::from_us(1), TcpConfig::default(), a, b, 42);
        conn.take_outgoing();
        let mut t = SimTime::from_us(10);
        for seg in segs {
            conn.on_segment(t, seg);
            conn.take_outgoing();
            conn.take_events();
            if let Some(d) = conn.next_timer() {
                if d <= t {
                    conn.on_timer(t);
                }
            }
            t += SimTime::from_us(7);
        }
        conn.send(b"still alive");
        conn.poll(t);
        // Bookkeeping invariant: in-flight never exceeds what was buffered.
        prop_assert!(conn.in_flight() as usize <= 256 * 1024);
    }
}

proptest! {
    // Full e2e sims per case: keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A live RPC workload pushed through a corruption-enabled fault
    /// injector — seeded drops, duplicates, reordering, and header AND
    /// payload bit-flips in both directions — must never panic the hosts,
    /// the reference TCP engine, or the invariant auditors.
    #[test]
    fn stacks_survive_corrupting_fault_injector(seed in any::<u64>(), corrupt_pm in 0u32..100) {
        use tas_repro::apps::echo::{Lifetime, RpcClient};
        use tas_repro::netsim::{DropModel, FaultSpec};
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
        let mut sim: Sim<NetMsg> = Sim::new(seed);
        let server_ip = host_ip(0);
        let mut factory = move |sim: &mut Sim<NetMsg>, spec_h: HostSpec| -> AgentId {
            let app: Box<dyn App> = if spec_h.index == 0 {
                Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300))
            } else {
                let mut c = RpcClient::new(server_ip, 7, 1, 1, 64, Lifetime::Persistent);
                c.max_requests = 50;
                Box::new(c)
            };
            let mut nic = spec_h.nic;
            if spec_h.index == 1 {
                nic.tx_fault = spec;
            }
            sim.add_agent(Box::new(StackHost::new(
                spec_h.ip,
                spec_h.mac,
                nic,
                profiles::linux(),
                StackHostConfig::linux(2),
                spec_h.uplink,
                app,
            )))
        };
        let topo = build_star(
            &mut sim,
            2,
            |i| if i == 0 {
                PortConfig { fault: spec, ..PortConfig::tengig() }
            } else {
                PortConfig::tengig()
            },
            |_| NicConfig::client_10g(1),
            &mut factory,
        );
        for &h in &topo.hosts {
            sim.inject_timer(SimTime::ZERO, h, 0, 0);
        }
        sim.run_until(SimTime::from_ms(100));
        // Survival is the property; also confirm the injector was live and
        // the hosts are still coherent enough to report state.
        let nic_snap = sim.agent::<StackHost>(topo.hosts[1]).nic().tx_fault_snapshot();
        prop_assert!(
            nic_snap.counter("fault.seen", tas_repro::sim::Scope::Global) > 0,
            "injector must have seen traffic"
        );
        let _ = sim.agent::<StackHost>(topo.hosts[0]).telemetry_snapshot();
        let _ = sim.agent::<StackHost>(topo.hosts[1]).telemetry_snapshot();
    }
}
