//! The raw clients' watchdog (`tas_apps::raw`) under loss. A tap between
//! the client and the switch drops every SYN-ACK for the first 30 ms
//! (long enough for the TAS server to give up its own SYN-ACK retries)
//! and a seeded share of the client's requests. Each raw agent must then
//! recover on its own: it retries the SYN with the same ISS, resends each
//! lost request from its first byte, and keeps completing requests.

use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use tas::{TasConfig, TasHost};
use tas_apps::adversary::{AdvMode, AdversaryConfig, AdversaryHost};
use tas_apps::kv::{self, KvServer};
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_netsim::app::App;
use tas_netsim::topo::{build_star, host_ip, HostSpec};
use tas_netsim::{NetMsg, NicConfig, PortConfig};
use tas_proto::{Seq, TcpFlags};
use tas_sim::{impl_as_any, Agent, AgentId, Ctx, Event, Rng, Sim, SimTime};

const PORT: u16 = 7;
const CONNS: u32 = 4;
/// Every SYN-ACK before this instant is lost.
const SYNACK_LOSS_UNTIL: SimTime = SimTime::from_ms(30);
/// Share of the client's requests lost.
const REQUEST_LOSS: f64 = 0.02;

/// A client → server segment as the tap saw it.
struct Sent {
    at: SimTime,
    port: u16,
    syn: bool,
    seq: Seq,
    len: usize,
    dropped: bool,
}

/// A lossy wire between one client and its switch port.
struct Tap {
    client_ip: Ipv4Addr,
    client: AgentId,
    switch: AgentId,
    rng: Rng,
    sent: Vec<Sent>,
    synacks_dropped: u64,
}

impl Agent<NetMsg> for Tap {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        let Event::Msg {
            msg: NetMsg::Packet(seg),
            ..
        } = ev
        else {
            return;
        };
        let now = ctx.now();
        if seg.ip.src == self.client_ip {
            let dropped = !seg.payload.is_empty() && self.rng.chance(REQUEST_LOSS);
            self.sent.push(Sent {
                at: now,
                port: seg.tcp.src_port,
                syn: seg.tcp.flags.contains(TcpFlags::SYN),
                seq: seg.tcp.seq,
                len: seg.payload.len(),
                dropped,
            });
            if !dropped {
                ctx.send_at(self.switch, now, NetMsg::Packet(seg));
            }
        } else if seg.tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK) && now < SYNACK_LOSS_UNTIL {
            self.synacks_dropped += 1;
        } else {
            ctx.send_at(self.client, now, NetMsg::Packet(seg));
        }
    }

    impl_as_any!();
}

/// A TAS KV server at host 0 and one raw client at host 1 behind a
/// [`Tap`]; `client` builds the client on the given uplink. Returns the
/// simulation, the client and the tap.
fn lossy_star(
    seed: u64,
    client: &mut dyn FnMut(HostSpec, AgentId) -> Box<dyn Agent<NetMsg>>,
) -> (Sim<NetMsg>, AgentId, AgentId) {
    let mut sim: Sim<NetMsg> = Sim::new(seed);
    let mut client_id = None;
    let mut factory = |sim: &mut Sim<NetMsg>, spec: HostSpec| {
        if spec.index == 0 {
            let app: Box<dyn App> = Box::new(KvServer::new(PORT));
            let cfg = TasConfig::rpc_bench(1, 1);
            return sim.add_agent(Box::new(TasHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                cfg,
                spec.uplink,
                app,
            )));
        }
        let tap = sim.add_agent(Box::new(Tap {
            client_ip: spec.ip,
            client: 0,
            switch: spec.uplink,
            rng: Rng::new(seed ^ 0x7a9),
            sent: Vec::new(),
            synacks_dropped: 0,
        }));
        let id = sim.add_agent(client(spec, tap));
        sim.agent_mut::<Tap>(tap).client = id;
        client_id = Some(id);
        tap
    };
    let topo = build_star(
        &mut sim,
        2,
        |_| PortConfig::tengig(),
        |_| NicConfig::client_10g(1),
        &mut factory,
    );
    let client = client_id.expect("factory built the client");
    // Both TasHost and the raw clients start on timer kind 0.
    sim.inject_timer(SimTime::ZERO, topo.hosts[0], 0, 0);
    sim.inject_timer(SimTime::from_us(1), client, 0, 0);
    (sim, client, topo.hosts[1])
}

/// How long each test runs.
const RUN: SimTime = SimTime::from_ms(1000);
/// Two watchdog periods: a request lost before `RUN - SETTLE` has been
/// resent by the end.
const SETTLE: SimTime = SimTime::from_ms(100);

/// Runs for [`RUN`], sampling `done` every 200 ms, and asserts it grew in
/// every interval (the first one includes the SYN retries).
fn run_advancing(sim: &mut Sim<NetMsg>, done: impl Fn(&Sim<NetMsg>) -> u64) {
    let mut last = 0;
    for step in 1..=5 {
        let t = SimTime::from_ns(RUN.as_nanos() / 5 * step);
        sim.run_until(t);
        let now = done(sim);
        assert!(now > last, "done stalled at {now} by {t:?}");
        last = now;
    }
}

/// Checks the wire the tap saw: every connection retried its SYN with
/// its ISS and then carried requests, every request starts at a request
/// boundary, and every lost request was resent from its first byte. Returns the number of
/// resends.
fn assert_recovered(tap: &Tap, req_len: usize) -> u64 {
    assert!(
        tap.synacks_dropped >= u64::from(CONNS),
        "every first SYN-ACK was lost"
    );
    let mut resends = 0;
    let ports: BTreeSet<u16> = tap.sent.iter().map(|s| s.port).collect();
    assert_eq!(ports.len(), CONNS as usize, "one local port per connection");
    for port in ports {
        let segs: Vec<&Sent> = tap.sent.iter().filter(|s| s.port == port).collect();
        let syns: Vec<Seq> = segs.iter().filter(|s| s.syn).map(|s| s.seq).collect();
        assert!(syns.len() >= 2, "port {port}: the SYN was retried");
        assert!(
            syns.iter().all(|&s| s == syns[0]),
            "port {port}: retries keep the ISS"
        );
        let data: Vec<&&Sent> = segs.iter().filter(|s| s.len > 0).collect();
        assert!(!data.is_empty(), "port {port}: requests flowed");
        for (i, d) in data.iter().enumerate() {
            assert_eq!(d.len, req_len, "port {port}: whole requests only");
            let off = d.seq - (syns[0] + 1);
            assert_eq!(
                off as usize % req_len,
                0,
                "port {port}: request {i} starts at a boundary"
            );
            let resent = data[..i].iter().any(|e| e.seq == d.seq);
            resends += u64::from(resent);
            if d.dropped && d.at < RUN - SETTLE {
                assert!(
                    data[i + 1..].iter().any(|e| e.seq == d.seq),
                    "port {port}: lost request at offset {off} was resent from its first byte"
                );
            }
        }
    }
    assert!(resends > 0, "some request was lost and resent");
    resends
}

#[test]
fn loadgen_watchdog_retries_syns_and_resends_lost_requests() {
    let (mut sim, client, tap) = lossy_star(11, &mut |spec, uplink| {
        let cfg = LoadGenConfig {
            server: host_ip(0),
            port: PORT,
            conns: CONNS,
            req_size: kv::get_request(1).len(),
            resp_size: kv::RESP_LEN,
            req_template: Some(kv::get_request(1)),
            ..LoadGenConfig::default()
        };
        Box::new(LoadGenHost::new(spec.ip, spec.mac, spec.nic, uplink, cfg))
    });
    run_advancing(&mut sim, |sim| sim.agent::<LoadGenHost>(client).done);
    let lg = sim.agent::<LoadGenHost>(client);
    let resends = assert_recovered(sim.agent::<Tap>(tap), kv::get_request(1).len());
    assert_eq!(lg.rexmits, resends, "every watchdog resend is on the wire");
}

#[test]
fn adversary_watchdog_retries_syns_and_resends_lost_requests() {
    let (mut sim, client, tap) = lossy_star(12, &mut |spec, uplink| {
        let mode = AdvMode::WindowStuff {
            pattern: vec![u16::MAX],
        };
        let cfg = AdversaryConfig::kv(host_ip(0), PORT, CONNS, mode);
        Box::new(AdversaryHost::new(spec.ip, spec.mac, spec.nic, uplink, cfg))
    });
    run_advancing(&mut sim, |sim| sim.agent::<AdversaryHost>(client).done);
    let adv = sim.agent::<AdversaryHost>(client);
    assert_recovered(sim.agent::<Tap>(tap), kv::get_request(1).len());
    // Every header after the handshake advanced the window cycle: the
    // pure ACKs, the requests and the watchdog's resends.
    let segs_after_syn = sim.agent::<Tap>(tap).sent.iter().filter(|s| !s.syn).count();
    assert_eq!(adv.adv_history.len(), segs_after_syn.min(4096));
}
