//! Workload-proportionality tests (§3.4): the slow path grows the
//! fast-path core set under load, shrinks it when load departs, and the
//! RSS redirection table follows.

mod common;

use common::{pair, tas};
use tas::{ApiKind, CcAlgo, TasConfig, TasHost};
use tas_bench::app;
use tas_bench::testbed::{build, Net};
use tas_netsim::app::{App, AppEvent, StackApi};
use tas_netsim::topo::host_ip;
use tas_netsim::NetMsg;
use tas_sim::{impl_as_any, AgentId, Sim, SimTime};

/// Echo app on port 7 charging 200 cycles per read (the shared
/// `EchoServer` charges per message).
struct Echo;
impl App for Echo {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(7);
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Readable { sock } => {
                let d = api.recv(sock, usize::MAX);
                api.charge_app_cycles(200);
                api.send(sock, &d);
            }
            AppEvent::Closed { sock } => api.close(sock),
            _ => {}
        }
    }
    impl_as_any!();
}

/// Closed-loop pinger: `conns` sockets to port 7 of node 0, fires
/// immediately on response.
struct Pinger {
    conns: u32,
    stop_at: SimTime,
    done: u64,
}

impl Pinger {
    fn new(conns: u32, stop_at: SimTime) -> Self {
        Pinger {
            conns,
            stop_at,
            done: 0,
        }
    }
}

impl App for Pinger {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for _ in 0..self.conns {
            api.connect(host_ip(0), 7);
        }
    }
    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                api.send(sock, &[0u8; 64]);
            }
            AppEvent::Readable { sock } => {
                let d = api.recv(sock, usize::MAX);
                if d.len() >= 64 {
                    self.done += 1;
                    if self.stop_at == SimTime::ZERO || api.now() < self.stop_at {
                        api.send(sock, &[0u8; 64]);
                    }
                }
            }
            _ => {}
        }
    }
    impl_as_any!();
}

/// A proportional TAS echo server (node 0) under 64 closed-loop
/// connections that stop issuing at `load_stop` (never when zero).
fn build_pair(load_stop: SimTime) -> (Sim<NetMsg>, AgentId, AgentId) {
    let cfg = TasConfig {
        // Slow clock: a few dozen closed-loop connections saturate
        // multiple fast-path cores.
        freq_hz: 50_000_000,
        max_fp_cores: 6,
        initial_fp_cores: 1,
        app_cores: 4,
        api: ApiKind::Sockets,
        cc: CcAlgo::None,
        rx_buf: 2048,
        tx_buf: 2048,
        proportional: true,
        max_core_backlog: SimTime::from_ms(50),
        ..TasConfig::default()
    };
    let pinger = Pinger::new(64, load_stop);
    let tb = pair(5, tas(cfg, Echo), tas(TasConfig::rpc_bench(2, 2), pinger));
    let Net { sim, hosts, .. } = build(tb);
    (sim, hosts[0], hosts[1])
}

#[test]
fn controller_scales_up_under_load() {
    let (mut sim, server, client) = build_pair(SimTime::ZERO);
    sim.run_until(SimTime::from_ms(200));
    let srv = sim.agent::<TasHost>(server);
    assert!(
        srv.active_fp_cores() >= 3,
        "sustained overload must add cores, got {}",
        srv.active_fp_cores()
    );
    assert!(
        srv.registry()
            .counter_value("host.scale_events", tas_sim::Scope::Global)
            >= 2
    );
    // RSS follows the active set.
    assert!(app::<Pinger>(&sim, client).done > 1_000);
}

#[test]
fn controller_scales_back_down_when_idle() {
    let (mut sim, server, _client) = build_pair(SimTime::from_ms(150));
    sim.run_until(SimTime::from_ms(150));
    let peak = sim.agent::<TasHost>(server).active_fp_cores();
    assert!(peak >= 3, "ramped up first (got {peak})");
    // Load stops at 150 ms; the monitor should shed cores.
    sim.run_until(SimTime::from_ms(400));
    let after = sim.agent::<TasHost>(server).active_fp_cores();
    assert!(
        after < peak,
        "idle cores must be released: peak {peak}, after {after}"
    );
    assert_eq!(after, 1, "fully idle host returns to one core");
}

#[test]
fn fixed_allocation_never_scales() {
    // proportional = false (rpc_bench): core count must never change.
    let cfg = TasConfig::rpc_bench(2, 2);
    let pinger = Pinger::new(32, SimTime::ZERO);
    let Net { mut sim, hosts, .. } = build(pair(6, tas(cfg.clone(), Echo), tas(cfg, pinger)));
    sim.run_until(SimTime::from_ms(100));
    let srv = sim.agent::<TasHost>(hosts[0]);
    assert_eq!(srv.active_fp_cores(), 2);
    assert_eq!(
        srv.registry()
            .counter_value("host.scale_events", tas_sim::Scope::Global),
        0
    );
}
