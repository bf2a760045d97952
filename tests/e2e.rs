//! End-to-end TAS tests: two TAS hosts exchanging RPCs across a simulated
//! switch, covering connection setup through the slow path, fast-path data
//! exchange, rate control, loss recovery, and teardown.

mod common;

use common::{pair, tas, CheckingClient};
use std::iter;
use tas::{CcAlgo, TasConfig, TasHost};
use tas_bench::app;
use tas_bench::testbed::{build, Net, Testbed};
use tas_netsim::app::{App, AppEvent, StackApi};
use tas_netsim::topo::host_ip;
use tas_netsim::{FaultSpec, PortConfig, Switch};
use tas_sim::{impl_as_any, Scope, SimTime, Snapshot};

/// Echo server on port 7: echoes every byte it reads and charges 300
/// cycles per read (the shared `EchoServer` charges per message); closes
/// when the peer closes.
#[derive(Default)]
struct EchoServer {
    echoed: u64,
    accepted: u64,
}

impl App for EchoServer {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(7);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Accepted { .. } => self.accepted += 1,
            AppEvent::Readable { sock } => {
                let data = api.recv(sock, usize::MAX);
                self.echoed += data.len() as u64;
                api.charge_app_cycles(300);
                api.send(sock, &data);
            }
            AppEvent::Closed { sock } => {
                api.close(sock);
            }
            _ => {}
        }
    }

    impl_as_any!();
}

/// A star with a TAS echo server (node 0) and `n_clients` TAS checking
/// clients, each sending `reqs` requests of `req_size` bytes; node `i`
/// starts at `i` µs.
fn echo_star(
    n_clients: usize,
    server_cfg: TasConfig,
    client_cfg: TasConfig,
    reqs: u32,
    req_size: usize,
    seed: u64,
) -> Net {
    let server = tas(server_cfg, EchoServer::default());
    let clients = (0..n_clients).map(|_| {
        tas(
            client_cfg.clone(),
            CheckingClient::new(host_ip(0), 7, req_size, reqs),
        )
    });
    let agents = iter::once(server).chain(clients);
    let mut tb = Testbed::uniform(seed, PortConfig::tengig(), agents);
    for (i, node) in tb.nodes.iter_mut().enumerate() {
        node.start = SimTime::from_us(i as u64);
    }
    build(tb)
}

/// A TAS echo server and one checking client sending 300 64-byte
/// requests, both on `cfg`, started together.
fn echo_pair(seed: u64, cfg: TasConfig) -> Testbed {
    let client = CheckingClient::new(host_ip(0), 7, 64, 300);
    pair(
        seed,
        tas(cfg.clone(), EchoServer::default()),
        tas(cfg, client),
    )
}

#[test]
fn single_client_rpc_round_trips() {
    let cfg = TasConfig::rpc_bench(1, 1);
    let Net { mut sim, hosts, .. } = echo_star(1, cfg.clone(), cfg, 100, 64, 1);
    sim.run_until(SimTime::from_ms(200));
    let client = app::<CheckingClient>(&sim, hosts[1]);
    assert_eq!(client.done, 100, "all RPCs must complete");
    assert!(client.finished, "close handshake must complete");
    let server = sim.agent::<TasHost>(hosts[0]);
    assert_eq!(server.app_as::<EchoServer>().echoed, 100 * 64);
    assert_eq!(server.app_as::<EchoServer>().accepted, 1);
    assert_eq!(server.sp_stats().established, 1);
    assert!(
        server.fp_stats().pkts_rx > 100,
        "data flowed through the fast path"
    );
    // Flow state is gone after teardown on both sides.
    assert_eq!(server.flow_count(), 0);
    assert_eq!(sim.agent::<TasHost>(hosts[1]).flow_count(), 0);
}

#[test]
fn rpc_latency_is_microseconds_scale() {
    let cfg = TasConfig::rpc_bench(1, 1);
    let Net { mut sim, hosts, .. } = echo_star(1, cfg.clone(), cfg, 200, 64, 2);
    sim.run_until(SimTime::from_ms(200));
    let client = app::<CheckingClient>(&sim, hosts[1]);
    assert_eq!(client.done, 200);
    let mean = client.rtts_us.iter().sum::<f64>() / client.rtts_us.len() as f64;
    // 2 wire hops each way (~1us each) + switch + processing: single-digit
    // microseconds; far below 100.
    assert!(mean > 3.0 && mean < 50.0, "RPC latency {mean}us");
}

#[test]
fn many_clients_all_complete() {
    let (server_cfg, client_cfg) = (TasConfig::rpc_bench(2, 2), TasConfig::rpc_bench(1, 1));
    let Net { mut sim, hosts, .. } = echo_star(8, server_cfg, client_cfg, 50, 64, 3);
    sim.run_until(SimTime::from_ms(500));
    for &h in &hosts[1..] {
        let client = app::<CheckingClient>(&sim, h);
        assert_eq!(client.done, 50);
        assert!(client.finished);
    }
    let server = sim.agent::<TasHost>(hosts[0]);
    assert_eq!(server.sp_stats().established, 8);
    assert_eq!(server.sp_stats().closed, 8);
}

#[test]
fn rate_controlled_config_still_completes() {
    // DCTCP-rate enforcement on both sides: the control loop, buckets, and
    // pacing timers are all on the path.
    let mut cfg = TasConfig::rpc_bench(1, 1);
    cfg.cc = CcAlgo::DctcpRate;
    cfg.initial_rate_bps = 100_000_000;
    cfg.control_interval = SimTime::from_us(200);
    let Net { mut sim, hosts, .. } = echo_star(2, cfg.clone(), cfg, 100, 512, 4);
    sim.run_until(SimTime::from_ms(500));
    for &h in &hosts[1..] {
        let client = app::<CheckingClient>(&sim, h);
        assert_eq!(client.done, 100, "rate-limited flows must still complete");
    }
}

#[test]
fn loss_recovery_via_slow_path_timeout() {
    // 2% packet loss on the client's requests (the switch port toward the
    // server): lost requests must be recovered by dupack fast-retransmit
    // or the slow-path stall detector.
    let mut cfg = TasConfig::rpc_bench(1, 1);
    cfg.control_interval = SimTime::from_us(200);
    let mut tb = echo_pair(5, cfg);
    // Seed 0 derives the stream from the port.
    tb.nodes[0].port.fault = FaultSpec::uniform_loss(0.02, 0);
    let Net { mut sim, hosts, .. } = build(tb);
    sim.run_until(SimTime::from_secs(5));
    let client = app::<CheckingClient>(&sim, hosts[1]);
    assert_eq!(client.done, 300, "all RPCs must survive 2% loss");
    let server = sim.agent::<TasHost>(hosts[0]);
    let srv_rexmits = server.sp_stats().timeout_rexmits + server.fp_stats().fast_rexmits;
    let cli = sim.agent::<TasHost>(hosts[1]);
    let cli_rexmits = cli.sp_stats().timeout_rexmits + cli.fp_stats().fast_rexmits;
    assert!(
        srv_rexmits + cli_rexmits > 0,
        "losses must have triggered recovery"
    );
}

#[test]
fn fault_schedule_with_auditor_all_rpcs_complete() {
    // Deterministic fault schedule on both directions — drops, duplicates,
    // and reordering on the switch port toward the server (client->server)
    // and on the one toward the client (server->client) — with the per-flow
    // invariant auditor live on every fast-/slow-path operation. All RPCs
    // must still complete and round-trip intact.
    assert!(
        tas::audit::enabled(),
        "auditor must be compiled into test builds"
    );
    let mut cfg = TasConfig::rpc_bench(1, 1);
    cfg.control_interval = SimTime::from_us(200);
    let mut tb = echo_pair(7, cfg);
    // Port 0 faces the server, port 1 the client.
    tb.nodes[0].port.fault = FaultSpec::lossy(0.01, 0.01, 0.02, 42);
    tb.nodes[1].port.fault = FaultSpec::lossy(0.01, 0.01, 0.02, 43);
    let Net {
        mut sim,
        switches,
        hosts,
    } = build(tb);
    let audits_before = tas::audit::checks_performed();
    sim.run_until(SimTime::from_secs(10));
    let client = app::<CheckingClient>(&sim, hosts[1]);
    assert_eq!(client.done, 300, "all RPCs must survive the fault schedule");
    assert!(
        client.finished,
        "close handshake must complete under faults"
    );
    // The injectors actually fired, in both directions (registry-backed
    // snapshot view).
    let fired = |s: &Snapshot| {
        [
            "fault.dropped",
            "fault.duplicated",
            "fault.reordered",
            "fault.jittered",
            "fault.corrupted",
        ]
        .iter()
        .map(|&n| s.counter(n, Scope::Global))
        .sum::<u64>()
            > 0
    };
    let to_server = sim.agent::<Switch>(switches[0]).port_fault_snapshot(0);
    assert!(
        to_server.counter("fault.seen", Scope::Global) > 300,
        "server port injector saw traffic"
    );
    assert!(fired(&to_server), "server port injector injected faults");
    let port_snap = sim.agent::<Switch>(switches[0]).port_fault_snapshot(1);
    assert!(
        port_snap.counter("fault.seen", Scope::Global) > 300,
        "switch port injector saw traffic"
    );
    assert!(fired(&port_snap), "switch port injector injected faults");
    // The auditor ran on the operations of this workload.
    assert!(
        tas::audit::checks_performed() > audits_before,
        "auditor must have checked fast-/slow-path operations"
    );
}

#[test]
fn cycle_accounting_matches_table1_shape() {
    let cfg = TasConfig::rpc_bench(1, 1);
    let Net { mut sim, hosts, .. } = echo_star(1, cfg.clone(), cfg, 1000, 64, 6);
    sim.run_until(SimTime::from_secs(1));
    let server = sim.agent::<TasHost>(hosts[0]);
    let acct = server.account();
    use tas_cpusim::Module;
    let tcp = acct.cycles(Module::Tcp);
    let driver = acct.cycles(Module::Driver);
    let api = acct.cycles(Module::Api);
    assert!(tcp > driver, "TCP dominates driver cycles (Table 1 shape)");
    assert!(api > driver, "sockets exceed driver cycles (Table 1 shape)");
    // Per request: roughly 0.8-1.3 kc of TCP per the calibration (the echo
    // server sees 1 data RX + ack gen + tx cmd + tx seg + 1 ack RX).
    let per_req = tcp as f64 / 1000.0;
    assert!(
        (600.0..1600.0).contains(&per_req),
        "TCP cycles/request {per_req}"
    );
}
