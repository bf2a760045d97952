//! Workload proportionality walkthrough: TAS as an *OS service*.
//!
//! The paper's central operational claim (§3.4) is that TAS behaves like
//! an operating-system component, not a dedicated appliance: fast-path
//! cores are added when aggregate idle time drops below 0.2 cores,
//! removed above 1.25, and a core with no packets for 10 ms blocks
//! instead of spinning. This example steps key-value load up and back
//! down and prints the fast-path core staircase that results.
//!
//! Run with: `cargo run --release --example proportionality`

use tas_bench::testbed::{build, Agent, Net, Testbed};
use tas_bench::HostCfg;
use tas_repro::apps::kv::{self, KvServer};
use tas_repro::apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_repro::netsim::topo::host_ip;
use tas_repro::sim::SimTime;
use tas_repro::tas::{ApiKind, CcAlgo, TasConfig, TasHost};

fn main() {
    let clients = 4usize;
    let step = SimTime::from_ms(300);
    let total = step * (2 * clients as u64 + 1);

    // A reduced server clock lets a handful of load generators exercise
    // several cores; the controller and its thresholds are exactly the
    // paper's.
    let cfg = TasConfig {
        freq_hz: 50_000_000,
        max_fp_cores: 8,
        initial_fp_cores: 1,
        app_cores: 8,
        api: ApiKind::Sockets,
        cc: CcAlgo::None,
        rx_buf: 4096,
        tx_buf: 4096,
        proportional: true,
        max_core_backlog: SimTime::from_ms(50),
        ..TasConfig::default()
    };
    let server = Agent::stack(HostCfg::Tas(cfg), Box::new(KvServer::new(7)));
    // Clients arrive one per step and depart in reverse order.
    let loadgen = |i: u64| {
        let template = kv::get_request(1);
        Agent::LoadGen(LoadGenConfig {
            server: host_ip(0),
            port: 7,
            conns: 80,
            think: SimTime::from_ms(1),
            req_size: template.len(),
            resp_size: kv::RESP_LEN,
            req_template: Some(template),
            stop_at: total - step * (i + 1),
            ..LoadGenConfig::default()
        })
    };
    let mut tb = Testbed::paper(7, server, (0..clients as u64).map(loadgen));
    for (i, node) in tb.nodes[1..].iter_mut().enumerate() {
        node.start = step * i as u64;
    }
    let Net { mut sim, hosts, .. } = build(tb);

    println!("stepped KV load against one TAS server (paper Fig. 14):");
    println!("{:<9} {:>7} {:>12}", "t [ms]", "cores", "kOps/s");
    let sample = SimTime::from_ms(100);
    let mut t = SimTime::ZERO;
    let mut prev_done = 0u64;
    let mut peak_cores = 0usize;
    while t < total {
        t += sample;
        sim.run_until(t);
        let done: u64 = hosts[1..]
            .iter()
            .map(|&c| sim.agent::<LoadGenHost>(c).done)
            .sum();
        let cores = sim.agent::<TasHost>(hosts[0]).active_fp_cores();
        peak_cores = peak_cores.max(cores);
        let kops = (done - prev_done) as f64 / sample.as_secs_f64() / 1e3;
        println!("{:<9} {cores:>7} {kops:>12.1}", t.as_millis());
        prev_done = done;
    }

    let server = sim.agent::<TasHost>(hosts[0]);
    let final_cores = server.active_fp_cores();
    let scale_events = server
        .registry()
        .counter_value("host.scale_events", tas_repro::sim::Scope::Global);
    println!();
    println!(
        "peak {peak_cores} fast-path cores, back to {final_cores} after the load left \
         ({scale_events} controller actions)"
    );
    assert!(peak_cores >= 3, "load should have forced a multi-core ramp");
    assert_eq!(final_cores, 1, "idle service must shrink back to one core");
    println!("a dedicated-appliance stack would have pinned {peak_cores} cores forever;");
    println!("TAS returned them to the OS the moment the load went away (§3.4).");
}
