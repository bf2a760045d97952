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

use tas_repro::apps::kv::{self, KvServer};
use tas_repro::apps::loadgen::{timers as lg_timers, LoadGenConfig, LoadGenHost};
use tas_repro::netsim::app::App;
use tas_repro::netsim::topo::{build_star, host_ip, HostSpec};
use tas_repro::netsim::{NetMsg, NicConfig, PortConfig};
use tas_repro::sim::{AgentId, Sim, SimTime};
use tas_repro::tas::host::timers as tas_timers;
use tas_repro::tas::{ApiKind, CcAlgo, TasConfig, TasHost};

fn main() {
    let mut sim: Sim<NetMsg> = Sim::new(7);
    let server_ip = host_ip(0);
    let clients = 4usize;
    let step = SimTime::from_ms(300);
    let total = step * (2 * clients as u64 + 1);

    let mut factory = move |sim: &mut Sim<NetMsg>, spec: HostSpec| -> AgentId {
        if spec.index == 0 {
            // A reduced server clock lets a handful of load generators
            // exercise several cores; the controller and its thresholds
            // are exactly the paper's.
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
            let app: Box<dyn App> = Box::new(KvServer::new(7));
            sim.add_agent(Box::new(TasHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                cfg,
                spec.uplink,
                app,
            )))
        } else {
            let template = kv::get_request(1);
            let cfg = LoadGenConfig {
                server: server_ip,
                port: 7,
                conns: 80,
                think: SimTime::from_ms(1),
                req_size: template.len(),
                resp_size: kv::RESP_LEN,
                req_template: Some(template),
                stop_at: SimTime::ZERO,
                ..LoadGenConfig::default()
            };
            sim.add_agent(Box::new(LoadGenHost::new(
                spec.ip,
                spec.mac,
                spec.nic,
                spec.uplink,
                cfg,
            )))
        }
    };
    let topo = build_star(
        &mut sim,
        1 + clients,
        |i| {
            if i == 0 {
                PortConfig::fortygig()
            } else {
                PortConfig::tengig()
            }
        },
        |i| {
            if i == 0 {
                NicConfig::server_40g(1)
            } else {
                NicConfig::client_10g(1)
            }
        },
        &mut factory,
    );
    sim.inject_timer(SimTime::ZERO, topo.hosts[0], tas_timers::INIT, 0);
    // Clients arrive one per step and depart in reverse order.
    for (i, &h) in topo.hosts[1..].iter().enumerate() {
        sim.inject_timer(step * i as u64, h, lg_timers::INIT, 0);
        sim.agent_mut::<LoadGenHost>(h)
            .set_stop_at(total - step * (i as u64 + 1));
    }

    println!("stepped KV load against one TAS server (paper Fig. 14):");
    println!("{:<9} {:>7} {:>12}", "t [ms]", "cores", "kOps/s");
    let sample = SimTime::from_ms(100);
    let mut t = SimTime::ZERO;
    let mut prev_done = 0u64;
    let mut peak_cores = 0usize;
    while t < total {
        t += sample;
        sim.run_until(t);
        let done: u64 = topo.hosts[1..]
            .iter()
            .map(|&c| sim.agent::<LoadGenHost>(c).done)
            .sum();
        let cores = sim.agent::<TasHost>(topo.hosts[0]).active_fp_cores();
        peak_cores = peak_cores.max(cores);
        let kops = (done - prev_done) as f64 / sample.as_secs_f64() / 1e3;
        println!("{:<9} {cores:>7} {kops:>12.1}", t.as_millis());
        prev_done = done;
    }

    let server = sim.agent::<TasHost>(topo.hosts[0]);
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
