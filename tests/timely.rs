//! End-to-end TIMELY: the RTT-gradient policy must keep bulk transfers
//! flowing and keep the bottleneck queue (and therefore RTT) bounded.

mod common;

use common::tas;
use tas::{CcAlgo, TasConfig, TasHost};
use tas_apps::bulk::{BulkReceiver, BulkSender};
use tas_bench::app;
use tas_bench::testbed::{build, Net, Testbed};
use tas_netsim::topo::host_ip;
use tas_netsim::PortConfig;
use tas_sim::SimTime;

#[test]
fn timely_sustains_throughput_and_bounds_rtt() {
    let mut cfg = TasConfig::rpc_bench(2, 2);
    cfg.cc = CcAlgo::Timely;
    cfg.initial_rate_bps = 100_000_000;
    cfg.control_interval = SimTime::from_us(200);
    cfg.rx_buf = 128 * 1024;
    cfg.tx_buf = 128 * 1024;
    cfg.max_core_backlog = SimTime::from_ms(50);
    let blaster = || {
        let mut sender = BulkSender::new(host_ip(0), 9, 8);
        sender.chunk = 4096;
        tas(cfg.clone(), sender)
    };
    let agents = [tas(cfg.clone(), BulkReceiver::new(9)), blaster(), blaster()];
    // No ECN: TIMELY reacts to RTT only.
    let mut port = PortConfig::tengig();
    port.ecn_threshold_pkts = None;
    let Net { mut sim, hosts, .. } = build(Testbed::uniform(3, port, agents));
    sim.run_until(SimTime::from_ms(40));
    let b0 = app::<BulkReceiver>(&sim, hosts[0]).total;
    sim.run_until(SimTime::from_ms(90));
    let b1 = app::<BulkReceiver>(&sim, hosts[0]).total;
    let gbps = (b1 - b0) as f64 * 8.0 / 0.05 / 1e9;
    assert!(
        gbps > 4.0,
        "TIMELY must sustain throughput, got {gbps:.2} Gbps"
    );
    // RTT bounded: t_high is 500us; allow slack for control lag.
    let rtts = sim.agent::<TasHost>(hosts[1]).sample_rtts(8);
    let max_rtt = rtts.iter().copied().max().unwrap_or(0);
    assert!(
        max_rtt < 2_000,
        "TIMELY must bound RTT near t_high: sender RTTs {rtts:?} us"
    );
    // No drop-tail losses: pacing kept the queue under the 512-pkt cap.
    let fr = sim.agent::<TasHost>(hosts[1]).fp_stats().fast_rexmits;
    assert!(
        fr < 50,
        "pacing should mostly avoid drops, got {fr} fast rexmits"
    );
}
