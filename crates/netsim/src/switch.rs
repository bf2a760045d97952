//! Output-queued switch with drop-tail queues and DCTCP ECN marking.

use crate::fault::{FaultInjector, FaultSpec};
use crate::rss::hash_tuple;
use crate::NetMsg;
use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;
use tas_proto::{Ecn, Segment};
use tas_sim::time::LinkRate;
use tas_sim::{impl_as_any, probe, trace, Agent, AgentId, Ctx, Event, SimTime, TimeSeries};

/// Static configuration of one switch output port.
#[derive(Clone, Copy, Debug)]
pub struct PortConfig {
    /// Link rate in bits/second.
    pub rate_bps: u64,
    /// One-way propagation delay to the attached device.
    pub prop_delay: SimTime,
    /// Drop-tail queue capacity in packets.
    pub queue_cap_pkts: usize,
    /// ECN marking threshold in packets (the paper's testbed switch marks
    /// at 65); `None` disables marking.
    pub ecn_threshold_pkts: Option<usize>,
    /// Fault schedule for this port's outgoing (switch → device) link.
    /// Induced-loss experiments use `FaultSpec::uniform_loss(p, seed)`.
    pub fault: FaultSpec,
}

impl PortConfig {
    /// A 10 Gbps port with the paper's ECN threshold and a deep queue.
    pub fn tengig() -> PortConfig {
        PortConfig {
            rate_bps: 10_000_000_000,
            prop_delay: SimTime::from_us(1),
            queue_cap_pkts: 512,
            ecn_threshold_pkts: Some(65),
            fault: FaultSpec::none(),
        }
    }

    /// A 40 Gbps port with the paper's ECN threshold and a deep queue.
    pub fn fortygig() -> PortConfig {
        PortConfig {
            rate_bps: 40_000_000_000,
            ..PortConfig::tengig()
        }
    }
}

#[derive(Debug)]
struct Port {
    cfg: PortConfig,
    /// `cfg.rate_bps` as a per-byte multiply.
    link: LinkRate,
    peer: AgentId,
    busy_until: SimTime,
    /// Departure times of packets currently queued or in serialization;
    /// cleaned lazily. Length = instantaneous queue depth.
    departures: VecDeque<SimTime>,
    /// Wire-fault injector for the outgoing link (inert unless configured).
    fault: FaultInjector,
    /// Packets dropped at a full queue.
    pub drops: u64,
    /// Packets CE-marked.
    pub marked: u64,
}

impl Port {
    fn cleanup(&mut self, now: SimTime) {
        while matches!(self.departures.front(), Some(&d) if d <= now) {
            self.departures.pop_front();
        }
    }

    fn depth(&mut self, now: SimTime) -> usize {
        self.cleanup(now);
        self.departures.len()
    }
}

/// Timer kind used for queue-length sampling.
pub const TIMER_SAMPLE_QUEUE: u32 = 0;

/// An output-queued switch.
///
/// Routes by destination IP through a route table mapping to one or more
/// equal-cost output ports; multi-path selection hashes the 4-tuple, so a
/// connection always takes one path (the in-order-delivery property TAS's
/// fast path relies on, §3.1).
pub struct Switch {
    label: String,
    ports: Vec<Port>,
    /// Route table keyed by destination address bits
    /// (`Ipv4Addr::to_bits`, one integer compare per probe step): point
    /// lookups on forwarding; BTreeMap so any future iteration (debug
    /// dumps, route listings) is deterministic, in address order.
    routes: BTreeMap<u32, Vec<usize>>,
    default_route: Vec<usize>,
    /// Packets with no route (dropped, counted).
    pub unroutable: u64,
    monitor_port: Option<usize>,
    monitor_interval: SimTime,
    /// Queue-depth time series on the monitored port.
    qlen_series: TimeSeries,
    /// What a port's fault injector releases for one packet; drained
    /// before `forward` returns and kept for its capacity.
    fault_out: Vec<(SimTime, Segment)>,
}

impl Switch {
    /// Creates an empty switch (ports and routes added during wiring).
    pub fn new(label: impl Into<String>) -> Self {
        Switch {
            label: label.into(),
            ports: Vec::new(),
            routes: BTreeMap::new(),
            default_route: Vec::new(),
            unroutable: 0,
            monitor_port: None,
            monitor_interval: SimTime::from_us(10),
            qlen_series: TimeSeries::new(),
            fault_out: Vec::new(),
        }
    }

    /// The switch's label (for experiment output).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Adds an output port towards `peer`; returns the port index. The
    /// injector's default stream is derived from the peer and port index
    /// so no two ports share a fault schedule.
    pub fn add_port(&mut self, peer: AgentId, cfg: PortConfig) -> usize {
        let spec = cfg.fault;
        let dev = (peer as u64) << 16 | self.ports.len() as u64;
        self.ports.push(Port {
            link: LinkRate::new(cfg.rate_bps),
            cfg,
            peer,
            busy_until: SimTime::ZERO,
            departures: VecDeque::new(),
            fault: FaultInjector::new(spec, dev),
            drops: 0,
            marked: 0,
        });
        self.ports.len() - 1
    }

    /// Deterministic ordered dump of a port injector's metrics.
    pub fn port_fault_snapshot(&self, port: usize) -> tas_sim::Snapshot {
        self.ports[port].fault.snapshot()
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Routes `dst` via the given equal-cost ports.
    ///
    /// # Panics
    ///
    /// Panics if `ports` is empty or references an unknown port.
    pub fn set_route(&mut self, dst: Ipv4Addr, ports: Vec<usize>) {
        assert!(!ports.is_empty(), "route needs at least one port");
        assert!(
            ports.iter().all(|&p| p < self.ports.len()),
            "route references unknown port"
        );
        self.routes.insert(dst.to_bits(), ports);
    }

    /// Sets the equal-cost ports used when no per-destination route matches
    /// (the "up" direction in multi-rooted trees).
    pub fn set_default_route(&mut self, ports: Vec<usize>) {
        assert!(
            ports.iter().all(|&p| p < self.ports.len()),
            "route references unknown port"
        );
        self.default_route = ports;
    }

    /// Begins periodic queue-depth sampling on `port` (for Fig. 11b). The
    /// harness must also inject a [`TIMER_SAMPLE_QUEUE`] timer to start the
    /// sampling loop.
    ///
    /// # Panics
    ///
    /// Panics if `port` is unknown or `interval` is zero (the sampling
    /// timer would re-arm at the same instant forever).
    pub fn monitor_port(&mut self, port: usize, interval: SimTime) {
        assert!(port < self.ports.len(), "monitor references unknown port");
        assert!(
            interval > SimTime::ZERO,
            "sampling interval must be positive"
        );
        self.monitor_port = Some(port);
        self.monitor_interval = interval;
    }

    /// Mean sampled queue depth on the monitored port, in packets (the
    /// mean of [`Switch::queue_depth_series`]).
    pub fn mean_queue_depth(&self) -> f64 {
        self.qlen_series.mean_between(SimTime::ZERO, SimTime::MAX)
    }

    /// The monitored port's sampled queue-depth time series (fixed
    /// cadence set by [`Switch::monitor_port`]).
    pub fn queue_depth_series(&self) -> &TimeSeries {
        &self.qlen_series
    }

    /// Total drop-tail drops across ports.
    pub fn total_drops(&self) -> u64 {
        self.ports.iter().map(|p| p.drops).sum()
    }

    /// Total CE marks across ports.
    pub fn total_marked(&self) -> u64 {
        self.ports.iter().map(|p| p.marked).sum()
    }

    fn forward(&mut self, now: SimTime, mut seg: Segment, ctx: &mut Ctx<'_, NetMsg>) {
        let ports = match self.routes.get(&seg.ip.dst.to_bits()) {
            Some(p) => p,
            None if !self.default_route.is_empty() => &self.default_route,
            None => {
                self.unroutable += 1;
                return;
            }
        };
        let choice = if ports.len() == 1 {
            ports[0]
        } else {
            // ECMP: connection-stable path choice by flow hash.
            let h = hash_tuple(seg.ip.src, seg.ip.dst, seg.tcp.src_port, seg.tcp.dst_port);
            ports[h as usize % ports.len()]
        };
        let port = &mut self.ports[choice];
        let depth = port.depth(now);
        if depth >= port.cfg.queue_cap_pkts {
            port.drops += 1;
            return;
        }
        if let Some(k) = port.cfg.ecn_threshold_pkts {
            // DCTCP-style: mark on instantaneous depth at enqueue.
            if depth >= k && seg.ip.ecn.is_capable() {
                seg.ip.ecn = Ecn::Ce;
                port.marked += 1;
                trace!(
                    "switch",
                    now,
                    EcnMark {
                        flow: seg.flow_key(),
                        seq: seg.tcp.seq
                    }
                );
            }
        }
        let start = now.max(port.busy_until);
        let depart = start + port.link.tx_time(seg.wire_len() as u64);
        port.busy_until = depart;
        port.departures.push_back(depart);
        let arrival = depart + port.cfg.prop_delay;
        probe! {
            if !seg.payload.is_empty() {
                trace!(
                    "switch",
                    depart,
                    Stage {
                        stage: tas_telemetry::Stage::SwitchFwd,
                        flow: seg.flow_key().reversed(),
                        seq: seg.tcp.seq,
                        len: seg.payload.len() as u32,
                        wait_ns: start.saturating_sub(now).as_nanos(),
                    }
                );
            }
        }
        if port.fault.is_active() {
            // Wire faults strike after serialization: a dropped packet
            // still occupied the queue and the wire.
            port.fault.apply(arrival, seg, &mut self.fault_out);
            for (t, s) in self.fault_out.drain(..) {
                ctx.send_at(port.peer, t, NetMsg::Packet(s));
            }
        } else {
            ctx.send_at(port.peer, arrival, NetMsg::Packet(seg));
        }
    }
}

impl Agent<NetMsg> for Switch {
    fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
        match ev {
            Event::Msg {
                msg: NetMsg::Packet(seg),
                ..
            } => self.forward(ctx.now(), seg, ctx),
            Event::Timer {
                kind: TIMER_SAMPLE_QUEUE,
                ..
            } => {
                if let Some(p) = self.monitor_port {
                    let now = ctx.now();
                    let d = self.ports[p].depth(now);
                    self.qlen_series.push(now, d as f64);
                    ctx.timer(self.monitor_interval, TIMER_SAMPLE_QUEUE, 0);
                }
            }
            _ => {}
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use tas_proto::{MacAddr, TcpFlags, TcpHeader};
    use tas_sim::Sim;

    fn seg(dst: Ipv4Addr, sport: u16, payload: usize, ecn: bool) -> Segment {
        Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            dst,
            TcpHeader::new(sport, 80, 0, 0, TcpFlags::ACK),
            vec![0; payload],
            ecn,
        )
    }

    struct Sink {
        pkts: Vec<(SimTime, Segment)>,
    }
    impl Agent<NetMsg> for Sink {
        fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
            if let Event::Msg {
                msg: NetMsg::Packet(s),
                ..
            } = ev
            {
                self.pkts.push((ctx.now(), s));
            }
        }
        impl_as_any!();
    }

    fn setup(port_cfg: PortConfig) -> (Sim<NetMsg>, AgentId, AgentId) {
        let mut sim: Sim<NetMsg> = Sim::new(1);
        let sink = sim.add_agent(Box::new(Sink { pkts: Vec::new() }));
        let mut sw = Switch::new("tor");
        let p = sw.add_port(sink, port_cfg);
        sw.set_route(Ipv4Addr::new(10, 0, 0, 2), vec![p]);
        let sw_id = sim.add_agent(Box::new(sw));
        (sim, sw_id, sink)
    }

    #[test]
    fn forwards_by_route_and_charges_serialization() {
        let (mut sim, sw, sink) = setup(PortConfig::tengig());
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        sim.inject_msg(SimTime::ZERO, sw, NetMsg::Packet(seg(dst, 5, 1000, true)));
        sim.run_until(SimTime::from_ms(1));
        let pkts = &sim.agent::<Sink>(sink).pkts;
        assert_eq!(pkts.len(), 1);
        // 1054 wire bytes at 10G = 843.2ns, + 1us prop.
        let want = SimTime::from_ps(843_200) + SimTime::from_us(1);
        assert_eq!(pkts[0].0, want);
    }

    #[test]
    fn unroutable_counted_and_dropped() {
        let (mut sim, sw, sink) = setup(PortConfig::tengig());
        sim.inject_msg(
            SimTime::ZERO,
            sw,
            NetMsg::Packet(seg(Ipv4Addr::new(9, 9, 9, 9), 5, 10, true)),
        );
        sim.run_until(SimTime::from_ms(1));
        assert!(sim.agent::<Sink>(sink).pkts.is_empty());
        assert_eq!(sim.agent::<Switch>(sw).unroutable, 1);
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut cfg = PortConfig::tengig();
        cfg.queue_cap_pkts = 4;
        cfg.ecn_threshold_pkts = None;
        let (mut sim, sw, sink) = setup(cfg);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        // Burst of 10 back-to-back packets; only 4 fit.
        for _ in 0..10 {
            sim.inject_msg(SimTime::ZERO, sw, NetMsg::Packet(seg(dst, 5, 1400, true)));
        }
        sim.run_until(SimTime::from_ms(10));
        assert_eq!(sim.agent::<Sink>(sink).pkts.len(), 4);
        assert_eq!(sim.agent::<Switch>(sw).total_drops(), 6);
    }

    #[test]
    fn ecn_marks_above_threshold_only_capable_packets() {
        let mut cfg = PortConfig::tengig();
        cfg.ecn_threshold_pkts = Some(2);
        cfg.queue_cap_pkts = 100;
        let (mut sim, sw, sink) = setup(cfg);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        for i in 0..6 {
            // Alternate ECN-capable and not.
            sim.inject_msg(
                SimTime::ZERO,
                sw,
                NetMsg::Packet(seg(dst, 5, 1400, i % 2 == 0)),
            );
        }
        sim.run_until(SimTime::from_ms(10));
        let pkts = &sim.agent::<Sink>(sink).pkts;
        assert_eq!(pkts.len(), 6);
        // First two enqueue below depth 2: unmarked. Beyond: capable ones marked.
        let marked: Vec<bool> = pkts.iter().map(|(_, s)| s.is_ce_marked()).collect();
        assert!(!marked[0] && !marked[1]);
        // Packets 2 and 4 were capable (i=2,4) -> marked; 3,5 (odd) not.
        assert!(marked[2] && marked[4]);
        assert!(!marked[3] && !marked[5]);
        assert_eq!(sim.agent::<Switch>(sw).total_marked(), 2);
    }

    #[test]
    fn ecmp_is_flow_stable_and_spreads() {
        let mut sim: Sim<NetMsg> = Sim::new(1);
        let sink_a = sim.add_agent(Box::new(Sink { pkts: Vec::new() }));
        let sink_b = sim.add_agent(Box::new(Sink { pkts: Vec::new() }));
        let mut sw = Switch::new("agg");
        let pa = sw.add_port(sink_a, PortConfig::tengig());
        let pb = sw.add_port(sink_b, PortConfig::tengig());
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        sw.set_route(dst, vec![pa, pb]);
        let sw_id = sim.add_agent(Box::new(sw));
        // 2 packets each for 100 flows.
        for sport in 0..100u16 {
            for _ in 0..2 {
                sim.inject_msg(
                    SimTime::ZERO,
                    sw_id,
                    NetMsg::Packet(seg(dst, sport, 10, true)),
                );
            }
        }
        sim.run_until(SimTime::from_ms(10));
        let a = sim.agent::<Sink>(sink_a).pkts.len();
        let b = sim.agent::<Sink>(sink_b).pkts.len();
        assert_eq!(a + b, 200);
        assert!(a > 40 && b > 40, "both paths used: {a}/{b}");
        // Flow-stability: each flow's two packets landed on the same sink.
        for (label, sink) in [("a", sink_a), ("b", sink_b)] {
            let mut counts = std::collections::BTreeMap::new();
            for (_, s) in &sim.agent::<Sink>(sink).pkts {
                *counts.entry(s.tcp.src_port).or_insert(0) += 1;
            }
            for (port, n) in counts {
                assert_eq!(n, 2, "flow {port} split across paths (sink {label})");
            }
        }
    }

    #[test]
    fn queue_sampling_records_depth() {
        let mut cfg = PortConfig::tengig();
        cfg.queue_cap_pkts = 1000;
        let (mut sim, sw, _sink) = setup(cfg);
        sim.agent_mut::<Switch>(sw)
            .monitor_port(0, SimTime::from_us(1));
        sim.inject_timer(SimTime::ZERO, sw, TIMER_SAMPLE_QUEUE, 0);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        for _ in 0..100 {
            sim.inject_msg(SimTime::ZERO, sw, NetMsg::Packet(seg(dst, 5, 1400, true)));
        }
        sim.run_until(SimTime::from_us(50));
        let sw = sim.agent::<Switch>(sw);
        let mean = sw.mean_queue_depth();
        assert!(mean > 1.0, "sampled backlog should be visible, got {mean}");
        let whole = sw
            .queue_depth_series()
            .mean_between(SimTime::ZERO, SimTime::MAX);
        assert_eq!(mean.to_bits(), whole.to_bits());
    }

    #[test]
    #[should_panic(expected = "sampling interval must be positive")]
    fn monitor_port_rejects_zero_interval() {
        let (mut sim, sw, _sink) = setup(PortConfig::tengig());
        sim.agent_mut::<Switch>(sw).monitor_port(0, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "monitor references unknown port")]
    fn monitor_port_rejects_unknown_port() {
        let (mut sim, sw, _sink) = setup(PortConfig::tengig());
        sim.agent_mut::<Switch>(sw)
            .monitor_port(1, SimTime::from_us(1));
    }
}
