//! Host NIC model: multi-queue receive with RSS, serialized transmit.
//!
//! A NIC injects no faults: the switch port toward a host carries all it
//! receives and the ports toward its peers all it sends, so wire faults
//! live on switch ports (`PortConfig::fault`).

use crate::rss::{hash_tuple, RssTable};
use crate::NetMsg;
use tas_proto::{MacAddr, Segment};
use tas_sim::time::LinkRate;
use tas_sim::{probe, trace, AgentId, Ctx, SimTime};

/// Static configuration of a host NIC and its uplink.
#[derive(Clone, Debug)]
pub struct NicConfig {
    /// Link rate in bits/second (paper server: 40 Gbps; clients: 10 Gbps).
    pub rate_bps: u64,
    /// One-way propagation delay to the first-hop device.
    pub prop_delay: SimTime,
    /// Number of receive queues (= maximum fast-path cores).
    pub rx_queues: usize,
}

impl NicConfig {
    /// A 40 Gbps server NIC with `rx_queues` queues and 1 µs of wire delay.
    pub fn server_40g(rx_queues: usize) -> Self {
        NicConfig {
            rate_bps: 40_000_000_000,
            prop_delay: SimTime::from_us(1),
            rx_queues,
        }
    }

    /// A 10 Gbps client NIC.
    pub fn client_10g(rx_queues: usize) -> Self {
        NicConfig {
            rate_bps: 10_000_000_000,
            prop_delay: SimTime::from_us(1),
            rx_queues,
        }
    }
}

/// A multi-queue NIC owned by a host agent.
///
/// Receive: [`HostNic::rx_steer`] hashes the 4-tuple and consults the RSS
/// redirection table for the queue (= fast-path core) the packet belongs
/// to; the host processes it at once, so the NIC buffers nothing on this
/// side. Transmit: [`HostNic::tx`]
/// serializes packets onto the uplink — departure times respect the link
/// rate, so host-side output queueing emerges when the stack produces
/// faster than the wire drains.
#[derive(Debug)]
pub struct HostNic {
    /// This NIC's MAC address.
    pub mac: MacAddr,
    cfg: NicConfig,
    /// `cfg.rate_bps` as a per-byte multiply.
    link: LinkRate,
    uplink: AgentId,
    rss: RssTable,
    tx_busy_until: SimTime,
}

impl HostNic {
    /// Creates a NIC attached to the agent `uplink` (its first-hop switch
    /// or peer host).
    pub fn new(mac: MacAddr, cfg: NicConfig, uplink: AgentId) -> Self {
        let rss = RssTable::new(cfg.rx_queues);
        HostNic {
            mac,
            link: LinkRate::new(cfg.rate_bps),
            cfg,
            uplink,
            rss,
            tx_busy_until: SimTime::ZERO,
        }
    }

    /// Read access to the RSS redirection table.
    pub fn rss(&self) -> &RssTable {
        &self.rss
    }

    /// Mutable access to the redirection table (TAS's proportionality
    /// controller rewrites it on core add/remove).
    pub fn rss_mut(&mut self) -> &mut RssTable {
        &mut self.rss
    }

    /// The receive queue RSS steers an arriving packet to.
    pub fn rx_steer(&self, seg: &Segment) -> usize {
        self.rss.queue_for_hash(hash_tuple(
            seg.ip.src,
            seg.ip.dst,
            seg.tcp.src_port,
            seg.tcp.dst_port,
        ))
    }

    /// Transmits a packet onto the uplink no earlier than `ready` (when the
    /// producing core finished building it). Returns the departure time.
    pub fn tx(&mut self, ready: SimTime, seg: Segment, ctx: &mut Ctx<'_, NetMsg>) -> SimTime {
        let start = ready.max(self.tx_busy_until);
        let depart = start + self.link.tx_time(seg.wire_len() as u64);
        self.tx_busy_until = depart;
        let arrival = depart + self.cfg.prop_delay;
        // Span stamp at serialization completion: even a packet a switch
        // port then corrupts did occupy the TX queue and the link.
        probe! {
            if !seg.payload.is_empty() {
                trace!(
                    "nic",
                    depart,
                    Stage {
                        stage: tas_telemetry::Stage::NicTx,
                        flow: seg.flow_key().reversed(),
                        seq: seg.tcp.seq,
                        len: seg.payload.len() as u32,
                        wait_ns: start.saturating_sub(ready).as_nanos(),
                    }
                );
            }
        }
        // Site `"nic"` is the flight recorder's capture of what the host
        // sent: pre-fault, since faults strike later, at switch ports.
        trace!("nic", arrival, SegTx(seg));
        ctx.send_at(self.uplink, arrival, NetMsg::Packet(seg));
        depart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tas_proto::{TcpFlags, TcpHeader};
    use tas_sim::{impl_as_any, Agent, Event, Sim};

    fn seg(sport: u16) -> Segment {
        Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TcpHeader::new(sport, 80, 0, 0, TcpFlags::ACK),
            vec![0; 64],
            true,
        )
    }

    #[test]
    fn rss_steers_flows_stably() {
        let nic = HostNic::new(MacAddr::for_host(2), NicConfig::server_40g(4), 0);
        let q1 = nic.rx_steer(&seg(1000));
        let q2 = nic.rx_steer(&seg(1000));
        assert_eq!(q1, q2, "same flow must hit the same queue");
        // Many flows spread across queues.
        let mut used = std::collections::BTreeSet::new();
        for p in 0..64 {
            used.insert(nic.rx_steer(&seg(2000 + p)));
        }
        assert!(used.len() >= 3, "flows should spread: {used:?}");
    }

    /// A sink agent recording packet arrival times.
    struct Sink {
        arrivals: Vec<SimTime>,
    }
    impl Agent<NetMsg> for Sink {
        fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut tas_sim::Ctx<'_, NetMsg>) {
            if let Event::Msg {
                msg: NetMsg::Packet(_),
                ..
            } = ev
            {
                self.arrivals.push(ctx.now());
            }
        }
        impl_as_any!();
    }

    /// A driver agent that transmits two packets back-to-back at t=0.
    struct Driver {
        nic: HostNic,
    }
    impl Agent<NetMsg> for Driver {
        fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut tas_sim::Ctx<'_, NetMsg>) {
            if let Event::Timer { .. } = ev {
                self.nic.tx(ctx.now(), seg(7), ctx);
                self.nic.tx(ctx.now(), seg(7), ctx);
            }
        }
        impl_as_any!();
    }

    #[test]
    fn tx_serializes_on_link_rate() {
        let mut sim: Sim<NetMsg> = Sim::new(1);
        let sink = sim.add_agent(Box::new(Sink {
            arrivals: Vec::new(),
        }));
        // 10 Gbps, 1us propagation; wire len = 14+20+20+64 = 118B -> 94.4ns.
        let cfg = NicConfig {
            rate_bps: 10_000_000_000,
            prop_delay: SimTime::from_us(1),
            rx_queues: 1,
        };
        let nic = HostNic::new(MacAddr::for_host(1), cfg, sink);
        let driver = sim.add_agent(Box::new(Driver { nic }));
        sim.inject_timer(SimTime::ZERO, driver, 0, 0);
        sim.run_until(SimTime::from_ms(1));
        let arr = &sim.agent::<Sink>(sink).arrivals;
        assert_eq!(arr.len(), 2);
        let wire = SimTime::from_ps(94_400);
        assert_eq!(arr[0], SimTime::from_us(1) + wire);
        assert_eq!(
            arr[1],
            SimTime::from_us(1) + wire * 2,
            "second packet queues behind first"
        );
    }
}
