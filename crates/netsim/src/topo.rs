//! Topology builders: star and k-ary FatTree.
//!
//! Builders create and wire [`Switch`] agents, compute routes, and call a
//! host-factory closure for every host slot — hosts themselves are agents
//! defined by the stack crates (`tas`, `tas-baselines`), so the builders
//! stay stack-agnostic.

use crate::nic::NicConfig;
use crate::switch::{PortConfig, Switch};
use crate::NetMsg;
use std::net::Ipv4Addr;
use tas_proto::{Ipv4Header, MacAddr};
use tas_sim::{AgentId, Sim, SimTime};

/// Everything a host factory needs to construct one host agent.
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Host index within the topology (0-based).
    pub index: u32,
    /// The host's IP address.
    pub ip: Ipv4Addr,
    /// The host's MAC address.
    pub mac: MacAddr,
    /// Agent id of the first-hop device.
    pub uplink: AgentId,
    /// NIC configuration for the host's uplink.
    pub nic: NicConfig,
    /// Tenant identity (0 = untagged). The builders here always leave it
    /// 0: a host carries its tenant in its `HostedApp`, tagged with
    /// `set_tenant` after it is built.
    pub tenant: u32,
}

/// A host factory: builds a host agent for a [`HostSpec`].
pub type HostFactory<'a> = dyn FnMut(&mut Sim<NetMsg>, HostSpec) -> AgentId + 'a;

/// Deterministic IP for topology host `index`.
pub fn host_ip(index: u32) -> Ipv4Addr {
    Ipv4Header::host_addr(index + 1)
}

/// Deterministic MAC for topology host `index`.
pub fn host_mac(index: u32) -> MacAddr {
    MacAddr::for_host(index + 1)
}

/// The MAC of the simulated host at `ip` — the inverse of [`host_ip`] /
/// [`host_mac`], and every stack's "ARP table": addressing in the
/// simulator is 1:1.
pub fn mac_for_ip(ip: Ipv4Addr) -> MacAddr {
    let o = ip.octets();
    MacAddr::for_host(u32::from_be_bytes([0, o[1], o[2], o[3]]))
}

/// A single-switch (star) topology: every host hangs off one switch.
#[derive(Debug)]
pub struct StarTopo {
    /// The switch agent.
    pub switch: AgentId,
    /// Host agents in index order (host `i`'s IP is [`host_ip`]`(i)`).
    pub hosts: Vec<AgentId>,
}

/// Builds a star of `n` hosts. `port_cfg_for(i)` gives the switch port
/// configuration toward host `i` (the paper's testbed has 10G client ports
/// and a 40G server port on one switch), `nic_for(i)` the host NIC.
pub fn build_star(
    sim: &mut Sim<NetMsg>,
    n: usize,
    mut port_cfg_for: impl FnMut(u32) -> PortConfig,
    mut nic_for: impl FnMut(u32) -> NicConfig,
    make_host: &mut HostFactory<'_>,
) -> StarTopo {
    let switch = sim.add_agent(Box::new(Switch::new("star")));
    let mut hosts = Vec::with_capacity(n);
    for i in 0..n as u32 {
        let ip = host_ip(i);
        let spec = HostSpec {
            index: i,
            ip,
            mac: host_mac(i),
            uplink: switch,
            nic: nic_for(i),
            tenant: 0,
        };
        let host = make_host(sim, spec);
        let sw = sim.agent_mut::<Switch>(switch);
        let port = sw.add_port(host, port_cfg_for(i));
        sw.set_route(ip, vec![port]);
        hosts.push(host);
    }
    StarTopo { switch, hosts }
}

/// FatTree host and edge ↔ aggregation link rate (10G).
const FATTREE_RATE: u64 = 10_000_000_000;
/// Aggregation ↔ core link rate: the paper's 1:4 oversubscribed core.
const FATTREE_CORE_RATE: u64 = FATTREE_RATE / 4;
/// Per-hop propagation delay inside a FatTree.
const FATTREE_PROP_DELAY: SimTime = SimTime::from_us(2);
/// Queue capacity of every FatTree switch port, in packets.
const FATTREE_QUEUE_PKTS: usize = 256;

/// A k-ary FatTree.
#[derive(Debug)]
pub struct FatTreeTopo {
    /// Host agents, grouped by pod then edge switch.
    pub hosts: Vec<AgentId>,
    /// Host IPs in the same order.
    pub ips: Vec<Ipv4Addr>,
    /// Edge switches (k/2 per pod).
    pub edges: Vec<AgentId>,
    /// Aggregation switches (k/2 per pod).
    pub aggs: Vec<AgentId>,
    /// Core switches ((k/2)² total).
    pub cores: Vec<AgentId>,
}

/// Builds a k-ary FatTree (hosts = k³/4; `k` even and ≥ 2) with 10G
/// host and edge links, a 1:4 oversubscribed core, and standard
/// two-level ECMP routing: edge → all aggs (up-default), agg → all cores
/// (up-default), and exact down-routes for every host IP.
pub fn build_fattree(
    sim: &mut Sim<NetMsg>,
    k: usize,
    make_host: &mut HostFactory<'_>,
) -> FatTreeTopo {
    assert!(k >= 2 && k.is_multiple_of(2), "k must be even and >= 2");
    let half = k / 2;
    let n_hosts = k * k * k / 4;
    let port = |rate: u64| PortConfig {
        rate_bps: rate,
        prop_delay: FATTREE_PROP_DELAY,
        queue_cap_pkts: FATTREE_QUEUE_PKTS,
        ..PortConfig::tengig()
    };

    // Create switch agents first so hosts can reference their edge uplink.
    let mut edges = Vec::with_capacity(k * half);
    let mut aggs = Vec::with_capacity(k * half);
    for pod in 0..k {
        for i in 0..half {
            edges.push(sim.add_agent(Box::new(Switch::new(format!("edge{pod}.{i}")))));
        }
        for i in 0..half {
            aggs.push(sim.add_agent(Box::new(Switch::new(format!("agg{pod}.{i}")))));
        }
    }
    let cores: Vec<AgentId> = (0..half * half)
        .map(|i| sim.add_agent(Box::new(Switch::new(format!("core{i}")))))
        .collect();

    // Hosts + edge down-ports.
    let mut hosts = Vec::with_capacity(n_hosts);
    let mut ips = Vec::with_capacity(n_hosts);
    for idx in 0..n_hosts as u32 {
        let pod = idx as usize / (half * half);
        let edge_in_pod = (idx as usize / half) % half;
        let edge = edges[pod * half + edge_in_pod];
        let ip = host_ip(idx);
        let spec = HostSpec {
            index: idx,
            ip,
            mac: host_mac(idx),
            uplink: edge,
            nic: NicConfig {
                rate_bps: FATTREE_RATE,
                prop_delay: FATTREE_PROP_DELAY,
                rx_queues: 1,
            },
            tenant: 0,
        };
        let host = make_host(sim, spec);
        let sw = sim.agent_mut::<Switch>(edge);
        let p = sw.add_port(host, port(FATTREE_RATE));
        sw.set_route(ip, vec![p]);
        hosts.push(host);
        ips.push(ip);
    }

    // Edge ↔ agg wiring within each pod (full bipartite).
    for pod in 0..k {
        for e in 0..half {
            let edge = edges[pod * half + e];
            let mut up = Vec::new();
            for a in 0..half {
                let agg = aggs[pod * half + a];
                let pe = sim
                    .agent_mut::<Switch>(edge)
                    .add_port(agg, port(FATTREE_RATE));
                up.push(pe);
                let pa = sim
                    .agent_mut::<Switch>(agg)
                    .add_port(edge, port(FATTREE_RATE));
                // Agg's down-routes: all hosts under this edge.
                for h in 0..half {
                    let idx = pod * half * half + e * half + h;
                    sim.agent_mut::<Switch>(agg).set_route(ips[idx], vec![pa]);
                }
            }
            sim.agent_mut::<Switch>(edge).set_default_route(up);
        }
    }

    // Agg ↔ core wiring: agg `a` of each pod connects to cores
    // a*half..(a+1)*half.
    for pod in 0..k {
        for a in 0..half {
            let agg = aggs[pod * half + a];
            let mut up = Vec::new();
            for c in 0..half {
                let core = cores[a * half + c];
                let pa = sim
                    .agent_mut::<Switch>(agg)
                    .add_port(core, port(FATTREE_CORE_RATE));
                up.push(pa);
                let pc = sim
                    .agent_mut::<Switch>(core)
                    .add_port(agg, port(FATTREE_CORE_RATE));
                // Core's down-routes: every host in this pod via this agg.
                for ip in &ips[pod * half * half..(pod + 1) * half * half] {
                    sim.agent_mut::<Switch>(core).set_route(*ip, vec![pc]);
                }
            }
            sim.agent_mut::<Switch>(agg).set_default_route(up);
        }
    }

    FatTreeTopo {
        hosts,
        ips,
        edges,
        aggs,
        cores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tas_sim::{impl_as_any, Agent, Ctx, Event, SimTime};

    /// Minimal host: replies to any packet by bouncing it back to the
    /// sender through its NIC, and records arrivals.
    struct EchoHost {
        nic: crate::HostNic,
        ip: Ipv4Addr,
        got: Vec<tas_proto::Segment>,
    }
    impl Agent<NetMsg> for EchoHost {
        fn on_event(&mut self, ev: Event<NetMsg>, ctx: &mut Ctx<'_, NetMsg>) {
            if let Event::Msg {
                msg: NetMsg::Packet(seg),
                ..
            } = ev
            {
                if seg.ip.dst == self.ip && seg.payload == b"ping" {
                    let mut reply = seg.clone();
                    std::mem::swap(&mut reply.ip.src, &mut reply.ip.dst);
                    std::mem::swap(&mut reply.tcp.src_port, &mut reply.tcp.dst_port);
                    std::mem::swap(&mut reply.eth.src, &mut reply.eth.dst);
                    reply.payload = b"pong".into();
                    self.nic.tx(ctx.now(), reply, ctx);
                }
                self.got.push(seg);
            }
        }
        impl_as_any!();
    }

    fn echo_factory() -> impl FnMut(&mut Sim<NetMsg>, HostSpec) -> AgentId {
        |sim: &mut Sim<NetMsg>, spec: HostSpec| {
            let nic = crate::HostNic::new(spec.mac, spec.nic.clone(), spec.uplink);
            sim.add_agent(Box::new(EchoHost {
                nic,
                ip: spec.ip,
                got: Vec::new(),
            }))
        }
    }

    fn ping(from_ip: Ipv4Addr, to_ip: Ipv4Addr, sport: u16) -> tas_proto::Segment {
        tas_proto::Segment::tcp(
            MacAddr::for_host(0),
            MacAddr::for_host(0),
            from_ip,
            to_ip,
            tas_proto::TcpHeader::new(sport, 7, 0, 0, tas_proto::TcpFlags::ACK),
            b"ping".to_vec(),
            true,
        )
    }

    #[test]
    fn star_round_trip() {
        let mut sim: Sim<NetMsg> = Sim::new(1);
        let mut f = echo_factory();
        let topo = build_star(
            &mut sim,
            4,
            |_| PortConfig::tengig(),
            |_| NicConfig::client_10g(1),
            &mut f,
        );
        // Host 0 pings host 3 "from the wire": inject at host 0's NIC agent
        // by sending from host 0 through the switch.
        let seg = ping(host_ip(0), host_ip(3), 999);
        sim.inject_msg(SimTime::ZERO, topo.switch, NetMsg::Packet(seg));
        sim.run_until(SimTime::from_ms(2));
        // Host 3 got the ping, host 0 got the pong.
        assert_eq!(sim.agent::<EchoHost>(topo.hosts[3]).got.len(), 1);
        let h0 = sim.agent::<EchoHost>(topo.hosts[0]);
        assert_eq!(h0.got.len(), 1);
        assert_eq!(h0.got[0].payload, b"pong");
    }

    #[test]
    fn fattree_k4_all_pairs_reachable() {
        let mut sim: Sim<NetMsg> = Sim::new(3);
        let mut f = echo_factory();
        let topo = build_fattree(&mut sim, 4, &mut f);
        assert_eq!(topo.hosts.len(), 16);
        assert_eq!(topo.edges.len(), 8);
        assert_eq!(topo.aggs.len(), 8);
        assert_eq!(topo.cores.len(), 4);
        // Every host pings host (i + 5) % 16 — mix of intra-pod and
        // inter-pod paths.
        for i in 0..16u32 {
            let j = (i + 5) % 16;
            let seg = ping(topo.ips[i as usize], topo.ips[j as usize], 1000 + i as u16);
            let edge = topo.edges[i as usize / 2 / 2 * 2 + (i as usize / 2) % 2];
            sim.inject_msg(SimTime::ZERO, edge, NetMsg::Packet(seg));
        }
        sim.run_until(SimTime::from_ms(5));
        for i in 0..16usize {
            let h = sim.agent::<EchoHost>(topo.hosts[i]);
            let pings = h.got.iter().filter(|s| s.payload == b"ping").count();
            let pongs = h.got.iter().filter(|s| s.payload == b"pong").count();
            assert_eq!(pings, 1, "host {i} should receive exactly one ping");
            assert_eq!(pongs, 1, "host {i} should receive exactly one pong");
        }
        // No switch dropped for lack of a route.
        for sw in topo.edges.iter().chain(&topo.aggs).chain(&topo.cores) {
            assert_eq!(sim.agent::<Switch>(*sw).unroutable, 0);
        }
    }

    #[test]
    fn fattree_k8_scaled_sizes_match_design() {
        let mut sim: Sim<NetMsg> = Sim::new(4);
        let mut f = echo_factory();
        let topo = build_fattree(&mut sim, 8, &mut f);
        assert_eq!(topo.hosts.len(), 128);
        assert_eq!(topo.edges.len() + topo.aggs.len() + topo.cores.len(), 80);
    }
}
