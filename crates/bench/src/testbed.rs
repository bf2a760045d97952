//! One testbed builder.
//!
//! The paper's evaluation (§5) runs every experiment on one testbed
//! shape: machines behind one switch, or a FatTree for the
//! congestion-control runs. A [`Testbed`] describes that shape as data —
//! a seed, a [`Fabric`] and one [`Node`] per machine — and [`build`] is
//! the one place that turns a description into a simulation: it creates
//! the switches, places one agent per node, tags stack hosts with their
//! tenant and injects every node's INIT timer at its start.
//!
//! Agent ids follow from the description: on a star the switch is agent
//! 0 and node `i` is agent `i + 1`; on a FatTree every switch comes
//! first and the hosts follow in the tree's host order.
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use crate::{host_mut, Kind};
use tas::{ApiKind, CcAlgo, TasConfig, TasHost};
use tas_apps::adversary::{AdversaryConfig, AdversaryHost};
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_baselines::{profiles, StackHost, StackHostConfig, StackProfile};
use tas_netsim::app::App;
use tas_netsim::topo::{build_fattree, build_star, HostSpec};
use tas_netsim::{NetMsg, NicConfig, PortConfig, Switch};
use tas_sim::{AgentId, Sim, SimTime};

/// A fully configured stack, ready to be placed on a node.
#[derive(Clone, Debug)]
pub enum HostCfg {
    /// A TAS host.
    Tas(TasConfig),
    /// One of the baseline stack models.
    Model(Box<StackProfile>, StackHostConfig),
}

impl HostCfg {
    /// The stack `kind` as every experiment runs it, with `buf` receive
    /// and `buf` transmit bytes per connection. Cells edit the returned value for what they vary.
    ///
    /// `cores` means: for TAS kinds `(fast-path cores, app cores)`; for
    /// the baselines `cores.0 + cores.1` is the total core count (mTCP
    /// reserves a third of them, at least one, for its stack threads; PnO
    /// puts `cores.0` on the NIC).
    pub fn new(kind: Kind, cores: (usize, usize), buf: usize) -> HostCfg {
        let total = cores.0 + cores.1;
        let (profile, mut cfg) = match kind {
            Kind::TasSockets | Kind::TasLowLevel => {
                let mut cfg = TasConfig::rpc_bench(cores.0, cores.1);
                cfg.api = if kind == Kind::TasLowLevel {
                    ApiKind::LowLevel
                } else {
                    ApiKind::Sockets
                };
                (cfg.rx_buf, cfg.tx_buf) = (buf, buf);
                // The paper's testbed runs DCTCP everywhere; without
                // congestion control, bulk/pipelined scenarios collapse the
                // shared switch queue.
                cfg.cc = CcAlgo::DctcpRate;
                // Closed-loop macrobenchmarks keep up to one request per
                // connection outstanding; deep rings absorb them (the paper's
                // clients "wait in a closed loop" with up to 96k in flight).
                cfg.max_core_backlog = SimTime::from_ms(50);
                return HostCfg::Tas(cfg);
            }
            Kind::Linux => (profiles::linux(), StackHostConfig::linux(total)),
            Kind::Ix => (profiles::ix(), StackHostConfig::ix(total)),
            Kind::Mtcp => {
                let stack = (total / 3).max(1).min(total.saturating_sub(1)).max(1);
                (profiles::mtcp(), StackHostConfig::mtcp(total.max(2), stack))
            }
            Kind::Mpk => (profiles::mpk(), StackHostConfig::mpk(total)),
            Kind::Pno => {
                // cores.0 maps to the on-NIC stack cores, cores.1 to host
                // app cores (mirroring TAS's fastpath/app split).
                let (host, nic) = (cores.1.max(1), cores.0.max(1));
                (profiles::pno(), StackHostConfig::pno(host, nic))
            }
        };
        (cfg.tcp.recv_buf, cfg.tcp.send_buf) = (buf, buf);
        cfg.max_core_backlog = SimTime::from_ms(50);
        HostCfg::Model(Box::new(profile), cfg)
    }

    /// The stack's family name: `tas`, or the baseline profile's name.
    pub fn name(&self) -> &'static str {
        match self {
            HostCfg::Tas(_) => "tas",
            HostCfg::Model(profile, _) => profile.name,
        }
    }
}

/// What runs on a node.
pub enum Agent {
    /// A stack host running an application ([`Agent::stack`]).
    Stack(Box<HostCfg>, Box<dyn App>),
    /// A raw-TCP load generator (no stack underneath).
    LoadGen(LoadGenConfig),
    /// A raw-TCP adversary (no stack underneath).
    Adversary(AdversaryConfig),
}

impl Agent {
    /// A host running `app` on the stack `cfg`.
    pub fn stack(cfg: HostCfg, app: Box<dyn App>) -> Agent {
        Agent::Stack(Box::new(cfg), app)
    }
}

/// One machine of a testbed.
pub struct Node {
    /// What the machine runs.
    pub agent: Agent,
    /// The switch port toward the machine (a star's; a FatTree's
    /// config sets every link of the tree).
    pub port: PortConfig,
    /// The machine's NIC (a star's; see `port`).
    pub nic: NicConfig,
    /// When the machine's INIT timer fires.
    pub start: SimTime,
    /// Tenant tag for a stack host's telemetry; raw agents have no
    /// registry and ignore it.
    pub tenant: Option<u32>,
}

impl Node {
    /// A machine on a 10G port and NIC, started at t = 0, untagged.
    pub fn new(agent: Agent) -> Node {
        Node {
            agent,
            port: PortConfig::tengig(),
            nic: NicConfig::client_10g(1),
            start: SimTime::ZERO,
            tenant: None,
        }
    }
}

/// How the machines are connected.
pub enum Fabric {
    /// One switch; each node brings its own port and NIC.
    Star,
    /// A k-ary FatTree (`topo::build_fattree`) with one node per host
    /// slot, in the tree's host order.
    FatTree(usize),
}

/// A simulation described as data.
pub struct Testbed {
    /// The simulation seed.
    pub seed: u64,
    /// The switches between the nodes.
    pub fabric: Fabric,
    /// One node per machine; node 0 is the server of every star.
    pub nodes: Vec<Node>,
}

impl Testbed {
    /// The paper's testbed star: `server` behind a 40G port and NIC,
    /// every client on 10G.
    pub fn paper(seed: u64, server: Agent, clients: impl IntoIterator<Item = Agent>) -> Testbed {
        let agents = std::iter::once(server).chain(clients);
        let mut tb = Testbed::uniform(seed, PortConfig::tengig(), agents);
        if let Some(server) = tb.nodes.first_mut() {
            server.port = PortConfig::fortygig();
            server.nic = NicConfig::server_40g(1);
        }
        tb
    }

    /// A star of 10G machines behind switch ports that all copy `port`.
    pub fn uniform(
        seed: u64,
        port: PortConfig,
        agents: impl IntoIterator<Item = Agent>,
    ) -> Testbed {
        let nodes = agents.into_iter().map(|a| Node {
            port,
            ..Node::new(a)
        });
        Testbed {
            seed,
            fabric: Fabric::Star,
            nodes: nodes.collect(),
        }
    }
}

/// A built testbed, ready to run.
pub struct Net {
    /// The simulation, with every INIT timer injected.
    pub sim: Sim<NetMsg>,
    /// Every switch: a star's one, or a FatTree's edge, aggregation and
    /// core switches, in that order.
    pub switches: Vec<AgentId>,
    /// One host per node, in node order (a FatTree's host slots past the
    /// last node follow as portless switches).
    pub hosts: Vec<AgentId>,
}

/// Places `agent` on `spec`'s slot, then tags a stack host with
/// `tenant`.
fn add_host(sim: &mut Sim<NetMsg>, spec: HostSpec, agent: Agent, tenant: Option<u32>) -> AgentId {
    let (ip, mac, nic, uplink) = (spec.ip, spec.mac, spec.nic, spec.uplink);
    let host = match agent {
        Agent::Stack(cfg, app) => match *cfg {
            HostCfg::Tas(cfg) => {
                sim.add_agent(Box::new(TasHost::new(ip, mac, nic, cfg, uplink, app)))
            }
            HostCfg::Model(profile, cfg) => {
                let host = StackHost::new(ip, mac, nic, *profile, cfg, uplink, app);
                sim.add_agent(Box::new(host))
            }
        },
        Agent::LoadGen(cfg) => {
            return sim.add_agent(Box::new(LoadGenHost::new(ip, mac, nic, uplink, cfg)))
        }
        Agent::Adversary(cfg) => {
            return sim.add_agent(Box::new(AdversaryHost::new(ip, mac, nic, uplink, cfg)))
        }
    };
    if let Some(t) = tenant {
        host_mut(sim, host).set_tenant(t);
    }
    host
}

/// Builds the simulation `tb` describes.
pub fn build(tb: Testbed) -> Net {
    let mut sim: Sim<NetMsg> = Sim::new(tb.seed);
    let n = tb.nodes.len();
    let starts: Vec<SimTime> = tb.nodes.iter().map(|n| n.start).collect();
    let ports: Vec<PortConfig> = tb.nodes.iter().map(|n| n.port).collect();
    let nics: Vec<NicConfig> = tb.nodes.iter().map(|n| n.nic.clone()).collect();
    let mut nodes = tb.nodes.into_iter();
    let mut place = |sim: &mut Sim<NetMsg>, spec: HostSpec| match nodes.next() {
        Some(node) => add_host(sim, spec, node.agent, node.tenant),
        // Release-build fallback for a FatTree with more host slots than
        // nodes: a portless switch counts whatever reaches it as
        // unroutable.
        None => sim.add_agent(Box::new(Switch::new("vacant"))),
    };
    let (switches, hosts) = match tb.fabric {
        Fabric::Star => {
            // `build_star` asks for exactly the `n` indices it was given.
            let (port, nic) = (
                |i: u32| ports[i as usize],
                |i: u32| nics[i as usize].clone(),
            );
            let topo = build_star(&mut sim, n, port, nic, &mut place);
            (vec![topo.switch], topo.hosts)
        }
        Fabric::FatTree(k) => {
            debug_assert_eq!(n, k.pow(3) / 4, "one node per FatTree host slot");
            let topo = build_fattree(&mut sim, k, &mut place);
            ([topo.edges, topo.aggs, topo.cores].concat(), topo.hosts)
        }
    };
    // Timer kind 0 is INIT for every host type.
    for (&h, &start) in hosts.iter().zip(&starts) {
        sim.inject_timer(start, h, 0, 0);
    }
    Net {
        sim,
        switches,
        hosts,
    }
}
