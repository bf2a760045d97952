//! The testbed builder's own contract, beside what the pinned reports
//! already hold it to: agent ids follow node order, a node stays silent
//! until its start, tenant tags reach stack hosts only, and a node's
//! port and NIC fault specs are the ones its packets meet.

use tas::TasHost;
use tas_apps::adversary::{AdvMode, AdversaryConfig, AdversaryHost};
use tas_apps::bulk::{BulkReceiver, BulkSender};
use tas_apps::echo::{EchoServer, ServerMode};
use tas_apps::loadgen::{LoadGenConfig, LoadGenHost};
use tas_bench::testbed::{build, Agent, Fabric, Node, Testbed};
use tas_bench::{host, HostCfg, Kind, ECHO_BUF, KV_BUF};
use tas_netsim::topo::host_ip;
use tas_netsim::{FaultSpec, PortConfig, Switch};
use tas_sim::{Scope, SimTime};

fn echo_server() -> Agent {
    let app = EchoServer::new(7, 64, ServerMode::Echo, 300);
    Agent::stack(
        HostCfg::new(Kind::TasSockets, (1, 1), ECHO_BUF),
        Box::new(app),
    )
}

fn load_gen() -> Agent {
    Agent::LoadGen(LoadGenConfig {
        server: host_ip(0),
        port: 7,
        conns: 4,
        req_size: 64,
        resp_size: 64,
        ..LoadGenConfig::default()
    })
}

fn adversary() -> Agent {
    let mode = AdvMode::AckDivision { chunk: 8 };
    Agent::Adversary(AdversaryConfig::kv(host_ip(0), 7, 2, mode))
}

#[test]
fn star_switch_comes_first_then_one_agent_per_node_in_order() {
    let net = build(Testbed::paper(1, echo_server(), [load_gen(), adversary()]));
    assert_eq!(net.switches.len(), 1);
    let switch = net.switches[0];
    assert!(net.sim.try_agent::<Switch>(switch).is_some());
    assert_eq!(net.hosts, [switch + 1, switch + 2, switch + 3]);
    assert!(net.sim.try_agent::<TasHost>(net.hosts[0]).is_some());
    assert!(net.sim.try_agent::<LoadGenHost>(net.hosts[1]).is_some());
    assert!(net.sim.try_agent::<AdversaryHost>(net.hosts[2]).is_some());
}

#[test]
fn fattree_hosts_follow_the_switches_in_node_order() {
    let mut nodes: Vec<Node> = (0..16).map(|_| Node::new(load_gen())).collect();
    nodes[5] = Node::new(echo_server());
    let tb = Testbed {
        seed: 2,
        fabric: Fabric::FatTree(4),
        nodes,
    };
    let net = build(tb);
    assert_eq!(net.switches.len(), 20, "8 edge, 8 aggregation, 4 core");
    let first = *net.switches.last().unwrap() + 1;
    let expected: Vec<u32> = (first..first + 16).collect();
    assert_eq!(net.hosts, expected);
    for (i, &h) in net.hosts.iter().enumerate() {
        let tas = net.sim.try_agent::<TasHost>(h).is_some();
        assert_eq!(tas, i == 5, "node {i}");
    }
}

#[test]
fn a_node_stays_silent_until_its_start() {
    let mut tb = Testbed::paper(3, echo_server(), [load_gen()]);
    tb.nodes[1].start = SimTime::from_ms(5);
    let mut net = build(tb);
    let client = net.hosts[1];
    net.sim.run_until(SimTime::from_ms(4));
    let lg = net.sim.agent::<LoadGenHost>(client);
    assert_eq!((lg.established, lg.sent), (0, 0), "silent before 5 ms");
    net.sim.run_until(SimTime::from_ms(10));
    let lg = net.sim.agent::<LoadGenHost>(client);
    assert!(lg.established > 0 && lg.sent > 0, "running by 10 ms");
}

#[test]
fn tenant_tags_reach_stack_hosts_only() {
    let mut tb = Testbed::paper(4, echo_server(), [adversary(), load_gen()]);
    tb.nodes[0].tenant = Some(3);
    tb.nodes[1].tenant = Some(5);
    tb.nodes[2].tenant = Some(6);
    let mut net = build(tb);
    net.sim.run_until(SimTime::from_ms(5));
    let snap = host(&net.sim, net.hosts[0]).telemetry_snapshot();
    let tenants: Vec<Scope> = snap.iter().map(|(k, _)| k.scope).collect();
    assert!(
        tenants.contains(&Scope::Tenant(3)),
        "the stack host is tagged"
    );
    assert!(
        tenants
            .iter()
            .all(|s| !matches!(s, Scope::Tenant(t) if *t != 3)),
        "raw nodes' tags land nowhere: {tenants:?}"
    );
}

/// Bulk traffic from node 1 to node 0 over a 10G pair that `edit`
/// adjusts before the build; returns the net after 20 ms.
fn bulk_pair(edit: impl FnOnce(&mut Testbed)) -> tas_bench::testbed::Net {
    let cfg = || HostCfg::new(Kind::TasSockets, (1, 1), KV_BUF);
    let agents = [
        Agent::stack(cfg(), Box::new(BulkReceiver::new(9))),
        Agent::stack(cfg(), Box::new(BulkSender::new(host_ip(0), 9, 2))),
    ];
    let mut tb = Testbed::uniform(5, PortConfig::tengig(), agents);
    edit(&mut tb);
    let mut net = build(tb);
    net.sim.run_until(SimTime::from_ms(20));
    net
}

#[test]
fn a_port_fault_spec_drops_packets() {
    let net = bulk_pair(|tb| tb.nodes[0].port.fault = FaultSpec::uniform_loss(0.1, 9));
    let sw = net.sim.agent::<Switch>(net.switches[0]);
    let dropped = |p| {
        sw.port_fault_snapshot(p)
            .counter("fault.dropped", Scope::Global)
    };
    assert!(dropped(0) > 0, "the receiver's port drops");
    assert_eq!(dropped(1), 0, "the sender's port is clean");
}
