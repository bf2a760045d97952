//! Pcap round-trip: a traced end-to-end run is exported through the
//! `tas-proto` wire codec into a classic pcap, parsed back, and every
//! frame is re-decoded — `wire::parse` verifies both the IP and the TCP
//! pseudo-header checksum, so a successful round trip proves the capture
//! is byte-exact Wireshark-readable output of what crossed the wire.
#![cfg(feature = "telemetry")]

mod common;

use common::{pair, tas};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tas_bench::app;
use tas_bench::testbed::{build, Net};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::netsim::topo::host_ip;
use tas_repro::proto::{wire, Segment, Seq, TcpFlags};
use tas_repro::sim::SimTime;
use tas_repro::tas::TasConfig;
use tas_repro::telemetry::{self, pcap, TraceEvent, TraceRecord};

/// Runs a clean seeded echo workload with the recorder on and returns
/// the trace.
fn traced_run(seed: u64) -> Vec<TraceRecord> {
    telemetry::start(1 << 16);
    let echo = EchoServer::new(7, 64, ServerMode::Echo, 300);
    let mut c = RpcClient::new(host_ip(0), 7, 1, 1, 64, Lifetime::Persistent);
    c.max_requests = 50;
    let cfg = TasConfig::rpc_bench(1, 1);
    let Net { mut sim, hosts, .. } = build(pair(seed, tas(cfg.clone(), echo), tas(cfg, c)));
    sim.run_until(SimTime::from_ms(100));
    assert_eq!(
        app::<RpcClient>(&sim, hosts[1]).done,
        50,
        "workload must complete"
    );
    let records = telemetry::take();
    telemetry::stop();
    records
}

/// The segments the trace says went on the wire, in capture order.
fn wire_segments(records: &[TraceRecord]) -> Vec<(SimTime, &Segment)> {
    records
        .iter()
        .filter(|r| r.site == "nic")
        .filter_map(|r| match &r.ev {
            TraceEvent::SegTx { seg } | TraceEvent::SegRx { seg } => Some((r.t, seg.as_ref())),
            _ => None,
        })
        .collect()
}

#[test]
fn pcap_export_round_trips_through_the_wire_codec() {
    let records = traced_run(4242);
    let originals = wire_segments(&records);
    assert!(
        originals.len() > 100,
        "a 50-RPC run crosses the wire a few hundred times, got {}",
        originals.len()
    );

    let bytes = pcap::from_records(&records, |s| s == "nic");
    let pkts = pcap::parse(&bytes).expect("capture parses");
    assert_eq!(pkts.len(), originals.len(), "one pcap record per segment");

    for (pkt, (t, orig)) in pkts.iter().zip(&originals) {
        // Timestamps survive at nanosecond pcap resolution.
        assert_eq!(pkt.t.as_nanos(), t.as_nanos());
        // wire::parse verifies the IP header checksum and the TCP
        // pseudo-header checksum before returning.
        let back = wire::parse(&pkt.frame).expect("frame decodes with valid checksums");
        // Everything observable survives: addressing, sequence space,
        // flags, ECN codepoint, payload bytes.
        assert_eq!(back.ip.src, orig.ip.src);
        assert_eq!(back.ip.dst, orig.ip.dst);
        assert_eq!(back.ip.ecn, orig.ip.ecn, "ECN codepoint must survive");
        assert_eq!(back.tcp.src_port, orig.tcp.src_port);
        assert_eq!(back.tcp.dst_port, orig.tcp.dst_port);
        assert_eq!(back.tcp.seq, orig.tcp.seq);
        assert_eq!(back.tcp.ack, orig.tcp.ack);
        assert_eq!(back.tcp.flags, orig.tcp.flags);
        assert_eq!(back.tcp.options.timestamp, orig.tcp.options.timestamp);
        assert_eq!(back.payload, orig.payload);
    }
}

#[test]
fn pcap_capture_is_ordered_and_coherent_per_flow() {
    let records = traced_run(777);
    let bytes = pcap::from_records(&records, |s| s == "nic");
    let pkts = pcap::parse(&bytes).expect("capture parses");

    // Capture order is simulated-time order.
    for w in pkts.windows(2) {
        assert!(w[0].t <= w[1].t, "capture timestamps must be monotone");
    }

    // On a clean network nothing is retransmitted, so within each
    // direction of each flow the sequence numbers never rewind.
    let mut last_seq: BTreeMap<(Ipv4Addr, u16, Ipv4Addr, u16), Seq> = BTreeMap::new();
    let mut flows = 0usize;
    for pkt in &pkts {
        let seg = wire::parse(&pkt.frame).expect("frame decodes");
        let key = (seg.ip.src, seg.tcp.src_port, seg.ip.dst, seg.tcp.dst_port);
        match last_seq.get(&key) {
            None => {
                flows += 1;
                assert!(
                    seg.tcp.flags.contains(TcpFlags::SYN),
                    "a flow's first wire segment is its SYN: {key:?}"
                );
            }
            Some(&prev) => assert!(
                seg.tcp.seq.ge(prev),
                "seq rewound on clean network for {key:?}: {prev} -> {}",
                seg.tcp.seq
            ),
        }
        last_seq.insert(key, seg.tcp.seq);
    }
    assert_eq!(flows, 2, "one persistent connection, two directions");
}

#[test]
fn pcap_export_is_deterministic() {
    // Same seed, two runs: byte-identical captures. Different seed: the
    // capture actually changes (ISNs and timestamps differ).
    let a = pcap::from_records(&traced_run(9), |s| s == "nic");
    let b = pcap::from_records(&traced_run(9), |s| s == "nic");
    assert_eq!(a, b, "same seed must produce a byte-identical capture");
    let c = pcap::from_records(&traced_run(10), |s| s == "nic");
    assert_ne!(a, c, "a different seed must perturb the capture");
}
