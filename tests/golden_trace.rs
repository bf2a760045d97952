//! Golden-trace regression tests: the JSONL flight-recorder output of
//! two hand-driven `tas-tcp` connections is pinned byte-for-byte.
//!
//! Every timestamp here is hand-advanced and every ISN is fixed, so the
//! traces are fully deterministic; any change to segment construction,
//! state-machine transitions, retransmission logic, or the JSONL
//! renderer shows up as a line-level diff against `tests/golden/`.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --features telemetry --test golden_trace
//! ```
#![cfg(feature = "telemetry")]

use std::net::Ipv4Addr;
use std::path::PathBuf;
use tas_repro::proto::MacAddr;
use tas_repro::sim::SimTime;
use tas_repro::tcp::{EndpointInfo, TcpConfig, TcpConn};
use tas_repro::telemetry;

const STEP: SimTime = SimTime::from_us(50);

fn cfg() -> TcpConfig {
    TcpConfig {
        mss: 512,
        ..TcpConfig::default()
    }
}

fn client_ep() -> EndpointInfo {
    EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, 1),
        port: 5000,
        mac: MacAddr::for_host(1),
    }
}

fn server_ep() -> EndpointInfo {
    EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, 2),
        port: 80,
        mac: MacAddr::for_host(2),
    }
}

/// Delivers staged output back and forth until both ends quiesce.
fn exchange(t: &mut SimTime, a: &mut TcpConn, b: &mut TcpConn) {
    for _ in 0..32 {
        a.poll(*t);
        b.poll(*t);
        let out_a = a.take_outgoing();
        let out_b = b.take_outgoing();
        if out_a.is_empty() && out_b.is_empty() {
            return;
        }
        *t += STEP;
        for s in out_a {
            b.on_segment(*t, s);
        }
        for s in out_b {
            a.on_segment(*t, s);
        }
    }
    panic!("exchange did not quiesce");
}

/// Three-way handshake with fixed ISNs; returns (client, server).
fn handshake(t: &mut SimTime) -> (TcpConn, TcpConn) {
    let mut client = TcpConn::connect(*t, cfg(), client_ep(), server_ep(), 1_000);
    client.poll(*t);
    let syn = client.take_outgoing().remove(0);
    *t += STEP;
    let mut server = TcpConn::accept(*t, cfg(), server_ep(), client_ep(), &syn, 9_000);
    exchange(t, &mut client, &mut server);
    (client, server)
}

/// Canonical life of a connection: handshake, a 4-segment request/
/// response exchange (two 512-byte segments each way), FIN teardown
/// from the client side, TIME_WAIT expiry.
fn run_canonical() -> Vec<telemetry::TraceRecord> {
    telemetry::start(4_096);
    let mut t = SimTime::from_us(100);
    let (mut client, mut server) = handshake(&mut t);
    // Request: 1024 bytes = two 512-byte segments.
    assert_eq!(client.send(&[0x11; 1024]), 1024);
    exchange(&mut t, &mut client, &mut server);
    assert_eq!(server.recv(4_096).len(), 1024);
    // Response: two segments back.
    assert_eq!(server.send(&[0x22; 1024]), 1024);
    exchange(&mut t, &mut client, &mut server);
    assert_eq!(client.recv(4_096).len(), 1024);
    // Teardown, client first.
    client.close();
    exchange(&mut t, &mut client, &mut server);
    server.close();
    exchange(&mut t, &mut client, &mut server);
    // Expire TIME_WAIT so both ends report Closed.
    t += SimTime::from_secs(120);
    client.on_timer(t);
    server.on_timer(t);
    assert!(client.is_closed() && server.is_closed());
    let records = telemetry::take();
    telemetry::stop();
    records
}

/// Fast retransmit: the first of five in-flight segments is dropped.
/// The four that arrive out of order each elicit an ACK; the first one
/// is a window update (the SYN-ACK window was unscaled, so the first
/// full scaled advertisement grows `snd_wnd`), the next three are
/// duplicate ACKs, the sender retransmits the hole, and the exchange
/// completes.
fn run_fast_retransmit() -> Vec<telemetry::TraceRecord> {
    telemetry::start(4_096);
    let mut t = SimTime::from_us(100);
    let (mut client, mut server) = handshake(&mut t);
    assert_eq!(client.send(&[0x33; 2560]), 2560);
    client.poll(t);
    let mut segs = client.take_outgoing();
    assert_eq!(segs.len(), 5, "2560 bytes at mss 512 = 5 segments");
    let dropped = segs.remove(0);
    t += STEP;
    for s in segs {
        server.on_segment(t, s);
    }
    drop(dropped); // Never delivered: the wire ate it.
                   // The dupacks flow back and trigger the fast retransmit.
    exchange(&mut t, &mut client, &mut server);
    assert_eq!(server.recv(4_096).len(), 2560, "hole must be repaired");
    assert!(
        client.stats.fast_retransmits >= 1,
        "dup-ACK recovery must have fired: {:?}",
        client.stats
    );
    let records = telemetry::take();
    telemetry::stop();
    records
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden {name} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    if want == got {
        return;
    }
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "golden {name} differs at line {} (golden on the right); \
             run with UPDATE_GOLDEN=1 to accept intentional changes",
            i + 1
        );
    }
    panic!(
        "golden {name} length differs: golden has {} lines, got {} \
         (run with UPDATE_GOLDEN=1 to accept intentional changes)",
        want.lines().count(),
        got.lines().count()
    );
}

#[test]
fn canonical_exchange_trace_is_pinned() {
    let records = run_canonical();
    assert!(!records.is_empty());
    check_golden(
        "canonical_exchange.jsonl",
        &telemetry::render_jsonl(&records),
    );
}

#[test]
fn fast_retransmit_trace_is_pinned() {
    let records = run_fast_retransmit();
    assert!(
        records.iter().any(
            |r| matches!(&r.ev, telemetry::TraceEvent::Retransmit { kind, .. } if *kind == "fast")
        ),
        "trace must contain the fast retransmit"
    );
    check_golden("fast_retransmit.jsonl", &telemetry::render_jsonl(&records));
}

#[test]
fn golden_traces_reproduce_within_a_process() {
    // The same driver twice in a row must produce byte-identical JSONL —
    // the tracer must not leak state between runs.
    let a = telemetry::render_jsonl(&run_canonical());
    let b = telemetry::render_jsonl(&run_canonical());
    assert_eq!(a, b);
}
