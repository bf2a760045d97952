//! Criterion microbenchmarks of the hot-path data structures — the
//! operations whose cycle costs the paper's Tables 1–2 account.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::net::Ipv4Addr;
use tas::flow::{
    FlowState, FlowTable, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
};
use tas_netsim::rss::{hash_tuple, RssTable};
use tas_proto::{wire, FlowKey, MacAddr, Segment, TcpFlags, TcpHeader};
use tas_shm::{ByteRing, DescQueue};
use tas_sim::{Histogram, SimTime};

fn sample_segment(payload: usize) -> Segment {
    let mut tcp = TcpHeader::new(5000, 80, 1000, 2000, TcpFlags::ACK | TcpFlags::PSH);
    tcp.options.timestamp = Some((1, 2));
    tcp.window = 4096;
    Segment::tcp(
        MacAddr::for_host(1),
        MacAddr::for_host(2),
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        tcp,
        vec![0xab; payload],
        true,
    )
}

fn make_flow(port: u16) -> FlowState {
    FlowState {
        conn: FpConnMgmt::new(
            port as u64,
            0,
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                80,
                Ipv4Addr::new(10, 0, 0, 2),
                port,
            ),
            MacAddr::for_host(2),
            0,
        ),
        snd: FpSendRel::new(ByteRing::new(4096), 1),
        rcv: FpRecvRel::new(ByteRing::new(4096), 2),
        fc: FpFlowCtrl::new(65535, 7),
        cc: FpCongCtrl::new(RateBucket::unlimited()),
    }
}

fn bench_flow_table(c: &mut Criterion) {
    let mut table = FlowTable::new();
    let mut keys = Vec::new();
    for p in 0..20_000u16 {
        let f = make_flow(p);
        keys.push(f.conn.key());
        table.insert(f);
    }
    let mut i = 0usize;
    c.bench_function("flow_table_lookup_20k", |b| {
        b.iter(|| {
            i = (i + 7919) % keys.len();
            black_box(table.lookup(&keys[i]))
        })
    });
}

fn bench_byte_ring(c: &mut Criterion) {
    let mut ring = ByteRing::new(16 * 1024);
    let chunk = vec![0x42u8; 1448];
    c.bench_function("byte_ring_append_pop_1448", |b| {
        b.iter(|| {
            ring.append(&chunk).expect("fits");
            black_box(ring.pop(1448));
        })
    });
}

/// The ring transfer of [`bench_byte_ring`] with a flight-recorder emit
/// site in the loop, exactly as the production fast path places them.
/// Without the `trace` feature the hook is compiled out and this is the
/// same loop as `byte_ring_append_pop_1448` — the pair is the smoke
/// check that a trace-off release build carries zero telemetry overhead.
/// With `trace` on (recorder not started) it prices the disabled-
/// recorder branch instead.
fn bench_ring_transfer_trace_hook(c: &mut Criterion) {
    let mut ring = ByteRing::new(16 * 1024);
    let chunk = vec![0x42u8; 1448];
    #[cfg(feature = "trace")]
    let key = FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        80,
        Ipv4Addr::new(10, 0, 0, 2),
        5000,
    );
    c.bench_function("ring_transfer_trace_hook_1448", |b| {
        b.iter(|| {
            ring.append(&chunk).expect("fits");
            #[cfg(feature = "trace")]
            tas_telemetry::emit(|| tas_telemetry::TraceRecord {
                t: SimTime::ZERO,
                site: "bench",
                ev: tas_telemetry::TraceEvent::CcRate { flow: key, rate: 0 },
            });
            black_box(ring.pop(1448));
        })
    });
}

fn bench_desc_queue(c: &mut Criterion) {
    let mut q: DescQueue<u64> = DescQueue::new(1024);
    c.bench_function("context_queue_push_pop", |b| {
        b.iter(|| {
            q.try_push(42).expect("space");
            black_box(q.pop());
        })
    });
}

fn bench_toeplitz(c: &mut Criterion) {
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 0, 0, 2);
    c.bench_function("rss_toeplitz_hash", |b| {
        b.iter(|| black_box(hash_tuple(src, dst, black_box(5000), 80)))
    });
    let t = RssTable::new(8);
    c.bench_function("rss_table_lookup", |b| {
        b.iter(|| black_box(t.queue_for_hash(black_box(0xdead_beef))))
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let seg = sample_segment(64);
    c.bench_function("wire_serialize_64b", |b| {
        b.iter(|| black_box(wire::serialize(&seg)))
    });
    let bytes = wire::serialize(&seg);
    c.bench_function("wire_parse_64b", |b| {
        b.iter(|| black_box(wire::parse(&bytes).expect("valid")))
    });
}

fn bench_rate_bucket(c: &mut Criterion) {
    let mut bucket = RateBucket::limited(10_000_000_000, 1 << 20, SimTime::ZERO);
    let mut t = 0u64;
    c.bench_function("rate_bucket_refill_consume", |b| {
        b.iter(|| {
            t += 1_000_000;
            bucket.refill(SimTime::from_ps(t));
            bucket.consume(black_box(1448));
        })
    });
}

fn bench_histogram(c: &mut Criterion) {
    let mut h = Histogram::new();
    let mut v = 1u64;
    c.bench_function("histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(black_box(v >> 40));
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1))
        .sample_size(50);
    targets =
    bench_flow_table,
    bench_byte_ring,
    bench_ring_transfer_trace_hook,
    bench_desc_queue,
    bench_toeplitz,
    bench_wire_codec,
    bench_rate_bucket,
    bench_histogram
);
criterion_main!(benches);
