//! Layer probes: fixed-operation loops timing one public function of one
//! crate in isolation. They are independent of the workload, so the
//! caller runs each only in the traced run of the workload whose
//! `host_ns_per_pkt` it should move; a probe that moves while that metric
//! does not says the layer is off the critical path.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

use tas_proto::{wire, MacAddr, PayloadBuf, Segment, TcpFlags, TcpHeader};
use tas_shm::{ByteRing, DescQueue};
use tas_sim::{EventQueue, Rng, SimTime};
use tas_tcp::{EndpointInfo, TcpConfig, TcpConn};

use crate::measure::median;
use crate::Scale;

/// Repetitions per probe; the median repetition is reported.
const REPS: usize = 5;

/// Median over [`REPS`] of host ns per operation of `body(ops)`.
fn ns_per_op(scale: Scale, ops: u64, mut body: impl FnMut(u64)) -> f64 {
    let ops = scale.size(ops);
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            body(ops);
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&reps)
}

/// Event-queue churn with 100k live timers: cancel one, re-arm it one
/// RTO out, pop whatever came due (the retransmission-timer pattern).
pub fn evq_ns_per_op(scale: Scale) -> f64 {
    const LIVE: u64 = 100_000;
    const STEP_PS: u64 = 100_000;
    const RTO_PS: u64 = 3 * LIVE * STEP_PS;
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = Rng::new(0xe0e0);
    let mut ids: Vec<_> = (0..LIVE)
        .map(|f| q.push(SimTime::from_ps(1 + f * STEP_PS + RTO_PS), f))
        .collect();
    let mut now = LIVE * STEP_PS;
    ns_per_op(scale, 400_000, |ops| {
        for _ in 0..ops {
            now += STEP_PS;
            while q.peek_time().is_some_and(|t| t.as_ps() <= now) {
                let Some((t, f)) = q.pop() else { break };
                ids[f as usize] = q.push(t + SimTime::from_ps(RTO_PS), f);
            }
            let f = rng.below(LIVE) as usize;
            q.cancel(ids[f]);
            ids[f] = q.push(SimTime::from_ps(now + RTO_PS), f as u64);
        }
    })
}

/// `ByteRing` append + read_into + consume of one `size`-byte record.
pub fn ring_ns_per_op(scale: Scale, size: usize) -> f64 {
    let mut ring = ByteRing::new(16 * 1024);
    let src = vec![0x5au8; size];
    let mut dst = vec![0u8; size];
    ns_per_op(scale, 1_000_000, |ops| {
        for _ in 0..ops {
            let pos = ring.end_offset();
            let _ = ring.append(black_box(&src));
            let _ = ring.read_into(pos, &mut dst);
            let _ = ring.consume(size as u64);
            black_box(&dst);
        }
    })
}

/// `DescQueue` try_push + pop of one descriptor.
pub fn descq_ns_per_op(scale: Scale) -> f64 {
    let mut q: DescQueue<u64> = DescQueue::new(1024);
    ns_per_op(scale, 4_000_000, |ops| {
        for i in 0..ops {
            let _ = q.try_push(black_box(i));
            black_box(q.pop());
        }
    })
}

/// `PayloadBuf` from_slice + clone + drop of an MSS-sized payload.
pub fn payload_ns_per_buf(scale: Scale) -> f64 {
    let src = vec![0x6bu8; 1448];
    ns_per_op(scale, 1_000_000, |ops| {
        for _ in 0..ops {
            let p = PayloadBuf::from_slice(black_box(&src));
            let q = p.clone();
            black_box((&p, &q));
        }
    })
}

fn frame(size: usize) -> Segment {
    let mut h = TcpHeader::new(7777, 80, 1_001, 101, TcpFlags::ACK | TcpFlags::PSH);
    h.window = 60_000;
    h.options.timestamp = Some((1, 2));
    Segment::tcp(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        h,
        vec![0x42u8; size],
        true,
    )
}

/// Wire codec serialize + parse of one frame with `size` payload bytes.
pub fn wire_ns_per_frame(scale: Scale, size: usize) -> f64 {
    let seg = frame(size);
    ns_per_op(scale, 200_000, |ops| {
        for _ in 0..ops {
            let bytes = wire::serialize(black_box(&seg));
            black_box(wire::parse(&bytes).is_ok());
        }
    })
}

fn endpoint(host: u8, port: u16) -> EndpointInfo {
    EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, host),
        port,
        mac: MacAddr::for_host(host as u32),
    }
}

fn exchange(now: SimTime, a: &mut TcpConn, b: &mut TcpConn) -> u64 {
    let mut calls = 0;
    loop {
        a.poll(now);
        b.poll(now);
        let (to_b, to_a) = (a.take_outgoing(), b.take_outgoing());
        if to_b.is_empty() && to_a.is_empty() {
            return calls;
        }
        calls += (to_b.len() + to_a.len()) as u64;
        for s in to_b {
            b.on_segment(now, s);
        }
        for s in to_a {
            a.on_segment(now, s);
        }
    }
}

/// Reference-engine cost per `TcpConn::on_segment`: one established
/// pair, 64 B sent in order, read, and acknowledged, over and over.
/// The time covers send, poll and recv on both ends, divided by the
/// `on_segment` calls made.
pub fn conn_ns_per_seg(scale: Scale) -> f64 {
    let mut now = SimTime::from_us(100);
    let (ea, eb) = (endpoint(1, 40_000), endpoint(2, 80));
    let mut a = TcpConn::connect(now, TcpConfig::default(), ea, eb, 1_000);
    a.poll(now);
    let Some(syn) = a.take_outgoing().into_iter().next() else {
        return 0.0;
    };
    let mut b = TcpConn::accept(now, TcpConfig::default(), eb, ea, &syn, 9_000);
    exchange(now, &mut a, &mut b);
    let data = [0x11u8; 64];
    let reps: Vec<f64> = (0..REPS)
        .map(|_| {
            let mut calls = 0;
            let t0 = Instant::now();
            for _ in 0..scale.size(100_000) {
                now += SimTime::from_us(10);
                a.send(&data);
                calls += exchange(now, &mut a, &mut b);
                black_box(b.recv(usize::MAX));
            }
            t0.elapsed().as_nanos() as f64 / calls.max(1) as f64
        })
        .collect();
    median(&reps)
}
