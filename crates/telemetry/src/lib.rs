//! Flight-recorder telemetry for the TAS reproduction.
//!
//! The paper's evaluation is built on per-core cycle attribution and
//! per-flow event visibility. This crate is the runtime half of that
//! observability layer (the counter/gauge/histogram registry lives in
//! [`tas_sim::metrics`]): a bounded ring of structured flow events —
//! segment rx/tx, state transitions, congestion-control rate updates,
//! retransmits, out-of-order placements, controller core add/remove, and
//! fault-injector verdicts — plus a deterministic JSONL renderer and a
//! pcap exporter that replays traced segments through
//! [`tas_proto::wire`] into a standard capture Wireshark opens directly.
//!
//! # Zero cost when disabled
//!
//! Emit sites across the stack are compiled behind each crate's `telemetry`
//! feature; a default build contains no tracing code at all. With the
//! feature on, every emit first checks a thread-local enabled flag, and
//! the tracer never draws from any simulation RNG nor reorders events, so
//! enabling it cannot perturb a run — a property the telemetry property
//! tests pin by comparing fingerprints with tracing on and off.
//!
//! # Examples
//!
//! ```
//! use tas_telemetry as tel;
//! use tas_sim::SimTime;
//! tel::start(1024);
//! tel::emit(|| tel::TraceRecord {
//!     t: SimTime::from_us(3),
//!     site: "fp",
//!     ev: tel::TraceEvent::CoreScale { active: 2, delta: 1 },
//! });
//! let records = tel::take();
//! tel::stop();
//! assert_eq!(records.len(), 1);
//! assert!(tel::render_jsonl(&records).starts_with("{\"t_ns\":3000,"));
//! ```

pub mod pcap;
pub mod profile;
pub mod spans;

pub use spans::Stage;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use tas_proto::{FlowKey, Segment, Seq, TcpFlags};
use tas_sim::SimTime;

/// One structured flow event.
///
/// Segment events carry the full packet (boxed — records stay small for
/// the common header-only events) so the pcap exporter can replay exact
/// wire bytes; renderers print the header summary.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A segment arrived at the recording site.
    SegRx {
        /// The received packet.
        seg: Box<Segment>,
    },
    /// A segment was transmitted (or staged for transmission) at the
    /// recording site.
    SegTx {
        /// The transmitted packet.
        seg: Box<Segment>,
    },
    /// A connection state transition.
    State {
        /// The flow, from the recording host's perspective.
        flow: FlowKey,
        /// State left.
        from: &'static str,
        /// State entered.
        to: &'static str,
    },
    /// A congestion-control rate update.
    CcRate {
        /// The flow, from the recording host's perspective.
        flow: FlowKey,
        /// New rate in bytes/second (the slow path's per-flow pacing rate).
        rate: u64,
    },
    /// A retransmission was triggered.
    Retransmit {
        /// The flow, from the recording host's perspective.
        flow: FlowKey,
        /// Trigger: `"fast"` (dup-ACK), `"timeout"` (stall/RTO), or
        /// `"handshake"` (SYN/SYN-ACK/FIN retry).
        kind: &'static str,
        /// First sequence number retransmitted.
        seq: Seq,
    },
    /// The receiver placed data out of order (the fast path's single
    /// tracked OOO interval).
    OooPlace {
        /// The flow, from the recording host's perspective.
        flow: FlowKey,
        /// Stream offset of the tracked interval.
        start: u64,
        /// Interval length in bytes after this placement.
        len: u64,
    },
    /// The proportionality controller changed the active core count.
    CoreScale {
        /// Active fast-path cores after the change.
        active: u32,
        /// +1 (core added) or -1 (core removed).
        delta: i32,
    },
    /// A fault injector perturbed (or dropped) a packet.
    Fault {
        /// Verdict: `"drop"`, `"dup"`, `"reorder"`, `"jitter"`, or
        /// `"corrupt"`.
        verdict: &'static str,
        /// The flow, from the far end's perspective.
        flow: FlowKey,
        /// Sequence number of the affected packet.
        seq: Seq,
        /// Identity of the injecting device (NIC MAC low bits or switch
        /// port index).
        dev: u64,
    },
    /// A switch marked a packet congestion-experienced (DCTCP).
    EcnMark {
        /// The flow, from the receiver's perspective.
        flow: FlowKey,
        /// Sequence number of the marked packet.
        seq: Seq,
    },
    /// A span hop completed: a payload range finished one stage of its
    /// app-to-app journey (see [`spans`] for the stage taxonomy and the
    /// assembler that turns these stamps into latency spans).
    Stage {
        /// The hop that completed.
        stage: Stage,
        /// The flow from the data *sender's* perspective — every stamp of
        /// one journey shares this orientation, whichever host or device
        /// recorded it.
        flow: FlowKey,
        /// TCP sequence number of the range's first payload byte.
        seq: Seq,
        /// Payload bytes covered by this stamp.
        len: u32,
        /// Time the unit spent queued at this hop before service began
        /// (`0` where the hop has no queue), in nanoseconds. The span
        /// breakdown splits each stage delta into queueing (this) and
        /// processing (the rest).
        wait_ns: u64,
    },
}

/// A timestamped trace-ring entry.
#[derive(Clone, Debug)]
pub struct TraceRecord {
    /// Simulated time of the event.
    pub t: SimTime,
    /// Recording site: `"fp"`, `"sp"`, `"host"`, `"conn"`, `"nic"`,
    /// `"switch"`, or `"fault"`.
    pub site: &'static str,
    /// The event.
    pub ev: TraceEvent,
}

struct Tracer {
    enabled: bool,
    cap: usize,
    ring: VecDeque<TraceRecord>,
    /// Oldest records evicted when the bounded ring wrapped.
    evicted: u64,
}

impl Tracer {
    const fn new() -> Tracer {
        Tracer {
            enabled: false,
            cap: 0,
            ring: VecDeque::new(),
            evicted: 0,
        }
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = const { RefCell::new(Tracer::new()) };
}

/// Starts recording into a fresh bounded ring of `cap` records. When the
/// ring is full the oldest record is evicted (flight-recorder semantics);
/// [`evicted`] reports how many were lost.
pub fn start(cap: usize) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.enabled = true;
        t.cap = cap.max(1);
        t.ring.clear();
        t.evicted = 0;
    });
}

/// Stops recording (the ring's contents stay until [`take`] or [`start`]).
pub fn stop() {
    TRACER.with(|t| t.borrow_mut().enabled = false);
}

/// Number of records evicted since [`start`] because the ring was full.
pub fn evicted() -> u64 {
    TRACER.with(|t| t.borrow().evicted)
}

/// Drains and returns the recorded events in emission order.
pub fn take() -> Vec<TraceRecord> {
    TRACER.with(|t| t.borrow_mut().ring.drain(..).collect())
}

/// Records an event. The closure runs only while recording is enabled, so
/// disabled-but-compiled-in sites pay one thread-local flag check and
/// construct nothing.
pub fn emit(f: impl FnOnce() -> TraceRecord) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return;
        }
        let rec = f();
        if t.ring.len() == t.cap {
            t.ring.pop_front();
            t.evicted += 1;
        }
        t.ring.push_back(rec);
    });
}

// ----------------------------------------------------------------------
// Renderers.

fn flags_str(f: TcpFlags) -> String {
    let mut s = String::new();
    for (bit, c) in [
        (TcpFlags::SYN, 'S'),
        (TcpFlags::FIN, 'F'),
        (TcpFlags::RST, 'R'),
        (TcpFlags::PSH, 'P'),
        (TcpFlags::ACK, 'A'),
        (TcpFlags::URG, 'U'),
        (TcpFlags::ECE, 'E'),
        (TcpFlags::CWR, 'C'),
    ] {
        if f.contains(bit) {
            s.push(c);
        }
    }
    if s.is_empty() {
        s.push('.');
    }
    s
}

fn flow_str(flow: &FlowKey) -> String {
    format!(
        "{}:{}<>{}:{}",
        flow.local_ip, flow.local_port, flow.remote_ip, flow.remote_port
    )
}

/// Renders records as JSONL — one JSON object per line, fixed key order,
/// no floats — so two same-seed runs produce byte-identical output and
/// golden traces diff line-by-line.
pub fn render_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        let _ = write!(out, "{{\"t_ns\":{},\"site\":\"{}\"", r.t.as_nanos(), r.site);
        let _ = match &r.ev {
            TraceEvent::SegRx { seg } => write!(out, ",\"ev\":\"seg_rx\",{}", seg_json(seg)),
            TraceEvent::SegTx { seg } => write!(out, ",\"ev\":\"seg_tx\",{}", seg_json(seg)),
            TraceEvent::State { flow, from, to } => write!(
                out,
                ",\"ev\":\"state\",\"flow\":\"{}\",\"from\":\"{from}\",\"to\":\"{to}\"",
                flow_str(flow)
            ),
            TraceEvent::CcRate { flow, rate } => write!(
                out,
                ",\"ev\":\"cc_rate\",\"flow\":\"{}\",\"rate\":{rate}",
                flow_str(flow)
            ),
            TraceEvent::Retransmit { flow, kind, seq } => write!(
                out,
                ",\"ev\":\"rexmit\",\"flow\":\"{}\",\"kind\":\"{kind}\",\"seq\":{seq}",
                flow_str(flow)
            ),
            TraceEvent::OooPlace { flow, start, len } => write!(
                out,
                ",\"ev\":\"ooo_place\",\"flow\":\"{}\",\"start\":{start},\"len\":{len}",
                flow_str(flow)
            ),
            TraceEvent::CoreScale { active, delta } => write!(
                out,
                ",\"ev\":\"core_scale\",\"active\":{active},\"delta\":{delta}"
            ),
            TraceEvent::Fault {
                verdict,
                flow,
                seq,
                dev,
            } => write!(
                out,
                ",\"ev\":\"fault\",\"verdict\":\"{verdict}\",\"flow\":\"{}\",\"seq\":{seq},\"dev\":{dev}",
                flow_str(flow)
            ),
            TraceEvent::EcnMark { flow, seq } => write!(
                out,
                ",\"ev\":\"ecn_mark\",\"flow\":\"{}\",\"seq\":{seq}",
                flow_str(flow)
            ),
            TraceEvent::Stage {
                stage,
                flow,
                seq,
                len,
                wait_ns,
            } => write!(
                out,
                ",\"ev\":\"stage\",\"stage\":\"{}\",\"flow\":\"{}\",\"seq\":{seq},\"len\":{len},\"wait_ns\":{wait_ns}",
                stage.name(),
                flow_str(flow)
            ),
        };
        out.push_str("}\n");
    }
    out
}

fn seg_json(seg: &Segment) -> String {
    format!(
        "\"src\":\"{}:{}\",\"dst\":\"{}:{}\",\"flags\":\"{}\",\"seq\":{},\"ack\":{},\"len\":{},\"ecn\":{}",
        seg.ip.src,
        seg.tcp.src_port,
        seg.ip.dst,
        seg.tcp.dst_port,
        flags_str(seg.tcp.flags),
        seg.tcp.seq,
        seg.tcp.ack,
        seg.payload.len(),
        seg.ip.ecn.bits(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use tas_proto::{MacAddr, TcpHeader};

    fn seg(seq: u32, len: usize) -> Box<Segment> {
        Box::new(Segment::tcp(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TcpHeader::new(5000, 80, seq, 9, TcpFlags::ACK | TcpFlags::PSH),
            vec![0xab; len],
            true,
        ))
    }

    fn rx(t_us: u64, seq: u32) -> TraceRecord {
        TraceRecord {
            t: SimTime::from_us(t_us),
            site: "fp",
            ev: TraceEvent::SegRx { seg: seg(seq, 8) },
        }
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        start(4);
        for i in 0..10 {
            emit(|| rx(i, i as u32));
        }
        assert_eq!(evicted(), 6);
        let recs = take();
        assert_eq!(recs.len(), 4);
        // Oldest evicted: the survivors are 6..10.
        match &recs[0].ev {
            TraceEvent::SegRx { seg } => assert_eq!(seg.tcp.seq, Seq(6)),
            _ => panic!("wrong event"),
        }
        stop();
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        stop();
        let mut ran = false;
        emit(|| {
            ran = true;
            rx(0, 0)
        });
        assert!(!ran, "closure must not run while disabled");
        assert!(take().is_empty());
    }

    #[test]
    fn jsonl_is_deterministic_and_covers_all_events() {
        let flow = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 2),
            80,
            Ipv4Addr::new(10, 0, 0, 1),
            5000,
        );
        let records = vec![
            rx(1, 42),
            TraceRecord {
                t: SimTime::from_us(2),
                site: "conn",
                ev: TraceEvent::SegTx { seg: seg(43, 0) },
            },
            TraceRecord {
                t: SimTime::from_us(3),
                site: "conn",
                ev: TraceEvent::State {
                    flow,
                    from: "established",
                    to: "fin_wait1",
                },
            },
            TraceRecord {
                t: SimTime::from_us(4),
                site: "sp",
                ev: TraceEvent::CcRate {
                    flow,
                    rate: 12_500_000,
                },
            },
            TraceRecord {
                t: SimTime::from_us(5),
                site: "fp",
                ev: TraceEvent::Retransmit {
                    flow,
                    kind: "fast",
                    seq: Seq(99),
                },
            },
            TraceRecord {
                t: SimTime::from_us(6),
                site: "fp",
                ev: TraceEvent::OooPlace {
                    flow,
                    start: 1448,
                    len: 1448,
                },
            },
            TraceRecord {
                t: SimTime::from_us(7),
                site: "host",
                ev: TraceEvent::CoreScale {
                    active: 3,
                    delta: -1,
                },
            },
            TraceRecord {
                t: SimTime::from_us(8),
                site: "fault",
                ev: TraceEvent::Fault {
                    verdict: "drop",
                    flow,
                    seq: Seq(7),
                    dev: 1,
                },
            },
            TraceRecord {
                t: SimTime::from_us(9),
                site: "switch",
                ev: TraceEvent::EcnMark { flow, seq: Seq(8) },
            },
        ];
        let a = render_jsonl(&records);
        let b = render_jsonl(&records);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), records.len());
        for line in a.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(a.contains("\"flow\":\"10.0.0.2:80<>10.0.0.1:5000\",\"from\":\"established\""));
        assert!(a.contains("\"ev\":\"ecn_mark\""));
    }
}
