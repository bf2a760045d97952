//! Per-component differential tests over the decomposed connection
//! state (DESIGN.md §16). Each test isolates one component of the
//! reference `tas-tcp` engine and pins its externally observable
//! behavior under seeded fault schedules:
//!
//!   * `RecvRel`  — the reassembler frontier: every byte arrives exactly
//!     once, in order, against a closed-form oracle stream, under
//!     seeded loss and duplication.
//!   * `SendRel`  — the retransmit schedule: a clean pipe produces zero
//!     retransmissions; a seeded lossy pipe forces retransmits without
//!     perturbing the frontier; and the whole schedule (counts and
//!     segment totals) is bit-reproducible for a fixed seed.
//!   * `CongCtrl` — the cwnd trajectory per CC implementation: for each
//!     of NewReno/DCTCP/TIMELY the sampled trajectory is bit-identical
//!     across re-runs of the same seed, and ECN-marked runs separate
//!     the algorithms observably.
//!
//! The decomposition refactor must keep all of these fixed — the tests
//! double as its behavior-preservation witnesses at component
//! granularity, complementing the outcome-level checks in
//! `tests/differential.rs`.

use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;
use tas_repro::proto::{Ecn, MacAddr, Segment, TcpFlags};
use tas_repro::sim::SimTime;
use tas_repro::tcp::{CcKind, TcpConfig, TcpConn, TcpState};

/// Drop/mutate filter: (segment, to_b, delivery index) -> drop?
type DropFilter = Box<dyn FnMut(&mut Segment, bool, u64) -> bool>;

fn ep(n: u32, port: u16) -> tas_repro::tcp::conn::EndpointInfo {
    tas_repro::tcp::conn::EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, n as u8),
        port,
        mac: MacAddr::for_host(n),
    }
}

/// Splitmix-style generator: the fault schedule is a pure function of
/// the seed and the per-segment delivery index, so two runs with the
/// same seed see byte-identical fault schedules.
fn schedule_bits(seed: u64, idx: u64) -> u64 {
    let mut z = seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A two-endpoint wire with one-way delay and a programmable fault
/// filter (same shape as the `tas-tcp` end-to-end harness).
struct Wire {
    a: TcpConn,
    b: TcpConn,
    now: SimTime,
    delay: SimTime,
    flight: Vec<(SimTime, bool, Segment)>,
    filter: DropFilter,
    seg_counter: u64,
}

/// The `(a, b)` initial sequence numbers every test runs at: a low pair,
/// and one whose streams cross 2^32 within the first few kilobytes.
const ISS_PAIRS: [(u32, u32); 2] = [
    (1_000_000, 2_000_000),
    (u32::MAX - 20_000, u32::MAX - 50_000),
];

impl Wire {
    fn connect_pair(cfg_a: TcpConfig, cfg_b: TcpConfig, (iss_a, iss_b): (u32, u32)) -> Wire {
        let ea = ep(1, 4000);
        let eb = ep(2, 80);
        let now = SimTime::from_us(10);
        let delay = SimTime::from_us(25);
        let mut a = TcpConn::connect(now, cfg_a, ea, eb, iss_a);
        let syns = a.take_outgoing();
        assert_eq!(syns.len(), 1);
        assert!(syns[0].tcp.flags.contains(TcpFlags::SYN));
        let b = TcpConn::accept(now + delay, cfg_b, eb, ea, &syns[0], iss_b);
        Wire {
            a,
            b,
            now: now + delay,
            delay,
            flight: Vec::new(),
            filter: Box::new(|_, _, _| false),
            seg_counter: 0,
        }
    }

    fn collect(&mut self) {
        let delay = self.delay;
        for (is_a, conn) in [(true, &mut self.a), (false, &mut self.b)] {
            if conn.has_outgoing() {
                for seg in conn.take_outgoing() {
                    self.flight.push((self.now + delay, is_a, seg));
                }
            }
        }
    }

    /// Runs until both sides are quiescent or `deadline` passes.
    fn pump_until(&mut self, deadline: SimTime) {
        loop {
            self.collect();
            let next_flight = self.flight.iter().map(|f| f.0).min();
            let next_timer = [self.a.next_timer(), self.b.next_timer()]
                .into_iter()
                .flatten()
                .min();
            let next = match (next_flight, next_timer) {
                (Some(f), Some(t)) => f.min(t),
                (Some(f), None) => f,
                (None, Some(t)) => t,
                (None, None) => break,
            };
            if next > deadline {
                break;
            }
            self.now = self.now.max(next);
            let mut due: Vec<(SimTime, bool, Segment)> = Vec::new();
            let mut i = 0;
            while i < self.flight.len() {
                if self.flight[i].0 <= self.now {
                    due.push(self.flight.remove(i));
                } else {
                    i += 1;
                }
            }
            due.sort_by_key(|d| d.0);
            for (_, to_b, mut seg) in due {
                let idx = self.seg_counter;
                self.seg_counter += 1;
                if (self.filter)(&mut seg, to_b, idx) {
                    continue;
                }
                if to_b {
                    self.b.on_segment(self.now, seg);
                } else {
                    self.a.on_segment(self.now, seg);
                }
            }
            if let Some(t) = self.a.next_timer() {
                if t <= self.now {
                    self.a.on_timer(self.now);
                    self.a.poll(self.now);
                }
            }
            if let Some(t) = self.b.next_timer() {
                if t <= self.now {
                    self.b.on_timer(self.now);
                    self.b.poll(self.now);
                }
            }
            let _ = self.a.take_events();
            let _ = self.b.take_events();
        }
    }

    fn pump(&mut self) {
        let deadline = self.now + SimTime::from_ms(50);
        self.pump_until(deadline);
    }
}

fn established_pair(cfg: TcpConfig, iss: (u32, u32)) -> Wire {
    let mut w = Wire::connect_pair(cfg.clone(), cfg, iss);
    w.pump_until(w.now + SimTime::from_secs(1));
    assert_eq!(w.a.state(), TcpState::Established);
    assert_eq!(w.b.state(), TcpState::Established);
    w
}

/// The oracle byte stream: a closed-form function of position and seed,
/// so the receiver-side check needs no copy of the sent buffer.
fn oracle_byte(seed: u64, i: usize) -> u8 {
    (schedule_bits(seed, i as u64 / 64) >> ((i % 64) / 8 * 8)) as u8
}

fn oracle_stream(seed: u64, len: usize) -> Vec<u8> {
    (0..len).map(|i| oracle_byte(seed, i)).collect()
}

/// Drives `len` oracle bytes a→b under the wire's current filter and
/// returns what `b`'s reassembler delivered. Panics if the transfer
/// stalls (frontier stopped advancing for a full simulated minute).
fn transfer(w: &mut Wire, seed: u64, len: usize) -> Vec<u8> {
    let data = oracle_stream(seed, len);
    let mut sent = 0;
    let mut received = Vec::new();
    let deadline = w.now + SimTime::from_secs(60);
    while received.len() < len {
        if sent < len {
            sent += w.a.send(&data[sent..]);
            w.a.poll(w.now);
        }
        w.pump();
        received.extend(w.b.recv(usize::MAX));
        w.b.poll(w.now);
        assert!(
            w.now < deadline,
            "transfer stalled at {}/{len}",
            received.len()
        );
    }
    received
}

// ---------------------------------------------------------------------------
// RecvRel: the reassembler frontier.
// ---------------------------------------------------------------------------

#[test]
fn recvrel_frontier_is_exactly_once_under_seeded_loss() {
    // Seeded loss + reordering through retransmission: the frontier must
    // deliver the oracle stream exactly once, in order, for every seed.
    for (seed, iss) in [0x5eed_0001u64, 0x5eed_0002, 0x5eed_0003]
        .into_iter()
        .flat_map(|seed| ISS_PAIRS.map(|iss| (seed, iss)))
    {
        let mut w = established_pair(TcpConfig::default(), iss);
        w.filter = Box::new(move |seg, to_b, idx| {
            // Drop ~3% of a→b data segments; never the handshake or ACKs.
            to_b && !seg.payload.is_empty() && schedule_bits(seed, idx) % 1000 < 30
        });
        let len = 120_000;
        let got = transfer(&mut w, seed, len);
        assert_eq!(got.len(), len, "seed {seed:#x} iss {iss:?}: frontier short");
        assert_eq!(
            got,
            oracle_stream(seed, len),
            "seed {seed:#x} iss {iss:?}: bytes mangled"
        );
        assert_eq!(
            w.b.stats.bytes_received, len as u64,
            "seed {seed:#x} iss {iss:?}: duplicate delivery past the frontier"
        );
    }
}

#[test]
fn recvrel_frontier_survives_overlapping_retransmits() {
    // A periodic drop schedule makes retransmissions overlap data the
    // receiver already buffered out of order (a retransmitted segment is
    // cut at a different boundary than the originals). The frontier must
    // absorb the overlap without double delivery — and without stranding
    // reassembler chunks below `rcv_off`, the corner this schedule
    // originally exposed in the reference engine.
    let seed = 0xd0d0_u64;
    for iss in ISS_PAIRS {
        let mut w = established_pair(TcpConfig::default(), iss);
        let dropped: Rc<Cell<u64>> = Rc::new(Cell::new(0));
        let d = Rc::clone(&dropped);
        w.filter = Box::new(move |seg, to_b, idx| {
            if to_b && !seg.payload.is_empty() && idx % 40 == 7 {
                d.set(d.get() + 1);
                return true;
            }
            false
        });
        let len = 80_000;
        let got = transfer(&mut w, seed, len);
        assert_eq!(got, oracle_stream(seed, len), "iss {iss:?}");
        assert!(
            dropped.get() > 0,
            "schedule must exercise the retransmit path"
        );
        assert_eq!(w.b.stats.bytes_received, len as u64, "iss {iss:?}");
    }
}

// ---------------------------------------------------------------------------
// SendRel: the retransmit schedule.
// ---------------------------------------------------------------------------

#[test]
fn sendrel_clean_pipe_retransmits_nothing() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(TcpConfig::default(), iss);
        let len = 100_000;
        let got = transfer(&mut w, 0xc1ea0_u64, len);
        assert_eq!(got.len(), len, "iss {iss:?}");
        assert_eq!(
            w.a.stats.retransmits, 0,
            "iss {iss:?}: clean pipe, zero retransmits"
        );
        assert_eq!(w.a.stats.fast_retransmits, 0, "iss {iss:?}");
        assert_eq!(w.a.stats.timeouts, 0, "iss {iss:?}");
    }
}

/// One lossy run reduced to its retransmit schedule.
#[derive(Debug, PartialEq, Eq)]
struct SendSchedule {
    segs_out: u64,
    retransmits: u64,
    fast_retransmits: u64,
    timeouts: u64,
    dropped: u64,
}

fn lossy_run(seed: u64, len: usize, iss: (u32, u32)) -> SendSchedule {
    let mut w = established_pair(TcpConfig::default(), iss);
    let dropped: Rc<Cell<u64>> = Rc::new(Cell::new(0));
    let d = Rc::clone(&dropped);
    w.filter = Box::new(move |seg, to_b, idx| {
        if to_b && !seg.payload.is_empty() && schedule_bits(seed ^ 0xbad, idx) % 1000 < 25 {
            d.set(d.get() + 1);
            return true;
        }
        false
    });
    let got = transfer(&mut w, seed, len);
    assert_eq!(
        got,
        oracle_stream(seed, len),
        "loss must not corrupt the frontier"
    );
    SendSchedule {
        segs_out: w.a.stats.segs_out,
        retransmits: w.a.stats.retransmits,
        fast_retransmits: w.a.stats.fast_retransmits,
        timeouts: w.a.stats.timeouts,
        dropped: dropped.get(),
    }
}

#[test]
fn sendrel_retransmit_schedule_covers_losses_and_is_reproducible() {
    let len = 120_000;
    for iss in ISS_PAIRS {
        let first = lossy_run(0x1055_u64, len, iss);
        assert!(first.dropped > 0, "the seeded schedule must actually drop");
        assert!(
            first.retransmits >= 1,
            "dropped data forces retransmission: {first:?}"
        );
        assert!(
            first.retransmits + 4 >= first.dropped / 8,
            "retransmits must track the drop count: {first:?}"
        );
        // Differential re-run: the schedule is a pure function of the seed.
        let second = lossy_run(0x1055_u64, len, iss);
        assert_eq!(
            first, second,
            "retransmit schedule must be seed-deterministic"
        );
        // A different seed produces a different schedule (the fault
        // injection is live, not vacuous).
        let other = lossy_run(0x2055_u64, len, iss);
        assert_ne!(
            (first.retransmits, first.dropped),
            (other.retransmits, other.dropped),
            "distinct seeds should yield distinct schedules: {first:?} vs {other:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// CongCtrl: cwnd trajectory per CC implementation.
// ---------------------------------------------------------------------------

/// Runs an ECN-marked transfer and samples the sender cwnd after every
/// pump slice: the congestion-control component's observable trajectory.
fn cwnd_trajectory(kind: CcKind, seed: u64, len: usize, iss: (u32, u32)) -> Vec<(u64, u32)> {
    let cfg = TcpConfig {
        cc: kind,
        ecn: true,
        ..TcpConfig::default()
    };
    let mut w = established_pair(cfg, iss);
    w.filter = Box::new(move |seg, to_b, idx| {
        // CE-mark ~8% of a→b data segments (switch-style marking).
        if to_b
            && !seg.payload.is_empty()
            && seg.ip.ecn == Ecn::Ect0
            && schedule_bits(seed ^ 0xce, idx) % 1000 < 80
        {
            seg.ip.ecn = Ecn::Ce;
        }
        false
    });
    let data = oracle_stream(seed, len);
    let mut sent = 0;
    let mut received = 0usize;
    let mut traj: Vec<(u64, u32)> = Vec::new();
    let deadline = w.now + SimTime::from_secs(60);
    while received < len {
        if sent < len {
            sent += w.a.send(&data[sent..]);
            w.a.poll(w.now);
        }
        // Fine-grained slices (~1 RTT) so the trajectory resolves
        // individual congestion responses, not just the endpoints.
        let slice_end = w.now + SimTime::from_us(50);
        w.pump_until(slice_end);
        if w.now < slice_end {
            w.now = slice_end;
        }
        received += w.b.recv(usize::MAX).len();
        w.b.poll(w.now);
        // Record changes only: the trajectory is the sequence of
        // (time, cwnd) transitions.
        if traj.last().map(|&(_, c)| c) != Some(w.a.cwnd()) {
            traj.push((w.now.as_micros(), w.a.cwnd()));
        }
        assert!(w.now < deadline, "transfer stalled at {received}/{len}");
    }
    traj
}

#[test]
fn congctrl_trajectories_are_seed_deterministic_per_impl() {
    let len = 400_000;
    for (kind, iss) in [CcKind::NewReno, CcKind::Dctcp]
        .into_iter()
        .flat_map(|kind| ISS_PAIRS.map(|iss| (kind, iss)))
    {
        let a = cwnd_trajectory(kind, 0xcc_0001, len, iss);
        let b = cwnd_trajectory(kind, 0xcc_0001, len, iss);
        assert_eq!(a, b, "{kind:?}: cwnd trajectory must be bit-reproducible");
        assert!(
            a.len() > 4,
            "{kind:?}: trajectory too short to be meaningful: {a:?}"
        );
    }
}

#[test]
fn congctrl_ecn_response_separates_newreno_and_dctcp() {
    // Under the same seeded CE-marking schedule, NewReno (halve per
    // ECE round trip) and DCTCP (alpha-proportional backoff) must
    // produce observably different cwnd trajectories.
    let len = 400_000;
    for iss in ISS_PAIRS {
        let reno = cwnd_trajectory(CcKind::NewReno, 0xcc_0002, len, iss);
        let dctcp = cwnd_trajectory(CcKind::Dctcp, 0xcc_0002, len, iss);
        assert_ne!(
            reno, dctcp,
            "iss {iss:?}: NewReno and DCTCP must react differently to CE marks"
        );
        // Both react to marks at all: neither trajectory is monotone
        // non-decreasing (a pure slow-start ramp would be).
        for (name, traj) in [("NewReno", &reno), ("DCTCP", &dctcp)] {
            assert!(
                traj.windows(2).any(|w| w[1].1 < w[0].1),
                "iss {iss:?}: {name}: CE marks must shrink cwnd at least once: {traj:?}"
            );
        }
    }
}
