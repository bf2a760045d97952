//! End-to-end tests of the TCP engine over an in-memory wire with
//! configurable latency and programmable drops.

use std::net::Ipv4Addr;
use tas_proto::{Ecn, MacAddr, Segment, Seq, TcpFlags};
use tas_sim::SimTime;
use tas_tcp::{CcKind, TcpConfig, TcpConn, TcpEvent, TcpState};

/// Drop/mutate filter: (segment, to_b, delivery index) -> drop?
type DropFilter = Box<dyn FnMut(&mut Segment, bool, u64) -> bool>;

fn ep(n: u32, port: u16) -> tas_tcp::conn::EndpointInfo {
    tas_tcp::conn::EndpointInfo {
        ip: Ipv4Addr::new(10, 0, 0, n as u8),
        port,
        mac: MacAddr::for_host(n),
    }
}

/// A two-endpoint wire: delivers staged segments with one-way `delay`,
/// optionally dropping or mutating them, and fires connection timers.
struct Wire {
    a: TcpConn,
    b: TcpConn,
    now: SimTime,
    delay: SimTime,
    /// In-flight: (deliver_at, to_b, segment).
    flight: Vec<(SimTime, bool, Segment)>,
    /// Returns true to drop; may mutate (e.g. set CE). Args: (segment,
    /// to_b, index of this segment since start).
    filter: DropFilter,
    seg_counter: u64,
    events_a: Vec<TcpEvent>,
    events_b: Vec<TcpEvent>,
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
        // Deliver the SYN to the listener by constructing the acceptor
        // directly from it (the listener-side demux is a host concern).
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
            events_a: Vec::new(),
            events_b: Vec::new(),
        }
    }

    fn collect(&mut self, from_a_only: bool) {
        let delay = self.delay;
        for (is_a, conn) in [(true, &mut self.a), (false, &mut self.b)] {
            if from_a_only && !is_a {
                continue;
            }
            if conn.has_outgoing() {
                for seg in conn.take_outgoing() {
                    // Segments staged by `a` travel to `b` and vice versa.
                    self.flight.push((self.now + delay, is_a, seg));
                }
            }
        }
    }

    /// Runs until both sides are quiescent or `deadline` passes.
    fn pump_until(&mut self, deadline: SimTime) {
        loop {
            self.collect(false);
            // Earliest of: in-flight delivery, a timer.
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
            // Deliver all due segments (stable order).
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
            // Fire due timers.
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
            self.events_a.extend(self.a.take_events());
            self.events_b.extend(self.b.take_events());
        }
        self.events_a.extend(self.a.take_events());
        self.events_b.extend(self.b.take_events());
    }

    fn pump(&mut self) {
        // One slice covers the largest RTO; persist/probe timers mean a
        // connection with pending data is never fully quiescent, so pump
        // in bounded slices rather than to silence.
        let deadline = self.now + SimTime::from_secs(1);
        self.pump_until(deadline);
    }
}

fn established_pair(iss: (u32, u32)) -> Wire {
    let mut w = Wire::connect_pair(TcpConfig::default(), TcpConfig::default(), iss);
    w.pump();
    assert_eq!(w.a.state(), TcpState::Established);
    assert_eq!(w.b.state(), TcpState::Established);
    w
}

#[test]
fn handshake_establishes_and_negotiates_ecn() {
    for iss in ISS_PAIRS {
        let mut w = Wire::connect_pair(TcpConfig::default(), TcpConfig::default(), iss);
        w.pump();
        assert_eq!(w.a.state(), TcpState::Established);
        assert_eq!(w.b.state(), TcpState::Established);
        assert!(w.a.ecn_active(), "client negotiated ECN");
        assert!(w.b.ecn_active(), "server negotiated ECN");
        assert!(w.events_a.contains(&TcpEvent::Connected));
        assert!(w.events_b.contains(&TcpEvent::Connected));
        // Handshake RTT sample (2 * 25us wire delay).
        let srtt = w.a.srtt().expect("rtt measured");
        assert!(
            srtt >= SimTime::from_us(40) && srtt <= SimTime::from_us(80),
            "srtt {srtt}"
        );
    }
}

#[test]
fn ecn_not_negotiated_when_one_side_disables() {
    for iss in ISS_PAIRS {
        let cfg_off = TcpConfig {
            ecn: false,
            ..TcpConfig::default()
        };
        let mut w = Wire::connect_pair(TcpConfig::default(), cfg_off, iss);
        w.pump();
        assert!(!w.a.ecn_active());
        assert!(!w.b.ecn_active());
    }
}

#[test]
fn bulk_transfer_delivers_bytes_intact() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        while received.len() < data.len() {
            if sent < data.len() {
                sent += w.a.send(&data[sent..]);
                w.a.poll(w.now);
            }
            w.pump();
            received.extend(w.b.recv(usize::MAX));
            w.b.poll(w.now);
            assert!(w.now < SimTime::from_secs(30), "transfer stalled");
        }
        assert_eq!(received, data);
        assert_eq!(w.a.stats.retransmits, 0, "lossless wire: no retransmits");
    }
}

#[test]
fn bidirectional_transfer() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        let da: Vec<u8> = vec![0xaa; 50_000];
        let db: Vec<u8> = vec![0xbb; 50_000];
        let (mut sa, mut sb) = (0, 0);
        let (mut ra, mut rb) = (Vec::new(), Vec::new());
        while ra.len() < db.len() || rb.len() < da.len() {
            if sa < da.len() {
                sa += w.a.send(&da[sa..]);
                w.a.poll(w.now);
            }
            if sb < db.len() {
                sb += w.b.send(&db[sb..]);
                w.b.poll(w.now);
            }
            w.pump();
            ra.extend(w.a.recv(usize::MAX));
            rb.extend(w.b.recv(usize::MAX));
            w.a.poll(w.now);
            w.b.poll(w.now);
            assert!(w.now < SimTime::from_secs(30), "transfer stalled");
        }
        assert!(ra.iter().all(|&b| b == 0xbb));
        assert!(rb.iter().all(|&b| b == 0xaa));
    }
}

#[test]
fn single_drop_recovers_via_fast_retransmit() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        // Drop the 5th data segment toward b, once.
        let mut dropped = false;
        w.filter = Box::new(move |seg, to_b, _| {
            let off = seg.tcp.seq - (Seq(iss.0) + 1);
            if to_b && !seg.payload.is_empty() && off >= 4 * 1448 && !dropped {
                dropped = true;
                return true;
            }
            false
        });
        let data: Vec<u8> = (0..100_000u32).map(|i| (i % 127) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        while received.len() < data.len() {
            if sent < data.len() {
                sent += w.a.send(&data[sent..]);
                w.a.poll(w.now);
            }
            w.pump();
            received.extend(w.b.recv(usize::MAX));
            w.b.poll(w.now);
            assert!(w.now < SimTime::from_secs(30), "recovery stalled");
        }
        assert_eq!(received, data);
        assert!(
            w.a.stats.fast_retransmits >= 1,
            "expected fast retransmit, stats: {:?}",
            w.a.stats
        );
        assert_eq!(w.a.stats.timeouts, 0, "should recover without RTO");
    }
}

#[test]
fn heavy_loss_still_completes_with_timeouts() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        // Pseudorandomly drop ~8% of data segments toward b (deterministic in
        // the delivery index, but not phase-locked to the window).
        w.filter = Box::new(|seg, to_b, idx| {
            to_b && !seg.payload.is_empty() && (idx.wrapping_mul(2_654_435_761) >> 16) % 100 < 8
        });
        let data: Vec<u8> = (0..60_000u32).map(|i| (i % 101) as u8).collect();
        let mut sent = 0;
        let mut received = Vec::new();
        while received.len() < data.len() {
            if sent < data.len() {
                sent += w.a.send(&data[sent..]);
                w.a.poll(w.now);
            }
            w.pump();
            received.extend(w.b.recv(usize::MAX));
            w.b.poll(w.now);
            assert!(w.now < SimTime::from_secs(60), "lossy transfer stalled");
        }
        assert_eq!(received, data);
        assert!(w.a.stats.retransmits > 0);
    }
}

#[test]
fn syns_offer_fixed_options_and_time_wait_lasts_one_ms() {
    for iss in ISS_PAIRS {
        let cfg = TcpConfig::default;
        let (ea, eb, now) = (ep(1, 4000), ep(2, 80), SimTime::from_us(10));
        let mut a = TcpConn::connect(now, cfg(), ea, eb, iss.0);
        let syn = a.take_outgoing().remove(0);
        let mut b = TcpConn::accept(now, cfg(), eb, ea, &syn, iss.1);
        let syn_ack = b.take_outgoing().remove(0);
        for seg in [&syn, &syn_ack] {
            let o = &seg.tcp.options;
            assert!(seg.tcp.flags.contains(TcpFlags::SYN));
            assert_eq!(o.mss, Some(1448));
            assert_eq!(o.wscale, Some(7));
            assert!(o.sack_permitted);
            assert!(o.timestamp.is_some());
        }

        // `a` closes first; once `b`'s FIN reaches it, it waits 1 ms in
        // TIME_WAIT and then closes.
        let mut w = established_pair(iss);
        w.a.close();
        w.a.poll(w.now);
        w.pump();
        assert_eq!(w.a.state(), TcpState::FinWait2);
        w.b.close();
        w.b.poll(w.now);
        let fin = w.b.take_outgoing().remove(0);
        assert!(fin.tcp.flags.contains(TcpFlags::FIN));
        let t = w.now + SimTime::from_us(25);
        w.a.on_segment(t, fin);
        assert_eq!(w.a.state(), TcpState::TimeWait);
        assert_eq!(w.a.next_timer(), Some(t + SimTime::from_ms(1)));
        w.a.on_timer(t + SimTime::from_us(999));
        assert_eq!(w.a.state(), TcpState::TimeWait);
        w.a.on_timer(t + SimTime::from_ms(1));
        assert_eq!(w.a.state(), TcpState::Closed);
    }
}

#[test]
fn flow_control_blocks_and_window_update_unblocks() {
    for iss in ISS_PAIRS {
        let cfg_small = TcpConfig {
            recv_buf: 8 * 1024,
            ..TcpConfig::default()
        };
        let mut w = Wire::connect_pair(TcpConfig::default(), cfg_small, iss);
        w.pump();
        let data = vec![9u8; 64 * 1024];
        let mut sent = w.a.send(&data);
        w.a.poll(w.now);
        w.pump();
        // Receiver app hasn't read: at most ~recv_buf delivered.
        assert!(w.b.readable() <= 8 * 1024);
        let in_flight_stalled = w.a.in_flight();
        assert!(in_flight_stalled <= 9 * 1024, "sender must respect rwnd");
        // Now the app reads everything repeatedly; transfer completes.
        let mut received = Vec::new();
        while received.len() < data.len() {
            received.extend(w.b.recv(usize::MAX));
            w.b.poll(w.now);
            if sent < data.len() {
                sent += w.a.send(&data[sent..]);
                w.a.poll(w.now);
            }
            w.pump();
            assert!(w.now < SimTime::from_secs(30), "window update lost");
        }
        assert_eq!(received.len(), data.len());
    }
}

/// Runs a two-stage transfer: grow the window on a clean wire, then
/// transfer again with every to-b data segment CE-marked. Returns (cwnd
/// after stage 1, cwnd after stage 2, sender stats).
fn marked_transfer(cc: CcKind, iss: (u32, u32)) -> (u32, u32, tas_tcp::ConnStats) {
    let cfg = TcpConfig {
        cc,
        ..TcpConfig::default()
    };
    let mut w = Wire::connect_pair(cfg.clone(), cfg, iss);
    w.pump();
    let stage1: Vec<u8> = vec![1; 100_000];
    let mut sent = 0;
    let mut got = 0;
    while got < stage1.len() {
        if sent < stage1.len() {
            sent += w.a.send(&stage1[sent..]);
            w.a.poll(w.now);
        }
        w.pump();
        got += w.b.recv(usize::MAX).len();
        w.b.poll(w.now);
    }
    let grown = w.a.cwnd();
    assert!(
        grown > 10 * 1448,
        "slow start should grow cwnd, got {grown}"
    );
    // Stage 2: mark every to-b data segment CE (a saturated ECN switch).
    w.filter = Box::new(|seg, to_b, _| {
        if to_b && !seg.payload.is_empty() && seg.ip.ecn == Ecn::Ect0 {
            seg.ip.ecn = Ecn::Ce;
        }
        false
    });
    let stage2: Vec<u8> = vec![2; 300_000];
    sent = 0;
    got = 0;
    while got < stage2.len() {
        if sent < stage2.len() {
            sent += w.a.send(&stage2[sent..]);
            w.a.poll(w.now);
        }
        w.pump();
        got += w.b.recv(usize::MAX).len();
        w.b.poll(w.now);
        assert!(w.now < SimTime::from_secs(30));
    }
    (grown, w.a.cwnd(), w.a.stats)
}

#[test]
fn ce_marks_echoed_and_dctcp_backs_off() {
    for iss in ISS_PAIRS {
        let (grown, final_cwnd, stats) = marked_transfer(CcKind::Dctcp, iss);
        assert!(stats.ece_in > 0, "ECE must be echoed: {stats:?}");
        assert!(
            final_cwnd < grown,
            "DCTCP must back off under persistent marking: {final_cwnd} vs {grown}"
        );
    }
}

#[test]
fn graceful_close_both_directions() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        w.a.send(b"last words");
        w.a.poll(w.now);
        w.a.close();
        w.a.poll(w.now);
        w.pump();
        assert_eq!(w.b.recv(usize::MAX), b"last words");
        assert!(w.events_b.contains(&TcpEvent::PeerFin));
        assert_eq!(w.b.state(), TcpState::CloseWait);
        assert_eq!(w.a.state(), TcpState::FinWait2);
        w.b.close();
        w.b.poll(w.now);
        w.pump();
        assert_eq!(w.b.state(), TcpState::Closed);
        // a passes through TIME_WAIT and then closes.
        assert!(matches!(w.a.state(), TcpState::TimeWait | TcpState::Closed));
        w.pump_until(w.now + SimTime::from_ms(10));
        assert_eq!(w.a.state(), TcpState::Closed);
        assert!(w.events_a.contains(&TcpEvent::Closed));
    }
}

#[test]
fn simultaneous_close() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        w.a.close();
        w.b.close();
        w.a.poll(w.now);
        w.b.poll(w.now);
        w.pump();
        w.pump_until(w.now + SimTime::from_ms(10));
        assert_eq!(w.a.state(), TcpState::Closed);
        assert_eq!(w.b.state(), TcpState::Closed);
    }
}

#[test]
fn abort_resets_peer() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        w.a.abort(w.now);
        w.pump();
        assert_eq!(w.a.state(), TcpState::Closed);
        assert_eq!(w.b.state(), TcpState::Closed);
        assert!(w.events_b.contains(&TcpEvent::Reset));
    }
}

#[test]
fn lost_fin_is_retransmitted() {
    for iss in ISS_PAIRS {
        let mut w = established_pair(iss);
        // Drop the first FIN toward b.
        let mut dropped = false;
        w.filter = Box::new(move |seg, to_b, _| {
            if to_b && seg.tcp.flags.contains(TcpFlags::FIN) && !dropped {
                dropped = true;
                return true;
            }
            false
        });
        w.a.close();
        w.a.poll(w.now);
        w.pump();
        assert!(
            w.events_b.contains(&TcpEvent::PeerFin),
            "FIN must arrive after retransmit"
        );
        assert!(w.a.stats.retransmits >= 1);
    }
}

#[test]
fn newreno_reduces_on_ece() {
    for iss in ISS_PAIRS {
        let (grown, final_cwnd, stats) = marked_transfer(CcKind::NewReno, iss);
        assert!(stats.ece_in > 0, "ECE must be echoed: {stats:?}");
        assert!(
            final_cwnd < grown,
            "NewReno must reduce after ECE: {final_cwnd} vs {grown}"
        );
    }
}
