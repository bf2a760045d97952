//! Bit-identity anchors for the shared congestion-control crate.
//!
//! These trajectories were captured from the reference TCP engine's
//! window NewReno/DCTCP and the TAS slow path's rate DCTCP/TIMELY before
//! both moved into `tas-cc`, driven by fixed LCG-seeded feedback scripts.
//! The window algorithms behind `tas_cc::CongCtrl` and the rate laws
//! `tas_cc::{dctcp_rate, timely_rate}`, fed through the fast path's
//! `FpCongCtrl::take_feedback`, must reproduce every value bit-for-bit —
//! cwnd/ssthresh exactly, rates exactly, and the f64 EWMA state compared
//! at the bit level — proving no arithmetic step changed.

use std::net::Ipv4Addr;
use tas_repro::cc::{dctcp_rate, make_cc, timely_rate, AckInfo, CcKind, CcState};
use tas_repro::proto::{FlowKey, MacAddr};
use tas_repro::shm::ByteRing;
use tas_repro::sim::SimTime;
use tas_repro::tas::flow::{
    FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
};

/// The capture harness's deterministic script generator.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// Connection-management state whose RTT estimate is exactly `rtt_est_us`
/// (the first sample seeds the EWMA).
fn conn_with_rtt(rtt_est_us: u32) -> FpConnMgmt {
    let mut conn = FpConnMgmt::new(
        0,
        0,
        FlowKey::new(Ipv4Addr::UNSPECIFIED, 1, Ipv4Addr::UNSPECIFIED, 2),
        MacAddr::for_host(1),
        0,
    );
    conn.rtt_sample(rtt_est_us);
    conn
}

fn flow() -> FlowState {
    FlowState {
        conn: conn_with_rtt(0),
        snd: FpSendRel::new(ByteRing::new(65536), 0),
        rcv: FpRecvRel::new(ByteRing::new(65536), 0),
        fc: FpFlowCtrl::new(65536, 7),
        cc: FpCongCtrl::new(RateBucket::unlimited()),
    }
}

/// Drives a window-mode CC through the fixed script and returns the
/// (cwnd, ssthresh) trajectory.
fn window_trajectory(kind: CcKind) -> Vec<(u32, u32)> {
    let mut cc = make_cc(kind, 1448);
    let mut lcg = Lcg(0x5eed_0001);
    let mut traj = Vec::new();
    let mut now_us: u64 = 0;
    for step in 0..64 {
        now_us += 100 + lcg.next() % 400;
        let r = lcg.next() % 100;
        if r < 70 {
            let acked = (1 + lcg.next() % 3) as u32 * 1448;
            let ece = lcg.next().is_multiple_of(10);
            let srtt = if lcg.next().is_multiple_of(4) {
                None
            } else {
                Some(SimTime::from_us(50 + lcg.next() % 300))
            };
            cc.on_ack(AckInfo {
                acked,
                ece,
                now: SimTime::from_us(now_us),
                srtt,
            });
        } else if r < 85 {
            cc.on_fast_retransmit();
        } else if step % 17 == 13 {
            cc.on_timeout();
        } else {
            cc.on_ack(AckInfo {
                acked: 1448,
                ece: true,
                now: SimTime::from_us(now_us),
                srtt: Some(SimTime::from_us(120)),
            });
        }
        traj.push((cc.cwnd(), cc.ssthresh()));
    }
    traj
}

#[test]
fn newreno_window_trajectory_is_bit_identical() {
    let golden: &[(u32, u32)] = &[
        (15928, 4294967295),
        (17376, 4294967295),
        (8688, 8688),
        (8688, 8688),
        (4344, 4344),
        (5792, 4344),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (1448, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (7240, 2896),
        (7240, 2896),
        (7240, 2896),
        (3620, 3620),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (7240, 2896),
        (7240, 2896),
        (8688, 2896),
        (8688, 2896),
        (4344, 4344),
        (5792, 4344),
        (2896, 2896),
        (2896, 2896),
        (2896, 2896),
        (2896, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (4344, 2896),
        (5792, 2896),
        (5792, 2896),
        (7240, 2896),
        (3620, 3620),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (5792, 2896),
        (7240, 2896),
        (7240, 2896),
        (8688, 2896),
    ];
    assert_eq!(window_trajectory(CcKind::NewReno), golden);
}

#[test]
fn dctcp_window_trajectory_is_bit_identical() {
    let golden: &[(u32, u32)] = &[
        (15928, 4294967295),
        (17376, 4294967295),
        (8688, 8688),
        (8688, 8688),
        (4871, 4871),
        (6319, 4871),
        (3159, 3159),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (1448, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (5792, 2896),
        (7240, 2896),
        (7240, 2896),
        (5786, 5786),
        (2896, 2896),
        (4344, 2896),
        (3450, 3450),
        (4898, 3450),
        (6346, 3450),
        (3173, 3173),
        (4621, 3173),
        (6069, 3173),
        (6069, 3173),
        (7517, 3173),
        (7517, 3173),
        (8965, 3173),
        (7766, 7766),
        (7766, 7766),
        (6626, 6626),
        (5507, 5507),
        (4463, 4463),
        (2896, 2896),
        (4344, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (4344, 2896),
        (5792, 2896),
        (5792, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (2896, 2896),
        (2896, 2896),
        (2896, 2896),
        (4344, 2896),
        (5792, 2896),
        (5792, 2896),
        (7240, 2896),
        (7240, 2896),
        (8688, 2896),
    ];
    assert_eq!(window_trajectory(CcKind::Dctcp), golden);
}

#[test]
fn dctcp_rate_trajectory_is_bit_identical() {
    let golden: &[u64] = &[
        5085000, 2741676, 1370838, 11370838, 6704077, 16704077, 10503809, 20503809, 30503809,
        40503809, 50503809, 25251904, 18444434, 28444434, 21405432, 31405432, 41405432, 51405432,
        61405432, 49113269, 24556634, 19702117, 29702117, 39702117, 33182281, 43182281, 53182281,
        63182281, 31591140, 41591140, 51591140, 25795570, 35795570, 45795570, 40530777, 50530777,
        44793171, 39247873, 49247873, 59247873, 69247873, 61102962, 71102962, 81102962, 40551481,
        50551481, 60551481, 70551481,
    ];
    let mut f = flow();
    let mut st = CcState::new();
    let mut lcg = Lcg(0x5eed_0002);
    let mut rate: u64 = 10_000_000;
    let mut out = Vec::new();
    for _ in 0..48 {
        let ackb = lcg.next() % 200_000;
        let ecnb = if lcg.next().is_multiple_of(3) {
            lcg.next() % (ackb + 1)
        } else {
            0
        };
        f.cc.count_acked(ackb - ecnb, false);
        f.cc.count_acked(ecnb, true);
        if lcg.next().is_multiple_of(8) {
            f.cc.count_fast_rexmit();
        }
        let fb = f.cc.take_feedback(f.conn.rtt_est_us());
        rate = dctcp_rate(&mut st, fb, rate, 0.0005);
        out.push(rate);
    }
    assert_eq!(out, golden);
    // The f64 EWMA state must come out bit-exact, not merely close.
    assert_eq!(st.alpha.to_bits(), 0x3fc471714228e5e6);
    assert_eq!(st.rate_ewma.to_bits(), 0x41d4e966fc73e9ce);
    assert!(!st.slow_start);
}

#[test]
fn timely_rate_trajectory_is_bit_identical() {
    let golden: &[u64] = &[
        20000000, 3999999, 3693308, 2882817, 12882817, 12801021, 22801021, 19660218, 16162350,
        26162350, 22501347, 32501347, 27673785, 24521916, 22869156, 32869156, 6573831, 5583487,
        5170045, 15170045, 3034008, 2506024, 2417857, 2357879, 12357879, 22357879, 20821030,
        30821030, 40821030, 8164205, 6324912, 16324912, 14276727, 24276727, 4855345, 4779182,
        14779182, 24779182, 19661582, 29661582, 39661582, 7932316, 1586463, 11586463, 2317292,
        12317292, 22317292, 32317292,
    ];
    let mut f = flow();
    let mut st = CcState::new();
    let mut lcg = Lcg(0x5eed_0003);
    let mut rate: u64 = 10_000_000;
    let mut out = Vec::new();
    for _ in 0..48 {
        f.cc.count_acked(lcg.next() % 200_000, false);
        f.conn = conn_with_rtt((20 + lcg.next() % 700) as u32);
        let fb = f.cc.take_feedback(f.conn.rtt_est_us());
        rate = timely_rate(&mut st, fb, rate);
        out.push(rate);
    }
    assert_eq!(out, golden);
    assert_eq!(st.prev_rtt_us, 230);
    assert!(!st.slow_start);
}
