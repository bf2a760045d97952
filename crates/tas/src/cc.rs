//! Slow-path congestion-control policies: rate-based DCTCP and TIMELY.
//!
//! The slow path runs one control iteration per flow every control
//! interval τ (§3.2): it reads the congestion feedback the fast path
//! accumulated (`cnt_ackb`, `cnt_ecnb`, `cnt_frexmits`, `rtt_est`),
//! computes a new rate, and writes it back into the flow's bucket.
//!
//! The control *laws* live in the shared `tas-cc` crate (the rate facet
//! of [`tas_cc::CongCtrl`]) so the reference TCP engine and the TAS
//! slow path exercise one implementation; this module is the façade
//! that drains a flow's feedback counters into a [`tas_cc::RateFeedback`]
//! and runs the iteration over the flow's persistent `CcState`.

use crate::flow::FlowState;
use tas_cc::{Dctcp, Timely};

pub use tas_cc::{DctcpRateParams, TimelyParams};

/// MSS handed to the shared algorithm constructors. The rate facet never
/// reads it (it sizes the window facet's cwnd only), so any value works;
/// use the stack default for clarity.
const RATE_FACADE_MSS: u32 = 1448;

/// One rate-based DCTCP control iteration (paper §3.2 and §5.5).
///
/// Uses and resets the flow's accumulated feedback; returns the new rate
/// in bits/second, which the caller installs into the flow's bucket.
pub fn dctcp_rate_iteration(
    flow: &mut FlowState,
    current_bps: u64,
    interval_secs: f64,
    p: &DctcpRateParams,
) -> u64 {
    let rtt = flow.conn.rtt_est_us();
    let fb = flow.cc.take_feedback(rtt);
    let algo = Dctcp::with_rate_params(RATE_FACADE_MSS, *p);
    flow.cc.rate_iteration(&algo, fb, current_bps, interval_secs)
}

/// One TIMELY control iteration.
pub fn timely_iteration(flow: &mut FlowState, current_bps: u64, p: &TimelyParams) -> u64 {
    let rtt = flow.conn.rtt_est_us();
    let fb = flow.cc.take_feedback(rtt);
    let algo = Timely::with_params(RATE_FACADE_MSS, *p);
    // TIMELY is interval-free: the gradient normalizes by RTT, not τ.
    flow.cc.rate_iteration(&algo, fb, current_bps, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{
        FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, RateBucket,
    };
    use std::net::Ipv4Addr;
    use tas_proto::FlowKey;
    use tas_shm::ByteRing;

    // The control laws themselves are tested beside their code in
    // `tas-cc`; these cover what the façade adds — draining the flow's
    // counters and RTT estimate into the law's input.

    fn flow(rtt_est_us: u32) -> FlowState {
        let mut conn = FpConnMgmt::new(
            0,
            0,
            FlowKey::new(Ipv4Addr::UNSPECIFIED, 1, Ipv4Addr::UNSPECIFIED, 2),
            tas_proto::MacAddr::for_host(1),
            0,
        );
        conn.rtt_sample(rtt_est_us);
        FlowState {
            conn,
            snd: FpSendRel::new(ByteRing::new(64), 0),
            rcv: FpRecvRel::new(ByteRing::new(64), 0),
            fc: FpFlowCtrl::new(0, 0),
            cc: FpCongCtrl::new(RateBucket::unlimited()),
        }
    }

    const INTERVAL: f64 = 200e-6;

    #[test]
    fn dctcp_iteration_drains_the_flow_counters() {
        let mut f = flow(100);
        let p = DctcpRateParams::default();
        // Sending flat out at 1 Gbps, every byte marked, one fast rexmit.
        f.cc.count_acked((1e9 * INTERVAL / 8.0) as u64, true);
        f.cc.count_fast_rexmit();
        let r = dctcp_rate_iteration(&mut f, 1_000_000_000, INTERVAL, &p);
        assert_eq!(r, 500_000_000, "the loss signal reached the law");
        assert!(!f.cc.state().slow_start, "so did the marks");
        assert_eq!(
            (f.cc.cnt_ackb(), f.cc.cnt_ecnb(), f.cc.cnt_frexmits()),
            (0, 0, 0)
        );
        // Drained: the next iteration sees an idle flow and holds the rate.
        assert_eq!(dctcp_rate_iteration(&mut f, r, INTERVAL, &p), r);
    }

    #[test]
    fn timely_iteration_drains_the_counters_and_reads_the_rtt() {
        let mut f = flow(30); // Below t_low: slow start doubles.
        let p = TimelyParams::default();
        f.cc.count_acked(1000, false);
        let r = timely_iteration(&mut f, 100_000_000, &p);
        assert_eq!(r, 200_000_000);
        assert_eq!(f.cc.cnt_ackb(), 0);
        assert_eq!(
            f.cc.state().prev_rtt_us,
            30,
            "the flow's estimate fed the law"
        );
    }
}
