//! `SendRel`: send-side reliability — the transmit ring and its offsets
//! (`snd_una`/`snd_nxt` as stream offsets), duplicate-ACK counting, fast
//! recovery state, RTT estimation, and the retransmission timer. The
//! fields are private to this module: all mutation goes through `&mut
//! self` methods here, everything else reads through getters.

use crate::rtt::RttEstimator;
use tas_proto::tcp::Seq;
use tas_shm::ByteRing;
use tas_sim::SimTime;

/// Send-reliability component: owns everything the sender needs to get
/// bytes delivered exactly once, in order.
///
/// The write scope is the compiler's: outside this module the state is
/// readable through getters only.
///
/// ```
/// fn in_flight(snd: &tas_tcp::conn::SendRel) -> u64 {
///     snd.nxt_off() - snd.una_off()
/// }
/// ```
///
/// ```compile_fail,E0616
/// fn rewind(snd: &mut tas_tcp::conn::SendRel) {
///     snd.nxt_off = 0; // private field: only `SendRel`'s own methods write it
/// }
/// ```
#[derive(Debug)]
pub struct SendRel {
    /// Initial send sequence number.
    iss: Seq,
    /// Stream offset of the first unacknowledged byte (`snd_una`).
    una_off: u64,
    /// Stream offset of the next byte to transmit (`snd_nxt`).
    nxt_off: u64,
    /// Highest offset ever transmitted; go-back-N rewinds `nxt_off`, but
    /// cumulative ACKs up to this mark must still be accepted.
    max_sent_off: u64,
    /// Send buffer (unacknowledged + queued bytes).
    tx: ByteRing,
    /// Consecutive duplicate ACKs at the current left edge.
    dupacks: u32,
    /// In NewReno fast recovery.
    in_recovery: bool,
    /// Recovery ends when `una_off` reaches this offset.
    recover_off: u64,
    /// SACK-style recovery sweep: next offset to retransmit on further
    /// duplicate ACKs (the receiver holds out-of-order data, so sweeping
    /// the window fills holes without waiting for an RTO).
    recovery_cursor_off: u64,
    /// RTT estimator (Jacobson/Karels via timestamps).
    rtt: RttEstimator,
    /// Retransmission (and zero-window persist) timer.
    rto_deadline: Option<SimTime>,
}

impl SendRel {
    pub(crate) fn new(iss: Seq, send_buf: usize, rto_min: SimTime, rto_max: SimTime) -> SendRel {
        SendRel {
            iss,
            una_off: 0,
            nxt_off: 0,
            max_sent_off: 0,
            tx: ByteRing::new(send_buf),
            dupacks: 0,
            in_recovery: false,
            recover_off: 0,
            recovery_cursor_off: 0,
            rtt: RttEstimator::new(rto_min, rto_max),
            rto_deadline: None,
        }
    }

    /// Initial send sequence number.
    #[inline]
    pub fn iss(&self) -> Seq {
        self.iss
    }

    /// Stream offset of the first unacknowledged byte (`snd_una`).
    #[inline]
    pub fn una_off(&self) -> u64 {
        self.una_off
    }

    /// Stream offset of the next byte to transmit (`snd_nxt`).
    #[inline]
    pub fn nxt_off(&self) -> u64 {
        self.nxt_off
    }

    /// Highest offset ever transmitted.
    #[inline]
    pub fn max_sent_off(&self) -> u64 {
        self.max_sent_off
    }

    /// Read view of the send buffer.
    #[inline]
    pub fn tx(&self) -> &ByteRing {
        &self.tx
    }

    /// Consecutive duplicate ACKs at the current left edge.
    #[inline]
    pub fn dupacks(&self) -> u32 {
        self.dupacks
    }

    /// In NewReno fast recovery.
    #[inline]
    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Recovery ends when `una_off` reaches this offset.
    #[inline]
    pub fn recover_off(&self) -> u64 {
        self.recover_off
    }

    /// Next offset the SACK-style recovery sweep retransmits.
    #[inline]
    pub fn recovery_cursor_off(&self) -> u64 {
        self.recovery_cursor_off
    }

    /// Read view of the RTT estimator.
    #[inline]
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Retransmission (and persist) timer deadline.
    #[inline]
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Buffers application bytes; returns how many fit.
    pub(crate) fn buffer(&mut self, data: &[u8]) -> usize {
        self.tx.append_partial(data)
    }

    /// Advances the left edge by `newly` acknowledged bytes (of which
    /// `payload` are ring bytes to release; the rest is a FIN).
    /// Returns false on ring-accounting failure (audited by caller).
    pub(crate) fn advance_una(&mut self, newly: u64, payload: u64) -> bool {
        self.una_off += newly;
        // The ACK may land beyond a rewound nxt: resume from there.
        self.nxt_off = self.nxt_off.max(self.una_off);
        if payload > 0 && self.tx.consume(payload).is_err() {
            return false;
        }
        true
    }

    /// Records `n` freshly transmitted bytes.
    pub(crate) fn note_sent(&mut self, n: u64) {
        self.nxt_off += n;
        self.max_sent_off = self.max_sent_off.max(self.nxt_off);
    }

    /// Go-back-N: rewinds the transmit cursor to the left edge.
    pub(crate) fn rewind_to_una(&mut self) {
        self.nxt_off = self.una_off;
    }

    pub(crate) fn reset_dupacks(&mut self) {
        self.dupacks = 0;
    }

    /// Counts one duplicate ACK; returns the new count.
    pub(crate) fn count_dupack(&mut self) -> u32 {
        self.dupacks += 1;
        self.dupacks
    }

    /// Enters fast recovery: records the recovery horizon and primes the
    /// SACK sweep cursor one MSS past the left edge.
    pub(crate) fn enter_recovery(&mut self, mss: u32) {
        self.in_recovery = true;
        self.recover_off = self.nxt_off;
        self.recovery_cursor_off = self.una_off + mss as u64;
    }

    pub(crate) fn exit_recovery(&mut self) {
        self.in_recovery = false;
    }

    /// Keeps the sweep cursor at or past the left edge.
    pub(crate) fn clamp_cursor_to_una(&mut self) {
        self.recovery_cursor_off = self.recovery_cursor_off.max(self.una_off);
    }

    /// Advances the sweep cursor after a recovery retransmission.
    pub(crate) fn advance_cursor(&mut self, mss: u32) {
        self.recovery_cursor_off += mss as u64;
    }

    /// Feeds one RTT sample to the estimator.
    pub(crate) fn rtt_update(&mut self, sample: SimTime) {
        self.rtt.update(sample);
    }

    /// Exponential RTO backoff on timeout.
    pub(crate) fn rtt_backoff(&mut self) {
        self.rtt.backoff();
    }

    /// Arms the retransmission timer unconditionally.
    pub(crate) fn arm_rto(&mut self, deadline: SimTime) {
        self.rto_deadline = Some(deadline);
    }

    /// Arms the retransmission timer only if not already running.
    pub(crate) fn arm_rto_if_unarmed(&mut self, deadline: SimTime) {
        if self.rto_deadline.is_none() {
            self.rto_deadline = Some(deadline);
        }
    }

    pub(crate) fn disarm_rto(&mut self) {
        self.rto_deadline = None;
    }
}
