//! Checks of the TAS fast path. Two of its steps are checked over every
//! small state: the receive placement `FpRecvRel::place` (trim, in-order
//! append and merge, the single out-of-order interval, the buffer horizon)
//! and cumulative-ACK / duplicate-ACK processing through
//! `FastPath::rx_segment`. Beside them, a seeded model check that any
//! sliced, shuffled and duplicated stream is delivered exactly, and the
//! allocation-free steady state: first of one fast path, then of whole
//! simulations — hosts, switch, fault injector and apps — on both stacks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use tas_bench::testbed::{build, Agent, Testbed};
use tas_bench::HostCfg;
use tas_repro::apps::bulk::{BulkReceiver, BulkSender};
use tas_repro::apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_repro::apps::kv::{KvClient, KvLoad, KvServer};
use tas_repro::baselines::{profiles, StackHost, StackHostConfig};
use tas_repro::cpusim::CycleAccount;
use tas_repro::netsim::topo::host_ip;
use tas_repro::netsim::{FaultSpec, NetMsg, PortConfig};
use tas_repro::proto::{FlowKey, MacAddr, Segment, Seq, TcpFlags, TcpHeader};
use tas_repro::shm::ByteRing;
use tas_repro::sim::{AgentId, Rng, Sim, SimTime};
use tas_repro::tas::fastpath::FastPath;
use tas_repro::tas::flow::{
    FlowState, FpCongCtrl, FpConnMgmt, FpFlowCtrl, FpRecvRel, FpSendRel, Placed, RateBucket,
};
use tas_repro::tas::{CcAlgo, TasConfig, TasCosts, TasHost, FLOW_STATE_BYTES};

/// The architectural state constant matches the paper (Table 3: 102 B).
/// Checked at compile time; the test names the check in the suite.
#[test]
fn flow_state_constant() {
    const _: () = assert!(FLOW_STATE_BYTES == 102);
}

/// Counts heap allocations made by the current thread. The counter is
/// thread-local so the parallel test harness cannot perturb a measurement
/// window. `Cell<u64>` with const init has no destructor, so reading it
/// from inside the allocator cannot recurse into TLS registration.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

fn fast_path() -> FastPath {
    FastPath::new(
        Ipv4Addr::new(10, 0, 0, 1),
        MacAddr::for_host(1),
        1448,
        TasCosts::default(),
    )
}

/// A flow from 10.0.0.1:80 (us) to 10.0.0.2:7777 sending from `iss` into
/// a peer window of `snd_wnd` bytes and receiving from `irs` into an
/// `rx_cap`-byte ring.
fn flow(iss: u32, snd_wnd: u64, rx_cap: usize, irs: u32) -> FlowState {
    FlowState {
        conn: FpConnMgmt::new(
            1,
            0,
            FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                80,
                Ipv4Addr::new(10, 0, 0, 2),
                7777,
            ),
            MacAddr::for_host(2),
            0,
        ),
        snd: FpSendRel::new(ByteRing::new(1024), iss),
        rcv: FpRecvRel::new(ByteRing::new(rx_cap), irs),
        fc: FpFlowCtrl::new(snd_wnd, 0),
        cc: FpCongCtrl::new(RateBucket::unlimited()),
    }
}

/// A segment from the peer: `payload` at receive offset `offset`,
/// acknowledging local offset `ack` (both relative to the ISNs, wrapping),
/// with a `window`-byte advertisement.
fn peer_seg(irs: u32, offset: i64, iss: u32, ack: i64, window: u16, payload: &[u8]) -> Segment {
    let seq = irs.wrapping_add(1).wrapping_add(offset as u32);
    let ack = iss.wrapping_add(1).wrapping_add(ack as u32);
    let flags = match payload {
        [] => TcpFlags::ACK,
        _ => TcpFlags::ACK | TcpFlags::PSH,
    };
    let mut h = TcpHeader::new(7777, 80, seq, ack, flags);
    h.window = window;
    if !payload.is_empty() {
        h.options.timestamp = Some((1, 0));
    }
    Segment::tcp(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        h,
        payload,
        true,
    )
}

fn data_seg(irs: u32, offset: u64, payload: &[u8]) -> Segment {
    peer_seg(irs, offset as i64, 100, 0, 60_000, payload)
}

/// The stream the peer sends, at offsets [−8, 40): every offset the
/// placement check reaches. Bytes are 1..=200, so never the 0xEE the
/// ring's unwritten slots hold, and distinct across the range.
static STREAM: [u8; 48] = {
    let mut bytes = [0; 48];
    let mut i = 0;
    while i < 48 {
        bytes[i] = (i as i64 - 8).rem_euclid(200) as u8 + 1;
        i += 1;
    }
    bytes
};

/// The stream's bytes `[a, b)`.
fn stream(a: i64, b: i64) -> &'static [u8] {
    &STREAM[(a + 8) as usize..(b + 8) as usize]
}

/// What [`FpRecvRel::place`] must do with the stream bytes `[off, off +
/// len)` in a ring of `cap` bytes whose readable bytes are `[start, end)`,
/// with the out-of-order bytes `staged` held beyond `end`. Returns the
/// outcome, the new end and the new staged run; the ring must then hold
/// the stream's bytes on `[start, end)` and on the staged run.
fn expect_place(
    (cap, start, end, staged): RecvState,
    off: i64,
    len: u64,
) -> (Placed, u64, Option<(u64, u64)>) {
    // Bytes below the in-order frontier are old: only `[lo, hi)` is new.
    let (lo, hi) = (off.max(end as i64) as u64, off + len as i64);
    if hi <= lo as i64 {
        return (Placed::Duplicate, end, staged);
    }
    let hi = hi as u64;
    if lo == end {
        // In order: all of it fits the free space or none of it lands,
        // and a staged run it reaches becomes readable with it.
        if hi - start > cap {
            return (Placed::BufFull, end, staged);
        }
        return match staged {
            Some((a, b)) if a <= hi => (Placed::InOrder((hi.max(b) - end) as u32), hi.max(b), None),
            _ => (Placed::InOrder((hi - end) as u32), hi, staged),
        };
    }
    // Out of order: kept only inside the buffer, and only as one run.
    match staged {
        _ if hi > start + cap => (Placed::Dropped, end, staged),
        None => (Placed::Staged, end, Some((lo, hi))),
        Some((a, b)) if a <= lo && hi <= b => (Placed::Duplicate, end, staged),
        Some((a, b)) if lo == b || hi == a => (Placed::Staged, end, Some((a.min(lo), b.max(hi)))),
        Some(_) => (Placed::Dropped, end, staged),
    }
}

/// A receive state: ring capacity, readable bytes `[start, end)` and the
/// staged run, as absolute stream offsets.
type RecvState = (u64, u64, u64, Option<(u64, u64)>);

/// Builds `state` at `irs` through the public surface, places the segment
/// `[off, off + len)`, and checks the outcome, the ring bytes and the
/// tracked interval against [`expect_place`].
fn check_place(irs: u32, state: RecvState, off: i64, len: u64) {
    let (cap, start, end, staged) = state;
    let seq = |o: i64| Seq(irs.wrapping_add(1).wrapping_add(o as u32));
    let at = || format!("irs {irs}, (cap, start, end, staged) {state:?}, segment [{off}, +{len})");
    // The ring's slots hold garbage, then `start` consumed bytes, then the
    // unread stream bytes; the staged run goes in through `place`.
    let mut ring = ByteRing::new(cap as usize);
    ring.write_at(0, &[0xEE; 8][..cap as usize]).expect("fits");
    ring.append(&[0xEE; 8][..start as usize]).expect("fits");
    ring.consume(start).expect("appended");
    ring.append(stream(start as i64, end as i64)).expect("fits");
    let mut rcv = FpRecvRel::new(ring, irs);
    if let Some((a, b)) = staged {
        let got = rcv.place(seq(a as i64), stream(a as i64, b as i64), true);
        assert_eq!(got, Placed::Staged, "staging for {}", at());
    }

    let got = rcv.place(seq(off), stream(off, off + len as i64), true);
    let (want, end, run) = expect_place(state, off, len);
    assert_eq!(got, want, "{}", at());
    let rx = &mut rcv.rx;
    let offsets = (rx.start_offset(), rx.end_offset());
    assert_eq!(offsets, (start, end), "{}", at());
    let mut buf = [0u8; 8];
    let readable = &mut buf[..(end - start) as usize];
    rx.read_into(start, readable).expect("committed");
    assert_eq!(readable, stream(start as i64, end as i64), "{}", at());
    match run {
        None => assert_eq!(rcv.ooo_len(), 0, "{}: interval", at()),
        Some((a, b)) => {
            let interval = (rcv.ooo_start(), rcv.ooo_len() as u64);
            assert_eq!(interval, (a, b - a), "{}: interval", at());
            // Commit through the run's end and read the staged bytes back.
            let rx = &mut rcv.rx;
            rx.advance_end(b - end)
                .expect("the run is inside the buffer");
            let staged = &mut buf[..(b - a) as usize];
            rx.read_into(a, staged).expect("committed");
            assert_eq!(staged, stream(a as i64, b as i64), "{}: staged", at());
        }
    }
}

/// `FpRecvRel::place` over every ring of 1 to 8 bytes, every consumed
/// prefix (start slot), every unread length, every staged run inside the
/// buffer, and every segment with an offset in [−cap, 2·cap) from the
/// frontier and a length in [0, cap], at three IRS values: 0, 2^31 − 1
/// and one whose stream crosses 2^32.
#[test]
fn recv_place_is_exact_over_every_small_state() {
    let mut states = 0u64;
    for irs in [0, i32::MAX as u32, u32::MAX - 7] {
        for cap in 1..=8u64 {
            for (start, unread) in (0..cap).flat_map(|s| (0..=cap).map(move |u| (s, u))) {
                let (end, free) = (start + unread, cap - unread);
                // No staged run, or a run `[end + a, end + a + l)` with
                // a ≥ 1 inside the buffer.
                let runs =
                    (1..free).flat_map(|a| (1..=free - a).map(move |l| (end + a, end + a + l)));
                for staged in std::iter::once(None).chain(runs.map(Some)) {
                    for off in end as i64 - cap as i64..(end + 2 * cap) as i64 {
                        for len in 0..=cap {
                            check_place(irs, (cap, start, end, staged), off, len);
                            states += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(states, 852_120);
}

/// Deliver a randomly sliced stream in a random order with one duplicate;
/// whatever the fast path commits must be a correct prefix-closed portion
/// of the stream, acks must be monotone, and a final in-order sweep must
/// deliver everything. The IRS is drawn so that most streams cross 2^32
/// in sequence space.
#[test]
fn fastpath_rx_is_prefix_correct() {
    for case in 0..192 {
        let mut rng = Rng::new(case);
        let stream: Vec<u8> = (0..rng.range_inclusive(32, 399))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let any_irs = rng.next_u32();
        let irs = *rng.choose(&[1_000, u32::MAX - 150, any_irs]);
        let mut fp = fast_path();
        let fid = fp.install_flow(flow(100, 65_535, stream.len() + 64, irs));
        let mut acct = CycleAccount::new();

        // Slice and shuffle.
        let mut points: Vec<usize> = (0..rng.range_inclusive(1, 7))
            .map(|_| rng.below(stream.len() as u64) as usize)
            .collect();
        points.extend([0, stream.len()]);
        points.sort_unstable();
        points.dedup();
        let mut segs: Vec<(u64, &[u8])> = points
            .windows(2)
            .map(|w| (w[0] as u64, &stream[w[0]..w[1]]))
            .collect();
        segs.push(segs[0]); // One duplicate.
        rng.shuffle(&mut segs);

        let mut last_ack = 0u32;
        let mut t = 0u64;
        for &(off, data) in &segs {
            t += 1;
            fp.rx_segment(SimTime::from_us(t), data_seg(irs, off, data), &mut acct);
            // Acks are cumulative and monotone.
            for pkt in fp.out.packets.drain(..) {
                let ack_off = pkt.tcp.ack - (Seq(irs) + 1);
                assert!(ack_off >= last_ack, "case {case}: ack regressed");
                last_ack = ack_off;
                // Never acks data that was not sent.
                assert!(ack_off as usize <= stream.len(), "case {case}");
            }
        }
        // Whatever was committed must be a prefix of the stream.
        let flow = fp.flows.get_mut(fid).expect("installed");
        let n = flow.rcv.rx.len();
        let got = flow.rcv.rx.copy_out(0, n).expect("committed prefix");
        assert_eq!(got, stream[..n], "case {case}: committed data is a prefix");
        // Final sweep: resend the whole stream in order (go-back-N after a
        // retransmission); everything must be delivered exactly.
        for w in points.windows(2) {
            t += 1;
            let seg = data_seg(irs, w[0] as u64, &stream[w[0]..w[1]]);
            fp.rx_segment(SimTime::from_us(t), seg, &mut acct);
            fp.out.packets.clear();
        }
        let flow = fp.flows.get_mut(fid).expect("installed");
        assert_eq!(flow.rcv.rx.pop(usize::MAX - 1), stream, "case {case}");
        assert_eq!(flow.rcv.ooo_len(), 0, "case {case}: interval fully merged");
    }
}

/// A sender: local stream offsets relative to the ISS (`end` is the end of
/// the buffered data) and the duplicate ACKs counted.
#[derive(Clone, Copy, Debug)]
struct SendState {
    una: i64,
    nxt: i64,
    max_sent: i64,
    end: i64,
    dupacks: u8,
}

/// The sender after one pure ACK.
#[derive(Debug, PartialEq)]
struct AckOutcome {
    /// `[una, nxt, max_sent]` afterwards.
    offsets: [i64; 3],
    dupacks: u8,
    /// Bytes the ACK newly acknowledged (the application's `tx_acked`).
    acked: i64,
    /// The third duplicate ACK rewound the sender.
    rexmit: bool,
    /// Where transmission resumed and how many bytes went out.
    sent: (i64, i64),
}

/// What one pure ACK of local offset `ack`, advertising `wnd` bytes, must
/// do to sender `s`, whose peer window is `s.nxt - s.una`.
fn expect_ack(s: SendState, ack: i64, wnd: i64) -> AckOutcome {
    // The sender resumes at `una + in_flight` and, if it may send, fills
    // the new window from the buffer.
    let out = |una: i64, in_flight: i64, dupacks, acked, rexmit, may_send: bool| {
        let from = una + in_flight;
        let sent = if may_send {
            (s.end - from).min(wnd - in_flight)
        } else {
            0
        };
        let offsets = [una, from + sent, s.max_sent.max(from + sent)];
        AckOutcome {
            offsets,
            dupacks,
            acked,
            rexmit,
            sent: (from, sent),
        }
    };
    let in_flight = s.nxt - s.una;
    if s.una < ack && ack <= s.max_sent {
        // A cumulative ACK of anything ever sent, even bytes a recovery
        // rewound below `nxt`; it ends duplicate counting.
        return out(ack, (s.nxt - ack).max(0), 0, ack - s.una, false, true);
    }
    let grew = wnd > in_flight;
    if ack == s.una && in_flight > 0 && !grew {
        // A duplicate ACK; the third rewinds the sender to `una`.
        return match s.dupacks + 1 {
            3 => out(s.una, 0, 0, 0, true, true),
            d => out(s.una, in_flight, d, 0, false, false),
        };
    }
    // Stale, or a window update: only a grown window sends.
    out(s.una, in_flight, s.dupacks, 0, false, grew)
}

/// `[una, nxt, max_sent]` and the duplicate-ACK count of flow `fid`.
fn sender(fp: &FastPath, fid: u32) -> ([i64; 3], u8) {
    let s = &fp.flows.get(fid).expect("installed").snd;
    let offs = [s.tx.start_offset(), s.nxt_off(), s.max_sent_off()];
    (offs.map(|o| o as i64), s.dupack_cnt())
}

/// Builds sender `s` at `iss` through `FastPath` itself, feeds it one pure
/// ACK of `ack` advertising `grow` bytes more than its window, and checks
/// the outcome against [`expect_ack`].
fn check_ack(iss: u32, s: SendState, ack: i64, grow: i64) {
    let at = || format!("iss {iss}, {s:?}: ack {ack}, window +{grow}");
    let rx = |fp: &mut FastPath, ack: i64, wnd: i64| {
        let seg = peer_seg(0, 0, iss, ack, wnd as u16, &[]);
        fp.rx_segment(SimTime::from_us(1), seg, &mut CycleAccount::new());
    };
    // Send `max_sent` bytes and acknowledge `una`. Below `max_sent`, `nxt`
    // is where a fast retransmit resumed: three duplicate ACKs whose last
    // shrinks the window to what is then resent.
    let mut fp = fast_path();
    let fid = fp.install_flow(flow(iss, s.max_sent as u64, 64, 0));
    let tx = &mut fp.flows.get_mut(fid).expect("installed").snd.tx;
    tx.append(&[0x5A; 16][..s.end as usize]).expect("fits");
    fp.tx_command(SimTime::ZERO, fid, &mut CycleAccount::new());
    if s.una > 0 {
        rx(&mut fp, s.una, s.max_sent - s.una);
    }
    if s.nxt < s.max_sent {
        let full = s.max_sent - s.una;
        for wnd in [full, full, s.nxt - s.una] {
            rx(&mut fp, s.una, wnd);
        }
    }
    for _ in 0..s.dupacks {
        rx(&mut fp, s.una, s.nxt - s.una);
    }
    let setup = ([s.una, s.nxt, s.max_sent], s.dupacks);
    assert_eq!(sender(&fp, fid), setup, "setup of {}", at());
    fp.out = Default::default();
    let rexmits = fp.stats.fast_rexmits;

    let wnd = s.nxt - s.una + grow;
    rx(&mut fp, ack, wnd);
    let (offsets, dupacks) = sender(&fp, fid);
    let packets = &fp.out.packets;
    let iss1 = Seq(iss.wrapping_add(1));
    let from = packets
        .first()
        .map_or(offsets[1], |p| (p.tcp.seq - iss1) as i64);
    let got = AckOutcome {
        offsets,
        dupacks,
        acked: fp.out.notices.iter().map(|(_, n)| n.tx_acked as i64).sum(),
        rexmit: fp.stats.fast_rexmits > rexmits,
        sent: (from, packets.iter().map(|p| p.payload.len() as i64).sum()),
    };
    assert_eq!(got, expect_ack(s, ack, wnd), "{}", at());
}

/// Pure ACKs through `FastPath::rx_segment` from every sender state in a
/// small window across the 2^32 wrap: `una` at 0 to 2, up to 5 bytes sent
/// (`max_sent`), `nxt` anywhere from `una` to `max_sent` (below it only
/// after a fast-retransmit rewind), 0 to 2 duplicate ACKs counted, 0 or 2
/// bytes not yet sent; then every ACK from 3 below `una` to 3 past
/// `max_sent`, advertising the same window or one more byte. Checks
/// acceptance, the bytes acknowledged, the duplicate-ACK count, the
/// third-duplicate rewind and what is sent.
#[test]
fn ack_processing_is_exact_over_every_small_state() {
    let mut states = 0u64;
    for iss in [u32::MAX - 4, i32::MAX as u32 - 2] {
        let offsets =
            (0..=2i64).flat_map(|u| (u..=u + 5).flat_map(move |m| (u..=m).map(move |n| (u, n, m))));
        for (una, nxt, max_sent) in offsets {
            let max_dupacks = if nxt > una { 2 } else { 0 };
            for (dupacks, unsent) in (0..=max_dupacks).flat_map(|d| [(d, 0), (d, 2)]) {
                let end = max_sent + unsent;
                let s = SendState {
                    una,
                    nxt,
                    max_sent,
                    end,
                    dupacks,
                };
                for ack in una - 3..=max_sent + 3 {
                    for grow in [0, 1] {
                        check_ack(iss, s, ack, grow);
                        states += 1;
                    }
                }
            }
        }
    }
    assert_eq!(states, 12_888);
}

/// Steady-state packet forwarding is allocation-free: after a warmup that
/// sizes the output queues and primes the payload pool, each further round
/// trip — build an in-order data segment from the pool, run it through the
/// fast path (rx commit + ack generation), consume the committed bytes —
/// must not touch the heap at all. Guards the fast-path regression where
/// every received payload was copied through a fresh `Vec` before landing
/// in the ring.
#[test]
fn steady_state_rx_does_not_allocate() {
    const CHUNK: usize = 512;
    const WARMUP: u64 = 64;
    const MEASURED: u64 = 256;

    let mut fp = fast_path();
    let fid = fp.install_flow(flow(100, 65_535, 1 << 16, 1_000));
    let mut acct = CycleAccount::new();
    let chunk = [0xA5u8; CHUNK];

    let mut off = 0u64;
    let mut t = 0u64;
    let mut deliver = |fp: &mut FastPath, seg: Segment, t: u64| {
        fp.rx_segment(SimTime::from_us(t), seg, &mut acct);
        // Drain with clear(): take()/mem::take would swap in fresh empty
        // vecs and force a reallocation on the next push.
        fp.out.packets.clear();
        fp.out.notices.clear();
        fp.out.exceptions.clear();
        fp.out.tx_timers.clear();
        // The app keeps up: consume the committed bytes so the ring and
        // the advertised window stay in steady state.
        let flow = fp.flows.get_mut(fid).expect("installed");
        let n = flow.rcv.rx.len() as u64;
        flow.rcv.rx.consume(n).expect("consume committed prefix");
    };

    for _ in 0..WARMUP {
        t += 1;
        deliver(&mut fp, data_seg(1_000, off, &chunk), t);
        off += CHUNK as u64;
    }

    // Measured window: segments are built inside it — headers are plain
    // data and the payload comes from the warm pool, so construction must
    // be as allocation-free as the forwarding itself.
    let before = thread_allocs();
    for _ in 0..MEASURED {
        t += 1;
        deliver(&mut fp, data_seg(1_000, off, &chunk), t);
        off += CHUNK as u64;
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state rx allocated {} times over {} packets",
        after - before,
        MEASURED
    );
}

/// Ceilings on engine events per segment in the steady-state windows
/// below, just over what each pair reads with one wake per run of a
/// frame's stack ops (1.501, 1.468 and 1.774). With a wake per op the
/// echo pair read 1.751, the KV pair 1.898 and the bulk pair 1.817.
const ECHO_EVENTS: f64 = 1.51;
const KV_EVENTS: f64 = 1.48;
const BULK_EVENTS: f64 = 1.78;

/// Heap allocations and engine events per segment over a window.
struct PerSegment {
    allocs: f64,
    events: f64,
}

/// Runs `sim` to `warm`, then `window` further with the allocation and
/// event counts open, and returns both per segment over the window;
/// `segs` reads how many segments the hosts under test have handled so
/// far. Warm-up lets every buffer reach its working capacity, the payload
/// pool fill and every connection open. Both counts repeat exactly, so a
/// ceiling on either cannot flake.
fn per_segment(
    sim: &mut Sim<NetMsg>,
    warm: SimTime,
    window: SimTime,
    segs: impl Fn(&Sim<NetMsg>) -> u64,
) -> PerSegment {
    sim.run_until(warm);
    let (allocs, events, seen) = (thread_allocs(), sim.events_processed(), segs(sim));
    sim.run_until(warm + window);
    let allocs = thread_allocs() - allocs;
    let events = sim.events_processed() - events;
    let seen = segs(sim) - seen;
    assert!(seen >= 10_000, "only {seen} segments in the window");
    PerSegment {
        allocs: allocs as f64 / seen as f64,
        events: events as f64 / seen as f64,
    }
}

/// Segments the fast paths of `hosts` received, sent and acknowledged.
fn tas_segments(sim: &Sim<NetMsg>, hosts: &[AgentId]) -> u64 {
    let fp = |&h: &AgentId| sim.agent::<TasHost>(h).fp_stats();
    hosts
        .iter()
        .map(fp)
        .map(|fp| fp.pkts_rx + fp.segs_tx + fp.acks_tx)
        .sum()
}

/// The Linux-model key-value pair: reference TCP engine, `StackHost`,
/// `KvServer` and `KvClient` on both ends of a switch. A frame's
/// connection commands share one `CONN_CMD` wake.
#[test]
fn linux_kv_pair_steady_state_does_not_allocate() {
    let linux = || HostCfg::Model(Box::new(profiles::linux()), StackHostConfig::linux(2));
    // The client preloads all 64 keys, so no SET in the window adds one
    // to the store.
    let client = KvClient::new(host_ip(0), 7, 32, 64, KvLoad::Closed, 5);
    let agents = [
        Agent::stack(linux(), Box::new(KvServer::new(7))),
        Agent::stack(linux(), Box::new(client)),
    ];
    let net = build(Testbed::uniform(5, PortConfig::tengig(), agents));
    let (mut sim, hosts) = (net.sim, net.hosts);
    let segments = |sim: &Sim<NetMsg>| -> u64 {
        let tcp = |&h: &AgentId| sim.agent::<StackHost>(h).tcp_stats();
        hosts.iter().map(tcp).map(|t| t.segs_in + t.segs_out).sum()
    };
    // The long warm-up is for the event queue: its timing-wheel slots
    // reach their working capacity only once the coarser levels have
    // turned over.
    let per_seg = per_segment(
        &mut sim,
        SimTime::from_ms(100),
        SimTime::from_ms(20),
        segments,
    );
    assert!(
        per_seg.allocs < 0.01,
        "{} allocations per segment",
        per_seg.allocs
    );
    assert!(
        per_seg.events < KV_EVENTS,
        "{} events per segment",
        per_seg.events
    );
}

/// The TAS echo pair: fast path, slow path, libTAS, `EchoServer` and a
/// closed-loop `RpcClient`. An echo frame's receive bump and send share
/// one `FP_CMD` wake.
#[test]
fn tas_echo_pair_steady_state_does_not_allocate() {
    let tas = || HostCfg::Tas(TasConfig::rpc_bench(1, 1));
    let client = RpcClient::new(host_ip(0), 7, 16, 1, 64, Lifetime::Persistent);
    let agents = [
        Agent::stack(
            tas(),
            Box::new(EchoServer::new(7, 64, ServerMode::Echo, 300)),
        ),
        Agent::stack(tas(), Box::new(client)),
    ];
    let net = build(Testbed::uniform(6, PortConfig::tengig(), agents));
    let (mut sim, hosts) = (net.sim, net.hosts);
    let per_seg = per_segment(
        &mut sim,
        SimTime::from_ms(10),
        SimTime::from_ms(10),
        |sim| tas_segments(sim, &hosts),
    );
    assert!(
        per_seg.allocs < 0.01,
        "{} allocations per segment",
        per_seg.allocs
    );
    assert!(
        per_seg.events < ECHO_EVENTS,
        "{} events per segment",
        per_seg.events
    );
}

/// A TAS bulk pair through switch ports that drop 1 % of packets: the
/// fault injector, out-of-order receive and fast retransmit run in the
/// window.
#[test]
fn tas_bulk_pair_through_lossy_port_steady_state_does_not_allocate() {
    let port = PortConfig {
        fault: FaultSpec::uniform_loss(0.01, 7),
        ..PortConfig::tengig()
    };
    let cfg = TasConfig {
        rx_buf: 128 * 1024,
        tx_buf: 128 * 1024,
        ooo_rx: true,
        cc: CcAlgo::DctcpRate,
        initial_rate_bps: 500_000_000,
        control_interval: SimTime::from_us(200),
        ..TasConfig::rpc_bench(2, 2)
    };
    let agents = [
        Agent::stack(HostCfg::Tas(cfg.clone()), Box::new(BulkReceiver::new(9))),
        Agent::stack(
            HostCfg::Tas(cfg),
            Box::new(BulkSender::new(host_ip(0), 9, 8)),
        ),
    ];
    let net = build(Testbed::uniform(7, port, agents));
    let (mut sim, hosts) = (net.sim, net.hosts);
    let per_seg = per_segment(
        &mut sim,
        SimTime::from_ms(40),
        SimTime::from_ms(20),
        |sim| tas_segments(sim, &hosts),
    );
    let sender = sim.agent::<TasHost>(hosts[1]).fp_stats();
    assert!(sender.fast_rexmits > 0, "the loss was felt");
    assert!(
        per_seg.allocs < 0.01,
        "{} allocations per segment",
        per_seg.allocs
    );
    assert!(
        per_seg.events < BULK_EVENTS,
        "{} events per segment",
        per_seg.events
    );
}
