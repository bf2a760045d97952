//! Direct slow-path tests: handshakes, teardown, congestion-control
//! iterations, and the stall detector, exercised without a network by
//! feeding segments straight between a slow path/fast path pair.

use std::net::Ipv4Addr;
use tas::config::{COSTS, MSS};
use tas::fastpath::FastPath;
use tas::slowpath::{SlowPath, SpAppEvent};
use tas::{CcAlgo, TasConfig};
use tas_cpusim::CycleAccount;
use tas_proto::{MacAddr, Segment, Seq, TcpFlags, TcpHeader};
use tas_sim::SimTime;

fn server_pair(cc: CcAlgo) -> (SlowPath, FastPath) {
    let ip = Ipv4Addr::new(10, 0, 0, 1);
    let mac = MacAddr::for_host(1);
    let cfg = TasConfig {
        cc,
        ..TasConfig::rpc_bench(1, 1)
    };
    (
        SlowPath::new(ip, mac, &cfg),
        FastPath::new(ip, mac, MSS, COSTS),
    )
}

fn syn(sport: u16, iss: u32) -> Segment {
    let mut h = TcpHeader::new(sport, 80, iss, 0, TcpFlags::SYN);
    h.flags |= TcpFlags::ECE | TcpFlags::CWR;
    h.options.mss = Some(1448);
    h.options.wscale = Some(7);
    h.options.timestamp = Some((10, 0));
    h.window = 8192;
    Segment::tcp(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        h,
        Vec::new(),
        false,
    )
}

fn plain_ack(sport: u16, seq: u32, ack: u32) -> Segment {
    let mut h = TcpHeader::new(sport, 80, seq, ack, TcpFlags::ACK);
    h.options.timestamp = Some((11, 1));
    h.window = 8192;
    Segment::tcp(
        MacAddr::for_host(2),
        MacAddr::for_host(1),
        Ipv4Addr::new(10, 0, 0, 2),
        Ipv4Addr::new(10, 0, 0, 1),
        h,
        Vec::new(),
        false,
    )
}

/// Walks a passive handshake through SYN → SYN-ACK → final ACK.
fn establish(sp: &mut SlowPath, fp: &mut FastPath, sport: u16) -> u32 {
    let mut acct = CycleAccount::new();
    let t = SimTime::from_us(10);
    sp.listen(80);
    let (_, accept) = sp.on_exception(t, syn(sport, 5000), fp, 9000, 77, 0, &mut acct);
    let key = accept.expect("the SYN names the handshake awaiting accept");
    sp.accept(t, key, &mut acct);
    let synack = sp.out.packets.pop().expect("SYN-ACK staged");
    assert!(synack.tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
    assert!(synack.tcp.flags.contains(TcpFlags::ECE), "ECN accepted");
    assert_eq!(synack.tcp.ack, Seq(5001));
    // Final ACK completes the handshake and installs the flow.
    sp.on_exception(
        t + SimTime::from_us(50),
        plain_ack(sport, 5001, (synack.tcp.seq + 1).0),
        fp,
        0,
        0,
        0,
        &mut acct,
    );
    let fid = match sp.out.events.iter().find_map(|e| match e {
        SpAppEvent::AcceptDone { fid, .. } => Some(*fid),
        _ => None,
    }) {
        Some(f) => f,
        None => panic!("AcceptDone expected, got {:?}", sp.out.events),
    };
    sp.out.events.clear();
    fid
}

#[test]
fn passive_handshake_installs_flow() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let fid = establish(&mut sp, &mut fp, 4000);
    let flow = fp.flows.get(fid).expect("installed");
    assert_eq!(flow.rcv.irs(), Seq(5000));
    assert_eq!(flow.conn.opaque(), 77);
    assert_eq!(flow.fc.peer_wscale(), 7);
    assert_eq!(sp.stats.established, 1);
}

#[test]
fn duplicate_syn_reanswers_synack() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let t = SimTime::from_us(10);
    sp.listen(80);
    let (_, accept) = sp.on_exception(t, syn(4000, 5000), &mut fp, 9000, 1, 0, &mut acct);
    sp.accept(t, accept.expect("passive handshake"), &mut acct);
    assert_eq!(sp.out.packets.len(), 1);
    // The client's SYN retransmission must elicit another SYN-ACK.
    let (_, accept) = sp.on_exception(
        t + SimTime::from_ms(1),
        syn(4000, 5000),
        &mut fp,
        0,
        2,
        0,
        &mut acct,
    );
    assert_eq!(accept, None, "a duplicate SYN opens nothing new");
    assert_eq!(sp.out.packets.len(), 2);
    assert!(sp.out.packets[1]
        .tcp
        .flags
        .contains(TcpFlags::SYN | TcpFlags::ACK));
}

#[test]
fn syn_to_closed_port_is_dropped() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    sp.on_exception(
        SimTime::from_us(1),
        syn(4000, 5000),
        &mut fp,
        1,
        1,
        0,
        &mut acct,
    );
    assert_eq!(sp.stats.dropped, 1);
    assert!(sp.out.packets.is_empty());
}

#[test]
fn rst_tears_down_installed_flow() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let fid = establish(&mut sp, &mut fp, 4000);
    let mut acct = CycleAccount::new();
    let mut rst = plain_ack(4000, 5001, 1);
    rst.tcp.flags = TcpFlags::RST;
    sp.on_exception(SimTime::from_ms(1), rst, &mut fp, 0, 0, 0, &mut acct);
    assert!(fp.flows.get(fid).is_none(), "flow removed on RST");
    assert!(sp
        .out
        .events
        .contains(&SpAppEvent::PeerClosed { opaque: 77, fid }));
    // The host must drop the socket's fid before the slab recycles it.
    assert!(sp
        .out
        .events
        .contains(&SpAppEvent::Detached { opaque: 77, fid }));
}

#[test]
fn peer_fin_acks_and_notifies() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let fid = establish(&mut sp, &mut fp, 4000);
    let mut acct = CycleAccount::new();
    let mut fin = plain_ack(4000, 5001, 1);
    fin.tcp.flags = TcpFlags::FIN | TcpFlags::ACK;
    // Patch the ACK to the server's actual sequence space.
    let iss = fp.flows.get(fid).expect("flow").snd.iss();
    fin.tcp.ack = iss + 1;
    sp.on_exception(SimTime::from_ms(1), fin, &mut fp, 0, 0, 0, &mut acct);
    let ack = sp.out.packets.pop().expect("FIN must be ACKed");
    assert_eq!(ack.tcp.ack, Seq(5002), "FIN occupies one sequence number");
    assert!(sp
        .out
        .events
        .contains(&SpAppEvent::PeerClosed { opaque: 77, fid }));
    // Flow stays installed until the app closes.
    assert!(fp.flows.get(fid).is_some());
    // App closes: teardown detaches the flow and sends our FIN.
    sp.out.packets.clear();
    sp.close(SimTime::from_ms(2), fid, &mut fp, &mut acct);
    assert!(fp.flows.get(fid).is_none(), "flow detached");
    let our_fin = sp.out.packets.pop().expect("our FIN staged");
    assert!(our_fin.tcp.flags.contains(TcpFlags::FIN));
    // Peer acks our FIN: teardown completes.
    sp.out.events.clear();
    sp.on_exception(
        SimTime::from_ms(3),
        plain_ack(4000, 5002, (our_fin.tcp.seq + 1).0),
        &mut fp,
        0,
        0,
        0,
        &mut acct,
    );
    assert!(sp
        .out
        .events
        .iter()
        .any(|e| matches!(e, SpAppEvent::CloseDone { .. })));
    assert_eq!(sp.stats.closed, 1);
}

#[test]
fn control_loop_runs_rate_cc_and_updates_buckets() {
    let (mut sp, mut fp) = server_pair(CcAlgo::DctcpRate);
    let fid = establish(&mut sp, &mut fp, 4000);
    let mut acct = CycleAccount::new();
    // Pretend the fast path accumulated clean feedback.
    {
        let flow = fp.flows.get_mut(fid).expect("flow");
        flow.cc.count_acked(1_000_000, false);
        flow.conn.rtt_sample(50);
    }
    let before = fp.flows.get(fid).expect("flow").cc.bucket().rate_bps;
    sp.control_loop(SimTime::from_ms(1), &mut fp, &mut acct);
    let after = fp.flows.get(fid).expect("flow").cc.bucket().rate_bps;
    assert!(
        after > before,
        "clean interval must raise the rate: {before} -> {after}"
    );
    // Feedback counters were consumed.
    assert_eq!(fp.flows.get(fid).expect("flow").cc.cnt_ackb(), 0);
}

#[test]
fn stall_detector_triggers_retransmit() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let fid = establish(&mut sp, &mut fp, 4000);
    let mut acct = CycleAccount::new();
    // Unacked data with a frozen left edge.
    {
        let flow = fp.flows.get_mut(fid).expect("flow");
        flow.snd.tx.append(&[1u8; 1448]).expect("fits");
        flow.snd.note_sent(1448);
        flow.conn.rtt_sample(50);
    }
    // Needs the configured number of stalled iterations.
    let mut retransmitted = false;
    for i in 1..=4 {
        sp.control_loop(SimTime::from_ms(i), &mut fp, &mut acct);
        if !fp.out.packets.is_empty() {
            retransmitted = true;
            break;
        }
    }
    assert!(retransmitted, "stall detector must go-back-N");
    assert!(sp.stats.timeout_rexmits >= 1);
    let flow = fp.flows.get(fid).expect("flow");
    assert_eq!(flow.cc.cnt_frexmits(), 1, "loss signalled to CC");
}

/// The slow path's per-flow control state (rate-law state, stall count)
/// starts fresh when a torn-down flow's id is handed to a new connection.
#[test]
fn recycled_flow_id_starts_in_slow_start_with_no_stalls() {
    let (mut sp, mut fp) = server_pair(CcAlgo::DctcpRate);
    let mut acct = CycleAccount::new();
    let rate = |fp: &FastPath, fid| fp.flows.get(fid).expect("flow").cc.bucket().rate_bps;
    let a = establish(&mut sp, &mut fp, 4000);
    let before = rate(&fp, a);
    {
        // Marked feedback ends slow start; unacked data with a frozen
        // left edge counts one stalled interval.
        let flow = fp.flows.get_mut(a).expect("flow");
        flow.cc.count_acked(1_000_000, true);
        flow.snd.tx.append(&[1u8; 1448]).expect("fits");
        flow.snd.note_sent(1448);
        flow.conn.rtt_sample(50);
    }
    sp.control_loop(SimTime::from_ms(1), &mut fp, &mut acct);
    assert!(rate(&fp, a) < before, "marks cut the rate");
    assert_eq!(sp.stats.timeout_rexmits, 0, "one stall is not a timeout");
    let mut rst = plain_ack(4000, 5001, 1);
    rst.tcp.flags = TcpFlags::RST;
    sp.on_exception(SimTime::from_ms(2), rst, &mut fp, 0, 0, 0, &mut acct);

    let b = establish(&mut sp, &mut fp, 4001);
    assert_eq!(b, a, "the slab recycles the id");
    let before = rate(&fp, b);
    {
        let flow = fp.flows.get_mut(b).expect("flow");
        flow.cc.count_acked(1_000_000, false);
        flow.snd.tx.append(&[1u8; 1448]).expect("fits");
        flow.snd.note_sent(1448);
        flow.conn.rtt_sample(50);
    }
    sp.control_loop(SimTime::from_ms(3), &mut fp, &mut acct);
    assert_eq!(
        sp.stats.timeout_rexmits, 0,
        "the stall count started at zero"
    );
    assert_eq!(
        rate(&fp, b),
        2 * before,
        "a clean interval in slow start doubles"
    );
}

#[test]
fn handshake_retry_and_give_up() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    // Active connect whose SYN is never answered.
    sp.connect(
        SimTime::from_us(1),
        Ipv4Addr::new(10, 0, 0, 9),
        80,
        MacAddr::for_host(9),
        55,
        0,
        1234,
        &fp,
        &mut acct,
    );
    assert_eq!(sp.out.packets.len(), 1, "SYN staged");
    let mut t = SimTime::from_ms(1);
    let mut gave_up = false;
    for _ in 0..200 {
        t += SimTime::from_ms(11);
        sp.control_loop(t, &mut fp, &mut acct);
        if sp
            .out
            .events
            .iter()
            .any(|e| matches!(e, SpAppEvent::ConnectFailed { opaque: 55 }))
        {
            gave_up = true;
            break;
        }
    }
    assert!(gave_up, "retries must be bounded");
    assert!(sp.stats.handshake_rexmits >= 3, "SYN retransmitted first");
}

// The retry rule: an unanswered SYN, SYN-ACK or FIN is resent every
// `RETRY_AFTER` (2 ms) and its record gives up after `MAX_ATTEMPTS` (8)
// resends, on the ninth visit after the deadline.
const RETRY_MS: u64 = 2;
const MAX_ATTEMPTS: usize = 8;

/// Takes what the slow path has staged so far.
fn staged(sp: &mut SlowPath) -> (Vec<Segment>, Vec<SpAppEvent>) {
    (
        std::mem::take(&mut sp.out.packets),
        std::mem::take(&mut sp.out.events),
    )
}

/// Establishes a flow from port `sport` and closes it at `t`: the flow is
/// drained, so teardown starts at once and our FIN is staged.
fn closed_at(sp: &mut SlowPath, fp: &mut FastPath, sport: u16, t: SimTime) -> Segment {
    let fid = establish(sp, fp, sport);
    sp.out.packets.clear();
    sp.close(t, fid, fp, &mut CycleAccount::new());
    let (mut packets, _) = staged(sp);
    let fin = packets.pop().expect("our FIN staged");
    assert!(fin.tcp.flags.contains(TcpFlags::FIN) && packets.is_empty());
    fin
}

#[test]
fn unacked_fin_is_resent_every_retry_interval() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let t0 = SimTime::from_ms(1);
    let fin = closed_at(&mut sp, &mut fp, 4000, t0);
    for ms in 1..=4 * RETRY_MS {
        sp.control_loop(t0 + SimTime::from_ms(ms), &mut fp, &mut acct);
        let (packets, events) = staged(&mut sp);
        assert!(events.is_empty(), "{ms} ms: {events:?}");
        if ms % RETRY_MS != 0 {
            assert!(packets.is_empty(), "{ms} ms: not due yet");
            continue;
        }
        assert_eq!(packets.len(), 1, "{ms} ms: one FIN resend");
        let again = &packets[0];
        assert!(again.tcp.flags.contains(TcpFlags::FIN | TcpFlags::ACK));
        assert_eq!((again.tcp.seq, again.tcp.ack), (fin.tcp.seq, fin.tcp.ack));
    }
    assert_eq!(sp.stats.handshake_rexmits, 0, "a FIN is no handshake");
}

#[test]
fn unacked_teardown_gives_up_with_one_close_done() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let t0 = SimTime::from_ms(1);
    closed_at(&mut sp, &mut fp, 4000, t0);
    let (mut resends, mut close_done) = (0, Vec::new());
    for visit in 1..=MAX_ATTEMPTS + 4 {
        let t = t0 + SimTime::from_ms(RETRY_MS * visit as u64);
        sp.control_loop(t, &mut fp, &mut acct);
        let (packets, events) = staged(&mut sp);
        resends += packets.len();
        close_done.extend(events.into_iter().map(|e| (visit, e)));
    }
    assert_eq!(resends, MAX_ATTEMPTS, "resent until the bound, then quiet");
    assert_eq!(
        close_done,
        vec![(MAX_ATTEMPTS + 1, SpAppEvent::CloseDone { opaque: 77 })]
    );
    assert_eq!(sp.stats.closed, 1);
}

/// A listening slow path that answered a SYN from `sport` at `t`.
fn accepted_at(sp: &mut SlowPath, fp: &mut FastPath, sport: u16, t: SimTime) {
    let mut acct = CycleAccount::new();
    sp.listen(80);
    let (_, accept) = sp.on_exception(t, syn(sport, 5000), fp, 9000, 3, 0, &mut acct);
    sp.accept(t, accept.expect("passive handshake"), &mut acct);
}

#[test]
fn unanswered_synack_is_resent() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let t0 = SimTime::from_ms(1);
    accepted_at(&mut sp, &mut fp, 4000, t0);
    let (first, _) = staged(&mut sp);
    sp.control_loop(t0 + SimTime::from_ms(1), &mut fp, &mut acct);
    assert!(sp.out.packets.is_empty(), "not due before RETRY_AFTER");
    sp.control_loop(t0 + SimTime::from_ms(RETRY_MS), &mut fp, &mut acct);
    let (packets, events) = staged(&mut sp);
    assert!(events.is_empty());
    assert_eq!(packets.len(), 1);
    assert!(packets[0].tcp.flags.contains(TcpFlags::SYN | TcpFlags::ACK));
    assert_eq!(
        (packets[0].tcp.seq, packets[0].tcp.ack),
        (first[0].tcp.seq, Seq(5001))
    );
    assert_eq!(sp.stats.handshake_rexmits, 1);
}

#[test]
fn passive_handshake_gives_up_without_connect_failed() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let t0 = SimTime::from_ms(1);
    accepted_at(&mut sp, &mut fp, 4000, t0);
    let (first, _) = staged(&mut sp);
    let mut resends = 0;
    for visit in 1..=MAX_ATTEMPTS as u64 + 4 {
        sp.control_loop(t0 + SimTime::from_ms(RETRY_MS * visit), &mut fp, &mut acct);
        let (packets, events) = staged(&mut sp);
        assert!(events.is_empty(), "visit {visit}: {events:?}");
        resends += packets.len();
    }
    assert_eq!(resends, MAX_ATTEMPTS);
    assert_eq!(sp.stats.handshake_rexmits, MAX_ATTEMPTS as u64);
    // The record is gone: a late final ACK matches nothing.
    let late = plain_ack(4000, 5001, (first[0].tcp.seq + 1).0);
    sp.on_exception(SimTime::from_ms(100), late, &mut fp, 0, 0, 0, &mut acct);
    assert_eq!((sp.stats.dropped, sp.stats.established), (1, 0));
}

#[test]
fn peer_fin_record_is_never_retried() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let fid = establish(&mut sp, &mut fp, 4000);
    let mut acct = CycleAccount::new();
    let mut fin = plain_ack(4000, 5001, 1);
    fin.tcp.flags = TcpFlags::FIN | TcpFlags::ACK;
    fin.tcp.ack = fp.flows.get(fid).expect("flow").snd.iss() + 1;
    sp.on_exception(SimTime::from_ms(1), fin, &mut fp, 0, 0, 0, &mut acct);
    let (packets, events) = staged(&mut sp);
    assert_eq!(packets.len(), 1, "the FIN is ACKed once");
    assert_eq!(events, vec![SpAppEvent::PeerClosed { opaque: 77, fid }]);
    for ms in 2..=40 {
        sp.control_loop(SimTime::from_ms(ms), &mut fp, &mut acct);
        let (packets, events) = staged(&mut sp);
        assert!(packets.is_empty() && events.is_empty(), "{ms} ms");
    }
    assert_eq!(sp.stats.closed, 0);
}

#[test]
fn one_pass_stages_syn_then_synack_then_fin() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let t0 = SimTime::from_ms(1);
    closed_at(&mut sp, &mut fp, 4001, t0);
    // The passive handshake's key (local port 80) sorts before the active
    // one's (an ephemeral port), so state order is not key order here.
    accepted_at(&mut sp, &mut fp, 4000, t0);
    let peer = Ipv4Addr::new(10, 0, 0, 9);
    sp.connect(
        t0,
        peer,
        80,
        MacAddr::for_host(9),
        55,
        0,
        1234,
        &fp,
        &mut acct,
    );
    staged(&mut sp);
    sp.control_loop(t0 + SimTime::from_ms(RETRY_MS), &mut fp, &mut acct);
    let (packets, events) = staged(&mut sp);
    assert!(events.is_empty());
    let kinds: Vec<_> = packets
        .iter()
        .map(|p| {
            let f = p.tcp.flags;
            match (f.contains(TcpFlags::SYN), f.contains(TcpFlags::FIN)) {
                (true, _) if f.contains(TcpFlags::ACK) => "syn-ack",
                (true, _) => "syn",
                (_, true) => "fin",
                _ => "other",
            }
        })
        .collect();
    assert_eq!(kinds, ["syn", "syn-ack", "fin"]);
    assert_eq!(sp.stats.handshake_rexmits, 2);
}

/// Connects to `peer:80` and returns the local port its SYN left from,
/// or `None` when the slow path staged no SYN.
fn connect_from(sp: &mut SlowPath, fp: &FastPath, peer: Ipv4Addr, opaque: u64) -> Option<u16> {
    let mut acct = CycleAccount::new();
    let t = SimTime::from_us(1);
    sp.connect(
        t,
        peer,
        80,
        MacAddr::for_host(9),
        opaque,
        0,
        1234,
        fp,
        &mut acct,
    );
    let syn = sp.out.packets.pop()?;
    assert!(syn.tcp.flags.contains(TcpFlags::SYN));
    Some(syn.tcp.src_port)
}

/// Answers the SYN of the connect that left `port` toward `peer:80`,
/// installing the flow in the fast path.
fn complete_connect(sp: &mut SlowPath, fp: &mut FastPath, peer: Ipv4Addr, port: u16) -> u32 {
    let mut acct = CycleAccount::new();
    let mut h = TcpHeader::new(80, port, 7000, 1235, TcpFlags::SYN | TcpFlags::ACK);
    h.window = 8192;
    let synack = Segment::tcp(
        MacAddr::for_host(9),
        MacAddr::for_host(1),
        peer,
        Ipv4Addr::new(10, 0, 0, 1),
        h,
        Vec::new(),
        false,
    );
    sp.on_exception(SimTime::from_us(20), synack, fp, 0, 0, 0, &mut acct);
    let (_, events) = staged(sp);
    match events.as_slice() {
        [SpAppEvent::ConnectDone { fid, .. }] => *fid,
        other => panic!("ConnectDone expected, got {other:?}"),
    }
}

#[test]
fn port_allocation_skips_live_tuples_after_wrapping() {
    let (mut sp, mut fp) = server_pair(CcAlgo::None);
    let mut acct = CycleAccount::new();
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 10));
    // Toward `a`: 32768 mid-handshake, 32769 installed in the fast path,
    // 32770 tearing down.
    assert_eq!(connect_from(&mut sp, &fp, a, 1), Some(32_768));
    assert_eq!(connect_from(&mut sp, &fp, a, 2), Some(32_769));
    complete_connect(&mut sp, &mut fp, a, 32_769);
    assert_eq!(connect_from(&mut sp, &fp, a, 3), Some(32_770));
    let fid = complete_connect(&mut sp, &mut fp, a, 32_770);
    sp.close(SimTime::from_us(30), fid, &mut fp, &mut acct);
    staged(&mut sp);
    // Toward `b`, the rest of the range, so the next port wraps.
    for (i, port) in (32_771..=u16::MAX).enumerate() {
        assert_eq!(connect_from(&mut sp, &fp, b, 100 + i as u64), Some(port));
    }
    // Back at the start, the three live tuples toward `a` are skipped; a
    // port only `b` uses is free toward `a`.
    assert_eq!(connect_from(&mut sp, &fp, a, 4), Some(32_771));
    // Toward `b`, the search passes every port `b` holds and wraps to
    // the first, which only `a` uses.
    assert_eq!(connect_from(&mut sp, &fp, b, 5), Some(32_768));
}

#[test]
fn connect_fails_when_every_port_to_the_peer_is_live() {
    let (mut sp, fp) = server_pair(CcAlgo::None);
    let (a, b) = (Ipv4Addr::new(10, 0, 0, 9), Ipv4Addr::new(10, 0, 0, 10));
    for port in 32_768..=u16::MAX {
        assert_eq!(connect_from(&mut sp, &fp, a, 1), Some(port));
    }
    assert_eq!(connect_from(&mut sp, &fp, a, 77), None, "no SYN staged");
    let (packets, events) = staged(&mut sp);
    assert!(packets.is_empty());
    assert_eq!(events, vec![SpAppEvent::ConnectFailed { opaque: 77 }]);
    // Another peer still gets a port.
    assert_eq!(connect_from(&mut sp, &fp, b, 78), Some(32_768));
}
