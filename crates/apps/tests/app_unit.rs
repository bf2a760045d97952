//! Application-logic tests against a mock stack: framing, carry-over on
//! short writes, FlexStorm's pipeline bookkeeping, the request clients'
//! accounting and churn — no network involved.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;
use tas_apps::echo::{EchoServer, Lifetime, RpcClient, ServerMode};
use tas_apps::flexstorm::{FlexStormNode, TUPLE_SIZE};
use tas_apps::kv::{get_request, KvClient, KvLoad, KvServer, OP_SET, REQ_HDR, RESP_LEN, VAL_SIZE};
use tas_apps::util::SendBuf;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::{Histogram, SimTime};

/// A scriptable in-memory stack.
#[derive(Default)]
struct MockApi {
    now: SimTime,
    /// Bytes each socket will deliver on the next recv.
    rx: BTreeMap<SockId, VecDeque<u8>>,
    /// Everything sent per socket.
    tx: BTreeMap<SockId, Vec<u8>>,
    /// Remaining send budget per socket (None = unlimited).
    budget: BTreeMap<SockId, usize>,
    listens: Vec<u16>,
    connects: Vec<(Ipv4Addr, u16)>,
    closes: Vec<SockId>,
    next_sock: SockId,
    timers: Vec<(SimTime, u64)>,
    posts: Vec<(u16, u64)>,
    charged: u64,
}

impl MockApi {
    fn feed(&mut self, sock: SockId, data: &[u8]) {
        self.rx.entry(sock).or_default().extend(data.iter());
    }

    fn sent(&self, sock: SockId) -> &[u8] {
        self.tx.get(&sock).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

impl StackApi for MockApi {
    fn now(&self) -> SimTime {
        self.now
    }
    fn listen(&mut self, port: u16) {
        self.listens.push(port);
    }
    fn connect(&mut self, ip: Ipv4Addr, port: u16) -> SockId {
        self.connects.push((ip, port));
        let s = self.next_sock;
        self.next_sock += 1;
        s
    }
    fn send(&mut self, sock: SockId, data: &[u8]) -> usize {
        let budget = self.budget.get(&sock).copied().unwrap_or(usize::MAX);
        let n = data.len().min(budget);
        if budget != usize::MAX {
            self.budget.insert(sock, budget - n);
        }
        self.tx
            .entry(sock)
            .or_default()
            .extend_from_slice(&data[..n]);
        n
    }
    fn recv_with(&mut self, sock: SockId, max: usize, f: &mut dyn FnMut(&[u8]) -> usize) -> usize {
        let q = self.rx.entry(sock).or_default();
        let n = max.min(q.len());
        let (a, b) = q.as_slices();
        let (a, b) = (&a[..n.min(a.len())], &b[..n - n.min(a.len())]);
        let mut taken = if a.is_empty() { 0 } else { f(a).min(a.len()) };
        if taken == a.len() && !b.is_empty() {
            taken += f(b).min(b.len());
        }
        q.drain(..taken);
        taken
    }
    fn readable(&self, sock: SockId) -> usize {
        self.rx.get(&sock).map(|q| q.len()).unwrap_or(0)
    }
    fn close(&mut self, sock: SockId) {
        self.closes.push(sock);
    }
    fn charge_app_cycles(&mut self, cycles: u64) {
        self.charged += cycles;
    }
    fn set_app_timer(&mut self, delay: SimTime, token: u64) {
        self.timers.push((self.now + delay, token));
    }
    fn post(&mut self, context: u16, token: u64) {
        self.posts.push((context, token));
    }
}

#[test]
fn send_buf_carries_partial_writes_in_order() {
    let mut api = MockApi::default();
    api.budget.insert(1, 5);
    let mut out = SendBuf::default();
    assert_eq!(out.send(&mut api, 1, b"hello world"), 5);
    assert_eq!(out.pending(1), 6);
    // More data queues behind the carry; nothing is reordered.
    out.send(&mut api, 1, b"!");
    api.budget.insert(1, usize::MAX);
    out.on_writable(&mut api, 1);
    assert_eq!(api.sent(1), b"hello world!");
    assert_eq!(out.pending(1), 0);
}

#[test]
fn echo_server_reassembles_split_messages() {
    let mut api = MockApi::default();
    let mut srv = EchoServer::new(7, 8, ServerMode::Echo, 100);
    srv.on_start(&mut api);
    assert_eq!(api.listens, vec![7]);
    // A message arrives in two fragments; count only full messages.
    api.feed(3, b"abcd");
    srv.on_event(AppEvent::Readable { sock: 3 }, &mut api);
    assert_eq!(srv.messages, 0);
    api.feed(3, b"efghXYZ");
    srv.on_event(AppEvent::Readable { sock: 3 }, &mut api);
    assert_eq!(srv.messages, 1, "one full 8-byte message");
    // Echo mode echoes every byte, message-aligned or not.
    assert_eq!(api.sent(3), b"abcdefghXYZ");
    assert_eq!(srv.bytes_in, 11);
}

#[test]
fn kv_server_parses_and_answers() {
    let mut api = MockApi::default();
    let mut kv = KvServer::new(11211);
    kv.on_start(&mut api);
    // SET key 9, then GET it back; requests are fixed-size frames.
    let mut set = vec![0u8; REQ_HDR + VAL_SIZE];
    set[0] = OP_SET;
    set[1..5].copy_from_slice(&9u32.to_be_bytes());
    for (i, b) in set[REQ_HDR..].iter_mut().enumerate() {
        *b = i as u8;
    }
    let get = get_request(9);
    api.feed(5, &set);
    api.feed(5, &get);
    kv.on_event(AppEvent::Readable { sock: 5 }, &mut api);
    assert_eq!(kv.sets, 1);
    assert_eq!(kv.gets, 1);
    let out = api.sent(5);
    assert_eq!(out.len(), 2 * (3 + VAL_SIZE), "two responses");
    assert_eq!(out[0], 0, "SET ok");
    let get_resp = &out[3 + VAL_SIZE..];
    assert_eq!(get_resp[0], 0, "GET hit");
    assert_eq!(&get_resp[3..3 + 4], &[0, 1, 2, 3], "stored value returned");
    assert!(api.charged > 0, "app cycles charged per op");
}

#[test]
fn kv_get_miss_flagged() {
    let mut api = MockApi::default();
    let mut kv = KvServer::new(11211);
    api.feed(5, &get_request(1234));
    kv.on_event(AppEvent::Readable { sock: 5 }, &mut api);
    assert_eq!(api.sent(5)[0], 1, "miss status");
}

#[test]
fn flexstorm_pipeline_demux_work_mux() {
    let mut api = MockApi::default();
    let mut node = FlexStormNode::new(7000, 2, Some((Ipv4Addr::new(10, 0, 0, 2), 7000)));
    node.max_per_send = 64;
    node.on_start(&mut api);
    assert_eq!(api.listens, vec![7000]);
    assert_eq!(api.connects.len(), 1, "downstream connection opened");
    let out_sock = 0; // First mock-connect sock id.

    // Three tuples arrive from upstream on sock 9.
    api.feed(9, &[0x7e; 3 * TUPLE_SIZE]);
    node.on_event(AppEvent::Readable { sock: 9 }, &mut api);
    assert_eq!(node.stats.tuples_in, 3);
    // The demux posted wakeups for both workers (round-robin).
    let worker_posts: Vec<u16> = api.posts.iter().map(|(c, _)| *c).collect();
    assert!(worker_posts.contains(&1) && worker_posts.contains(&2));

    // Drive the worker wakeups.
    let posts = std::mem::take(&mut api.posts);
    for (_, token) in posts {
        node.on_event(AppEvent::Timer { token }, &mut api);
    }
    assert_eq!(node.stats.tuples_processed, 3);
    // The mux flush timer was armed (queue below the batch threshold).
    assert!(!api.timers.is_empty());
    // Fire the flush: tuples leave downstream.
    let (_, token) = api.timers.pop().expect("flush timer");
    node.on_event(AppEvent::Timer { token }, &mut api);
    assert_eq!(node.stats.tuples_out, 3);
    assert_eq!(api.sent(out_sock).len(), 3 * TUPLE_SIZE);
}

#[test]
fn flexstorm_split_tuple_framing_survives_short_writes() {
    let mut api = MockApi::default();
    let mut node = FlexStormNode::new(7000, 1, Some((Ipv4Addr::new(10, 0, 0, 2), 7000)));
    node.max_per_send = 64;
    node.on_start(&mut api);
    let out_sock = 0;
    // Only 100 bytes of socket budget: the second tuple is split.
    api.budget.insert(out_sock, 100);
    api.feed(9, &[0x7e; 2 * TUPLE_SIZE]);
    node.on_event(AppEvent::Readable { sock: 9 }, &mut api);
    for (_, token) in std::mem::take(&mut api.posts) {
        node.on_event(AppEvent::Timer { token }, &mut api);
    }
    for (_, token) in std::mem::take(&mut api.timers) {
        node.on_event(AppEvent::Timer { token }, &mut api);
    }
    assert_eq!(api.sent(out_sock).len(), 100, "short write");
    assert_eq!(node.stats.tuples_out, 1, "only the whole tuple counted");
    // Budget restored: the writable event completes the split tuple.
    api.budget.insert(out_sock, usize::MAX);
    node.on_event(AppEvent::Writable { sock: out_sock }, &mut api);
    assert_eq!(
        api.sent(out_sock).len(),
        2 * TUPLE_SIZE,
        "framing realigned after the partial write"
    );
    assert_eq!(node.stats.tuples_out, 2);
}

const SERVER: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

/// A request client's `(done, sent, latency)`.
type Stats = fn(&dyn App) -> (u64, u64, &Histogram);

fn rpc(app: &dyn App) -> (u64, u64, &Histogram) {
    let c = app
        .as_any()
        .downcast_ref::<RpcClient>()
        .expect("an RpcClient");
    (c.done, c.sent, &c.latency)
}

fn kv(app: &dyn App) -> (u64, u64, &Histogram) {
    let c = app.as_any().downcast_ref::<KvClient>().expect("a KvClient");
    (c.done, c.sent, &c.latency)
}

#[test]
fn request_client_response_split_across_reads_completes_once() {
    let rpc_client = RpcClient::new(SERVER, 7, 1, 1, 8, Lifetime::Persistent);
    let kv_client = KvClient::new(SERVER, 7, 1, 100, KvLoad::Closed, 7);
    let clients: [(Box<dyn App>, usize, Stats); 2] = [
        (Box::new(rpc_client), 8, rpc),
        (Box::new(kv_client), RESP_LEN, kv),
    ];
    for (mut app, resp_len, stats) in clients {
        let mut api = MockApi::default();
        app.on_start(&mut api);
        app.on_event(AppEvent::Connected { sock: 0 }, &mut api);
        let sent = stats(&*app).1;
        api.feed(0, &vec![0; resp_len - 1]);
        app.on_event(AppEvent::Readable { sock: 0 }, &mut api);
        assert_eq!(stats(&*app).0, 0, "a partial response is not a completion");
        api.feed(0, &[0]);
        app.on_event(AppEvent::Readable { sock: 0 }, &mut api);
        let (done, now_sent, _) = stats(&*app);
        assert_eq!(
            (done, now_sent),
            (1, sent + 1),
            "one completion, one refill"
        );
    }
}

#[test]
fn request_client_warmup_completion_counts_but_is_not_timed() {
    let mut api = MockApi::default();
    let mut c = RpcClient::new(SERVER, 7, 1, 1, 8, Lifetime::Persistent);
    c.measure_from = SimTime::from_us(10);
    c.on_start(&mut api);
    c.on_event(AppEvent::Connected { sock: 0 }, &mut api);
    api.now = SimTime::from_us(5);
    api.feed(0, &[0; 8]);
    c.on_event(AppEvent::Readable { sock: 0 }, &mut api);
    assert_eq!(
        (c.done, c.latency.count()),
        (1, 0),
        "warmup: counted, not timed"
    );
    api.now = SimTime::from_us(12);
    api.feed(0, &[0; 8]);
    c.on_event(AppEvent::Readable { sock: 0 }, &mut api);
    assert_eq!((c.done, c.latency.count()), (2, 1));
    assert_eq!(c.latency.max(), 7_000, "timed from the refill at 5 us");
}

/// Completes two responses (plus three stray bytes) at 10 us on a client
/// whose connections close after two, reopens the connection at 20 us
/// and answers its first request at 25 us.
fn churn_reopens_with_fresh_state(mut app: Box<dyn App>, resp_len: usize, stats: Stats) {
    let mut api = MockApi::default();
    app.on_start(&mut api);
    app.on_event(AppEvent::Connected { sock: 0 }, &mut api);
    api.now = SimTime::from_us(10);
    api.feed(0, &vec![0; 2 * resp_len + 3]);
    app.on_event(AppEvent::Readable { sock: 0 }, &mut api);
    assert_eq!(api.closes, vec![0], "closed after two responses");
    assert_eq!(stats(&*app).0, 2);
    app.on_event(AppEvent::Closed { sock: 0 }, &mut api);
    assert_eq!(api.connects.len(), 2, "Closed reopens the connection");
    api.now = SimTime::from_us(20);
    app.on_event(AppEvent::Connected { sock: 1 }, &mut api);
    api.now = SimTime::from_us(25);
    api.feed(1, &vec![0; resp_len - 3]);
    app.on_event(AppEvent::Readable { sock: 1 }, &mut api);
    assert_eq!(
        stats(&*app).0,
        2,
        "the stray bytes did not survive the close"
    );
    api.feed(1, &[0; 3]);
    app.on_event(AppEvent::Readable { sock: 1 }, &mut api);
    let (done, _, latency) = stats(&*app);
    assert_eq!(done, 3);
    assert_eq!(
        (latency.count(), latency.max()),
        (1, 5_000),
        "timed from the reopened connection's send, not a stale one"
    );
}

#[test]
fn rpc_client_churn_reopens_with_fresh_state() {
    let mut c = RpcClient::new(
        SERVER,
        7,
        1,
        3,
        8,
        Lifetime::ShortLived { msgs_per_conn: 2 },
    );
    c.measure_from = SimTime::from_us(15);
    churn_reopens_with_fresh_state(Box::new(c), 8, rpc);
}

#[test]
fn kv_client_churn_reopens_with_fresh_state() {
    let mut c = KvClient::new(SERVER, 7, 1, 100, KvLoad::Closed, 7).short_lived(2);
    c.measure_from = SimTime::from_us(15);
    churn_reopens_with_fresh_state(Box::new(c), RESP_LEN, kv);
}

#[test]
fn request_client_backlog_suppresses_a_send_without_counting_it() {
    let mut api = MockApi::default();
    api.budget.insert(0, 0);
    let mut c = RpcClient::new(SERVER, 7, 1, 10, 8, Lifetime::Persistent);
    c.on_start(&mut api);
    c.on_event(AppEvent::Connected { sock: 0 }, &mut api);
    // Five 8-byte requests carried (40 B > 4 x 8 B): the sixth waits.
    assert_eq!(c.sent, 5);
    assert!(api.sent(0).is_empty());
    // A KvClient's 64-SET preload ignores the backlog; its first
    // open-loop arrival is suppressed behind it.
    let mut api = MockApi::default();
    api.budget.insert(0, 0);
    let mut c = KvClient::new(SERVER, 7, 1, 100, KvLoad::OpenRate { per_sec: 1_000 }, 7);
    c.on_start(&mut api);
    c.on_event(AppEvent::Connected { sock: 0 }, &mut api);
    assert_eq!(c.sent, 64);
    c.on_event(AppEvent::Timer { token: 1 }, &mut api);
    assert_eq!(c.sent, 64);
}
