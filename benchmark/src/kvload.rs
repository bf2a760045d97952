//! Open-loop key-value client for `kv_linux_sim`.
//!
//! `tas_apps::kv::KvClient` in `KvLoad::OpenRate` arms each arrival
//! timer from inside the handler of the previous one, so on a host with
//! a CPU model the gap grows by the handler's own run time and by any
//! wait for the core: configured at 300 k/s it issued 250.6 k/s, and a
//! back-logged socket drops the arrival without counting it. This client
//! keeps an absolute schedule instead. Arrival times come from the seed
//! alone; a timer that fires late issues everything that has come due,
//! each request is timed from when it was due, and how late it left is
//! recorded. What the server does cannot change what is offered.
//!
//! Wire format and key popularity are those of `tas_apps::kv` (zipf 0.9,
//! 10 % SETs); every response is checked against the request it answers.

use std::collections::{BTreeMap, VecDeque};
use std::net::Ipv4Addr;

use tas_apps::kv::{OP_GET, OP_SET, REQ_HDR, RESP_HDR, VAL_SIZE};
use tas_apps::util::SendBuf;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::dist::{Exponential, Zipf};
use tas_sim::{impl_as_any, Histogram, Rng, SimTime};

const REQ_LEN: usize = REQ_HDR + VAL_SIZE;
const RESP_LEN: usize = RESP_HDR + VAL_SIZE;
const SET_FRACTION: f64 = 0.1;

/// The value a SET stores under `key`.
fn value_byte(key: u32, i: usize) -> u8 {
    (key as usize + i) as u8
}

struct Asked {
    due: SimTime,
    key: u32,
    op: u8,
}

#[derive(Default)]
struct Conn {
    sock: SockId,
    connected: bool,
    partial: Vec<u8>,
    asked: VecDeque<Asked>,
}

/// One client machine's share of the offered load.
pub struct OpenKvClient {
    server: Ipv4Addr,
    port: u16,
    conns: Vec<Conn>,
    by_sock: BTreeMap<SockId, usize>,
    zipf: Zipf,
    rng: Rng,
    gap: Exponential,
    next_due: SimTime,
    /// No arrival is due at or after this instant.
    pub stop_at: SimTime,
    next_conn: usize,
    out: SendBuf,
    /// Arrivals that came due.
    pub scheduled: u64,
    /// Arrivals that found their connection not yet established.
    pub unsent: u64,
    /// Responses received.
    pub done: u64,
    /// Responses whose status or value did not match the request.
    pub wrong: u64,
    /// Due time to response, ns; recorded from `measure_from` on.
    pub latency: Histogram,
    /// Due time to the moment the request was handed to the stack, ns.
    pub lateness: Histogram,
    pub measure_from: SimTime,
}

impl OpenKvClient {
    /// `per_sec` Poisson arrivals from `start_at` on, round-robin over
    /// `conns` connections, zipf(0.9) over `keys` keys.
    pub fn new(
        server: Ipv4Addr,
        port: u16,
        conns: u32,
        keys: usize,
        per_sec: u64,
        start_at: SimTime,
        seed: u64,
    ) -> Self {
        OpenKvClient {
            server,
            port,
            conns: (0..conns).map(|_| Conn::default()).collect(),
            by_sock: BTreeMap::new(),
            zipf: Zipf::new(keys, 0.9),
            rng: Rng::new(seed),
            gap: Exponential::new(1e9 / per_sec as f64),
            next_due: start_at,
            stop_at: SimTime::MAX,
            next_conn: 0,
            out: SendBuf::default(),
            scheduled: 0,
            unsent: 0,
            done: 0,
            wrong: 0,
            latency: Histogram::new(),
            lateness: Histogram::new(),
            measure_from: SimTime::ZERO,
        }
    }

    fn issue(&mut self, due: SimTime, api: &mut dyn StackApi) {
        self.scheduled += 1;
        let key = self.zipf.sample(&mut self.rng) as u32;
        let op = if self.rng.chance(SET_FRACTION) {
            OP_SET
        } else {
            OP_GET
        };
        let idx = self.next_conn;
        self.next_conn = (idx + 1) % self.conns.len();
        let conn = &mut self.conns[idx];
        if !conn.connected {
            self.unsent += 1;
            return;
        }
        let mut req = [0u8; REQ_LEN];
        req[0] = op;
        req[1..5].copy_from_slice(&key.to_be_bytes());
        req[5..7].copy_from_slice(&(VAL_SIZE as u16).to_be_bytes());
        if op == OP_SET {
            for (i, b) in req[REQ_HDR..].iter_mut().enumerate() {
                *b = value_byte(key, i);
            }
        }
        conn.asked.push_back(Asked { due, key, op });
        self.out.send(api, conn.sock, &req);
        if due >= self.measure_from {
            self.lateness.record_time(api.now() - due);
        }
    }

    /// Issues everything that has come due and arms the next timer.
    fn catch_up(&mut self, api: &mut dyn StackApi) {
        let now = api.now();
        while self.next_due <= now && self.next_due < self.stop_at {
            let due = self.next_due;
            self.issue(due, api);
            let gap = self.gap.sample(&mut self.rng).max(1.0) as u64;
            self.next_due = due + SimTime::from_ns(gap);
        }
        if self.next_due < self.stop_at {
            api.set_app_timer(self.next_due - now, 0);
        }
    }

    /// A response is right if it answers the oldest open request on its
    /// connection: a SET succeeds, a GET misses or returns the one value
    /// ever stored under its key.
    fn check(asked: &Asked, resp: &[u8]) -> bool {
        let len_ok = resp[1..3] == (VAL_SIZE as u16).to_be_bytes();
        let value = &resp[RESP_HDR..];
        len_ok
            && match (asked.op, resp[0]) {
                (OP_SET, 0) | (OP_GET, 1) => value.iter().all(|b| *b == 0),
                (OP_GET, 0) => value
                    .iter()
                    .enumerate()
                    .all(|(i, b)| *b == value_byte(asked.key, i)),
                _ => false,
            }
    }

    fn read(&mut self, sock: SockId, api: &mut dyn StackApi) {
        let Some(&idx) = self.by_sock.get(&sock) else {
            return;
        };
        let data = api.recv(sock, usize::MAX);
        let now = api.now();
        let conn = &mut self.conns[idx];
        conn.partial.extend_from_slice(&data);
        let whole = conn.partial.len() / RESP_LEN * RESP_LEN;
        for resp in conn.partial[..whole].chunks_exact(RESP_LEN) {
            self.done += 1;
            match conn.asked.pop_front() {
                Some(asked) => {
                    self.wrong += u64::from(!Self::check(&asked, resp));
                    if asked.due >= self.measure_from {
                        self.latency.record_time(now - asked.due);
                    }
                }
                None => self.wrong += 1,
            }
        }
        conn.partial.drain(..whole);
    }
}

impl App for OpenKvClient {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for (idx, conn) in self.conns.iter_mut().enumerate() {
            conn.sock = api.connect(self.server, self.port);
            self.by_sock.insert(conn.sock, idx);
        }
        api.set_app_timer(self.next_due.saturating_sub(api.now()), 0);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                if let Some(&idx) = self.by_sock.get(&sock) {
                    self.conns[idx].connected = true;
                }
            }
            AppEvent::Timer { .. } => self.catch_up(api),
            AppEvent::Writable { sock } => {
                self.out.on_writable(api, sock);
            }
            AppEvent::Readable { sock } => self.read(sock, api),
            _ => {}
        }
    }

    impl_as_any!();
}
