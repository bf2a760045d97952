//! Memcached-like key-value store and memslap-like clients (§5.3).
//!
//! Binary protocol over TCP (fixed-size fields, no pipelining ambiguity):
//!
//! ```text
//! request:  [op: 1B (0=GET, 1=SET)] [key_id: 4B] [val_len: 2B] [value]
//! response: [status: 1B] [val_len: 2B] [value]
//! ```
//!
//! The paper's workload: 100,000 pairs, 32-byte keys / 64-byte values,
//! zipf(s = 0.9) popularity, 90% GET / 10% SET. The 32-byte key is
//! represented by its 4-byte id plus accounted (not transmitted) padding —
//! wire sizes match the paper's (request ≈ 39B + pad = 64B framing is the
//! paper's "small requests").

use crate::rpc::{deref_to_engine, Lifetime, Rpc};
use crate::util::{PerSock, SendBuf};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::dist::Zipf;
use tas_sim::{impl_as_any, Rng, SimTime};

/// Request header bytes: op + key id + val_len + key padding to 32B.
pub const REQ_HDR: usize = 1 + 4 + 2 + 28;
/// Response header bytes: status + val_len.
pub const RESP_HDR: usize = 1 + 2;
/// Value size (paper: 64-byte values).
pub const VAL_SIZE: usize = 64;

/// GET opcode.
pub const OP_GET: u8 = 0;
/// SET opcode.
pub const OP_SET: u8 = 1;

/// Request bytes: SETs carry a value; GETs carry zero-padding so both
/// directions have fixed sizes (keeps framing trivial and matches the
/// paper's ~100B requests).
const REQ_LEN: usize = REQ_HDR + VAL_SIZE;

/// Response bytes.
pub const RESP_LEN: usize = RESP_HDR + VAL_SIZE;

/// Base application cycles per GET (hash + lookup + response build).
const GET_CYCLES: u64 = 650;
/// Base application cycles per SET.
const SET_CYCLES: u64 = 900;

/// A request of `op` for `key` with a zero value.
fn request(op: u8, key: u32) -> [u8; REQ_LEN] {
    let mut req = [0u8; REQ_LEN];
    req[0] = op;
    req[1..5].copy_from_slice(&key.to_be_bytes());
    req[5..7].copy_from_slice(&(VAL_SIZE as u16).to_be_bytes());
    req
}

/// The GET request for `key`; its response is [`RESP_LEN`] bytes.
pub fn get_request(key: u32) -> Vec<u8> {
    request(OP_GET, key).to_vec()
}

/// The key-value store server.
pub struct KvServer {
    /// Listening port.
    pub port: u16,
    /// Keyed by the wire's key id: a `BTreeMap`, so a client's key choice
    /// cannot size an allocation. Values are fixed-size, so a SET of a
    /// stored key overwrites it in place.
    store: BTreeMap<u32, [u8; VAL_SIZE]>,
    /// Extra cycles per operation per *additional* app core, modeling the
    /// lock serializing updates of a contended key (Table 7's
    /// non-scalable workload); 0 for the scalable workload.
    pub lock_contention_cycles: u64,
    /// App cores serving requests (for the contention charge).
    pub app_cores: u32,
    /// GET operations served.
    pub gets: u64,
    /// SET operations served.
    pub sets: u64,
    /// Received bytes not yet parsed into a whole request, per socket.
    partial: PerSock<Vec<u8>>,
    /// One read's responses, sent together; kept for its capacity.
    responses: Vec<u8>,
    out: SendBuf,
}

impl KvServer {
    /// Creates a server with the paper's cost calibration (~0.68 kc of
    /// application work per request).
    pub fn new(port: u16) -> Self {
        KvServer {
            port,
            store: BTreeMap::new(),
            lock_contention_cycles: 0,
            app_cores: 1,
            gets: 0,
            sets: 0,
            partial: PerSock::default(),
            responses: Vec::new(),
            out: SendBuf::default(),
        }
    }

    /// Configures the Table 7 non-scalable variant: every operation takes
    /// the same lock.
    pub fn non_scalable(mut self, app_cores: u32, contention_cycles: u64) -> Self {
        self.app_cores = app_cores;
        self.lock_contention_cycles = contention_cycles;
        self
    }

    fn serve(&mut self, sock: SockId, api: &mut dyn StackApi) {
        let buf = self.partial.slot(sock);
        api.recv_with(sock, usize::MAX, &mut |data| {
            buf.extend_from_slice(data);
            data.len()
        });
        let whole = buf.len() / REQ_LEN * REQ_LEN;
        for req in buf[..whole].chunks_exact(REQ_LEN) {
            let op = req[0];
            let key = u32::from_be_bytes([req[1], req[2], req[3], req[4]]);
            let mut cost = if op == OP_SET { SET_CYCLES } else { GET_CYCLES };
            if self.lock_contention_cycles > 0 && self.app_cores > 1 {
                cost += self.lock_contention_cycles * (self.app_cores as u64 - 1);
            }
            api.charge_app_cycles(cost);
            let mut resp = [0u8; RESP_LEN];
            match op {
                OP_SET => {
                    self.sets += 1;
                    let mut value = [0u8; VAL_SIZE];
                    value.copy_from_slice(&req[REQ_HDR..]);
                    self.store.insert(key, value);
                }
                _ => {
                    self.gets += 1;
                    match self.store.get(&key) {
                        Some(v) => resp[RESP_HDR..].copy_from_slice(v),
                        None => resp[0] = 1, // Miss.
                    }
                }
            }
            resp[1..3].copy_from_slice(&(VAL_SIZE as u16).to_be_bytes());
            self.responses.extend_from_slice(&resp);
        }
        buf.drain(..whole);
        if !self.responses.is_empty() {
            self.out.send(api, sock, &self.responses);
            self.responses.clear();
        }
    }
}

impl App for KvServer {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(self.port);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Readable { sock } => self.serve(sock, api),
            AppEvent::Writable { sock } => {
                self.out.on_writable(api, sock);
            }
            AppEvent::Closed { sock } => {
                self.partial.clear(sock);
                self.out.clear(sock);
                api.close(sock);
            }
            _ => {}
        }
    }

    impl_as_any!();
}

/// Load pattern of the [`KvClient`].
#[derive(Clone, Copy, Debug)]
pub enum KvLoad {
    /// Closed loop: one outstanding request per connection, immediately
    /// replaced (throughput experiments).
    Closed,
    /// Open loop at a fixed aggregate rate in requests/second spread over
    /// the connections (latency experiments at 15% utilization).
    OpenRate {
        /// Aggregate request rate.
        per_sec: u64,
    },
}

/// Fraction of requests that are SETs (paper: 10%).
const SET_FRACTION: f64 = 0.1;

/// memslap-like workload client over the request engine: zipf GET/SET
/// requests, closed- or open-loop. Its accounting (`done`, `sent`,
/// `latency`, `measure_from`, `conns_completed`) is the engine's.
pub struct KvClient {
    rpc: Rpc,
    keys: usize,
    zipf: Zipf,
    rng: Rng,
    load: KvLoad,
    next_conn_rr: usize,
    preloaded: bool,
}

impl KvClient {
    /// Creates a client: `conns` connections, zipf(0.9) over `keys` keys.
    pub fn new(
        server: Ipv4Addr,
        port: u16,
        conns: u32,
        keys: usize,
        load: KvLoad,
        seed: u64,
    ) -> Self {
        KvClient {
            rpc: Rpc::new(server, port, conns, RESP_LEN, Lifetime::Persistent),
            keys,
            zipf: Zipf::new(keys, 0.9),
            rng: Rng::new(seed),
            load,
            next_conn_rr: 0,
            preloaded: false,
        }
    }

    /// Short-lived connections: tear down and re-establish each
    /// connection after `msgs_per_conn` completed requests (the scenario
    /// suite's connection-churn storm; stresses slow-path handshakes and
    /// flow-slot recycling the way Fig. 5 does for echo RPCs).
    pub fn short_lived(mut self, msgs_per_conn: u32) -> Self {
        self.rpc.lifetime = Lifetime::ShortLived { msgs_per_conn };
        self
    }

    /// Replaces the load pattern mid-run (the flash-crowd phase change).
    /// Takes effect at the next open-loop arrival.
    pub fn set_load(&mut self, load: KvLoad) {
        self.load = load;
    }

    fn build_request(&mut self) -> [u8; REQ_LEN] {
        let key = self.zipf.sample(&mut self.rng) as u32;
        let op = if self.rng.chance(SET_FRACTION) {
            OP_SET
        } else {
            OP_GET
        };
        let mut req = request(op, key);
        if op == OP_SET {
            for (i, b) in req[REQ_HDR..].iter_mut().enumerate() {
                *b = (key as usize + i) as u8;
            }
        }
        req
    }

    /// Issues one request on connection `idx` if it is established. The
    /// request is drawn before the engine's backlog check, so a
    /// suppressed request still advances the RNG.
    fn fire(&mut self, idx: usize, api: &mut dyn StackApi) {
        if !self.rpc.connected(idx) {
            return;
        }
        let req = self.build_request();
        self.rpc.send(idx, &req, true, api);
    }

    fn schedule_next_open(&mut self, api: &mut dyn StackApi) {
        if let KvLoad::OpenRate { per_sec } = self.load {
            // Exponential inter-arrival around the configured rate.
            let mean_ns = 1e9 / per_sec as f64;
            let gap = tas_sim::dist::Exponential::new(mean_ns).sample(&mut self.rng);
            api.set_app_timer(SimTime::from_ns(gap.max(1.0) as u64), 1);
        }
    }
}

deref_to_engine!(KvClient);

impl App for KvClient {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        self.rpc.start(api);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                let Some(idx) = self.rpc.on_connected(sock) else {
                    return;
                };
                if !self.preloaded {
                    self.preloaded = true;
                    // Preload a few hot keys so early GETs hit.
                    for k in 0..self.keys.min(64) as u32 {
                        self.rpc.push(idx, &request(OP_SET, k), true, api);
                    }
                    self.schedule_next_open(api);
                } else if let KvLoad::Closed = self.load {
                    self.fire(idx, api);
                }
            }
            AppEvent::Writable { sock } => {
                self.rpc.on_writable(sock, api);
            }
            AppEvent::Timer { .. } => {
                // Open-loop arrival: pick the next connection round-robin.
                if self.rpc.conns() > 0 {
                    let idx = self.next_conn_rr % self.rpc.conns();
                    self.next_conn_rr += 1;
                    self.fire(idx, api);
                }
                self.schedule_next_open(api);
            }
            AppEvent::Readable { sock } => {
                let Some(idx) = self.rpc.recv(sock, api) else {
                    return;
                };
                // Preload responses refill too under `Closed`.
                while self.rpc.complete(idx, api) {
                    if let KvLoad::Closed = self.load {
                        self.fire(idx, api);
                    }
                }
            }
            AppEvent::Closed { sock } => self.rpc.on_closed(sock, api),
            _ => {}
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_sizes_are_paper_scale() {
        // ~100-byte requests (32B key + 64B value + header).
        assert_eq!(REQ_LEN, 99);
        assert_eq!(RESP_LEN, 67);
    }

    #[test]
    fn request_encoding_round_trips() {
        let mut c = KvClient::new(Ipv4Addr::new(10, 0, 0, 1), 11211, 1, 100, KvLoad::Closed, 7);
        let req = c.build_request();
        assert_eq!(req.len(), REQ_LEN);
        assert!(req[0] == OP_GET || req[0] == OP_SET);
        let key = u32::from_be_bytes([req[1], req[2], req[3], req[4]]);
        assert!((key as usize) < 100);
        let get = get_request(5);
        assert_eq!(get[..7], [OP_GET, 0, 0, 0, 5, 0, VAL_SIZE as u8]);
        assert_eq!(get.len(), REQ_LEN);
    }

    #[test]
    fn zipf_prefers_low_keys() {
        let mut c = KvClient::new(
            Ipv4Addr::new(10, 0, 0, 1),
            11211,
            1,
            1000,
            KvLoad::Closed,
            7,
        );
        let mut low = 0;
        for _ in 0..1000 {
            let req = c.build_request();
            let key = u32::from_be_bytes([req[1], req[2], req[3], req[4]]);
            if key < 100 {
                low += 1;
            }
        }
        assert!(
            low > 300,
            "zipf(0.9) should concentrate: {low}/1000 in top 10%"
        );
    }

    #[test]
    fn contention_cost_scales_with_cores() {
        let s = KvServer::new(1).non_scalable(4, 500);
        assert_eq!(s.lock_contention_cycles, 500);
        assert_eq!(s.app_cores, 4);
    }
}
