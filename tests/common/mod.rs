//! What the end-to-end tests share: stacks as the interop tests configure
//! them, testbed shorthands, and the one client that checks every echoed
//! byte.
#![allow(dead_code)] // Each test binary uses its own subset.

use std::net::Ipv4Addr;
use tas_bench::testbed::{Agent, Testbed};
use tas_bench::HostCfg;
use tas_repro::baselines::{profiles, StackHostConfig};
use tas_repro::netsim::app::{App, AppEvent, SockId, StackApi};
use tas_repro::netsim::PortConfig;
use tas_repro::sim::{impl_as_any, SimTime};
use tas_repro::tas::TasConfig;

/// A TAS host running `app` on `cfg`.
pub fn tas(cfg: TasConfig, app: impl App) -> Agent {
    Agent::stack(HostCfg::Tas(cfg), Box::new(app))
}

/// The Linux model on two cores.
pub fn linux() -> HostCfg {
    HostCfg::Model(Box::new(profiles::linux()), StackHostConfig::linux(2))
}

/// The IX model on two cores.
pub fn ix() -> HostCfg {
    HostCfg::Model(Box::new(profiles::ix()), StackHostConfig::ix(2))
}

/// The mTCP model: three cores, one of them the stack thread.
pub fn mtcp() -> HostCfg {
    HostCfg::Model(Box::new(profiles::mtcp()), StackHostConfig::mtcp(3, 1))
}

/// The MPK dataplane model on two cores.
pub fn mpk() -> HostCfg {
    HostCfg::Model(Box::new(profiles::mpk()), StackHostConfig::mpk(2))
}

/// Two 10G machines on one switch, both started at t = 0: node 0 is the
/// server, node 1 the client.
pub fn pair(seed: u64, server: Agent, client: Agent) -> Testbed {
    Testbed::uniform(seed, PortConfig::tengig(), [server, client])
}

/// Closed-loop RPC client on one connection: one request in flight,
/// `total` requests, then it closes. Request `n` carries the bytes
/// `(n + i) % 251`, and every echoed byte is checked against them.
pub struct CheckingClient {
    server: Ipv4Addr,
    port: u16,
    req_size: usize,
    total: u32,
    sock: Option<SockId>,
    sent: u32,
    /// Requests whose echo came back intact.
    pub done: u32,
    pending: Vec<u8>,
    /// Round-trip time of every request, in µs.
    pub rtts_us: Vec<f64>,
    inflight_since: SimTime,
    /// The close handshake completed.
    pub finished: bool,
}

impl CheckingClient {
    /// A client sending `total` requests of `req_size` bytes to
    /// `server:port`.
    pub fn new(server: Ipv4Addr, port: u16, req_size: usize, total: u32) -> Self {
        CheckingClient {
            server,
            port,
            req_size,
            total,
            sock: None,
            sent: 0,
            done: 0,
            pending: Vec::new(),
            rtts_us: Vec::new(),
            inflight_since: SimTime::ZERO,
            finished: false,
        }
    }

    fn fire(&mut self, api: &mut dyn StackApi) {
        let sock = self.sock.expect("connected");
        let req: Vec<u8> = (0..self.req_size)
            .map(|i| ((self.sent as usize + i) % 251) as u8)
            .collect();
        self.inflight_since = api.now();
        let n = api.send(sock, &req);
        assert_eq!(n, req.len(), "request must fit the tx buffer");
        self.sent += 1;
    }
}

impl App for CheckingClient {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        self.sock = Some(api.connect(self.server, self.port));
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { .. } => self.fire(api),
            AppEvent::Readable { sock } => {
                let data = api.recv(sock, usize::MAX);
                self.pending.extend_from_slice(&data);
                while self.pending.len() >= self.req_size {
                    let resp: Vec<u8> = self.pending.drain(..self.req_size).collect();
                    // Verify the echo round-tripped intact.
                    for (i, b) in resp.iter().enumerate() {
                        assert_eq!(
                            *b,
                            ((self.done as usize + i) % 251) as u8,
                            "payload corrupted"
                        );
                    }
                    self.done += 1;
                    self.rtts_us
                        .push((api.now() - self.inflight_since).as_micros_f64());
                    if self.done < self.total {
                        self.fire(api);
                    } else {
                        api.close(sock);
                    }
                }
            }
            AppEvent::Closed { .. } => self.finished = true,
            _ => {}
        }
    }

    impl_as_any!();
}
