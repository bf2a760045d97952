//! RPC echo server and clients (Figures 4–6).

use crate::util::{PerSock, SendBuf};
use std::net::Ipv4Addr;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::{impl_as_any, Histogram, SimTime};

/// What the echo server does with a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerMode {
    /// Echo every received byte back (the RPC echo benchmark).
    Echo,
    /// Consume silently (the "server only receives" half of Fig. 6).
    Consume,
    /// Stream fixed-size messages to every accepted connection as fast as
    /// the socket accepts (the "server only sends" half of Fig. 6).
    Stream {
        /// Message size in bytes.
        size: usize,
    },
}

/// The echo/stream server application.
pub struct EchoServer {
    /// Listening port.
    pub port: u16,
    /// Behaviour.
    pub mode: ServerMode,
    /// Application cycles charged per message (Fig. 6 uses 250 and 1000).
    pub app_cycles: u64,
    /// Message size for accounting request boundaries.
    pub msg_size: usize,
    /// Total messages handled.
    pub messages: u64,
    /// Total payload bytes received.
    pub bytes_in: u64,
    /// Total payload bytes sent.
    pub bytes_out: u64,
    /// Accepted connections.
    pub accepted: u64,
    /// Bytes buffered per socket until a full message is present.
    partial: PerSock<usize>,
    /// Echo mode's copy of one read, kept for its capacity.
    buf: Vec<u8>,
    out: SendBuf,
}

impl EchoServer {
    /// Creates an echo server for `msg_size`-byte messages.
    pub fn new(port: u16, msg_size: usize, mode: ServerMode, app_cycles: u64) -> Self {
        EchoServer {
            port,
            mode,
            app_cycles,
            msg_size,
            messages: 0,
            bytes_in: 0,
            bytes_out: 0,
            accepted: 0,
            partial: PerSock::default(),
            buf: Vec::new(),
            out: SendBuf::default(),
        }
    }

    fn pump_stream(&mut self, sock: SockId, api: &mut dyn StackApi) {
        let ServerMode::Stream { size } = self.mode else {
            return;
        };
        // Fill the socket until it stops accepting full messages.
        loop {
            api.charge_app_cycles(self.app_cycles);
            let msg = vec![0x5a; size];
            let n = api.send(sock, &msg);
            self.bytes_out += n as u64;
            if n < size {
                break;
            }
            self.messages += 1;
        }
    }
}

impl App for EchoServer {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(self.port);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Accepted { sock, .. } => {
                self.accepted += 1;
                if matches!(self.mode, ServerMode::Stream { .. }) {
                    self.pump_stream(sock, api);
                }
            }
            AppEvent::Writable { sock } => {
                if matches!(self.mode, ServerMode::Stream { .. }) {
                    self.pump_stream(sock, api);
                } else {
                    self.bytes_out += self.out.on_writable(api, sock) as u64;
                }
            }
            AppEvent::Readable { sock } => {
                let echo = self.mode == ServerMode::Echo;
                let buf = &mut self.buf;
                buf.clear();
                let len = api.recv_with(sock, usize::MAX, &mut |data| {
                    if echo {
                        buf.extend_from_slice(data);
                    }
                    data.len()
                });
                self.bytes_in += len as u64;
                let have = self.partial.slot(sock);
                *have += len;
                let full = *have / self.msg_size;
                *have %= self.msg_size;
                for _ in 0..full {
                    self.messages += 1;
                    api.charge_app_cycles(self.app_cycles);
                }
                if echo && len > 0 {
                    let n = self.out.send(api, sock, &self.buf);
                    self.bytes_out += n as u64;
                }
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

/// Connection lifetime policy for [`RpcClient`].
#[derive(Clone, Copy, Debug)]
pub enum Lifetime {
    /// Keep connections open for the whole run.
    Persistent,
    /// Close and re-establish each connection after `msgs_per_conn`
    /// request/response exchanges (Fig. 5).
    ShortLived {
        /// RPCs per connection before teardown.
        msgs_per_conn: u32,
    },
}

struct ClientConn {
    sock: SockId,
    pending: usize,
    outstanding: u32,
    sent_at: Vec<SimTime>,
    msgs_on_conn: u32,
    connected: bool,
}

/// Closed-loop RPC client: `conns` connections, each keeping `pipeline`
/// requests in flight (Fig. 4 uses pipeline 1; Fig. 6 deep pipelines).
pub struct RpcClient {
    server: Ipv4Addr,
    port: u16,
    req_size: usize,
    /// Responses are expected (false = Fig. 6 RX-only streaming toward
    /// the server).
    pub expect_reply: bool,
    conns: Vec<ClientConn>,
    n_conns: u32,
    pipeline: u32,
    lifetime: Lifetime,
    /// Completed request/response exchanges.
    pub done: u64,
    /// Requests sent.
    pub sent: u64,
    /// End-to-end RPC latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Connections fully closed (short-lived mode).
    pub conns_completed: u64,
    out: SendBuf,
    /// Measurement gate: RPCs completing before this instant are not
    /// recorded (warmup).
    pub measure_from: SimTime,
    /// Stop issuing new requests after this many have been sent
    /// (0 = unlimited).
    pub max_requests: u64,
    sock_index: PerSock<Option<usize>>,
    /// The request every connection sends.
    req: Vec<u8>,
}

impl RpcClient {
    /// Creates a client that opens `conns` connections to
    /// `server:port` with `pipeline` requests of `req_size` bytes in
    /// flight on each.
    pub fn new(
        server: Ipv4Addr,
        port: u16,
        conns: u32,
        pipeline: u32,
        req_size: usize,
        lifetime: Lifetime,
    ) -> Self {
        RpcClient {
            server,
            port,
            req_size,
            expect_reply: true,
            conns: Vec::new(),
            n_conns: conns,
            pipeline,
            lifetime,
            done: 0,
            sent: 0,
            latency: Histogram::new(),
            conns_completed: 0,
            out: SendBuf::default(),
            measure_from: SimTime::ZERO,
            max_requests: 0,
            sock_index: PerSock::default(),
            req: vec![0xab; req_size],
        }
    }

    fn open_conn(&mut self, api: &mut dyn StackApi) {
        let sock = api.connect(self.server, self.port);
        let idx = self.conns.len();
        self.conns.push(ClientConn {
            sock,
            pending: 0,
            outstanding: 0,
            sent_at: Vec::new(),
            msgs_on_conn: 0,
            connected: false,
        });
        *self.sock_index.slot(sock) = Some(idx);
    }

    fn fire(&mut self, idx: usize, api: &mut dyn StackApi) {
        if self.max_requests > 0 && self.sent >= self.max_requests {
            return;
        }
        let now = api.now();
        let sock = self.conns[idx].sock;
        // Don't launch a request if a previous one is still carried — the
        // frame must complete first.
        if self.out.pending(sock) > 4 * self.req_size {
            return;
        }
        self.out.send(api, sock, &self.req);
        let c = &mut self.conns[idx];
        c.outstanding += 1;
        c.sent_at.push(now);
        self.sent += 1;
    }
}

impl App for RpcClient {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for _ in 0..self.n_conns {
            self.open_conn(api);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                let Some(&Some(idx)) = self.sock_index.get(sock) else {
                    return;
                };
                self.conns[idx].connected = true;
                let burst = if self.expect_reply {
                    self.pipeline
                } else {
                    u32::MAX
                };
                let mut fired = 0;
                while fired < burst {
                    let before = self.sent;
                    self.fire(idx, api);
                    if self.sent == before {
                        break; // Send buffer full.
                    }
                    fired += 1;
                }
            }
            AppEvent::Writable { sock } => {
                self.out.on_writable(api, sock);
                // RX-only streaming mode: keep the pipe full.
                if !self.expect_reply {
                    if let Some(&Some(idx)) = self.sock_index.get(sock) {
                        loop {
                            let before = self.sent;
                            self.fire(idx, api);
                            if self.sent == before {
                                break;
                            }
                        }
                    }
                }
            }
            AppEvent::Readable { sock } => {
                let Some(&Some(idx)) = self.sock_index.get(sock) else {
                    return;
                };
                let len = api.recv_with(sock, usize::MAX, &mut |data| data.len());
                let now = api.now();
                self.conns[idx].pending += len;
                while self.conns[idx].pending >= self.req_size {
                    self.conns[idx].pending -= self.req_size;
                    self.done += 1;
                    let c = &mut self.conns[idx];
                    c.outstanding = c.outstanding.saturating_sub(1);
                    c.msgs_on_conn += 1;
                    if !c.sent_at.is_empty() {
                        let t0 = c.sent_at.remove(0);
                        if now >= self.measure_from {
                            self.latency.record_time(now - t0);
                        }
                    }
                    match self.lifetime {
                        Lifetime::Persistent => self.fire(idx, api),
                        Lifetime::ShortLived { msgs_per_conn } => {
                            if self.conns[idx].msgs_on_conn >= msgs_per_conn {
                                let c = &mut self.conns[idx];
                                c.msgs_on_conn = 0;
                                c.connected = false;
                                c.pending = 0;
                                c.sent_at.clear();
                                c.outstanding = 0;
                                api.close(sock);
                            } else {
                                self.fire(idx, api);
                            }
                        }
                    }
                }
            }
            AppEvent::Closed { sock } => {
                let Some(&Some(idx)) = self.sock_index.get(sock) else {
                    return;
                };
                self.sock_index.clear(sock);
                self.conns_completed += 1;
                if matches!(self.lifetime, Lifetime::ShortLived { .. }) {
                    // Re-establish (Fig. 5's connection churn).
                    let new_sock = api.connect(self.server, self.port);
                    let c = &mut self.conns[idx];
                    c.sock = new_sock;
                    *self.sock_index.slot(new_sock) = Some(idx);
                }
            }
            _ => {}
        }
    }

    impl_as_any!();
}

/// A pure data sink: accepts server-streamed bytes and counts them
/// (the receiving end of Fig. 6's TX benchmark).
pub struct SinkClient {
    server: Ipv4Addr,
    port: u16,
    n_conns: u32,
    /// Bytes received.
    pub bytes: u64,
}

impl SinkClient {
    /// Creates a sink opening `conns` connections.
    pub fn new(server: Ipv4Addr, port: u16, conns: u32) -> Self {
        SinkClient {
            server,
            port,
            n_conns: conns,
            bytes: 0,
        }
    }
}

impl App for SinkClient {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for _ in 0..self.n_conns {
            api.connect(self.server, self.port);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        if let AppEvent::Readable { sock } = ev {
            self.bytes += api.recv_with(sock, usize::MAX, &mut |data| data.len()) as u64;
        }
    }

    impl_as_any!();
}
