//! RPC echo server and clients (Figures 4–6).

pub use crate::rpc::Lifetime;
use crate::rpc::{deref_to_engine, Rpc};
use crate::util::{PerSock, SendBuf};
use std::net::Ipv4Addr;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::impl_as_any;

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

/// Closed-loop RPC client: `conns` connections, each keeping `pipeline`
/// requests of fixed bytes in flight (Fig. 4 uses pipeline 1; Fig. 6 deep
/// pipelines), over the request engine. Its accounting (`done`, `sent`,
/// `latency`, `measure_from`, `conns_completed`) is the engine's.
pub struct RpcClient {
    rpc: Rpc,
    /// Responses are expected (false = Fig. 6 RX-only streaming toward
    /// the server).
    pub expect_reply: bool,
    pipeline: u32,
    /// Stop issuing new requests after this many have been sent
    /// (0 = unlimited).
    pub max_requests: u64,
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
            rpc: Rpc::new(server, port, conns, req_size, lifetime),
            expect_reply: true,
            pipeline,
            max_requests: 0,
            req: vec![0xab; req_size],
        }
    }

    /// Issues one request on connection `idx`; returns whether it went
    /// out. Does not check that the connection is established.
    fn fire(&mut self, idx: usize, api: &mut dyn StackApi) -> bool {
        if self.max_requests > 0 && self.rpc.sent >= self.max_requests {
            return false;
        }
        self.rpc.send(idx, &self.req, self.expect_reply, api)
    }
}

deref_to_engine!(RpcClient);

impl App for RpcClient {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        self.rpc.start(api);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } => {
                let Some(idx) = self.rpc.on_connected(sock) else {
                    return;
                };
                let burst = if self.expect_reply {
                    self.pipeline
                } else {
                    u32::MAX
                };
                for _ in 0..burst {
                    if !self.fire(idx, api) {
                        break; // Send buffer full.
                    }
                }
            }
            AppEvent::Writable { sock } => {
                let idx = self.rpc.on_writable(sock, api);
                // RX-only streaming mode: keep the pipe full.
                if let (false, Some(idx)) = (self.expect_reply, idx) {
                    while self.fire(idx, api) {}
                }
            }
            AppEvent::Readable { sock } => {
                let Some(idx) = self.rpc.recv(sock, api) else {
                    return;
                };
                while self.rpc.complete(idx, api) {
                    self.fire(idx, api);
                }
            }
            AppEvent::Closed { sock } => self.rpc.on_closed(sock, api),
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
