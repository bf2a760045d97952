//! The request/response connection engine that
//! [`RpcClient`](crate::echo::RpcClient) and
//! [`KvClient`](crate::kv::KvClient) both drive: the connection table and
//! its socket index, send buffering with a backlog limit, FIFO send-time
//! matching behind a warmup gate, response framing by byte count, and
//! connection churn. Each client keeps only its policy (which bytes a
//! request carries, when to issue one) and passes it as values.

use crate::util::{PerSock, SendBuf};
use std::collections::VecDeque;
use std::net::Ipv4Addr;
use tas_netsim::app::{SockId, StackApi};
use tas_sim::{Histogram, SimTime};

/// Connection lifetime policy of a request/response client.
#[derive(Clone, Copy, Debug)]
pub enum Lifetime {
    /// Keep connections open for the whole run.
    Persistent,
    /// Close and re-establish each connection after `msgs_per_conn`
    /// request/response exchanges (Fig. 5, the scenario suite's churn).
    ShortLived {
        /// Responses per connection before teardown.
        msgs_per_conn: u32,
    },
}

#[derive(Debug, Default)]
struct Conn {
    sock: SockId,
    connected: bool,
    /// Response bytes received but not yet framed into a whole response.
    pending: usize,
    /// Send times of the requests still awaiting responses, oldest first.
    sent_at: VecDeque<SimTime>,
    /// Responses completed on this connection.
    responses: u32,
}

impl Conn {
    /// A connection on `sock` with nothing sent or received.
    fn new(sock: SockId) -> Self {
        Conn {
            sock,
            ..Conn::default()
        }
    }
}

/// The engine; a client holds one and dereferences to it, so the
/// accounting fields below read as the client's own.
#[derive(Debug)]
pub struct Rpc {
    server: Ipv4Addr,
    port: u16,
    n_conns: u32,
    resp_len: usize,
    pub(crate) lifetime: Lifetime,
    conns: Vec<Conn>,
    index: PerSock<Option<usize>>,
    out: SendBuf,
    /// Completed request/response exchanges.
    pub done: u64,
    /// Requests sent.
    pub sent: u64,
    /// End-to-end request latency histogram (nanoseconds).
    pub latency: Histogram,
    /// Measurement gate: requests completing before this instant count in
    /// `done` but are not recorded in `latency` (warmup).
    pub measure_from: SimTime,
    /// Connections fully closed.
    pub conns_completed: u64,
}

impl Rpc {
    /// An engine for `conns` connections to `server:port` whose responses
    /// are `resp_len` bytes each.
    pub(crate) fn new(
        server: Ipv4Addr,
        port: u16,
        conns: u32,
        resp_len: usize,
        lifetime: Lifetime,
    ) -> Self {
        Rpc {
            server,
            port,
            n_conns: conns,
            resp_len,
            lifetime,
            conns: Vec::new(),
            index: PerSock::default(),
            out: SendBuf::default(),
            done: 0,
            sent: 0,
            latency: Histogram::new(),
            measure_from: SimTime::ZERO,
            conns_completed: 0,
        }
    }

    /// Opens every connection.
    pub(crate) fn start(&mut self, api: &mut dyn StackApi) {
        for idx in 0..self.n_conns as usize {
            self.conns.push(Conn::default());
            self.open(idx, api);
        }
    }

    /// Opens connection `idx` on a new socket with fresh state.
    fn open(&mut self, idx: usize, api: &mut dyn StackApi) {
        let sock = api.connect(self.server, self.port);
        *self.index.slot(sock) = Some(idx);
        self.conns[idx] = Conn::new(sock);
    }

    pub(crate) fn conns(&self) -> usize {
        self.conns.len()
    }

    fn conn_of(&self, sock: SockId) -> Option<usize> {
        self.index.get(sock).copied().flatten()
    }

    pub(crate) fn connected(&self, idx: usize) -> bool {
        self.conns[idx].connected
    }

    /// Marks `sock`'s connection established; returns its index.
    pub(crate) fn on_connected(&mut self, sock: SockId) -> Option<usize> {
        let idx = self.conn_of(sock)?;
        self.conns[idx].connected = true;
        Some(idx)
    }

    /// Flushes `sock`'s carried bytes; returns its connection's index.
    pub(crate) fn on_writable(&mut self, sock: SockId, api: &mut dyn StackApi) -> Option<usize> {
        self.out.on_writable(api, sock);
        self.conn_of(sock)
    }

    /// Sends `req` on connection `idx` unless its socket already carries
    /// more than four requests' worth of unsent bytes; returns whether it
    /// went out.
    pub(crate) fn send(
        &mut self,
        idx: usize,
        req: &[u8],
        reply: bool,
        api: &mut dyn StackApi,
    ) -> bool {
        if self.out.pending(self.conns[idx].sock) > 4 * req.len() {
            return false;
        }
        self.push(idx, req, reply, api);
        true
    }

    /// Sends `req` on connection `idx` whatever the backlog. Only a
    /// request that expects a `reply` records its send time: nothing
    /// would ever match the others.
    pub(crate) fn push(&mut self, idx: usize, req: &[u8], reply: bool, api: &mut dyn StackApi) {
        let c = &mut self.conns[idx];
        self.out.send(api, c.sock, req);
        if reply {
            c.sent_at.push_back(api.now());
        }
        self.sent += 1;
    }

    /// Counts, without keeping, the bytes `sock` holds: responses are
    /// framed by length alone. Returns the connection's index.
    pub(crate) fn recv(&mut self, sock: SockId, api: &mut dyn StackApi) -> Option<usize> {
        let idx = self.conn_of(sock)?;
        self.conns[idx].pending += api.recv_with(sock, usize::MAX, &mut |data| data.len());
        Some(idx)
    }

    /// Frames one whole response off connection `idx`, timed from the
    /// oldest send. Returns whether one was framed and the connection
    /// stays open for a follow-up request; a short-lived connection's
    /// last response closes it and drops its state.
    pub(crate) fn complete(&mut self, idx: usize, api: &mut dyn StackApi) -> bool {
        let now = api.now();
        let c = &mut self.conns[idx];
        if c.pending < self.resp_len {
            return false;
        }
        c.pending -= self.resp_len;
        c.responses += 1;
        self.done += 1;
        if let Some(t0) = c.sent_at.pop_front() {
            if now >= self.measure_from {
                self.latency.record_time(now - t0);
            }
        }
        match self.lifetime {
            Lifetime::ShortLived { msgs_per_conn } if c.responses >= msgs_per_conn => {
                api.close(c.sock);
                *c = Conn::new(c.sock);
                false
            }
            _ => true,
        }
    }

    /// Retires a closed socket; a short-lived connection reopens on a new
    /// socket with fresh state.
    pub(crate) fn on_closed(&mut self, sock: SockId, api: &mut dyn StackApi) {
        let Some(idx) = self.conn_of(sock) else {
            return;
        };
        self.index.clear(sock);
        self.conns_completed += 1;
        if let Lifetime::ShortLived { .. } = self.lifetime {
            self.open(idx, api);
        }
    }
}

/// Gives a client's engine fields (`done`, `sent`, `latency`,
/// `measure_from`, `conns_completed`) as the client's own.
macro_rules! deref_to_engine {
    ($client:ty) => {
        impl std::ops::Deref for $client {
            type Target = crate::rpc::Rpc;
            fn deref(&self) -> &Self::Target {
                &self.rpc
            }
        }

        impl std::ops::DerefMut for $client {
            fn deref_mut(&mut self) -> &mut Self::Target {
                &mut self.rpc
            }
        }
    };
}
pub(crate) use deref_to_engine;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::echo::RpcClient;
    use tas_netsim::app::{App, AppEvent};

    /// A stack whose sockets accept nothing: every request is carried.
    struct Full;

    impl StackApi for Full {
        fn now(&self) -> SimTime {
            SimTime::ZERO
        }
        fn listen(&mut self, _: u16) {}
        fn connect(&mut self, _: Ipv4Addr, _: u16) -> SockId {
            0
        }
        fn send(&mut self, _: SockId, _: &[u8]) -> usize {
            0
        }
        fn recv_with(&mut self, _: SockId, _: usize, _: &mut dyn FnMut(&[u8]) -> usize) -> usize {
            0
        }
        fn readable(&self, _: SockId) -> usize {
            0
        }
        fn close(&mut self, _: SockId) {}
        fn charge_app_cycles(&mut self, _: u64) {}
        fn set_app_timer(&mut self, _: SimTime, _: u64) {}
        fn post(&mut self, _: u16, _: u64) {}
    }

    #[test]
    fn streaming_requests_record_no_send_times() {
        let mut c = RpcClient::new(Ipv4Addr::LOCALHOST, 7, 1, 16, 64, Lifetime::Persistent);
        c.expect_reply = false;
        c.on_start(&mut Full);
        c.on_event(AppEvent::Connected { sock: 0 }, &mut Full);
        // Five requests carried (320 B > 4 x 64 B) stop the stream.
        assert_eq!(c.sent, 5);
        assert!(c.conns[0].sent_at.is_empty(), "no reply will ever pop one");
    }
}
