//! Bulk-transfer applications (Table 4 compatibility, Fig. 7 loss, and
//! Fig. 13 incast).

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::{impl_as_any, SimTime};

/// Streams data on `conns` connections for the whole run.
pub struct BulkSender {
    server: Ipv4Addr,
    port: u16,
    n_conns: u32,
    /// Write chunk size.
    pub chunk: usize,
    /// Total payload bytes accepted by the stack.
    pub total_sent: u64,
    /// The bytes every write sends; grown to the largest chunk asked for.
    fill: Vec<u8>,
}

impl BulkSender {
    /// Creates a sender that writes 8 KiB chunks.
    pub fn new(server: Ipv4Addr, port: u16, conns: u32) -> Self {
        BulkSender {
            server,
            port,
            n_conns: conns,
            chunk: 8192,
            total_sent: 0,
            fill: Vec::new(),
        }
    }

    fn pump(&mut self, sock: SockId, api: &mut dyn StackApi) {
        let want = self.chunk;
        if self.fill.len() < want {
            self.fill.resize(want, 0x6b);
        }
        loop {
            let n = api.send(sock, &self.fill[..want]);
            self.total_sent += n as u64;
            if n < want {
                break;
            }
        }
    }
}

impl App for BulkSender {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        for _ in 0..self.n_conns {
            api.connect(self.server, self.port);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Connected { sock } | AppEvent::Writable { sock } => self.pump(sock, api),
            _ => {}
        }
    }

    impl_as_any!();
}

/// Receives bulk data; tracks per-connection byte counts per sampling
/// interval (the Fig. 13 incast measurement: bytes per connection per
/// 100 ms).
pub struct BulkReceiver {
    /// Listening port.
    pub port: u16,
    /// Total payload bytes received.
    pub total: u64,
    /// Per-socket byte count within the current sampling interval.
    pub window_bytes: BTreeMap<SockId, u64>,
    /// Completed interval samples: bytes each connection received in one
    /// interval (across all connections and intervals).
    pub interval_samples: Vec<u64>,
    /// Sampling interval (0 disables; Fig. 13 uses 100 ms).
    pub sample_every: SimTime,
    /// Measurement gate.
    pub measure_from: SimTime,
    sockets: Vec<SockId>,
}

impl BulkReceiver {
    /// Creates a receiver without interval sampling.
    pub fn new(port: u16) -> Self {
        BulkReceiver {
            port,
            total: 0,
            window_bytes: BTreeMap::new(),
            interval_samples: Vec::new(),
            sample_every: SimTime::ZERO,
            measure_from: SimTime::ZERO,
            sockets: Vec::new(),
        }
    }

    /// Enables Fig. 13-style per-interval per-connection sampling.
    pub fn sampling(mut self, every: SimTime, from: SimTime) -> Self {
        self.sample_every = every;
        self.measure_from = from;
        self
    }
}

impl App for BulkReceiver {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(self.port);
        if self.sample_every > SimTime::ZERO {
            api.set_app_timer(self.sample_every, 1);
        }
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Accepted { sock, .. } => {
                self.sockets.push(sock);
                self.window_bytes.insert(sock, 0);
            }
            AppEvent::Readable { sock } => {
                let n = api.recv_with(sock, usize::MAX, &mut |data| data.len()) as u64;
                self.total += n;
                *self.window_bytes.entry(sock).or_insert(0) += n;
            }
            AppEvent::Timer { .. } => {
                let now = api.now();
                if now >= self.measure_from {
                    for &s in &self.sockets {
                        self.interval_samples
                            .push(*self.window_bytes.get(&s).unwrap_or(&0));
                    }
                }
                for v in self.window_bytes.values_mut() {
                    *v = 0;
                }
                api.set_app_timer(self.sample_every, 1);
            }
            AppEvent::Closed { sock } => api.close(sock),
            _ => {}
        }
    }

    impl_as_any!();
}
