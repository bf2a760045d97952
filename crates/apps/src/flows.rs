//! Dynamic flow workload for the congestion-control experiments
//! (Fig. 11: single bottleneck, Fig. 12: FatTree).
//!
//! A [`FlowGen`] opens a new connection per flow (Poisson arrivals,
//! bounded-Pareto sizes), streams the flow's bytes, and closes. The first
//! 16 payload bytes carry the flow's start time and size, so the
//! [`FlowSink`] can compute the flow completion time the way ns-3 scripts
//! do (arrival of the last byte minus flow start).

use crate::util::PerSock;
use std::net::Ipv4Addr;
use tas_netsim::app::{App, AppEvent, SockId, StackApi};
use tas_sim::dist::BoundedPareto;
use tas_sim::{impl_as_any, Histogram, Rng, SimTime};

/// Flow header: start time (ps) and flow size (bytes).
pub const FLOW_HDR: usize = 16;

/// Sizes in packets for the short/long split of Fig. 12 (50 packets).
pub const SHORT_FLOW_PKTS: u64 = 50;

/// The flow-size law: bounded Pareto between 2 and 500 full segments,
/// shape 1.2.
fn flow_sizes() -> BoundedPareto {
    BoundedPareto::new(2.0 * 1448.0, 500.0 * 1448.0, 1.2)
}

/// Generates flows toward a set of destinations.
pub struct FlowGen {
    /// Destination choices (ip, port).
    pub dests: Vec<(Ipv4Addr, u16)>,
    /// Mean inter-arrival time.
    mean_gap: SimTime,
    rng: Rng,
    /// Flows still sending: (size, sent, start).
    active: PerSock<Option<(u64, u64, SimTime)>>,
    /// Flows started.
    pub started: u64,
    /// Flows whose bytes were fully accepted by the stack.
    pub finished_sending: u64,
}

impl FlowGen {
    /// Creates a generator offering `load_bps` toward `dests`: the mean
    /// gap between flow arrivals is the size law's analytic mean size
    /// over that rate, so the offered load is exact.
    pub fn new(dests: Vec<(Ipv4Addr, u16)>, load_bps: f64, seed: u64) -> Self {
        FlowGen {
            dests,
            mean_gap: SimTime::from_secs_f64(flow_sizes().mean() * 8.0 / load_bps),
            rng: Rng::new(seed),
            active: PerSock::default(),
            started: 0,
            finished_sending: 0,
        }
    }

    fn schedule_next(&mut self, api: &mut dyn StackApi) {
        let gap =
            tas_sim::dist::Exponential::new(self.mean_gap.as_ps() as f64).sample(&mut self.rng);
        api.set_app_timer(SimTime::from_ps(gap.max(1.0) as u64), 0);
    }

    fn start_flow(&mut self, api: &mut dyn StackApi) {
        let (ip, port) = *self.rng.choose(&self.dests);
        let size = flow_sizes().sample(&mut self.rng).round() as u64;
        let size = size.max(FLOW_HDR as u64);
        let sock = api.connect(ip, port);
        *self.active.slot(sock) = Some((size, 0, api.now()));
        self.started += 1;
    }

    fn pump(&mut self, sock: SockId, api: &mut dyn StackApi) {
        let Some(&Some((size, mut sent, start))) = self.active.get(sock) else {
            return;
        };
        loop {
            let left = size - sent;
            if left == 0 {
                break;
            }
            let chunk = left.min(8192) as usize;
            let mut buf = vec![0x33u8; chunk];
            if sent == 0 {
                // Stamp the header into the first bytes.
                buf[..8].copy_from_slice(&start.as_ps().to_be_bytes());
                buf[8..16].copy_from_slice(&size.to_be_bytes());
            }
            let n = api.send(sock, &buf) as u64;
            sent += n;
            if n < chunk as u64 {
                break;
            }
        }
        *self.active.slot(sock) = Some((size, sent, start));
        if sent == size {
            self.active.clear(sock);
            self.finished_sending += 1;
            api.close(sock);
        }
    }
}

impl App for FlowGen {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        self.schedule_next(api);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Timer { .. } => {
                self.start_flow(api);
                self.schedule_next(api);
            }
            AppEvent::Connected { sock } | AppEvent::Writable { sock } => self.pump(sock, api),
            AppEvent::Closed { sock } => self.active.clear(sock),
            _ => {}
        }
    }

    impl_as_any!();
}

/// Receives flows and records completion times.
pub struct FlowSink {
    /// Listening port.
    pub port: u16,
    conns: PerSock<Option<SinkConn>>,
    /// FCTs (ns) of flows at most [`SHORT_FLOW_PKTS`] packets.
    pub fct_short: Histogram,
    /// FCTs (ns) of longer flows.
    pub fct_long: Histogram,
    /// All FCTs (ns).
    pub fct_all: Histogram,
    /// Completed flows.
    pub completed: u64,
    /// Measurement gate (flows *starting* before this are not recorded).
    pub measure_from: SimTime,
}

struct SinkConn {
    hdr: Vec<u8>,
    size: u64,
    start_ps: u64,
    got: u64,
}

impl SinkConn {
    /// Counts received bytes, parsing the flow header from the first
    /// [`FLOW_HDR`] of them.
    fn absorb(&mut self, mut data: &[u8]) {
        if self.hdr.len() < FLOW_HDR {
            let take = (FLOW_HDR - self.hdr.len()).min(data.len());
            self.hdr.extend_from_slice(&data[..take]);
            self.got += take as u64;
            data = &data[take..];
            if self.hdr.len() == FLOW_HDR {
                self.start_ps = u64::from_be_bytes(self.hdr[..8].try_into().expect("sized"));
                self.size = u64::from_be_bytes(self.hdr[8..16].try_into().expect("sized"));
            }
        }
        self.got += data.len() as u64;
    }
}

impl FlowSink {
    /// Creates a sink.
    pub fn new(port: u16) -> Self {
        FlowSink {
            port,
            conns: PerSock::default(),
            fct_short: Histogram::new(),
            fct_long: Histogram::new(),
            fct_all: Histogram::new(),
            completed: 0,
            measure_from: SimTime::ZERO,
        }
    }
}

impl App for FlowSink {
    fn on_start(&mut self, api: &mut dyn StackApi) {
        api.listen(self.port);
    }

    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi) {
        match ev {
            AppEvent::Accepted { sock, .. } => {
                *self.conns.slot(sock) = Some(SinkConn {
                    hdr: Vec::new(),
                    size: 0,
                    start_ps: 0,
                    got: 0,
                });
            }
            AppEvent::Readable { sock } => {
                let now = api.now();
                let conn = self.conns.slot(sock);
                api.recv_with(sock, usize::MAX, &mut |data| {
                    if let Some(c) = conn.as_mut() {
                        c.absorb(data);
                    }
                    data.len()
                });
                let Some(c) = conn else {
                    return;
                };
                if c.size > 0 && c.got >= c.size {
                    let start = SimTime::from_ps(c.start_ps);
                    let fct = now.saturating_sub(start);
                    let size = c.size;
                    self.conns.clear(sock);
                    self.completed += 1;
                    if start >= self.measure_from {
                        self.fct_all.record_time(fct);
                        if size <= SHORT_FLOW_PKTS * 1448 {
                            self.fct_short.record_time(fct);
                        } else {
                            self.fct_long.record_time(fct);
                        }
                    }
                }
            }
            AppEvent::Closed { sock } => {
                self.conns.clear(sock);
                api.close(sock);
            }
            _ => {}
        }
    }

    impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_gap_offers_the_requested_load() {
        let dests = vec![(Ipv4Addr::new(10, 0, 0, 1), 5001)];
        let mean = BoundedPareto::new(2.0 * 1448.0, 500.0 * 1448.0, 1.2).mean();
        for load_bps in [0.75 * 10e9 / 8.0, 0.5 * 10e9] {
            let g = FlowGen::new(dests.clone(), load_bps, 1);
            assert_eq!(g.mean_gap, SimTime::from_secs_f64(mean * 8.0 / load_bps));
        }
    }
}
