//! Stack-agnostic application interface.
//!
//! The paper runs the *same* applications (RPC echo, key-value store,
//! FlexStorm) over Linux, IX, mTCP, and TAS. To reproduce that, apps are
//! written against this small event-driven sockets interface and host
//! agents (one per stack) drive them: the POSIX-style epoll loop, IX's
//! libevent-like API, and TAS's libTAS all reduce to this shape — the
//! per-stack API *costs* are charged by the host, not by the app.

use tas_sim::SimTime;

/// An application-level socket handle (stack-assigned).
pub type SockId = u32;

/// Events delivered to an application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppEvent {
    /// An outbound connection completed.
    Connected {
        /// The socket.
        sock: SockId,
    },
    /// An inbound connection was accepted on a listening port.
    Accepted {
        /// The new connection's socket.
        sock: SockId,
        /// The listening port it arrived on.
        port: u16,
    },
    /// Data is available to read.
    Readable {
        /// The socket.
        sock: SockId,
    },
    /// Send-buffer space opened up after an earlier short write.
    Writable {
        /// The socket.
        sock: SockId,
    },
    /// The peer closed (or the connection reset/finished closing).
    Closed {
        /// The socket.
        sock: SockId,
    },
    /// A timer set via [`StackApi::set_app_timer`] fired.
    Timer {
        /// Caller-chosen identifier.
        token: u64,
    },
    /// Harness-injected control message (e.g. "start issuing load").
    Ctl {
        /// Discriminator (receiver-defined).
        kind: u32,
        /// Payload word.
        a: u64,
        /// Payload word.
        b: u64,
    },
}

/// The socket operations a host exposes to its application.
///
/// Every call may charge stack-specific CPU cost to the calling app
/// thread's core; apps charge their *own* compute via
/// [`StackApi::charge_app_cycles`].
pub trait StackApi {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// Starts listening on a TCP port.
    fn listen(&mut self, port: u16);

    /// Opens a connection; completion is reported via
    /// [`AppEvent::Connected`]. Returns the socket id.
    fn connect(&mut self, ip: std::net::Ipv4Addr, port: u16) -> SockId;

    /// Sends bytes; returns how many were accepted into the send buffer.
    fn send(&mut self, sock: SockId, data: &[u8]) -> usize;

    /// Receives up to `max` bytes in place, from the stack's receive
    /// buffer (libTAS's per-flow payload ring, §3.1), without copying
    /// them into a buffer of the stack's choosing.
    ///
    /// The contract:
    /// * `f` sees the first `min(max, readable)` bytes as at most two
    ///   contiguous slices, in stream order; it is not called when there
    ///   is nothing to offer.
    /// * `f` returns how many bytes of its slice it took, counted from the
    ///   slice's start. Those bytes are consumed; the rest stay readable.
    ///   A take shorter than the slice ends the call, and a count above
    ///   the slice's length takes the whole slice.
    /// * Returns the total taken. An unknown socket reads as empty.
    /// * The call charges exactly what [`StackApi::recv`] charges for the
    ///   same bytes, so the modelled cost of a read does not depend on
    ///   which of the two an application uses.
    fn recv_with(&mut self, sock: SockId, max: usize, f: &mut dyn FnMut(&[u8]) -> usize) -> usize;

    /// Receives up to `max` bytes into a new `Vec` (a [`StackApi::recv_with`]
    /// that takes everything it is offered).
    fn recv(&mut self, sock: SockId, max: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(max.min(self.readable(sock)));
        self.recv_with(sock, max, &mut |s| {
            out.extend_from_slice(s);
            s.len()
        });
        out
    }

    /// Bytes currently readable on a socket.
    fn readable(&self, sock: SockId) -> usize;

    /// Closes a socket (graceful).
    fn close(&mut self, sock: SockId);

    /// Charges application compute to the current app core (e.g. the
    /// key-value store's hash lookup).
    fn charge_app_cycles(&mut self, cycles: u64);

    /// Sets a one-shot application timer delivering
    /// [`AppEvent::Timer`] after `delay`. `token` must fit in
    /// [`APP_TOKEN_BITS`] (48) bits: it shares the timer's data word with
    /// the context it fires on.
    fn set_app_timer(&mut self, delay: SimTime, token: u64);

    /// Posts `token` to another application thread's context — an
    /// inter-thread queue hop, delivered as [`AppEvent::Timer`] on that
    /// context's core (FlexStorm's demux → worker → mux handoffs). `token`
    /// must fit in [`APP_TOKEN_BITS`] (48) bits, as for
    /// [`StackApi::set_app_timer`].
    fn post(&mut self, context: u16, token: u64);
}

/// Width of an application timer token. Hosts carry an app timer as one
/// engine-timer data word: the target context in the top 16 bits, the
/// token below.
pub const APP_TOKEN_BITS: u32 = 48;
const APP_TOKEN_MASK: u64 = (1 << APP_TOKEN_BITS) - 1;

/// Packs an app timer's target `context` and `token` into an engine-timer
/// data word ([`unpack_app_timer`] reverses it). A wider token is a caller
/// bug: debug builds assert, release builds keep its low 48 bits.
pub fn pack_app_timer(context: u16, token: u64) -> u64 {
    debug_assert!(
        token <= APP_TOKEN_MASK,
        "app timer token {token:#x} does not fit in {APP_TOKEN_BITS} bits"
    );
    ((context as u64) << APP_TOKEN_BITS) | (token & APP_TOKEN_MASK)
}

/// Splits an engine-timer data word into `(context, token)`.
pub fn unpack_app_timer(data: u64) -> (u16, u64) {
    ((data >> APP_TOKEN_BITS) as u16, data & APP_TOKEN_MASK)
}

/// An event-driven application running on a host.
///
/// Implementations must be `'static` (hosts box them) and downcastable so
/// experiment harnesses can read their measurements after a run; the
/// [`tas_sim::impl_as_any!`] macro writes the two upcast methods.
pub trait App: 'static {
    /// Called once when the host starts.
    fn on_start(&mut self, api: &mut dyn StackApi);

    /// Called for every event.
    fn on_event(&mut self, ev: AppEvent, api: &mut dyn StackApi);

    /// Upcast for harness-side downcasting.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable upcast for harness-side downcasting.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A no-op application (for hosts that only forward traffic).
pub struct NullApp;

impl App for NullApp {
    fn on_start(&mut self, _api: &mut dyn StackApi) {}
    fn on_event(&mut self, _ev: AppEvent, _api: &mut dyn StackApi) {}
    tas_sim::impl_as_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn app_timer_word_round_trips_at_the_edges() {
        for context in [0, 1, u16::MAX] {
            for token in [0, 1, APP_TOKEN_MASK] {
                let data = pack_app_timer(context, token);
                assert_eq!(unpack_app_timer(data), (context, token));
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "does not fit in 48 bits")]
    fn a_token_wider_than_48_bits_is_caught() {
        pack_app_timer(0, 1 << APP_TOKEN_BITS);
    }
}
