//! Shared application plumbing.

use tas_netsim::app::{SockId, StackApi};

/// Per-socket application state in a `Vec` indexed by [`SockId`]. Both
/// hosts hand out dense socket ids (slot indices), so this is a direct
/// index where a hash map would need a hasher. A socket's slot reads as
/// `T::default()` until it is written.
#[derive(Debug, Default)]
pub struct PerSock<T>(Vec<T>);

impl<T: Default> PerSock<T> {
    /// The socket's slot, grown into existence on first use.
    pub fn slot(&mut self, sock: SockId) -> &mut T {
        let i = sock as usize;
        if i >= self.0.len() {
            self.0.resize_with(i + 1, T::default);
        }
        &mut self.0[i]
    }

    /// The socket's slot, if the table reaches it.
    pub fn get(&self, sock: SockId) -> Option<&T> {
        self.0.get(sock as usize)
    }

    /// Resets a closed socket's slot (hosts may reuse its id).
    pub fn clear(&mut self, sock: SockId) {
        if let Some(x) = self.0.get_mut(sock as usize) {
            *x = T::default();
        }
    }
}

/// Per-socket send buffering for message-framed applications.
///
/// `StackApi::send` may accept only part of a write when the per-flow
/// transmit buffer is full; for framed protocols a half-sent message would
/// permanently corrupt the peer's framing. [`SendBuf`] carries the
/// remainder and flushes it on [`SendBuf::on_writable`], so callers can
/// treat every logical message as fully accepted.
///
/// # Examples
///
/// ```no_run
/// # use tas_apps::util::SendBuf;
/// # fn f(api: &mut dyn tas_netsim::app::StackApi, sock: u32) {
/// let mut out = SendBuf::default();
/// out.send(api, sock, b"complete message");
/// // Later, on AppEvent::Writable { sock }:
/// out.on_writable(api, sock);
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SendBuf {
    carry: PerSock<Vec<u8>>,
}

impl SendBuf {
    /// Sends `data`, carrying whatever the stack does not accept. Returns
    /// the bytes that reached the stack *now* (the rest is carried).
    pub fn send(&mut self, api: &mut dyn StackApi, sock: SockId, data: &[u8]) -> usize {
        let c = self.carry.slot(sock);
        if !c.is_empty() {
            // Never reorder: append behind the existing carry.
            c.extend_from_slice(data);
            return self.flush(api, sock);
        }
        let n = api.send(sock, data);
        c.extend_from_slice(&data[n..]);
        n
    }

    /// Flushes carried bytes; call on `AppEvent::Writable`.
    pub fn on_writable(&mut self, api: &mut dyn StackApi, sock: SockId) -> usize {
        self.flush(api, sock)
    }

    fn flush(&mut self, api: &mut dyn StackApi, sock: SockId) -> usize {
        let c = self.carry.slot(sock);
        if c.is_empty() {
            return 0;
        }
        let n = api.send(sock, c);
        c.drain(..n);
        n
    }

    /// Bytes currently carried for a socket.
    pub fn pending(&self, sock: SockId) -> usize {
        self.carry.get(sock).map_or(0, Vec::len)
    }

    /// Drops a closed socket's state.
    pub fn clear(&mut self, sock: SockId) {
        self.carry.clear(sock);
    }
}
