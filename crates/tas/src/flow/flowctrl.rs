//! `FpFlowCtrl`: the peer's advertised window and our own window-update
//! bookkeeping. The fields are private to this module: writes go through
//! the `&mut self` methods here, reads through getters.

/// Flow-control component: the peer's advertised window and our own
/// window-update bookkeeping.
#[derive(Debug)]
pub struct FpFlowCtrl {
    /// Remote receive window in bytes, already scaled (window field).
    snd_wnd: u64,
    /// Peer window scale shift (negotiated by the slow path).
    peer_wscale: u8,
    /// The last advertised window was below one MSS; an RX-bump (the
    /// application reading) should then emit an explicit window update.
    win_closed: bool,
}

impl FpFlowCtrl {
    /// Component state at flow installation.
    pub fn new(snd_wnd: u64, peer_wscale: u8) -> FpFlowCtrl {
        FpFlowCtrl {
            snd_wnd,
            peer_wscale,
            win_closed: false,
        }
    }

    /// Remote receive window in bytes, already scaled (window field).
    #[inline]
    pub fn snd_wnd(&self) -> u64 {
        self.snd_wnd
    }

    /// Peer window scale shift (negotiated by the slow path).
    #[inline]
    pub fn peer_wscale(&self) -> u8 {
        self.peer_wscale
    }

    /// The last advertised window was below one MSS.
    #[inline]
    pub fn win_closed(&self) -> bool {
        self.win_closed
    }

    /// Records the window field of a received header, scaled here. True
    /// when the window grew: that marks a window update, not a duplicate
    /// ACK (RFC 5681's "no window change" condition) — a shrinking window
    /// accompanies held out-of-order data and is a genuine loss signal.
    pub fn peer_window(&mut self, raw: u16) -> bool {
        let scaled = (raw as u64) << self.peer_wscale;
        let grew = scaled > self.snd_wnd;
        self.snd_wnd = scaled;
        grew
    }

    /// Records whether the advertised window has collapsed below one MSS.
    pub fn set_win_closed(&mut self, closed: bool) {
        self.win_closed = closed;
    }
}
