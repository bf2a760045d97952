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

    /// Updates the peer window (already scaled by the caller, which reads
    /// `peer_wscale` from this component).
    pub fn update_wnd(&mut self, scaled: u64) {
        self.snd_wnd = scaled;
    }

    /// Records whether the advertised window has collapsed below one MSS.
    pub fn set_win_closed(&mut self, closed: bool) {
        self.win_closed = closed;
    }
}
