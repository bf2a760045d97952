//! `FlowCtrl`: flow control — the peer's advertised send window (with
//! its negotiated scale and MSS) and our own advertised-window
//! bookkeeping for window-update ACKs. The fields are private to this
//! module: all mutation goes through `&mut self` methods here, everything
//! else reads through getters.

/// Flow-control component: owns both directions' window accounting.
#[derive(Debug)]
pub struct FlowCtrl {
    /// Peer's advertised window in bytes (already scaled).
    snd_wnd: u64,
    /// Peer's window-scale shift from the SYN.
    peer_wscale: u8,
    /// Peer's MSS from the SYN.
    peer_mss: u32,
    /// The advertised window we last put on the wire; a window update is
    /// emitted when the application reopens a previously-tight window.
    last_adv_window: u64,
}

impl FlowCtrl {
    pub(crate) fn new(mss: u32, recv_buf: usize) -> FlowCtrl {
        FlowCtrl {
            snd_wnd: mss as u64 * 10,
            peer_wscale: 0,
            peer_mss: mss,
            last_adv_window: recv_buf as u64,
        }
    }

    /// Peer's advertised window in bytes (already scaled).
    #[inline]
    pub fn snd_wnd(&self) -> u64 {
        self.snd_wnd
    }

    /// Peer's window-scale shift from the SYN.
    #[inline]
    pub fn peer_wscale(&self) -> u8 {
        self.peer_wscale
    }

    /// Peer's MSS from the SYN.
    #[inline]
    pub fn peer_mss(&self) -> u32 {
        self.peer_mss
    }

    /// The advertised window we last put on the wire.
    #[inline]
    pub fn last_adv_window(&self) -> u64 {
        self.last_adv_window
    }

    /// Applies the peer's SYN options: MSS, window scale, and the
    /// (unscaled) SYN window.
    pub(crate) fn apply_syn(&mut self, mss: Option<u32>, wscale: u8, syn_window: u64) {
        if let Some(m) = mss {
            self.peer_mss = m;
        }
        self.peer_wscale = wscale;
        // SYN window is unscaled.
        self.snd_wnd = syn_window;
    }

    /// Updates the peer window from a segment's raw (unscaled) field.
    pub(crate) fn update_wnd(&mut self, raw_window: u16) {
        self.snd_wnd = (raw_window as u64) << self.peer_wscale;
    }

    /// Records the advertised window just placed on the wire.
    pub(crate) fn note_advertised(&mut self, adv: u64) {
        self.last_adv_window = adv;
    }
}
