//! Pooled, reference-counted payload buffers.
//!
//! [`PayloadBuf`] is what a [`Segment`](crate::Segment) carries instead of a
//! `Vec<u8>`: an `Rc<[u8]>` with an explicit logical length, recycled
//! through a thread-local free list. On the packet fast path this makes
//! segment construction allocation-free in steady state:
//!
//! * buffers of the standard capacity ([`POOL_BUF_CAP`], sized for an MTU
//!   payload) come from and return to the pool — after warm-up, building a
//!   data segment touches the allocator zero times;
//! * cloning a segment bumps a reference count instead of copying bytes
//!   (NICs, switches, and the pcap exporter all forward the same buffer);
//! * empty payloads (pure ACKs, control segments) hold no buffer at all:
//!   building, cloning or dropping one touches neither the pool nor a
//!   reference count.
//!
//! Ownership rules: a `PayloadBuf` is immutable while shared. The one
//! mutation point, [`PayloadBuf::make_mut`], is copy-on-write — the fault
//! injector's bit corruption gets a unique buffer and cannot corrupt other
//! agents' views of the same packet. Buffers return to the pool when the
//! last reference drops; oversized (jumbo) buffers are exact-size one-offs
//! and simply deallocate. The pool is thread-local because the simulator is
//! single-threaded by design; `PayloadBuf` is deliberately `!Send`.
#![cfg_attr(
    not(test),
    deny(
        unsafe_code,
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::cell::RefCell;
use std::ops::Deref;
use std::rc::Rc;

/// Capacity of pooled buffers: covers the simulated MTU payload (1448 data
/// bytes plus slack) without per-size pool classes.
pub const POOL_BUF_CAP: usize = 2048;

/// Upper bound on parked free buffers per thread (~8 MiB); beyond this,
/// returning buffers simply deallocate.
const POOL_MAX_FREE: usize = 4096;

thread_local! {
    /// Free list of unique-owner pooled buffers awaiting reuse.
    static POOL: RefCell<Vec<Rc<[u8]>>> = const { RefCell::new(Vec::new()) };
}

/// A reference-counted payload buffer with pooled backing storage.
///
/// Dereferences to `&[u8]`; compares by bytes.
///
/// # Examples
///
/// ```
/// use tas_proto::PayloadBuf;
/// let p = PayloadBuf::from_slice(b"abc");
/// assert_eq!(&p[..], b"abc");
/// let q = p.clone(); // refcount bump, no copy
/// assert_eq!(p, q);
/// assert!(PayloadBuf::empty().is_empty());
/// ```
#[derive(Clone)]
pub struct PayloadBuf {
    /// The backing storage; `None` exactly when `len` is zero.
    buf: Option<Rc<[u8]>>,
    len: u32,
}

// A segment carries one by value: the `Option` costs no space (the
// pointer's niche), so `Segment` stays 112 bytes.
const _: () = assert!(std::mem::size_of::<PayloadBuf>() == 24);

/// A unique `Rc<[u8]>` of at least `len` bytes: pooled capacity when it
/// fits, an exact-size one-off otherwise.
fn alloc_raw(len: usize) -> Rc<[u8]> {
    if len <= POOL_BUF_CAP {
        if let Some(rc) = POOL.with(|p| p.borrow_mut().pop()) {
            return rc;
        }
    }
    Rc::from(vec![0u8; len.max(POOL_BUF_CAP)])
}

impl PayloadBuf {
    /// The empty payload. Holds no buffer, so it never allocates.
    #[inline]
    pub fn empty() -> PayloadBuf {
        PayloadBuf { buf: None, len: 0 }
    }

    /// Copies `bytes` into a (pooled, when it fits) buffer.
    pub fn from_slice(bytes: &[u8]) -> PayloadBuf {
        if bytes.is_empty() {
            return PayloadBuf::empty();
        }
        PayloadBuf::with(bytes.len(), |dst| dst.copy_from_slice(bytes))
    }

    /// Allocates a buffer of logical length `len` and lets `fill` write it.
    ///
    /// This is the zero-copy construction path: ring buffers copy their
    /// bytes straight into the pooled buffer, with no intermediate `Vec`.
    #[inline]
    pub fn with(len: usize, fill: impl FnOnce(&mut [u8])) -> PayloadBuf {
        if len == 0 {
            return PayloadBuf::empty();
        }
        let mut buf = alloc_raw(len);
        if let Some(dst) = Rc::get_mut(&mut buf) {
            fill(&mut dst[..len]);
        }
        PayloadBuf {
            buf: Some(buf),
            len: len as u32,
        }
    }

    /// Logical length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match &self.buf {
            Some(buf) => &buf[..self.len as usize],
            None => &[],
        }
    }

    /// Mutable access, copy-on-write: a shared buffer is first copied into
    /// a unique one so other references keep their original bytes.
    pub fn make_mut(&mut self) -> &mut [u8] {
        let len = self.len as usize;
        let Some(buf) = &mut self.buf else {
            return &mut [];
        };
        if Rc::get_mut(buf).is_none() {
            let mut fresh = alloc_raw(len);
            if let Some(dst) = Rc::get_mut(&mut fresh) {
                dst[..len].copy_from_slice(&buf[..len]);
            }
            *buf = fresh;
        }
        match Rc::get_mut(buf) {
            Some(s) => &mut s[..len],
            // Unreachable: the buffer above is unique. Degrade gracefully
            // rather than panic (this module is in R4 scope).
            None => &mut [],
        }
    }
}

impl Drop for PayloadBuf {
    // Inline, so dropping an empty payload (every pure ACK) is one test
    // in the caller; only a real buffer takes the call.
    #[inline]
    fn drop(&mut self) {
        if let Some(rc) = self.buf.take() {
            park(rc);
        }
    }
}

/// Parks `rc` for reuse when it was the last reference and has the
/// standard pooled capacity; otherwise just drops it.
fn park(rc: Rc<[u8]>) {
    if rc.len() == POOL_BUF_CAP && Rc::strong_count(&rc) == 1 {
        POOL.with(|p| {
            let mut pool = p.borrow_mut();
            if pool.len() < POOL_MAX_FREE {
                pool.push(rc);
            }
        });
    }
}

impl Deref for PayloadBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PayloadBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Default for PayloadBuf {
    fn default() -> Self {
        PayloadBuf::empty()
    }
}

impl std::fmt::Debug for PayloadBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PayloadBuf({:?})", self.as_slice())
    }
}

impl PartialEq for PayloadBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for PayloadBuf {}

impl PartialEq<Vec<u8>> for PayloadBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<PayloadBuf> for Vec<u8> {
    fn eq(&self, other: &PayloadBuf) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<&[u8]> for PayloadBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for PayloadBuf {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for PayloadBuf {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl From<Vec<u8>> for PayloadBuf {
    fn from(v: Vec<u8>) -> PayloadBuf {
        PayloadBuf::from_slice(&v)
    }
}

impl From<&[u8]> for PayloadBuf {
    fn from(b: &[u8]) -> PayloadBuf {
        PayloadBuf::from_slice(b)
    }
}

impl<const N: usize> From<&[u8; N]> for PayloadBuf {
    fn from(b: &[u8; N]) -> PayloadBuf {
        PayloadBuf::from_slice(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_bytes() {
        let p = PayloadBuf::from_slice(&[1, 2, 3, 4]);
        assert_eq!(p.len(), 4);
        assert_eq!(&p[..], &[1, 2, 3, 4]);
        assert_eq!(p, vec![1, 2, 3, 4]);
    }

    fn pool_len() -> usize {
        POOL.with(|p| p.borrow().len())
    }

    #[test]
    fn empty_holds_no_buffer() {
        let empties = [
            PayloadBuf::empty(),
            PayloadBuf::from_slice(&[]),
            PayloadBuf::with(0, |_| {}),
            PayloadBuf::default(),
            PayloadBuf::from(Vec::new()),
        ];
        for p in &empties {
            assert!(p.is_empty() && p.buf.is_none(), "{p:?}");
        }
    }

    #[test]
    fn empties_leave_the_pool_alone() {
        // Park one buffer so a stray take would show as well as a give.
        drop(PayloadBuf::from_slice(&[1; 8]));
        let before = pool_len();
        assert!(before > 0);
        for _ in 0..1000 {
            let a = PayloadBuf::empty();
            let b = a.clone();
            drop((a, b, PayloadBuf::from_slice(&[])));
        }
        assert_eq!(pool_len(), before);
    }

    #[test]
    fn empty_clone_eq_debug_and_make_mut() {
        let mut a = PayloadBuf::empty();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, Vec::<u8>::new());
        assert_eq!(a, &[][..]);
        assert_ne!(a, PayloadBuf::from_slice(&[0]));
        assert_eq!(format!("{a:?}"), "PayloadBuf([])");
        let m = a.make_mut();
        assert!(m.is_empty());
        assert_eq!(m, &mut [] as &mut [u8]);
        assert!(
            a.is_empty() && a.buf.is_none(),
            "make_mut allocates nothing"
        );
        assert_eq!(&b[..], &[] as &[u8]);
    }

    #[test]
    fn pool_recycles_buffers() {
        let p = PayloadBuf::from_slice(&[7u8; 100]);
        let ptr = p.as_ptr();
        drop(p);
        // The next pooled allocation must reuse the parked buffer.
        let q = PayloadBuf::from_slice(&[9u8; 50]);
        assert_eq!(q.as_ptr(), ptr);
        assert_eq!(&q[..], &[9u8; 50]);
    }

    #[test]
    fn jumbo_buffers_are_exact_and_unpooled() {
        let big = vec![3u8; POOL_BUF_CAP + 1];
        let p = PayloadBuf::from_slice(&big);
        assert_eq!(p.buf.as_ref().map(|b| b.len()), Some(POOL_BUF_CAP + 1));
        assert_eq!(p, big);
    }

    #[test]
    fn make_mut_is_copy_on_write() {
        let mut a = PayloadBuf::from_slice(&[1, 2, 3]);
        let b = a.clone();
        a.make_mut()[0] = 99;
        assert_eq!(&a[..], &[99, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3], "shared view must keep its bytes");
        // Unique buffers mutate in place without a copy.
        let ptr = a.as_ptr();
        a.make_mut()[1] = 42;
        assert_eq!(a.as_ptr(), ptr);
        assert_eq!(&a[..], &[99, 42, 3]);
    }

    #[test]
    fn shared_buffer_survives_one_side_dropping() {
        let a = PayloadBuf::from_slice(&[5; 10]);
        let b = a.clone();
        drop(a);
        assert_eq!(&b[..], &[5; 10]);
    }

    #[test]
    fn with_fills_exactly_len() {
        let p = PayloadBuf::with(5, |d| {
            for (i, x) in d.iter_mut().enumerate() {
                *x = i as u8;
            }
        });
        assert_eq!(&p[..], &[0, 1, 2, 3, 4]);
    }
}
