//! Send/receive buffers that exist in either real or phantom form.
//!
//! All collective algorithms operate on [`Buf`] so that the *same code
//! path* serves correctness runs (real data) and paper-scale modeling runs
//! (size-only). Any operation that would move data is a no-op on phantom
//! buffers but still participates in cost accounting at the call site.

use crate::bytes::Bytes;
use crate::elem::{bytes_to_slice, slice_to_bytes, ShmElem};
use crate::msg::Payload;
use crate::window::SharedWindow;

/// A typed buffer of `T` that is either materialized, size-only, or a view
/// of a node-shared window.
#[derive(Debug, Clone)]
pub enum Buf<T> {
    /// Materialized private data.
    Real(Vec<T>),
    /// Size-only stand-in (element count).
    Phantom(usize),
    /// The whole of a shared-memory window: lets the collective algorithms
    /// send from / receive into window memory directly, the way MPI
    /// collectives operate on `MPI_Win_allocate_shared` buffers in the
    /// paper's hybrid scheme (no staging copies).
    Shared(SharedWindow<T>),
}

impl<T: ShmElem> Buf<T> {
    /// Length in elements.
    pub fn len(&self) -> usize {
        match self {
            Buf::Real(v) => v.len(),
            Buf::Phantom(n) => *n,
            Buf::Shared(w) => w.total_len(),
        }
    }

    /// True if the buffer holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this buffer is phantom.
    pub fn is_phantom(&self) -> bool {
        matches!(self, Buf::Phantom(_))
    }

    /// Whether this buffer is a shared-window view.
    pub fn is_shared(&self) -> bool {
        matches!(self, Buf::Shared(_))
    }

    /// Byte length of the whole buffer.
    pub fn byte_len(&self) -> usize {
        self.len() * T::SIZE
    }

    /// View the data, if this is a real private buffer.
    pub fn as_slice(&self) -> Option<&[T]> {
        match self {
            Buf::Real(v) => Some(v),
            _ => None,
        }
    }

    /// Mutable view of the data, if this is a real private buffer.
    pub fn as_mut_slice(&mut self) -> Option<&mut [T]> {
        match self {
            Buf::Real(v) => Some(v),
            _ => None,
        }
    }

    /// Element at `idx` (default value for phantom buffers).
    ///
    /// # Panics
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: usize) -> T {
        assert!(
            idx < self.len(),
            "index {idx} out of bounds (len {})",
            self.len()
        );
        match self {
            Buf::Real(v) => v[idx],
            Buf::Phantom(_) => T::default(),
            Buf::Shared(w) => w.read(idx),
        }
    }

    /// Build a message payload from the region `[off, off + len)`.
    ///
    /// # Panics
    /// Panics if the region is out of bounds.
    pub fn payload(&self, off: usize, len: usize) -> Payload {
        assert!(
            off + len <= self.len(),
            "payload region {off}+{len} out of bounds (len {})",
            self.len()
        );
        match self {
            Buf::Real(v) => Payload::Real(Bytes::from(slice_to_bytes(&v[off..off + len]))),
            Buf::Phantom(_) => Payload::Phantom(len * T::SIZE),
            Buf::Shared(w) => w.payload(off, len),
        }
    }

    /// Payload of the entire buffer.
    pub fn payload_all(&self) -> Payload {
        self.payload(0, self.len())
    }

    /// Write a received payload into the region starting at `off`.
    ///
    /// A real payload into a real buffer copies the data; any combination
    /// involving a phantom side only checks lengths. (Phantom payloads into
    /// real buffers arise legitimately when a zero-length message is
    /// received.)
    ///
    /// # Panics
    /// Panics if the payload length does not fit the buffer at `off`.
    pub fn write_payload(&mut self, off: usize, payload: &Payload) {
        let elems = payload.len() / T::SIZE;
        assert_eq!(
            elems * T::SIZE,
            payload.len(),
            "payload length {} is not a multiple of element size {}",
            payload.len(),
            T::SIZE
        );
        assert!(
            off + elems <= self.len(),
            "received payload of {elems} elems does not fit at offset {off} (len {})",
            self.len()
        );
        match (self, payload) {
            (Buf::Real(v), Payload::Real(b)) => {
                bytes_to_slice(b, &mut v[off..off + elems]);
            }
            (Buf::Real(_), Payload::Phantom(n)) => {
                assert_eq!(
                    *n, 0,
                    "non-empty phantom payload into a real buffer (mixed data modes?)"
                );
            }
            (Buf::Shared(w), p) => w.write_payload(off, p),
            (Buf::Phantom(_), _) => {}
        }
    }

    /// Copy a region from another buffer (both sides must agree on mode for
    /// data to move; length checks always apply).
    ///
    /// # Panics
    /// Panics if either region is out of bounds.
    pub fn copy_from(&mut self, dst_off: usize, src: &Buf<T>, src_off: usize, len: usize) {
        assert!(src_off + len <= src.len(), "source region out of bounds");
        assert!(
            dst_off + len <= self.len(),
            "destination region out of bounds"
        );
        match (&mut *self, src) {
            (Buf::Real(dst), Buf::Real(s)) => {
                dst[dst_off..dst_off + len].copy_from_slice(&s[src_off..src_off + len]);
            }
            (Buf::Real(dst), Buf::Shared(w)) => {
                w.read_into(src_off, &mut dst[dst_off..dst_off + len]);
            }
            (Buf::Shared(w), Buf::Real(s)) => {
                w.write_from(dst_off, &s[src_off..src_off + len]);
            }
            (Buf::Shared(dst), Buf::Shared(s)) => {
                for i in 0..len {
                    dst.write(dst_off + i, s.read(src_off + i));
                }
            }
            // Any phantom participant: sizes already checked, no data.
            _ => {}
        }
    }

    /// Copy a region within this buffer (regions may not overlap).
    ///
    /// # Panics
    /// Panics on out-of-bounds or overlapping regions.
    pub fn copy_within(&mut self, src_off: usize, dst_off: usize, len: usize) {
        assert!(src_off + len <= self.len(), "source region out of bounds");
        assert!(
            dst_off + len <= self.len(),
            "destination region out of bounds"
        );
        assert!(
            src_off + len <= dst_off || dst_off + len <= src_off || src_off == dst_off,
            "overlapping copy_within regions"
        );
        match self {
            Buf::Real(v) => v.copy_within(src_off..src_off + len, dst_off),
            Buf::Shared(w) => {
                for i in 0..len {
                    w.write(dst_off + i, w.read(src_off + i));
                }
            }
            Buf::Phantom(_) => {}
        }
    }

    /// Combine a received payload into the region at `off` with `op`
    /// (element-wise), as reduction algorithms do. No-op when either side
    /// is phantom.
    pub fn combine_payload(&mut self, off: usize, payload: &Payload, op: impl Fn(T, T) -> T) {
        let elems = payload.len() / T::SIZE;
        assert!(
            off + elems <= self.len(),
            "combine region out of bounds at offset {off}"
        );
        let Payload::Real(b) = payload else { return };
        assert_eq!(
            b.len() % T::SIZE,
            0,
            "byte length does not match element count"
        );
        let incoming = b.chunks_exact(T::SIZE).map(T::read_le);
        match self {
            Buf::Real(v) => {
                for (slot, x) in v[off..off + elems].iter_mut().zip(incoming) {
                    *slot = op(*slot, x);
                }
            }
            Buf::Shared(w) => {
                for (i, x) in incoming.enumerate() {
                    w.write(off + i, op(w.read(off + i), x));
                }
            }
            Buf::Phantom(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_payload_roundtrip() {
        let b = Buf::Real(vec![1.0f64, 2.0, 3.0, 4.0]);
        let p = b.payload(1, 2);
        assert_eq!(p.len(), 16);
        let mut dst = Buf::Real(vec![0.0f64; 4]);
        dst.write_payload(2, &p);
        assert_eq!(dst.as_slice().unwrap(), &[0.0, 0.0, 2.0, 3.0]);
    }

    #[test]
    fn phantom_payload_has_size_only() {
        let b: Buf<f64> = Buf::Phantom(8);
        let p = b.payload(2, 4);
        assert!(p.is_phantom());
        assert_eq!(p.len(), 32);
    }

    #[test]
    fn phantom_write_checks_bounds() {
        let mut b: Buf<f64> = Buf::Phantom(4);
        b.write_payload(0, &Payload::Phantom(32)); // exactly fits
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn phantom_write_overflow_panics() {
        let mut b: Buf<f64> = Buf::Phantom(4);
        b.write_payload(1, &Payload::Phantom(32));
    }

    #[test]
    #[should_panic(expected = "mixed data modes")]
    fn phantom_payload_into_real_buffer_panics() {
        let mut b = Buf::Real(vec![0.0f64; 4]);
        b.write_payload(0, &Payload::Phantom(16));
    }

    #[test]
    fn empty_phantom_payload_into_real_buffer_is_ok() {
        let mut b = Buf::Real(vec![1.0f64; 2]);
        b.write_payload(1, &Payload::Phantom(0));
        assert_eq!(b.as_slice().unwrap(), &[1.0, 1.0]);
    }

    #[test]
    fn copy_from_moves_data() {
        let src = Buf::Real(vec![5.0f64, 6.0]);
        let mut dst = Buf::Real(vec![0.0f64; 3]);
        dst.copy_from(1, &src, 0, 2);
        assert_eq!(dst.as_slice().unwrap(), &[0.0, 5.0, 6.0]);
    }

    #[test]
    fn copy_within_moves_data() {
        let mut b = Buf::Real(vec![1.0f64, 2.0, 0.0, 0.0]);
        b.copy_within(0, 2, 2);
        assert_eq!(b.as_slice().unwrap(), &[1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_copy_within_panics() {
        let mut b = Buf::Real(vec![0.0f64; 4]);
        b.copy_within(0, 1, 2);
    }

    #[test]
    fn combine_adds() {
        let mut b = Buf::Real(vec![1.0f64, 2.0]);
        let p = Buf::Real(vec![10.0f64, 20.0]).payload_all();
        b.combine_payload(0, &p, |a, x| a + x);
        assert_eq!(b.as_slice().unwrap(), &[11.0, 22.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn combine_of_a_ragged_payload_panics() {
        let mut b = Buf::Real(vec![1.0f64, 2.0]);
        let p = Payload::Real(Bytes::from(vec![0u8; 12]));
        b.combine_payload(0, &p, |a, x| a + x);
    }

    #[test]
    fn get_on_phantom_is_default() {
        let b: Buf<f64> = Buf::Phantom(3);
        assert_eq!(b.get(2), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let b: Buf<f64> = Buf::Phantom(3);
        b.get(3);
    }
}
