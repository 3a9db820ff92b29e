//! Message payloads and in-flight packets.

use std::sync::Arc;

use crate::bytes::Bytes;
use crate::race::VectorClock;

/// The contents of a message.
///
/// In `Real` mode the bytes are actually transported; in `Phantom` mode only
/// the length travels. Virtual time depends exclusively on the length, so
/// both modes produce identical timings (tested at the universe level).
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// Actual data. `Bytes` makes fan-out sends cheap (shared refcount).
    Real(Bytes),
    /// Size-only stand-in carrying the would-be byte length.
    Phantom(usize),
}

impl Payload {
    /// An empty real payload (e.g. barrier token).
    pub fn empty() -> Self {
        Payload::Real(Bytes::new())
    }

    /// Byte length of the message.
    pub fn len(&self) -> usize {
        match self {
            Payload::Real(b) => b.len(),
            Payload::Phantom(n) => *n,
        }
    }

    /// True if the length is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a phantom (size-only) payload.
    pub fn is_phantom(&self) -> bool {
        matches!(self, Payload::Phantom(_))
    }

    /// Access the real bytes.
    ///
    /// # Panics
    /// Panics when called on a phantom payload — that always indicates the
    /// program mixed real buffers with a phantom-mode universe.
    pub fn bytes(&self) -> &Bytes {
        match self {
            Payload::Real(b) => b,
            Payload::Phantom(_) => {
                panic!("attempted to read data from a phantom payload (mixed data modes?)")
            }
        }
    }

    /// A sub-range of this payload (zero-copy for real payloads).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, start: usize, len: usize) -> Payload {
        assert!(start + len <= self.len(), "payload slice out of bounds");
        match self {
            Payload::Real(b) => Payload::Real(b.slice(start..start + len)),
            Payload::Phantom(_) => Payload::Phantom(len),
        }
    }
}

/// A message in flight or queued at the receiver. Its sender (rank
/// within the communicator it was sent on) and tag are not stored here:
/// they are part of the match key the packet is filed under.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Contents.
    pub payload: Payload,
    /// Virtual arrival time at the receiver (µs).
    pub arrival: f64,
    /// Sender's vector-clock snapshot at send time (the release side of
    /// the happens-before edge the race detector derives from this
    /// message). `None` when the detector is off.
    pub vc: Option<Arc<VectorClock>>,
    /// Sender's heartbeat epoch at send time, piggybacked for the failure
    /// detector. `None` when fault tolerance is disarmed.
    pub beat: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Payload::Real(Bytes::from_static(b"abcd")).len(), 4);
        assert_eq!(Payload::Phantom(17).len(), 17);
        assert!(Payload::empty().is_empty());
        assert!(!Payload::Phantom(1).is_empty());
        assert!(Payload::Phantom(0).is_empty());
    }

    #[test]
    fn slicing_real() {
        let p = Payload::Real(Bytes::from_static(b"abcdef"));
        let s = p.slice(2, 3);
        assert_eq!(s.bytes().as_ref(), b"cde");
    }

    #[test]
    fn slicing_phantom_keeps_length_only() {
        let p = Payload::Phantom(10);
        let s = p.slice(4, 5);
        assert_eq!(s, Payload::Phantom(5));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Payload::Phantom(4).slice(2, 3);
    }

    #[test]
    #[should_panic(expected = "phantom payload")]
    fn bytes_of_phantom_panics() {
        Payload::Phantom(4).bytes();
    }
}
