//! The hasher of the simulator's internal maps.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hash of a few small integers. Every key it hashes is
/// minted by the simulator itself — rendezvous board keys,
/// per-communicator and per-destination sequence counters — never taken
/// from outside the program, so SipHash's protection against crafted
/// collisions buys nothing here and costs two rounds per lookup. Nothing
/// iterates a map built on it (every access names its key), so no
/// observable order depends on the hasher. (The mailboxes match on a
/// table of their own, `mailbox::SlotMap`.)
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        // The multiply pushes entropy towards the high bits; the table
        // indexes with the low ones.
        self.0.rotate_left(26)
    }
}

/// A map keyed by simulator-minted ids, hashed by [`KeyHasher`]. Code
/// that builds one must never iterate it.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
