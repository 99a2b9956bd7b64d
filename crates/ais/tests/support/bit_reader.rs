//! The reference six-bit payload reader, shared by the crate's unit tests
//! and its integration tests through `#[path]` modules.
//!
//! Simple enough to audit against ITU-R M.1371 by eye: it unarmours with
//! the two alphabet ranges spelled out, not with the production `UNARMOR`
//! table, and unpacks the payload into one `bool` per bit. It is the
//! differential oracle for the production `BitCursor`; nothing outside
//! the tests uses it.

/// Reads bit fields from an armoured payload.
#[derive(Debug)]
pub struct BitReader {
    bits: Vec<bool>,
    pos: usize,
}

/// Six-bit value of an armour character: `'0'..='W'` are 0–39 and
/// `` '`'..='w' `` are 40–63.
fn unarmor(ch: u8) -> Option<u8> {
    match ch {
        48..=87 => Some(ch - 48),
        96..=119 => Some(ch - 56),
        _ => None,
    }
}

impl BitReader {
    /// Unarmours `payload`, discarding `fill_bits` trailing pad bits.
    /// Fails on characters outside the armour alphabet.
    pub fn from_payload(payload: &str, fill_bits: u8) -> Option<Self> {
        let mut bits = Vec::with_capacity(payload.len() * 6);
        for ch in payload.bytes() {
            let v = unarmor(ch)?;
            for i in (0..6).rev() {
                bits.push((v >> i) & 1 == 1);
            }
        }
        let fill = usize::from(fill_bits.min(5));
        if fill > bits.len() {
            return None;
        }
        bits.truncate(bits.len() - fill);
        Some(Self { bits, pos: 0 })
    }

    /// Remaining unread bits.
    pub fn remaining(&self) -> usize {
        self.bits.len() - self.pos
    }

    /// Reads `width` bits as an unsigned value, MSB first.
    pub fn get_u32(&mut self, width: usize) -> Option<u32> {
        assert!(width <= 32);
        if self.remaining() < width {
            return None;
        }
        let mut v = 0u32;
        for _ in 0..width {
            v = (v << 1) | u32::from(self.bits[self.pos]);
            self.pos += 1;
        }
        Some(v)
    }

    /// Reads `width` bits as a two's-complement signed value.
    pub fn get_i32(&mut self, width: usize) -> Option<i32> {
        let raw = self.get_u32(width)?;
        // Sign-extend from bit `width - 1`.
        let shift = 32 - width;
        Some(((raw << shift) as i32) >> shift)
    }

    /// Skips `width` bits.
    pub fn skip(&mut self, width: usize) -> Option<()> {
        if self.remaining() < width {
            return None;
        }
        self.pos += width;
        Some(())
    }
}
