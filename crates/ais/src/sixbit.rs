//! Six-bit ASCII payload armouring and bit-level field access.
//!
//! AIS payloads are bit strings packed six bits per character into a
//! printable subset of ASCII (ITU-R M.1371 / IEC 61162-1). The armouring
//! maps values 0–39 to `'0'..='W'` and 40–63 to `'`'..='w'`.

/// Encodes a six-bit value (0–63) into its ASCII armour character.
#[must_use]
pub fn armor(value: u8) -> u8 {
    debug_assert!(value < 64);
    if value < 40 {
        value + 48
    } else {
        value + 56
    }
}

/// Sentinel marking a byte outside the armour alphabet in [`UNARMOR`].
pub const INVALID_SIXBIT: u8 = 0xFF;

/// Armour-alphabet lookup table: `UNARMOR[b]` is the six-bit value of the
/// ASCII byte `b`, or [`INVALID_SIXBIT`] for bytes outside the alphabet.
/// One indexed load replaces the two range branches of the match-based
/// decoder on the hot path.
pub static UNARMOR: [u8; 256] = build_unarmor_table();

const fn build_unarmor_table() -> [u8; 256] {
    let mut table = [INVALID_SIXBIT; 256];
    let mut ch = 48usize; // '0'..='W' -> 0..=39
    while ch <= 87 {
        table[ch] = (ch - 48) as u8;
        ch += 1;
    }
    let mut ch = 96usize; // '`'..='w' -> 40..=63
    while ch <= 119 {
        table[ch] = (ch - 56) as u8;
        ch += 1;
    }
    table
}

/// Decodes an armour character back to its six-bit value.
#[must_use]
pub fn unarmor(ch: u8) -> Option<u8> {
    let v = UNARMOR[usize::from(ch)];
    (v != INVALID_SIXBIT).then_some(v)
}

/// Writes a bit string most-significant-bit first, producing an armoured
/// payload plus the number of fill bits appended to complete the final
/// six-bit group.
#[derive(Debug, Default)]
pub struct BitWriter {
    bits: Vec<bool>,
}

impl BitWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`, MSB first.
    pub fn put_u32(&mut self, value: u32, width: usize) {
        assert!(width <= 32);
        for i in (0..width).rev() {
            self.bits.push((value >> i) & 1 == 1);
        }
    }

    /// Appends a signed value in two's complement over `width` bits.
    pub fn put_i32(&mut self, value: i32, width: usize) {
        self.put_u32(value as u32 & mask(width), width);
    }

    /// Total bits written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether no bits have been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Finalizes into `(armoured payload, fill_bits)`.
    #[must_use]
    pub fn finish(mut self) -> (String, u8) {
        let rem = self.bits.len() % 6;
        let fill = if rem == 0 { 0 } else { 6 - rem };
        for _ in 0..fill {
            self.bits.push(false);
        }
        let mut out = Vec::with_capacity(self.bits.len() / 6);
        for chunk in self.bits.chunks(6) {
            let mut v = 0u8;
            for &b in chunk {
                v = (v << 1) | u8::from(b);
            }
            out.push(armor(v));
        }
        (String::from_utf8(out).expect("armoured chars are ASCII"), fill as u8)
    }
}

fn mask(width: usize) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    }
}

/// Zero-copy bit-field reader over an armoured payload.
///
/// The production decoder of the hot path: the cursor validates the
/// armour alphabet in one pass over [`UNARMOR`] and then reads MSB-first
/// bit fields straight off the borrowed payload bytes, with no
/// allocation. The reference `BitReader` (test support, one `bool` per
/// bit) is its oracle: the unit and integration differential suites
/// (`tests/decoder_differential.rs`) hold the two byte-identical over
/// arbitrary payloads, fill counts, and read scripts.
#[derive(Debug)]
pub struct BitCursor<'a> {
    payload: &'a [u8],
    /// Readable bits: payload bits minus fill bits.
    bit_len: usize,
    pos: usize,
}

impl<'a> BitCursor<'a> {
    /// Positions a cursor over `payload`, discarding `fill_bits` trailing
    /// pad bits. Fails on characters outside the armour alphabet — the
    /// whole payload is validated eagerly so that a corrupt character
    /// anywhere fails the decode exactly as the reference decoder does,
    /// even if no read ever touches its bits.
    pub fn new(payload: &'a [u8], fill_bits: u8) -> Option<Self> {
        for &b in payload {
            if UNARMOR[usize::from(b)] == INVALID_SIXBIT {
                return None;
            }
        }
        let total = payload.len() * 6;
        let fill = usize::from(fill_bits.min(5));
        if fill > total {
            return None;
        }
        Some(Self {
            payload,
            bit_len: total - fill,
            pos: 0,
        })
    }

    /// Remaining unread bits.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bit_len - self.pos
    }

    /// The six-bit value whose `bit`-th payload bit (MSB-first) is queried.
    #[inline]
    fn bit(&self, bit: usize) -> u32 {
        let v = UNARMOR[usize::from(self.payload[bit / 6])];
        u32::from((v >> (5 - bit % 6)) & 1)
    }

    /// Reads `width` bits as an unsigned value, MSB first.
    pub fn get_u32(&mut self, width: usize) -> Option<u32> {
        assert!(width <= 32);
        if self.remaining() < width {
            return None;
        }
        let mut v = 0u32;
        for i in 0..width {
            v = (v << 1) | self.bit(self.pos + i);
        }
        self.pos += width;
        Some(v)
    }

    /// Reads `width` bits as a two's-complement signed value.
    pub fn get_i32(&mut self, width: usize) -> Option<i32> {
        let raw = self.get_u32(width)?;
        let sign_bit = 1u32 << (width - 1);
        Some(if raw & sign_bit != 0 {
            (raw | !mask(width)) as i32
        } else {
            raw as i32
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bit_reader::BitReader;

    #[test]
    fn armor_alphabet_roundtrips() {
        for v in 0..64u8 {
            let ch = armor(v);
            assert_eq!(unarmor(ch), Some(v), "value {v}");
        }
    }

    #[test]
    fn invalid_armor_chars_rejected() {
        for ch in [b' ', b'*', b'!', b'X', b'_', b'x', b'~', 0u8, 200u8] {
            assert_eq!(unarmor(ch), None, "char {ch}");
        }
    }

    #[test]
    fn writer_reader_roundtrip_unsigned() {
        let mut w = BitWriter::new();
        w.put_u32(6, 6); // message type
        w.put_u32(237_001_234, 30);
        w.put_u32(1023, 10);
        let (payload, fill) = w.finish();
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        assert_eq!(r.get_u32(6), Some(6));
        assert_eq!(r.get_u32(30), Some(237_001_234));
        assert_eq!(r.get_u32(10), Some(1023));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn writer_reader_roundtrip_signed() {
        let mut w = BitWriter::new();
        w.put_i32(-123_456, 28);
        w.put_i32(123_456, 28);
        w.put_i32(-1, 27);
        let (payload, fill) = w.finish();
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        assert_eq!(r.get_i32(28), Some(-123_456));
        assert_eq!(r.get_i32(28), Some(123_456));
        assert_eq!(r.get_i32(27), Some(-1));
    }

    #[test]
    fn fill_bits_complete_final_group() {
        let mut w = BitWriter::new();
        w.put_u32(0b1010, 4); // 4 bits -> 2 fill bits
        let (payload, fill) = w.finish();
        assert_eq!(payload.len(), 1);
        assert_eq!(fill, 2);
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        assert_eq!(r.remaining(), 4);
        assert_eq!(r.get_u32(4), Some(0b1010));
    }

    #[test]
    fn reading_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.put_u32(5, 6);
        let (payload, fill) = w.finish();
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        assert_eq!(r.get_u32(6), Some(5));
        assert_eq!(r.get_u32(1), None);
    }

    #[test]
    fn skip_advances_position() {
        let mut w = BitWriter::new();
        w.put_u32(0xFF, 8);
        w.put_u32(0b101, 3);
        w.put_u32(0, 1);
        let (payload, fill) = w.finish();
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        r.skip(8).unwrap();
        assert_eq!(r.get_u32(3), Some(0b101));
    }

    #[test]
    fn bad_payload_char_fails_decode() {
        assert!(BitReader::from_payload("1 2", 0).is_none());
    }

    #[test]
    fn unarmor_table_matches_match_decoder() {
        for b in 0..=255u8 {
            let expected = match b {
                48..=87 => Some(b - 48),
                96..=119 => Some(b - 56),
                _ => None,
            };
            assert_eq!(unarmor(b), expected, "byte {b}");
            assert_eq!(
                UNARMOR[usize::from(b)],
                expected.unwrap_or(INVALID_SIXBIT),
                "table byte {b}"
            );
        }
    }

    #[test]
    fn cursor_matches_reader_on_roundtrip_fields() {
        let mut w = BitWriter::new();
        w.put_u32(1, 6);
        w.put_u32(237_001_234, 30);
        w.put_i32(-123_456, 28);
        w.put_u32(0b1011, 4);
        let (payload, fill) = w.finish();
        let mut r = BitReader::from_payload(&payload, fill).unwrap();
        let mut c = BitCursor::new(payload.as_bytes(), fill).unwrap();
        assert_eq!(c.remaining(), r.remaining());
        for width in [6, 30] {
            assert_eq!(c.get_u32(width), r.get_u32(width));
        }
        assert_eq!(c.get_i32(28), r.get_i32(28));
        assert_eq!(c.get_u32(4), r.get_u32(4));
        assert_eq!(c.remaining(), 0);
        assert_eq!(c.get_u32(1), None);
        assert_eq!(r.get_u32(1), None);
    }

    #[test]
    fn cursor_rejects_invalid_chars_even_in_unread_tail() {
        // The bad byte sits past where any read will look; eager
        // validation must still fail construction, like the reference.
        let payload = b"11 ";
        assert!(BitCursor::new(payload, 0).is_none());
        assert!(BitReader::from_payload("11 ", 0).is_none());
    }

    #[test]
    fn cursor_fill_bit_semantics_match_reader() {
        // fill > 5 is clamped; fill exceeding total bits fails (only
        // reachable for an empty payload after clamping).
        for fill in 0..=7u8 {
            let c = BitCursor::new(b"5", fill);
            let r = BitReader::from_payload("5", fill);
            assert_eq!(c.is_some(), r.is_some(), "fill {fill}");
            if let (Some(c), Some(r)) = (c, r) {
                assert_eq!(c.remaining(), r.remaining(), "fill {fill}");
            }
            let c = BitCursor::new(b"", fill);
            let r = BitReader::from_payload("", fill);
            assert_eq!(c.is_some(), r.is_some(), "empty payload, fill {fill}");
        }
    }

    #[test]
    fn cursor_skip_advances_like_reader() {
        let mut w = BitWriter::new();
        w.put_u32(0xFF, 8);
        w.put_u32(0b101, 3);
        let (payload, fill) = w.finish();
        let mut c = BitCursor::new(payload.as_bytes(), fill).unwrap();
        c.skip(8).unwrap();
        assert_eq!(c.get_u32(3), Some(0b101));
        assert!(c.skip(64).is_none());
    }

    #[test]
    fn writer_len_counts_bits() {
        let mut w = BitWriter::new();
        assert!(w.is_empty());
        w.put_u32(0, 6);
        w.put_u32(0, 30);
        assert_eq!(w.len(), 36);
    }
}
