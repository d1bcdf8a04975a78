//! Low-level cursors for reading and writing DNS wire format.
//!
//! [`Reader`] tracks a position in a borrowed byte slice and can follow
//! RFC 1035 compression pointers without losing its place. [`Writer`]
//! appends to an owned buffer and remembers where each literal label was
//! written so later names can emit compression pointers.

use crate::error::WireError;
use crate::name::MAX_POINTER_HOPS;

/// Maximum encoded message size (16-bit length fields everywhere).
pub const MAX_MESSAGE_LEN: usize = u16::MAX as usize;

/// A bounds-checked cursor over a received message.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset from the start of the message.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Moves the cursor to an absolute offset (used to follow pointers).
    pub fn seek(&mut self, pos: usize) -> Result<(), WireError> {
        if pos > self.buf.len() {
            return Err(WireError::BadPointer { target: pos });
        }
        self.pos = pos;
        Ok(())
    }

    /// Bytes left after the cursor.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whole underlying message (needed for pointer targets).
    pub fn message(&self) -> &'a [u8] {
        self.buf
    }

    /// Reads one octet.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or(WireError::Truncated { expected: what })?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian 16-bit value.
    pub fn read_u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let hi = self.read_u8(what)?;
        let lo = self.read_u8(what)?;
        Ok(u16::from(hi) << 8 | u16::from(lo))
    }

    /// Reads a big-endian 32-bit value.
    pub fn read_u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let hi = self.read_u16(what)?;
        let lo = self.read_u16(what)?;
        Ok(u32::from(hi) << 16 | u32::from(lo))
    }

    /// Reads exactly `n` bytes.
    pub fn read_bytes(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        let out = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(WireError::Truncated { expected: what })?;
        self.pos += n;
        Ok(out)
    }
}

/// An appending encoder with name-compression state.
///
/// The writer remembers the offset of every literal label a name wrote,
/// in emit order. The name that starts there (its labels, continued
/// through any pointer) is a suffix a later name can point at instead
/// of repeating it — the behaviour real resolvers rely on to keep
/// responses under the UDP payload limit. A lookup compares the wanted
/// suffix, case-insensitively, against the bytes at each offset in
/// turn, so the first offset a suffix was written at wins.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// Offsets of literal labels, in emit order (hence ascending).
    labels: Vec<u16>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the encoded message.
    pub fn finish(self) -> Result<Vec<u8>, WireError> {
        if self.buf.len() > MAX_MESSAGE_LEN {
            return Err(WireError::MessageTooLong(self.buf.len()));
        }
        Ok(self.buf)
    }

    /// Appends one octet.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian 16-bit value.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian 32-bit value.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn write_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Overwrites the big-endian 16-bit value at `at` (used to back-patch
    /// RDLENGTH after the record data is known).
    // detlint: allow-item(hot-index) — `at` is an offset `self.len()`
    // returned when the two-byte placeholder was appended, and the
    // buffer only grows, so `at + 1` stays in bounds.
    pub fn patch_u16(&mut self, at: usize, v: u16) {
        let b = v.to_be_bytes();
        self.buf[at] = b[0];
        self.buf[at + 1] = b[1];
    }

    /// Rolls the buffer back to `len` bytes, forgetting any label
    /// recorded at or past the cut — a later name must never emit a
    /// pointer into bytes that no longer exist. Used by the bounded
    /// message encoder to drop a whole record that overflowed the
    /// payload budget.
    pub(crate) fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
        self.labels.retain(|&off| usize::from(off) < len);
    }

    /// Records that a literal label starts at `offset`. Offsets beyond
    /// the 14-bit pointer range are not recorded (pointers cannot reach
    /// them).
    pub(crate) fn record_label(&mut self, offset: usize) {
        if let Ok(off) = u16::try_from(offset) {
            if off <= 0x3FFF {
                self.labels.push(off);
            }
        }
    }

    /// The first recorded offset where the name `suffix` (wire labels
    /// without the root octet) was written, compared case-insensitively.
    pub(crate) fn find_suffix(&self, suffix: &[u8]) -> Option<u16> {
        self.labels
            .iter()
            .copied()
            .find(|&off| self.holds_at(usize::from(off), suffix))
    }

    /// True if the name written at `pos`, followed through pointers,
    /// equals `suffix` case-insensitively.
    fn holds_at(&self, mut pos: usize, mut suffix: &[u8]) -> bool {
        let mut hops = 0;
        loop {
            let Some(&len) = self.buf.get(pos) else {
                return false;
            };
            if len & 0xC0 == 0xC0 {
                let Some(&lo) = self.buf.get(pos + 1) else {
                    return false;
                };
                hops += 1;
                if hops > MAX_POINTER_HOPS {
                    return false;
                }
                pos = usize::from(len & 0x3F) << 8 | usize::from(lo);
                continue;
            }
            if len == 0 {
                return suffix.is_empty();
            }
            let n = 1 + usize::from(len);
            match (self.buf.get(pos..pos + n), suffix.split_at_checked(n)) {
                (Some(written), Some((label, rest))) if written.eq_ignore_ascii_case(label) => {
                    pos += n;
                    suffix = rest;
                }
                _ => return false,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_reads_scalars_in_network_order() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_u8("a").unwrap(), 0x12);
        assert_eq!(r.read_u16("b").unwrap(), 0x3456);
        assert_eq!(r.read_u32("c").unwrap(), 0x789A_BCDE);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_errors_on_truncation() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(
            r.read_u16("len"),
            Err(WireError::Truncated { expected: "len" })
        );
    }

    #[test]
    fn reader_seek_rejects_out_of_bounds() {
        let mut r = Reader::new(&[0, 1, 2]);
        assert!(r.seek(3).is_ok()); // one past the end is the EOF position
        assert!(r.seek(4).is_err());
    }

    #[test]
    fn writer_roundtrips_scalars() {
        let mut w = Writer::new();
        w.write_u8(0xAB);
        w.write_u16(0xCDEF);
        w.write_u32(0x0102_0304);
        let buf = w.finish().unwrap();
        assert_eq!(buf, vec![0xAB, 0xCD, 0xEF, 0x01, 0x02, 0x03, 0x04]);
    }

    #[test]
    fn writer_patches_in_place() {
        let mut w = Writer::new();
        w.write_u16(0);
        w.write_u8(0xFF);
        w.patch_u16(0, 0xBEEF);
        assert_eq!(w.finish().unwrap(), vec![0xBE, 0xEF, 0xFF]);
    }

    fn encode(w: &mut Writer, name: &str) {
        crate::Name::parse(name).unwrap().encode(w).unwrap();
    }

    #[test]
    fn first_offset_of_a_suffix_wins() {
        let mut w = Writer::new();
        // The same name written literally twice (different case), as a
        // non-compressing writer would: both label runs are recorded.
        for at in [0, 12] {
            assert_eq!(w.len(), at);
            let bytes = if at == 0 {
                b"\x02ab\x07example\x00"
            } else {
                b"\x02AB\x07EXAMPLE\x00"
            };
            for off in [0, 3] {
                w.record_label(at + off);
            }
            w.write_bytes(bytes);
        }
        assert_eq!(w.find_suffix(b"\x02aB\x07example"), Some(0));
        assert_eq!(w.find_suffix(b"\x07eXample"), Some(3));
        encode(&mut w, "Ab.Example");
        assert_eq!(&w.buf[24..], &[0xC0, 0x00]);
    }

    #[test]
    fn pointer_into_a_pointer_continued_suffix() {
        let mut w = Writer::new();
        encode(&mut w, "www.example.com"); // www@0 example@4 com@12
        encode(&mut w, "mail.example.com"); // mail@17, then -> 4
        assert_eq!(&w.buf[17..24], b"\x04mail\xC0\x04");
        // "mail.example.com" lives at 17 as one label plus a pointer; a
        // child of it points there rather than repeating "mail".
        encode(&mut w, "x.MAIL.example.com");
        assert_eq!(&w.buf[24..], b"\x01x\xC0\x11");
        assert_eq!(w.find_suffix(b"\x04mail\x07example\x03com"), Some(17));
        assert_eq!(w.find_suffix(b"\x04mail\x07example\x03org"), None);
    }

    #[test]
    fn suffix_offsets_beyond_pointer_range_are_ignored() {
        let mut w = Writer::new();
        w.write_bytes(&[0; 0x3FFF]);
        encode(&mut w, "a.example"); // a@0x3FFF, example@0x4001
        assert_eq!(w.labels, vec![0x3FFF]);
        assert_eq!(w.find_suffix(b"\x01a\x07example"), Some(0x3FFF));
        assert_eq!(w.find_suffix(b"\x07example"), None);
        let before = w.len();
        encode(&mut w, "b.example");
        assert_eq!(w.len() - before, 11, "no pointer: written in full");
    }

    #[test]
    fn truncate_forgets_cut_offsets() {
        let mut w = Writer::new();
        encode(&mut w, "keep.example");
        let mark = w.len();
        encode(&mut w, "gone.test");
        assert_eq!(w.find_suffix(b"\x04gone\x04test"), Some(mark as u16));
        w.truncate(mark);
        assert_eq!(w.find_suffix(b"\x04gone\x04test"), None);
        assert_eq!(w.find_suffix(b"\x04test"), None);
        encode(&mut w, "gone.test");
        assert_eq!(w.len() - mark, 11, "rewritten in full, no dangling pointer");
        assert_eq!(w.find_suffix(b"\x07example"), Some(5));
    }
}
