//! Domain names: parsing, comparison and wire encoding with compression.

use crate::error::WireError;
use crate::wire::{Reader, Writer};
use std::fmt;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a whole encoded name in octets (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;
/// Maximum number of labels a valid name can carry: each label costs at
/// least two octets (length + one byte) and the root octet closes the
/// name, so ⌊(255 − 1) / 2⌋.
pub const MAX_LABELS: usize = (MAX_NAME_LEN - 1) / 2;
/// Maximum number of compression pointers the decoder will follow — the
/// pointer half of the decode step budget. Pointers must also point
/// strictly backwards (see [`Name::decode`]), so any legitimate name
/// fits in far fewer hops; the cap bounds ping-pong chains a hostile
/// message can still construct inside already-read bytes.
pub const MAX_POINTER_HOPS: usize = 32;

/// A fully-qualified domain name, stored as its uncompressed wire form.
///
/// Names compare and hash case-insensitively, as RFC 1035 §2.3.3 requires,
/// but preserve the case they were created with for display.
///
/// Maps that need that case-insensitive identity key a name on its
/// folded form ([`Name::fold_into`]): the wire labels, lowercased. Each
/// ancestor's key is a suffix of the name's key ([`suffixes`]), so a
/// zone-cut or stub-domain walk slices one stack buffer instead of
/// building parent names.
///
/// ```
/// use dns_wire::Name;
/// let a = Name::parse("Video.Demo1.MyCdn.ciab.test").unwrap();
/// let b = Name::parse("video.demo1.mycdn.ciab.test.").unwrap();
/// assert_eq!(a, b);
/// assert!(a.is_subdomain_of(&Name::parse("mycdn.ciab.test").unwrap()));
/// ```
#[derive(Clone)]
pub struct Name {
    /// Length-prefixed labels, leftmost first, without the closing root
    /// octet (so the root name owns no heap).
    wire: Box<[u8]>,
}

impl Name {
    /// The root name (zero labels, encoded as a single zero octet).
    pub fn root() -> Self {
        Name {
            wire: Box::default(),
        }
    }

    /// Parses presentation format (`"www.example.com"`, trailing dot
    /// optional). Rejects empty labels, over-long labels and names, and
    /// bytes outside the letter/digit/hyphen/underscore set.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        let mut wire = Vec::with_capacity(s.len() + 1);
        for label in s.split('.') {
            if label.is_empty() {
                return Err(WireError::EmptyName);
            }
            if label.len() > MAX_LABEL_LEN {
                return Err(WireError::LabelTooLong(label.len()));
            }
            for &b in label.as_bytes() {
                if !(b.is_ascii_alphanumeric() || b == b'-' || b == b'_') {
                    return Err(WireError::InvalidLabelByte(b));
                }
            }
            wire.push(label.len() as u8);
            wire.extend_from_slice(label.as_bytes());
        }
        Name::from_wire(wire)
    }

    /// Wraps length-prefixed labels, enforcing the 255-octet name limit.
    fn from_wire(wire: Vec<u8>) -> Result<Self, WireError> {
        let encoded = wire.len() + 1;
        if encoded > MAX_NAME_LEN {
            return Err(WireError::NameTooLong(encoded));
        }
        Ok(Name {
            wire: wire.into_boxed_slice(),
        })
    }

    /// Number of labels (the root has zero).
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Iterates over the labels, leftmost (most specific) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest: &[u8] = &self.wire;
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (label, after) = tail.split_at_checked(usize::from(len))?;
            rest = after;
            Some(label)
        })
    }

    /// Length of the uncompressed wire encoding, including the root octet.
    pub fn encoded_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Writes the folded form into `buf` and returns it: the wire labels
    /// with ASCII letters lowercased, no root octet. Two names are equal
    /// exactly when their folded forms are, so it is the key for
    /// case-insensitive maps. `buf` must hold `encoded_len() - 1`
    /// bytes, which a `[u8; MAX_NAME_LEN]` always does.
    pub fn fold_into<'b>(&self, buf: &'b mut [u8]) -> &'b [u8] {
        debug_assert!(buf.len() >= self.wire.len(), "fold buffer too short");
        for (dst, &src) in buf.iter_mut().zip(self.wire.iter()) {
            *dst = src.to_ascii_lowercase();
        }
        buf.get(..self.wire.len()).unwrap_or(buf)
    }

    /// True if `self` equals `ancestor` or sits below it in the tree.
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, ancestor: &Name) -> bool {
        suffix_with_len(&self.wire, ancestor.wire.len())
            .is_some_and(|s| s.eq_ignore_ascii_case(&ancestor.wire))
    }

    /// Returns the parent name (one label removed), or `None` at the root.
    pub fn parent(&self) -> Option<Name> {
        suffixes(&self.wire)
            .nth(1)
            .map(|rest| Name { wire: rest.into() })
    }

    /// Prepends `label` to produce a child name.
    pub fn child(&self, label: &str) -> Result<Name, WireError> {
        if label.is_empty() {
            return Err(WireError::EmptyName);
        }
        if label.len() > MAX_LABEL_LEN {
            return Err(WireError::LabelTooLong(label.len()));
        }
        let mut wire = Vec::with_capacity(1 + label.len() + self.wire.len());
        wire.push(label.len() as u8);
        wire.extend_from_slice(label.as_bytes());
        wire.extend_from_slice(&self.wire);
        Name::from_wire(wire)
    }

    /// Canonical lowercase presentation with a trailing dot.
    pub fn canonical(&self) -> String {
        if self.is_root() {
            return ".".to_string();
        }
        let mut s = String::with_capacity(self.encoded_len());
        for l in self.labels() {
            for &b in l {
                s.push(b.to_ascii_lowercase() as char);
            }
            s.push('.');
        }
        s
    }

    /// Streams the canonical presentation bytes into a hasher exactly as
    /// `self.canonical().hash(state)` would — the lowercased dotted form
    /// (a lone dot for the root) followed by the `0xff` terminator the
    /// std `str` hash appends — without building the string. Digest
    /// equality with the string path holds for byte-streaming hashers
    /// such as `DefaultHasher`; the selection logic in `cdn-sim` depends
    /// on it for output-identical address rotation.
    pub fn hash_canonical<H: std::hash::Hasher>(&self, state: &mut H) {
        if self.is_root() {
            state.write_u8(b'.');
        }
        for l in self.labels() {
            for &b in l {
                state.write_u8(b.to_ascii_lowercase());
            }
            state.write_u8(b'.');
        }
        state.write_u8(0xff);
    }

    /// Encodes the name, emitting a compression pointer for the longest
    /// suffix the writer has already written (see [`Writer`]).
    pub fn encode(&self, w: &mut Writer) -> Result<(), WireError> {
        // Walk suffixes from the full name downward; the first one the
        // writer already holds ends the literal part with a pointer.
        let pointer = suffixes(&self.wire)
            .take_while(|s| !s.is_empty())
            .find_map(|s| Some((w.find_suffix(s)?, self.wire.len() - s.len())));
        let literal = match pointer {
            Some((_, literal_len)) => self.wire.get(..literal_len).unwrap_or_default(),
            None => &self.wire,
        };
        let base = w.len();
        for s in suffixes(literal).take_while(|s| !s.is_empty()) {
            w.record_label(base + literal.len() - s.len());
        }
        w.write_bytes(literal);
        match pointer {
            Some((off, _)) => w.write_u16(0xC000 | off),
            None => w.write_u8(0),
        }
        Ok(())
    }

    /// Decodes a (possibly compressed) name, leaving the reader positioned
    /// just past the name's first occurrence in the stream.
    ///
    /// The decoder enforces an explicit step budget so the work (and
    /// allocation) one name can demand is bounded no matter what the
    /// message contains:
    ///
    /// * every compression pointer must point **strictly backwards** —
    ///   before the first byte of the pointer itself — which rules out
    ///   self-pointers and forward pointers outright (they are the raw
    ///   material of decompression loops);
    /// * at most [`MAX_POINTER_HOPS`] pointers are followed, defeating
    ///   ping-pong chains built inside already-read bytes
    ///   ([`WireError::PointerChainTooDeep`]);
    /// * accumulated label octets are checked against the 255-octet name
    ///   limit *as they are read*, so a hostile message can never make
    ///   the decoder buffer more than [`MAX_NAME_LEN`] octets.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut wire = [0u8; MAX_NAME_LEN];
        // Label octets (length + bytes) gathered into `wire` so far.
        let mut used = 0usize;
        let mut hops = 0usize;
        // After the first pointer we read from a clone so the caller's
        // cursor stays just past the pointer.
        let mut cursor = r.clone();
        let mut jumped = false;
        loop {
            let len = cursor.read_u8("name label length")?;
            match len & 0xC0 {
                0x00 => {
                    if len == 0 {
                        break;
                    }
                    // Encoded length so far: these labels plus the root.
                    let octets = used + 1 + usize::from(len) + 1;
                    if octets > MAX_NAME_LEN {
                        return Err(WireError::NameTooLong(octets));
                    }
                    let bytes = cursor.read_bytes(usize::from(len), "name label")?;
                    if let Some((first, rest)) = wire
                        .get_mut(used..octets - 1)
                        .and_then(<[u8]>::split_first_mut)
                    {
                        *first = len;
                        rest.copy_from_slice(bytes);
                    }
                    used = octets - 1;
                    if !jumped {
                        *r = cursor.clone();
                    }
                }
                0xC0 => {
                    let lo = cursor.read_u8("compression pointer")?;
                    let target = usize::from(len & 0x3F) << 8 | usize::from(lo);
                    // Offset of the pointer's own first byte; the target
                    // must land strictly before it.
                    let ptr_at = cursor.position().saturating_sub(2);
                    if !jumped {
                        *r = cursor.clone();
                        jumped = true;
                    }
                    if target >= ptr_at {
                        return Err(WireError::BadPointer { target });
                    }
                    hops += 1;
                    if hops > MAX_POINTER_HOPS {
                        return Err(WireError::PointerChainTooDeep { hops });
                    }
                    cursor.seek(target)?;
                }
                other => return Err(WireError::UnsupportedLabelType(other >> 6)),
            }
        }
        if !jumped {
            *r = cursor;
        }
        Ok(Name {
            wire: wire.get(..used).unwrap_or_default().into(),
        })
    }

    /// The length-prefixed labels, without the root octet.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }
}

/// Every suffix of wire-form labels that starts at a label boundary:
/// `wire` itself, then each ancestor in turn, ending with the empty
/// root. Applied to a folded key ([`Name::fold_into`]) it yields the
/// keys of the name's whole parent chain without allocating.
pub fn suffixes(wire: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut next = Some(wire);
    std::iter::from_fn(move || {
        let cur = next?;
        next = cur
            .split_first()
            .and_then(|(&len, tail)| tail.get(usize::from(len)..));
        Some(cur)
    })
}

/// Folded-key form of [`Name::is_subdomain_of`]: true if `key` equals
/// `ancestor` or one of its label-boundary suffixes does.
pub fn key_is_subdomain_of(key: &[u8], ancestor: &[u8]) -> bool {
    suffix_with_len(key, ancestor.len()) == Some(ancestor)
}

/// The label-boundary suffix of `wire` that is `len` bytes long.
fn suffix_with_len(wire: &[u8], len: usize) -> Option<&[u8]> {
    suffixes(wire)
        .find(|s| s.len() <= len)
        .filter(|s| s.len() == len)
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        // Length octets are ≤ 63, below every ASCII letter, so folding
        // never touches them: equal folded bytes mean equal labels.
        self.wire.eq_ignore_ascii_case(&other.wire)
    }
}

impl Eq for Name {}

impl std::hash::Hash for Name {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        for &b in self.wire.iter() {
            state.write_u8(b.to_ascii_lowercase());
        }
        // The root octet makes the hashed form prefix-free.
        state.write_u8(0);
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    /// Canonical DNS ordering: compare label sequences right to left,
    /// case-insensitively (RFC 4034 §6.1 without the DNSSEC baggage).
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let mut a: [&[u8]; MAX_LABELS] = [&[]; MAX_LABELS];
        let mut b: [&[u8]; MAX_LABELS] = [&[]; MAX_LABELS];
        let a = labels_into(self, &mut a);
        let b = labels_into(other, &mut b);
        for (x, y) in a.iter().rev().zip(b.iter().rev()) {
            let ord = x
                .iter()
                .map(u8::to_ascii_lowercase)
                .cmp(y.iter().map(u8::to_ascii_lowercase));
            if ord.is_ne() {
                return ord;
            }
        }
        a.len().cmp(&b.len())
    }
}

/// Collects `name`'s labels into `buf`, returning the filled prefix.
fn labels_into<'a, 'b>(name: &'a Name, buf: &'b mut [&'a [u8]; MAX_LABELS]) -> &'b [&'a [u8]] {
    let mut n = 0;
    for (slot, label) in buf.iter_mut().zip(name.labels()) {
        *slot = label;
        n += 1;
    }
    buf.get(..n).unwrap_or_default()
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use fmt::Write;
        if self.is_root() {
            return f.write_char('.');
        }
        for l in self.labels() {
            for &b in l {
                f.write_char(b as char)?;
            }
            f.write_char('.')?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Name")
            .field(&format_args!("{self}"))
            .finish()
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(name: &Name) -> Name {
        let mut w = Writer::new();
        name.encode(&mut w).unwrap();
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        Name::decode(&mut r).unwrap()
    }

    #[test]
    fn parse_and_display() {
        let n = Name::parse("a0.muscache.com").unwrap();
        assert_eq!(n.to_string(), "a0.muscache.com.");
        assert_eq!(n.label_count(), 3);
    }

    #[test]
    fn trailing_dot_is_optional() {
        assert_eq!(
            Name::parse("q-cf.bstatic.com").unwrap(),
            Name::parse("q-cf.bstatic.com.").unwrap()
        );
    }

    #[test]
    fn root_parses_from_empty_and_dot_suffix_only() {
        assert!(Name::parse("").unwrap().is_root());
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::root().encoded_len(), 1);
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"x".repeat(64)).is_err());
        assert!(Name::parse("sp ace.com").is_err());
    }

    #[test]
    fn rejects_overlong_name() {
        // 5 labels of 63 octets exceed 255 total.
        let long = vec!["x".repeat(63); 5].join(".");
        assert!(matches!(Name::parse(&long), Err(WireError::NameTooLong(_))));
    }

    #[test]
    fn equality_ignores_case() {
        let a = Name::parse("CDN0.Agoda.NET").unwrap();
        let b = Name::parse("cdn0.agoda.net").unwrap();
        assert_eq!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut ha = DefaultHasher::new();
        let mut hb = DefaultHasher::new();
        a.hash(&mut ha);
        b.hash(&mut hb);
        assert_eq!(ha.finish(), hb.finish());
    }

    #[test]
    fn subdomain_relationships() {
        let zone = Name::parse("mycdn.ciab.test").unwrap();
        let host = Name::parse("video.demo1.mycdn.ciab.test").unwrap();
        assert!(host.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_subdomain_of(&host));
        assert!(host.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn parent_and_child() {
        let n = Name::parse("b.c").unwrap();
        let c = n.child("a").unwrap();
        assert_eq!(c.to_string(), "a.b.c.");
        assert_eq!(c.parent().unwrap(), n);
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn wire_roundtrip_simple() {
        for s in ["static.tacdn.com", "a.cdn.intentmedia.net", ""] {
            let n = Name::parse(s).unwrap();
            assert_eq!(roundtrip(&n), n);
        }
    }

    #[test]
    fn compression_points_to_shared_suffix() {
        let mut w = Writer::new();
        Name::parse("www.example.com").unwrap().encode(&mut w).unwrap();
        let before = w.len();
        Name::parse("mail.example.com").unwrap().encode(&mut w).unwrap();
        // "mail" label (5 bytes) + pointer (2 bytes) = 7 bytes, far less
        // than the 18 an uncompressed encoding would need.
        assert_eq!(w.len() - before, 7);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap().to_string(), "www.example.com.");
        assert_eq!(
            Name::decode(&mut r).unwrap().to_string(),
            "mail.example.com."
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_name_compresses_to_lone_pointer() {
        let mut w = Writer::new();
        let n = Name::parse("x.y.z").unwrap();
        n.encode(&mut w).unwrap();
        let before = w.len();
        n.encode(&mut w).unwrap();
        assert_eq!(w.len() - before, 2);
    }

    #[test]
    fn decode_rejects_pointer_loop() {
        // A pointer at offset 0 pointing to itself: not strictly
        // backwards, so it is refused before it can spin.
        let buf = [0xC0, 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 0 })
        );
    }

    #[test]
    fn decode_rejects_two_pointer_loop() {
        // ptr@0 -> 2, ptr@2 -> 0. Any loop needs at least one forward
        // (or self) edge, and the very first pointer here is forward.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 2 })
        );
    }

    #[test]
    fn decode_rejects_forward_pointer_out_of_range() {
        let buf = [0xC0, 0x7F];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 0x7F })
        );
    }

    #[test]
    fn decode_rejects_in_bounds_forward_pointer() {
        // A label, then a pointer to a valid name *later* in the
        // message. In-bounds, decodable in principle — still refused:
        // pointers must point strictly backwards.
        let buf = [0x01, b'a', 0xC0, 0x04, 0x01, b'b', 0x00];
        let mut r = Reader::new(&buf);
        r.seek(2).unwrap();
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 4 })
        );
    }

    #[test]
    fn decode_rejects_pointer_past_message_end() {
        // A name at offset 3 whose pointer targets offset 0x3FF, far
        // past the 7-byte message. (With the strictly-backwards rule a
        // past-the-end target can never also be before the pointer, so
        // this reports as the same BadPointer the loop cases get.)
        let buf = [0x01, b'a', 0x00, 0x01, b'b', 0xC3, 0xFF];
        let mut r = Reader::new(&buf);
        r.seek(3).unwrap();
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::BadPointer { target: 0x3FF })
        );
    }

    #[test]
    fn decode_rejects_chain_deeper_than_step_budget() {
        // Root at offset 0, then a chain of strictly-backward pointers
        // each targeting the previous one: every hop is legal in
        // isolation, but the chain is deeper than the decode budget.
        let mut buf = vec![0x00];
        for k in 0..(MAX_POINTER_HOPS + 4) {
            let target = if k == 0 { 0 } else { 1 + 2 * (k - 1) };
            buf.push(0xC0 | (target >> 8) as u8);
            buf.push(target as u8);
        }
        let start = buf.len() - 2;
        let mut r = Reader::new(&buf);
        r.seek(start).unwrap();
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::PointerChainTooDeep {
                hops: MAX_POINTER_HOPS + 1
            })
        );
    }

    #[test]
    fn decode_rejects_overlong_name_as_it_accumulates() {
        // Five 63-octet labels exceed the 255-octet name limit; the
        // decoder notices while reading the fifth label's length octet,
        // before buffering the payload.
        let mut buf = Vec::new();
        for _ in 0..5 {
            buf.push(63);
            buf.extend(std::iter::repeat(b'x').take(63));
        }
        buf.push(0);
        let mut r = Reader::new(&buf);
        assert!(matches!(
            Name::decode(&mut r),
            Err(WireError::NameTooLong(_))
        ));
    }

    #[test]
    fn decode_accepts_max_length_label_rejects_label_type_64() {
        // 63 is the largest literal label; 64 sets the reserved 0b01
        // type bits and must be refused as an unsupported label type.
        let mut ok = vec![63];
        ok.extend(std::iter::repeat(b'y').take(63));
        ok.push(0);
        let mut r = Reader::new(&ok);
        let name = Name::decode(&mut r).unwrap();
        assert_eq!(name.label_count(), 1);
        assert_eq!(name.encoded_len(), 65);

        let bad = [64, b'z', 0x00];
        let mut r = Reader::new(&bad);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::UnsupportedLabelType(0b01))
        );
    }

    #[test]
    fn decode_rejects_unsupported_label_type() {
        let buf = [0x80, 0x01, b'a', 0x00];
        let mut r = Reader::new(&buf);
        assert_eq!(
            Name::decode(&mut r),
            Err(WireError::UnsupportedLabelType(0b10))
        );
    }

    #[test]
    fn reader_position_is_past_first_occurrence_after_pointer() {
        // message: name1 = "a." at 0..3, then name2 = pointer to 0, then 0xFF
        let mut w = Writer::new();
        Name::parse("a").unwrap().encode(&mut w).unwrap();
        Name::parse("a").unwrap().encode(&mut w).unwrap();
        w.write_u8(0xFF);
        let buf = w.finish().unwrap();
        let mut r = Reader::new(&buf);
        Name::decode(&mut r).unwrap();
        Name::decode(&mut r).unwrap();
        assert_eq!(r.read_u8("sentinel").unwrap(), 0xFF);
    }

    #[test]
    fn ordering_is_right_to_left() {
        let mut names = [Name::parse("b.example.com").unwrap(),
            Name::parse("example.com").unwrap(),
            Name::parse("a.example.com").unwrap(),
            Name::parse("example.net").unwrap()];
        names.sort();
        let strs: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        assert_eq!(
            strs,
            vec![
                "example.com.",
                "a.example.com.",
                "b.example.com.",
                "example.net."
            ]
        );
    }

    #[test]
    fn canonical_lowercases_and_ends_with_dot() {
        assert_eq!(Name::parse("A.B").unwrap().canonical(), "a.b.");
        assert_eq!(Name::root().canonical(), ".");
    }

    #[test]
    fn folded_key_is_identity_and_its_suffixes_are_the_parents() {
        let mut a = [0u8; MAX_NAME_LEN];
        let mut b = [0u8; MAX_NAME_LEN];
        let name = Name::parse("Video.Demo1.MyCdn.ciab.test").unwrap();
        let key = name.fold_into(&mut a);
        assert_eq!(key, b"\x05video\x05demo1\x05mycdn\x04ciab\x04test");
        assert_eq!(
            key,
            Name::parse("video.demo1.mycdn.ciab.TEST")
                .unwrap()
                .fold_into(&mut b)
        );
        let mut parent = Some(name.clone());
        for suffix in suffixes(key) {
            let p = parent.take().unwrap();
            assert_eq!(suffix, p.fold_into(&mut b));
            assert!(key_is_subdomain_of(key, suffix));
            assert!(name.is_subdomain_of(&p));
            parent = p.parent();
        }
        assert!(parent.is_none(), "the walk ends at the root");
        assert!(!key_is_subdomain_of(b"\x04ciab\x04test", key));
        // A suffix must start at a label boundary.
        assert!(!key_is_subdomain_of(b"\x02xa\x01b", b"\x01a\x01b"));
        assert!(!key_is_subdomain_of(b"\x03a\x01b", b"\x01b"));
    }

    #[test]
    fn dot_bearing_label_does_not_collide_with_split_labels() {
        // Wire-decoded labels may contain dot octets: ["a.b"] and
        // ["a", "b"] print alike but are different names.
        let embedded = Name::decode(&mut Reader::new(&[3, b'a', b'.', b'b', 0])).unwrap();
        let split = Name::decode(&mut Reader::new(&[1, b'a', 1, b'b', 0])).unwrap();
        assert_eq!(embedded.to_string(), split.to_string());
        assert_ne!(embedded, split);
        let mut a = [0u8; MAX_NAME_LEN];
        let mut b = [0u8; MAX_NAME_LEN];
        assert_ne!(embedded.fold_into(&mut a), split.fold_into(&mut b));
    }

    #[test]
    fn hash_canonical_matches_string_hash_digest() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        for s in [
            "",
            "com",
            "Video.Demo1.MyCdn.ciab.test",
            "q-cf.bstatic.com",
            "A0.MUSCACHE.COM",
        ] {
            let name = Name::parse(s).unwrap();
            let mut via_string = DefaultHasher::new();
            name.canonical().hash(&mut via_string);
            let mut streamed = DefaultHasher::new();
            name.hash_canonical(&mut streamed);
            assert_eq!(
                via_string.finish(),
                streamed.finish(),
                "digest mismatch for {s:?}"
            );
        }
    }

    #[test]
    fn ordering_matches_lowercased_byte_compare() {
        // Same right-to-left order the allocating comparison produced.
        let a = Name::parse("AB.x").unwrap();
        let b = Name::parse("ab.x").unwrap();
        let c = Name::parse("abc.x").unwrap();
        let d = Name::parse("ac.x").unwrap();
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        assert_eq!(b.cmp(&c), std::cmp::Ordering::Less);
        assert_eq!(c.cmp(&d), std::cmp::Ordering::Less);
    }
}
