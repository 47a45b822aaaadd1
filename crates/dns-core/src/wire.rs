//! DNS wire-format primitives.
//!
//! [`WireWriter`] encodes names with RFC 1035 §4.1.4 compression pointers;
//! [`WireReader`] decodes them, guarding against pointer loops and forward
//! references.

use crate::error::NameError;
use crate::error::WireError;
use crate::name::{Name, MAX_NAME_LEN};
use bytes::{BufMut, BytesMut};

/// Compression pointers address at most 14 bits of offset.
const MAX_POINTER_TARGET: usize = 0x3FFF;
/// A 255-octet name holds at most 127 one-octet labels.
const MAX_LABELS: usize = 127;
/// Cap on remembered suffix offsets: bounds the linear suffix scan in
/// [`WireWriter::put_name`] for pathological many-name messages while
/// leaving typical probe/answer traffic fully compressed.
const MAX_TRACKED_OFFSETS: usize = 192;

/// Growable wire-format encoder with name compression.
///
/// The writer is designed for reuse on hot paths: [`WireWriter::clear`]
/// resets it without releasing its buffers, so a warmed-up writer encodes
/// messages with **zero heap allocations**. Compression state is an
/// offset list compared directly against the written bytes (no per-name
/// hashing or cloning).
///
/// # Examples
///
/// ```
/// use cde_dns::wire::WireWriter;
/// use cde_dns::Name;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut w = WireWriter::new();
/// let name: Name = "www.cache.example".parse()?;
/// w.put_name(&name);
/// w.put_name(&name); // second occurrence compresses to 2 bytes
/// assert!(w.len() < 2 * name.wire_len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: BytesMut,
    /// Buffer offsets at which an already-emitted name suffix starts.
    name_offsets: Vec<u16>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> WireWriter {
        WireWriter {
            buf: BytesMut::with_capacity(512),
            name_offsets: Vec::with_capacity(32),
        }
    }

    /// Resets the writer for a fresh message, keeping its allocations.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.name_offsets.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one octet.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Appends raw bytes.
    pub fn put_slice(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    /// Appends a length-prefixed character string (≤ 255 octets).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::CharacterStringTooLong`] for longer inputs.
    pub fn put_character_string(&mut self, v: &[u8]) -> Result<(), WireError> {
        if v.len() > 255 {
            return Err(WireError::CharacterStringTooLong);
        }
        self.buf.put_u8(v.len() as u8);
        self.buf.put_slice(v);
        Ok(())
    }

    /// Appends `name`, reusing compression pointers for suffixes that were
    /// already emitted.
    ///
    /// Allocation-free: suffix matching walks the written buffer directly
    /// instead of keeping cloned `Name` keys.
    pub fn put_name(&mut self, name: &Name) {
        // A name holds at most 127 labels, so the refs fit on the stack.
        let mut labels: [&[u8]; MAX_LABELS] = [&[]; MAX_LABELS];
        let mut n = 0;
        for label in name.labels() {
            labels[n] = label;
            n += 1;
        }
        // Longest matching suffix wins: try from the whole name down.
        let (emit, pointer) = (0..n)
            .find_map(|i| self.find_suffix(&labels[i..n]).map(|off| (i, Some(off))))
            .unwrap_or((n, None));
        for label in labels[..emit].iter() {
            let here = self.buf.len();
            if here <= MAX_POINTER_TARGET && self.name_offsets.len() < MAX_TRACKED_OFFSETS {
                self.name_offsets.push(here as u16);
            }
            self.buf.put_u8(label.len() as u8);
            self.buf.put_slice(label);
        }
        match pointer {
            Some(off) => self.buf.put_u16(0xC000 | off),
            None => self.buf.put_u8(0),
        }
    }

    /// Looks for a recorded suffix position whose label sequence equals
    /// `labels` (and then terminates), walking any pointer chains already
    /// in the buffer.
    fn find_suffix(&self, labels: &[&[u8]]) -> Option<u16> {
        if labels.is_empty() {
            return None;
        }
        self.name_offsets
            .iter()
            .copied()
            .find(|&off| self.suffix_matches(off as usize, labels))
    }

    fn suffix_matches(&self, mut pos: usize, labels: &[&[u8]]) -> bool {
        for expected in labels {
            pos = match self.resolve_pointers(pos) {
                Some(p) => p,
                None => return false,
            };
            let len = self.buf[pos] as usize;
            if len == 0 || len != expected.len() {
                return false;
            }
            if &self.buf[pos + 1..pos + 1 + len] != *expected {
                return false;
            }
            pos += 1 + len;
        }
        // The stored name must terminate here: a longer stored name would
        // compress to the wrong target.
        matches!(self.resolve_pointers(pos), Some(p) if self.buf[p] == 0)
    }

    /// Follows compression-pointer chains starting at `pos` down to a
    /// label (or terminal zero) offset. Everything in the buffer was
    /// written by this writer, so chains are finite and backward-only.
    fn resolve_pointers(&self, mut pos: usize) -> Option<usize> {
        loop {
            let b = *self.buf.get(pos)?;
            if b & 0xC0 == 0xC0 {
                let lo = *self.buf.get(pos + 1)? as usize;
                pos = ((b & 0x3F) as usize) << 8 | lo;
            } else {
                return Some(pos);
            }
        }
    }

    /// Appends `name` without creating or following compression pointers.
    ///
    /// Required inside RDATA of types whose compression is forbidden by
    /// RFC 3597 (everything but the classic types).
    pub fn put_name_uncompressed(&mut self, name: &Name) {
        // A name already holds its labels in uncompressed wire form.
        self.buf.put_slice(name.wire());
        self.buf.put_u8(0);
    }

    /// Overwrites the big-endian `u16` at `offset` (used to patch RDLENGTH).
    ///
    /// # Panics
    ///
    /// Panics when `offset + 2` exceeds the bytes written so far.
    pub fn patch_u16(&mut self, offset: usize, v: u16) {
        assert!(offset + 2 <= self.buf.len(), "patch offset out of range");
        self.buf[offset] = (v >> 8) as u8;
        self.buf[offset + 1] = (v & 0xFF) as u8;
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Wire-format decoder over a full message buffer.
///
/// The reader keeps the whole message visible so compression pointers can be
/// chased; there is no seek operation — pointers are followed
/// internally and the main cursor keeps advancing past the pointer itself.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Creates a reader over a complete DNS message.
    pub fn new(data: &'a [u8]) -> WireReader<'a> {
        WireReader { data, pos: 0 }
    }

    /// Creates a reader positioned at `pos` within the message (pointer
    /// chasing still sees the whole buffer).
    pub fn new_at(data: &'a [u8], pos: usize) -> WireReader<'a> {
        WireReader {
            data,
            pos: pos.min(data.len()),
        }
    }

    /// Current cursor offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// `true` when the cursor is at the end of the buffer.
    pub fn is_at_end(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one octet.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when the buffer is exhausted.
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        let b = *self.data.get(self.pos).ok_or(WireError::UnexpectedEof)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than two bytes remain.
    pub fn read_u16(&mut self) -> Result<u16, WireError> {
        let hi = self.read_u8()? as u16;
        let lo = self.read_u8()? as u16;
        Ok(hi << 8 | lo)
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than four bytes remain.
    pub fn read_u32(&mut self) -> Result<u32, WireError> {
        let hi = self.read_u16()? as u32;
        let lo = self.read_u16()? as u32;
        Ok(hi << 16 | lo)
    }

    /// Reads `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when fewer than `len` bytes remain.
    pub fn read_slice(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < len {
            return Err(WireError::UnexpectedEof);
        }
        let out = &self.data[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads a length-prefixed character string.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] when the declared length overruns the
    /// buffer.
    pub fn read_character_string(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read_u8()? as usize;
        self.read_slice(len)
    }

    /// Reads a (possibly compressed) domain name.
    ///
    /// The temporary label buffer lives on the stack as `(offset, len)`
    /// spans into the message, and [`Name::from_labels`] lowercases them
    /// into a stack buffer: the finished [`Name`] is the one allocation.
    ///
    /// # Errors
    ///
    /// Fails on truncated labels, reserved label types, pointer loops,
    /// forward pointers, or labels violating [`Name`] constraints.
    pub fn read_name(&mut self) -> Result<Name, WireError> {
        let mut spans = [(0u32, 0u8); MAX_LABELS];
        let mut count = 0usize;
        self.walk_name(|pos, len| {
            // Pre-check the name-length limits so `spans` cannot overflow
            // on adversarial pointer chains.
            if count == MAX_LABELS {
                return Err(WireError::Name(NameError::NameTooLong));
            }
            spans[count] = (pos as u32, len as u8);
            count += 1;
            Ok(())
        })?;
        Name::from_labels(
            spans[..count]
                .iter()
                .map(|&(pos, len)| &self.data[pos as usize..pos as usize + len as usize]),
        )
        .map_err(WireError::from)
    }

    /// Compares the (possibly compressed) name at the cursor against
    /// `name` without allocating, advancing the cursor past the wire name
    /// in either case.
    ///
    /// Comparison is case-insensitive, as wire names may differ in case
    /// from the canonical (lowercased) `Name`.
    ///
    /// # Errors
    ///
    /// Same structural errors as [`WireReader::read_name`]; a well-formed
    /// non-matching name is `Ok(false)`, not an error.
    pub fn name_matches(&mut self, name: &Name) -> Result<bool, WireError> {
        let mut expected = name.labels();
        let mut equal = true;
        let data = self.data;
        self.walk_name(|pos, len| {
            if equal {
                equal = match expected.next() {
                    Some(label) => {
                        label.len() == len && data[pos..pos + len].eq_ignore_ascii_case(label)
                    }
                    None => false,
                };
            }
            Ok(())
        })?;
        Ok(equal && expected.next().is_none())
    }

    /// Walks the name at the cursor, invoking `visit(offset, len)` per
    /// label and leaving the cursor just past the name. Shared structure
    /// validation for [`read_name`](Self::read_name) and
    /// [`name_matches`](Self::name_matches).
    fn walk_name(
        &mut self,
        mut visit: impl FnMut(usize, usize) -> Result<(), WireError>,
    ) -> Result<(), WireError> {
        let mut pos = self.pos;
        // After the first pointer hop the main cursor no longer advances.
        let mut cursor_fixed: Option<usize> = None;
        let mut hops = 0usize;
        let mut wire_len = 1usize;

        loop {
            let len = *self.data.get(pos).ok_or(WireError::UnexpectedEof)? as usize;
            match len & 0xC0 {
                0x00 => {
                    pos += 1;
                    if len == 0 {
                        break;
                    }
                    if self.data.get(pos..pos + len).is_none() {
                        return Err(WireError::UnexpectedEof);
                    }
                    wire_len += 1 + len;
                    if wire_len > MAX_NAME_LEN {
                        return Err(WireError::Name(NameError::NameTooLong));
                    }
                    visit(pos, len)?;
                    pos += len;
                }
                0xC0 => {
                    let lo = *self.data.get(pos + 1).ok_or(WireError::UnexpectedEof)? as usize;
                    let target = (len & 0x3F) << 8 | lo;
                    if cursor_fixed.is_none() {
                        cursor_fixed = Some(pos + 2);
                    }
                    // Pointers must point strictly backwards; this also
                    // bounds the hop count, but keep an explicit guard.
                    if target >= pos {
                        return Err(WireError::BadCompressionPointer(target));
                    }
                    hops += 1;
                    if hops > 128 {
                        return Err(WireError::BadCompressionPointer(target));
                    }
                    pos = target;
                }
                other => return Err(WireError::BadLabelType(other as u8)),
            }
        }

        self.pos = cursor_fixed.unwrap_or(pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn u8_u16_u32_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(0xAB);
        w.put_u16(0x1234);
        w.put_u32(0xDEADBEEF);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0x1234);
        assert_eq!(r.read_u32().unwrap(), 0xDEADBEEF);
        assert!(r.is_at_end());
    }

    #[test]
    fn read_past_end_is_eof() {
        let mut r = WireReader::new(&[0x01]);
        assert_eq!(r.read_u16().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let mut w = WireWriter::new();
        w.put_name(&n("www.cache.example"));
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), n("www.cache.example").wire_len());
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("www.cache.example"));
        assert!(r.is_at_end());
    }

    #[test]
    fn root_name_is_single_zero_octet() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root());
        assert_eq!(w.into_bytes(), vec![0]);
    }

    #[test]
    fn second_occurrence_compresses_to_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&n("a.b.example"));
        let first_len = w.len();
        w.put_name(&n("a.b.example"));
        assert_eq!(w.len(), first_len + 2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("a.b.example"));
        assert_eq!(r.read_name().unwrap(), n("a.b.example"));
        assert!(r.is_at_end());
    }

    #[test]
    fn shared_suffix_compresses() {
        let mut w = WireWriter::new();
        w.put_name(&n("x.cache.example"));
        w.put_name(&n("y.cache.example"));
        let bytes = w.into_bytes();
        // Second name should be "y" label (2 bytes) + pointer (2 bytes).
        assert_eq!(bytes.len(), n("x.cache.example").wire_len() + 4);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap(), n("x.cache.example"));
        assert_eq!(r.read_name().unwrap(), n("y.cache.example"));
    }

    #[test]
    fn cursor_lands_after_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&n("p.q"));
        w.put_name(&n("p.q"));
        w.put_u16(0xBEEF);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.read_name().unwrap();
        r.read_name().unwrap();
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to offset 4 placed at offset 0 (forward reference).
        let bytes = [0xC0, 0x04, 0, 0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.read_name().unwrap_err(),
            WireError::BadCompressionPointer(_)
        ));
    }

    #[test]
    fn self_pointer_rejected() {
        let bytes = [0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.read_name().unwrap_err(),
            WireError::BadCompressionPointer(0)
        ));
    }

    #[test]
    fn reserved_label_bits_rejected() {
        let bytes = [0x80, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap_err(), WireError::BadLabelType(0x80));
    }

    #[test]
    fn truncated_label_rejected() {
        let bytes = [0x05, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_name().unwrap_err(), WireError::UnexpectedEof);
    }

    #[test]
    fn character_string_roundtrip() {
        let mut w = WireWriter::new();
        w.put_character_string(b"v=spf1 -all").unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.read_character_string().unwrap(), b"v=spf1 -all");
    }

    #[test]
    fn character_string_over_255_rejected() {
        let mut w = WireWriter::new();
        let long = vec![b'a'; 256];
        assert_eq!(
            w.put_character_string(&long).unwrap_err(),
            WireError::CharacterStringTooLong
        );
    }

    #[test]
    fn patch_u16_overwrites_in_place() {
        let mut w = WireWriter::new();
        w.put_u16(0);
        w.put_u8(7);
        w.patch_u16(0, 0x0102);
        assert_eq!(w.into_bytes(), vec![1, 2, 7]);
    }

    #[test]
    fn uncompressed_emit_never_points() {
        let mut w = WireWriter::new();
        w.put_name(&n("a.b.c"));
        w.put_name_uncompressed(&n("a.b.c"));
        let bytes = w.into_bytes();
        // Second copy occupies full wire length.
        assert_eq!(bytes.len(), 2 * n("a.b.c").wire_len());
    }
}
