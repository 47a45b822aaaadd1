//! Domain names.
//!
//! [`Name`] stores a fully-qualified domain name normalised to lowercase
//! (DNS name comparison is case-insensitive, RFC 1034 §3.1). The root name
//! has zero labels.
//!
//! # Representation
//!
//! A name is one heap buffer: its uncompressed wire form without the
//! terminating root octet. Each label is a length octet followed by its
//! lowercased bytes, leftmost (most specific) label first, so
//! `www.example.` is `\x03www\x07example`. The root is the empty buffer
//! and allocates nothing. Building, cloning, decoding or dropping a name
//! therefore costs one allocation, however many labels it has.
//!
//! Equality and hashing work on the buffer: length-prefixed labels are
//! prefix-free, so equal buffers mean equal label sequences. Ordering does
//! **not**: [`Ord`] compares label by label, leftmost first, each label as
//! a byte string (`a` < `aa` < `b`, and `a.b` > `a`). Byte-wise order on the
//! buffer would put `b` (`\x01b`) before `aa` (`\x02aa`); every sorted table
//! keyed on names reads the label-wise order.

use crate::error::NameError;
use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;

/// Maximum length of a single label in octets (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum length of a name in wire form, including length octets and the
/// terminating root label (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// A fully-qualified, case-normalised DNS domain name.
///
/// # Examples
///
/// ```
/// use cde_dns::Name;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let name: Name = "WWW.Cache.Example".parse()?;
/// assert_eq!(name.to_string(), "www.cache.example.");
/// assert_eq!(name.label_count(), 3);
/// assert!(name.is_subdomain_of(&"cache.example".parse()?));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name {
    /// Uncompressed wire form without the root octet: length-prefixed,
    /// lowercased labels, leftmost first. Empty for the root.
    wire: Box<[u8]>,
}

impl Name {
    /// The root name (zero labels).
    ///
    /// # Examples
    ///
    /// ```
    /// use cde_dns::Name;
    /// assert!(Name::root().is_root());
    /// assert_eq!(Name::root().to_string(), ".");
    /// ```
    pub fn root() -> Name {
        Name {
            wire: Box::default(),
        }
    }

    /// Parses a name from its textual (dot-separated) representation.
    ///
    /// Accepts an optional trailing dot. The empty string and `"."` both
    /// denote the root. Labels are normalised to ASCII lowercase.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] when a label is empty or over 63 octets, when
    /// the whole name exceeds 255 octets in wire form, or when a label
    /// contains bytes outside `[A-Za-z0-9_-]`.
    pub fn parse(text: &str) -> Result<Name, NameError> {
        let trimmed = text.strip_suffix('.').unwrap_or(text);
        if trimmed.is_empty() {
            return Ok(Name::root());
        }
        Name::from_labels(trimmed.split('.'))
    }

    /// Builds a name from label byte strings, most-specific first.
    ///
    /// # Errors
    ///
    /// Same validation as [`Name::parse`].
    pub fn from_labels<I, L>(labels: I) -> Result<Name, NameError>
    where
        I: IntoIterator<Item = L>,
        L: AsRef<[u8]>,
    {
        let mut builder = Builder::new();
        for l in labels {
            builder.push(l.as_ref())?;
        }
        builder.finish()
    }

    /// The name's labels in wire form, without the terminating root octet.
    pub(crate) fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Length of this name in uncompressed wire form (length octets plus the
    /// terminating zero octet).
    pub fn wire_len(&self) -> usize {
        self.wire.len() + 1
    }

    /// Number of labels; the root has zero.
    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// `true` when this is the root name.
    pub fn is_root(&self) -> bool {
        self.wire.is_empty()
    }

    /// Iterates over the labels, most-specific (leftmost) first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> + '_ {
        Labels { rest: &self.wire }
    }

    /// The leftmost label, or `None` for the root.
    pub fn first_label(&self) -> Option<&[u8]> {
        self.labels().next()
    }

    /// Returns the parent name (this name with its leftmost label removed),
    /// or `None` for the root.
    ///
    /// # Examples
    ///
    /// ```
    /// use cde_dns::Name;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let n: Name = "a.b.example".parse()?;
    /// assert_eq!(n.parent().unwrap().to_string(), "b.example.");
    /// # Ok(())
    /// # }
    /// ```
    pub fn parent(&self) -> Option<Name> {
        let first = *self.wire.first()? as usize;
        Some(Name {
            wire: self.wire[1 + first..].into(),
        })
    }

    /// `true` when `self` equals `other` or sits below it in the tree.
    ///
    /// Every name is a subdomain of the root; a name is a subdomain of
    /// itself.
    pub fn is_subdomain_of(&self, other: &Name) -> bool {
        self.suffix_start(other).is_some()
    }

    /// `true` when `self` is strictly below `other`.
    pub fn is_strict_subdomain_of(&self, other: &Name) -> bool {
        self.wire.len() > other.wire.len() && self.is_subdomain_of(other)
    }

    /// The byte offset in `self.wire` at which `suffix`'s labels start,
    /// when `self` is a subdomain of `suffix`. The offset must fall on a
    /// label boundary: label bytes such as `-` or digits are valid length
    /// octets, so a byte-wise suffix alone proves nothing.
    fn suffix_start(&self, suffix: &Name) -> Option<usize> {
        let start = self.wire.len().checked_sub(suffix.wire.len())?;
        if self.wire[start..] != suffix.wire[..] {
            return None;
        }
        let mut at = 0;
        while at < start {
            at += 1 + self.wire[at] as usize;
        }
        (at == start).then_some(start)
    }

    /// Prepends `label` to this name, producing a child name.
    ///
    /// # Errors
    ///
    /// Returns [`NameError`] when the label is invalid or the result would
    /// exceed the 255-octet wire limit.
    ///
    /// # Examples
    ///
    /// ```
    /// use cde_dns::Name;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let apex: Name = "cache.example".parse()?;
    /// let child = apex.prepend_label("x-1")?;
    /// assert_eq!(child.to_string(), "x-1.cache.example.");
    /// # Ok(())
    /// # }
    /// ```
    pub fn prepend_label(&self, label: impl AsRef<[u8]>) -> Result<Name, NameError> {
        let mut builder = Builder::new();
        builder.push(label.as_ref())?;
        builder.extend_wire(&self.wire);
        builder.finish()
    }

    /// Concatenates `self` (as the more-specific part) onto `suffix`.
    ///
    /// # Errors
    ///
    /// Returns [`NameError::NameTooLong`] when the result exceeds the wire
    /// limit.
    pub fn concat(&self, suffix: &Name) -> Result<Name, NameError> {
        let mut builder = Builder::new();
        builder.extend_wire(&self.wire);
        builder.extend_wire(&suffix.wire);
        builder.finish()
    }

    /// Strips `suffix` from the end of this name, returning the relative
    /// prefix as a new name, or `None` when `self` is not a subdomain of
    /// `suffix`.
    pub fn strip_suffix(&self, suffix: &Name) -> Option<Name> {
        let start = self.suffix_start(suffix)?;
        Some(Name {
            wire: self.wire[..start].into(),
        })
    }

    /// All names from `self` up to and including the root, starting with
    /// `self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use cde_dns::Name;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let n: Name = "a.b".parse()?;
    /// let chain: Vec<String> = n.ancestors().map(|a| a.to_string()).collect();
    /// assert_eq!(chain, ["a.b.", "b.", "."]);
    /// # Ok(())
    /// # }
    /// ```
    pub fn ancestors(&self) -> Ancestors {
        Ancestors {
            current: Some(self.clone()),
        }
    }
}

/// Label-wise order, leftmost label first (see the [module docs](self)).
impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Iterator over the labels of a name's wire buffer.
struct Labels<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for Labels<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        let (&len, tail) = self.rest.split_first()?;
        let (label, rest) = tail.split_at(len as usize);
        self.rest = rest;
        Some(label)
    }
}

/// Iterator over a name and its ancestors up to the root.
///
/// Produced by [`Name::ancestors`].
#[derive(Debug, Clone)]
pub struct Ancestors {
    current: Option<Name>,
}

impl Iterator for Ancestors {
    type Item = Name;

    fn next(&mut self) -> Option<Name> {
        let out = self.current.take()?;
        self.current = out.parent();
        Some(out)
    }
}

/// Validates and lowercases labels into a stack buffer, so a finished
/// name costs exactly one heap allocation.
struct Builder {
    /// Room for the longest legal name's labels (the root octet is
    /// implicit).
    buf: [u8; MAX_NAME_LEN - 1],
    /// Wire bytes pushed so far; may run past `buf`, in which case the
    /// overflowing labels are validated but not stored and
    /// [`finish`](Self::finish) reports [`NameError::NameTooLong`].
    len: usize,
}

impl Builder {
    fn new() -> Builder {
        Builder {
            buf: [0; MAX_NAME_LEN - 1],
            len: 0,
        }
    }

    /// Validates and appends one label. Label errors take precedence over
    /// the total-length check, which waits for [`finish`](Self::finish).
    fn push(&mut self, raw: &[u8]) -> Result<(), NameError> {
        if raw.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if raw.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong);
        }
        let end = self.len + 1 + raw.len();
        match self.buf.get_mut(self.len..end) {
            Some(dst) => {
                dst[0] = raw.len() as u8;
                for (d, &b) in dst[1..].iter_mut().zip(raw) {
                    *d = lowercase_label_byte(b)?;
                }
            }
            None => {
                for &b in raw {
                    lowercase_label_byte(b)?;
                }
            }
        }
        self.len = end;
        Ok(())
    }

    /// Appends labels already in wire form (taken from a valid [`Name`]).
    fn extend_wire(&mut self, wire: &[u8]) {
        let end = self.len + wire.len();
        if let Some(dst) = self.buf.get_mut(self.len..end) {
            dst.copy_from_slice(wire);
        }
        self.len = end;
    }

    fn finish(self) -> Result<Name, NameError> {
        if self.len > self.buf.len() {
            return Err(NameError::NameTooLong);
        }
        Ok(Name {
            wire: self.buf[..self.len].into(),
        })
    }
}

/// Checks one label byte against `[A-Za-z0-9_*-]` and lowercases it.
fn lowercase_label_byte(b: u8) -> Result<u8, NameError> {
    if b.is_ascii_alphanumeric() || b == b'-' || b == b'_' || b == b'*' {
        Ok(b.to_ascii_lowercase())
    } else {
        Err(NameError::InvalidCharacter(b))
    }
}

impl FromStr for Name {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Name, NameError> {
        Name::parse(s)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_root() {
            return write!(f, ".");
        }
        for l in self.labels() {
            // Labels are validated ASCII, so lossless.
            f.write_str(std::str::from_utf8(l).expect("labels are ascii"))?;
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Name({self})")
    }
}

impl serde::Serialize for Name {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(&self.to_string())
    }
}

impl<'de> serde::Deserialize<'de> for Name {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Name, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display_roundtrip() {
        assert_eq!(n("www.example.com").to_string(), "www.example.com.");
        assert_eq!(n("www.example.com.").to_string(), "www.example.com.");
        assert_eq!(n(".").to_string(), ".");
        assert_eq!(n("").to_string(), ".");
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(n("WWW.ExAmPlE.COM"), n("www.example.com"));
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        n("ABC.de").hash(&mut h1);
        n("abc.DE").hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn rejects_empty_interior_label() {
        assert_eq!("a..b".parse::<Name>().unwrap_err(), NameError::EmptyLabel);
    }

    #[test]
    fn rejects_long_label() {
        let label = "a".repeat(64);
        assert_eq!(label.parse::<Name>().unwrap_err(), NameError::LabelTooLong);
        let ok = "a".repeat(63);
        assert!(ok.parse::<Name>().is_ok());
    }

    #[test]
    fn rejects_too_long_name() {
        // Four 63-octet labels → 4*(63+1)+1 = 257 > 255.
        let parts = vec!["a".repeat(63); 4];
        let text = parts.join(".");
        assert_eq!(text.parse::<Name>().unwrap_err(), NameError::NameTooLong);
    }

    #[test]
    fn label_errors_win_over_the_length_check() {
        // Five 63-octet labels overflow the 255-octet limit long before the
        // bad byte in the last one is reached.
        let mut parts = vec!["a".repeat(63); 5];
        parts[4].replace_range(60..61, "!");
        let text = parts.join(".");
        assert_eq!(
            text.parse::<Name>().unwrap_err(),
            NameError::InvalidCharacter(b'!')
        );
        assert_eq!(
            Name::from_labels(&parts).unwrap_err(),
            NameError::InvalidCharacter(b'!')
        );
        parts[4] = String::new();
        assert_eq!(
            Name::from_labels(&parts).unwrap_err(),
            NameError::EmptyLabel
        );
    }

    #[test]
    fn rejects_invalid_character() {
        assert_eq!(
            "ex ample".parse::<Name>().unwrap_err(),
            NameError::InvalidCharacter(b' ')
        );
    }

    #[test]
    fn wildcard_label_accepted() {
        assert_eq!(n("*.example").label_count(), 2);
    }

    #[test]
    fn subdomain_relationships() {
        let apex = n("cache.example");
        assert!(n("x.cache.example").is_subdomain_of(&apex));
        assert!(n("a.b.cache.example").is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&apex));
        assert!(!apex.is_strict_subdomain_of(&apex));
        assert!(n("x.cache.example").is_strict_subdomain_of(&apex));
        assert!(!n("cache2.example").is_subdomain_of(&apex));
        assert!(!n("ache.example").is_subdomain_of(&apex));
        assert!(apex.is_subdomain_of(&Name::root()));
    }

    #[test]
    fn parent_chain_terminates_at_root() {
        let mut cur = Some(n("a.b.c"));
        let mut hops = 0;
        while let Some(c) = cur {
            cur = c.parent();
            hops += 1;
        }
        assert_eq!(hops, 4); // a.b.c, b.c, c, root
    }

    #[test]
    fn ancestors_iterator_matches_parent_chain() {
        let chain: Vec<String> = n("a.b.c").ancestors().map(|a| a.to_string()).collect();
        assert_eq!(chain, vec!["a.b.c.", "b.c.", "c.", "."]);
    }

    #[test]
    fn prepend_and_strip() {
        let apex = n("cache.example");
        let child = apex.prepend_label("x-17").unwrap();
        assert_eq!(child.to_string(), "x-17.cache.example.");
        let rel = child.strip_suffix(&apex).unwrap();
        assert_eq!(rel.to_string(), "x-17.");
        assert!(child.strip_suffix(&n("other.example")).is_none());
    }

    #[test]
    fn concat_joins_names() {
        let rel = n("www");
        let apex = n("cache.example");
        assert_eq!(rel.concat(&apex).unwrap(), n("www.cache.example"));
        assert_eq!(Name::root().concat(&apex).unwrap(), apex);
    }

    #[test]
    fn wire_len_counts_length_octets() {
        assert_eq!(Name::root().wire_len(), 1);
        assert_eq!(n("a").wire_len(), 3); // 1+1 label, +1 root
        assert_eq!(n("ab.cd").wire_len(), 7);
    }

    #[test]
    fn ordering_is_deterministic() {
        let mut v = [n("b.example"), n("a.example"), n("a.a.example")];
        v.sort();
        assert_eq!(v[0], n("a.a.example"));
    }

    #[test]
    fn ordering_is_label_wise_not_byte_wise() {
        // Each pair disagrees between label order and buffer order.
        assert!(n("aa") < n("b"));
        assert!(n("ab") < n("abc"));
        assert!(n("a") < n("a.b"));
        assert!(Name::root() < n("a"));
    }

    #[test]
    fn root_is_the_empty_buffer() {
        assert_eq!(Name::root().wire().len(), 0);
        assert_eq!(n("a").parent().unwrap(), Name::root());
        assert_eq!(n("a").strip_suffix(&n("a")).unwrap(), Name::root());
    }

    #[test]
    fn subdomain_needs_a_label_boundary() {
        // `-` (45) is also a valid length octet: the 49-octet label
        // "xxx" + 46 dashes ends in the bytes of a 45-dash label's wire
        // form, a byte-wise suffix that starts mid-label.
        let inner = format!("{}.b", "-".repeat(45));
        let outer = format!("{}-{}.b", "x".repeat(3), "-".repeat(45));
        assert!(!n(&outer).is_subdomain_of(&n(&inner)));
        assert!(n(&outer).strip_suffix(&n(&inner)).is_none());
        assert!(n(&format!("q.{inner}")).is_subdomain_of(&n(&inner)));
    }

    #[test]
    fn from_labels_builds_name() {
        let name = Name::from_labels(["x-1", "cache", "example"]).unwrap();
        assert_eq!(name, n("x-1.cache.example"));
    }
}
