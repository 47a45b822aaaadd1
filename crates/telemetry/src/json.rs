//! Minimal JSON writing — the pieces of JSON machinery the exporters
//! need. Strings and unsigned integers are written without `core::fmt`,
//! into any [`Text`] buffer: they are what every telemetry event is made
//! of, and a drain renders millions of them straight into bytes. Floats
//! go through Rust's shortest-roundtrip `Display`, which is already valid
//! JSON.

use std::fmt::Write;

/// A buffer JSON text is appended to: a `String`, or the byte buffer a
/// telemetry drain renders into and writes out as it is.
pub trait Text {
    /// Appends `s`.
    fn push_str(&mut self, s: &str);
    /// Appends bytes the caller knows are ASCII (digits, hex escapes).
    fn push_ascii(&mut self, ascii: &[u8]);
}

// The `#[inline]`s below let a drain in another crate inline these into
// its render loop: as out-of-line calls, a dozen per event, they cost a
// JSONL drain half its time again.
impl Text for String {
    #[inline]
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }

    #[inline]
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend(ascii.iter().map(|&b| char::from(b)));
    }
}

impl Text for Vec<u8> {
    #[inline]
    fn push_str(&mut self, s: &str) {
        self.extend_from_slice(s.as_bytes());
    }

    #[inline]
    fn push_ascii(&mut self, ascii: &[u8]) {
        self.extend_from_slice(ascii);
    }
}

/// `"00"`, `"01"`, … `"99"`: two decimal digits per table lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, exactly as `write!(out, "{v}")` would.
#[inline]
pub fn write_u64(out: &mut impl Text, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    out.push_ascii(&buf[at..]);
}

/// Appends `s` to `out` as a JSON string literal (quotes included),
/// escaping quotes, backslashes and control characters. The runs between
/// escapes are pushed whole, so a string needing none is one copy.
pub fn write_str(out: &mut impl Text, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push_str("\"");
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if !(b == b'"' || b == b'\\' || b < 0x20) {
            continue;
        }
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => out.push_ascii(&[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0x0f)],
            ]),
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push_str("\"");
}

/// Appends an `f64` as a JSON number. Non-finite values (which JSON
/// cannot represent) are emitted as `null`.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Strips the `"at_us": N, ` field from each line of a JSONL event
/// export, leaving everything else byte-identical.
///
/// Two runs of the same seeded chaos plan produce the same probe-level
/// event *sequence* but not the same wall-clock timestamps; diffing
/// `strip_at_us(a) == strip_at_us(b)` is the replay-identity check.
pub fn strip_at_us(jsonl: &str) -> String {
    const FIELD: &str = "\"at_us\": ";
    let mut out = String::with_capacity(jsonl.len());
    for line in jsonl.lines() {
        match line.find(FIELD) {
            Some(at) => {
                let tail = &line[at + FIELD.len()..];
                let digits = tail.chars().take_while(char::is_ascii_digit).count();
                let rest = tail[digits..].strip_prefix(", ").unwrap_or(&tail[digits..]);
                out.push_str(&line[..at]);
                out.push_str(rest);
            }
            None => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_timestamps_only() {
        let a = "{\"at_us\": 12345, \"campaign\": 1, \"kind\": \"probe_sent\"}\n";
        let b = "{\"at_us\": 99, \"campaign\": 1, \"kind\": \"probe_sent\"}\n";
        assert_eq!(strip_at_us(a), strip_at_us(b));
        assert_eq!(
            strip_at_us(a),
            "{\"campaign\": 1, \"kind\": \"probe_sent\"}\n"
        );
        // Lines without the field pass through untouched.
        assert_eq!(strip_at_us("{\"x\": 1}\n"), "{\"x\": 1}\n");
    }

    #[test]
    fn escapes_specials() {
        let mut out = String::new();
        write_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn integers_match_display_at_every_length() {
        let mut values = vec![0, 9, 10, 99, 100, u64::from(u32::MAX), u64::MAX];
        for digits in 1..20 {
            let p = 10u64.pow(digits);
            values.extend([p - 1, p, p + 1, p / 2 + 7]);
        }
        for v in values {
            let mut out = String::from("x");
            write_u64(&mut out, v);
            assert_eq!(out, format!("x{v}"));
        }
    }

    #[test]
    fn clean_and_escaped_runs_keep_their_text() {
        for (raw, json) in [
            ("", "\"\""),
            ("plain text", "\"plain text\""),
            ("héllo 日本", "\"héllo 日本\""),
            ("é\"\u{1f}x\r\t", "\"é\\\"\\u001fx\\r\\t\""),
            ("\u{0}\u{7f}", "\"\\u0000\u{7f}\""),
        ] {
            let mut out = String::new();
            write_str(&mut out, raw);
            assert_eq!(out, json, "{raw:?}");
        }
    }

    #[test]
    fn numbers_roundtrip() {
        let mut out = String::new();
        write_f64(&mut out, 1.5);
        out.push(' ');
        write_f64(&mut out, 3.0);
        out.push(' ');
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "1.5 3 null");
    }
}
