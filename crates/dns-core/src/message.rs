//! DNS messages: header, questions and full encode/decode.

use crate::error::WireError;
use crate::name::Name;
use crate::rr::{Record, RecordClass, RecordType};
use crate::wire::{WireReader, WireWriter};
use std::fmt;

/// Operation codes (RFC 1035 §4.1.1). Only QUERY appears in the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Opcode {
    /// Standard query.
    #[default]
    Query,
    /// Inverse query (obsolete).
    IQuery,
    /// Server status request.
    Status,
    /// Any other opcode value.
    Other(u8),
}

impl Opcode {
    /// Numeric opcode value (4 bits).
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Query => 0,
            Opcode::IQuery => 1,
            Opcode::Status => 2,
            Opcode::Other(v) => v & 0x0F,
        }
    }

    /// Maps the 4-bit opcode field.
    pub fn from_u8(v: u8) -> Opcode {
        match v & 0x0F {
            0 => Opcode::Query,
            1 => Opcode::IQuery,
            2 => Opcode::Status,
            other => Opcode::Other(other),
        }
    }
}

/// Response codes (RFC 1035 §4.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rcode {
    /// No error.
    #[default]
    NoError,
    /// Format error.
    FormErr,
    /// Server failure.
    ServFail,
    /// Name does not exist (authoritative).
    NxDomain,
    /// Not implemented.
    NotImp,
    /// Query refused by policy.
    Refused,
    /// Any other rcode.
    Other(u8),
}

impl Rcode {
    /// Numeric rcode (4 bits).
    pub fn to_u8(self) -> u8 {
        match self {
            Rcode::NoError => 0,
            Rcode::FormErr => 1,
            Rcode::ServFail => 2,
            Rcode::NxDomain => 3,
            Rcode::NotImp => 4,
            Rcode::Refused => 5,
            Rcode::Other(v) => v & 0x0F,
        }
    }

    /// Maps the 4-bit rcode field.
    pub fn from_u8(v: u8) -> Rcode {
        match v & 0x0F {
            0 => Rcode::NoError,
            1 => Rcode::FormErr,
            2 => Rcode::ServFail,
            3 => Rcode::NxDomain,
            4 => Rcode::NotImp,
            5 => Rcode::Refused,
            other => Rcode::Other(other),
        }
    }
}

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Flags {
    /// Response (vs query).
    pub qr: bool,
    /// Operation code.
    pub opcode: Opcode,
    /// Authoritative answer.
    pub aa: bool,
    /// Truncated.
    pub tc: bool,
    /// Recursion desired.
    pub rd: bool,
    /// Recursion available.
    pub ra: bool,
    /// Response code.
    pub rcode: Rcode,
}

impl Flags {
    /// Packs the flags into the header's second 16-bit word.
    pub fn to_u16(self) -> u16 {
        let mut v = 0u16;
        if self.qr {
            v |= 0x8000;
        }
        v |= (self.opcode.to_u8() as u16) << 11;
        if self.aa {
            v |= 0x0400;
        }
        if self.tc {
            v |= 0x0200;
        }
        if self.rd {
            v |= 0x0100;
        }
        if self.ra {
            v |= 0x0080;
        }
        v |= self.rcode.to_u8() as u16;
        v
    }

    /// Unpacks the header's second 16-bit word.
    pub fn from_u16(v: u16) -> Flags {
        Flags {
            qr: v & 0x8000 != 0,
            opcode: Opcode::from_u8((v >> 11) as u8),
            aa: v & 0x0400 != 0,
            tc: v & 0x0200 != 0,
            rd: v & 0x0100 != 0,
            ra: v & 0x0080 != 0,
            rcode: Rcode::from_u8(v as u8),
        }
    }
}

/// A question: name, type and class.
///
/// # Examples
///
/// ```
/// use cde_dns::{Question, RecordType};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = Question::new("name.cache.example".parse()?, RecordType::A);
/// assert_eq!(q.qtype(), RecordType::A);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Question {
    qname: Name,
    qtype: RecordType,
    qclass: RecordClass,
}

impl Question {
    /// Creates an `IN`-class question.
    pub fn new(qname: Name, qtype: RecordType) -> Question {
        Question {
            qname,
            qtype,
            qclass: RecordClass::In,
        }
    }

    /// Queried name.
    pub fn qname(&self) -> &Name {
        &self.qname
    }

    /// Queried type.
    pub fn qtype(&self) -> RecordType {
        self.qtype
    }

    /// Queried class.
    pub fn qclass(&self) -> RecordClass {
        self.qclass
    }

    fn encode(&self, w: &mut WireWriter) {
        w.put_name(&self.qname);
        w.put_u16(self.qtype.to_u16());
        w.put_u16(self.qclass.to_u16());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Question, WireError> {
        Ok(Question {
            qname: r.read_name()?,
            qtype: RecordType::from_u16(r.read_u16()?),
            qclass: RecordClass::from_u16(r.read_u16()?),
        })
    }
}

impl fmt::Display for Question {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.qname, self.qclass, self.qtype)
    }
}

/// A complete DNS message.
///
/// # Examples
///
/// ```
/// use cde_dns::{Message, Question, RecordType};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let query = Message::query(
///     0x2b1d,
///     Question::new("x-1.cache.example".parse()?, RecordType::A),
/// );
/// let bytes = query.encode()?;
/// let back = Message::decode(&bytes)?;
/// assert_eq!(back, query);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Transaction identifier.
    pub id: u16,
    /// Header flags.
    pub flags: Flags,
    /// Question section.
    pub questions: Vec<Question>,
    /// Answer section.
    pub answers: Vec<Record>,
    /// Authority section (NS records of referrals live here).
    pub authorities: Vec<Record>,
    /// Additional section (glue, OPT).
    pub additionals: Vec<Record>,
}

impl Message {
    /// Builds a recursion-desired query with a single question.
    pub fn query(id: u16, question: Question) -> Message {
        Message {
            id,
            flags: Flags {
                rd: true,
                ..Flags::default()
            },
            questions: vec![question],
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// Builds a response skeleton echoing `query`'s id and question.
    pub fn response_to(query: &Message) -> Message {
        Message {
            id: query.id,
            flags: Flags {
                qr: true,
                opcode: query.flags.opcode,
                rd: query.flags.rd,
                ra: true,
                ..Flags::default()
            },
            questions: query.questions.clone(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        }
    }

    /// First question, if any. Virtually all real traffic has exactly one.
    pub fn question(&self) -> Option<&Question> {
        self.questions.first()
    }

    /// `true` when this is a response.
    pub fn is_response(&self) -> bool {
        self.flags.qr
    }

    /// Encodes to wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] when the encoded form exceeds
    /// 65 535 octets.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w)?;
        Ok(w.into_bytes())
    }

    /// Encodes into a reusable writer, clearing it first. The encoded
    /// message is left in `w` (read it via [`WireWriter::as_slice`]);
    /// the writer keeps its buffer across calls, so steady-state encoding
    /// does not allocate.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] when the encoded form exceeds
    /// 65 535 octets.
    pub fn encode_into(&self, w: &mut WireWriter) -> Result<(), WireError> {
        encode_parts(
            w,
            self.id,
            self.flags,
            &self.questions,
            [&self.answers, &self.authorities, &self.additionals],
        )
    }

    /// Encodes the response to a query directly into `w`, clearing it
    /// first, without constructing a [`Message`]. This is the serving
    /// hot path: with a warm writer it performs zero allocations.
    ///
    /// The query is given by its `id`, its header flags and its question
    /// section. The layout is identical to
    /// `Message::response_to(&query).encode()` after setting the
    /// response's rcode to `rcode` and its answers to `answers`: QR and
    /// RA set, opcode and RD echoed, AA and TC clear, every question
    /// echoed as decoded (lowercased name, qtype, qclass), the answers
    /// after them, and names compressed alike.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::MessageTooLong`] when the encoded form exceeds
    /// 65 535 octets.
    pub fn encode_response_into(
        w: &mut WireWriter,
        id: u16,
        query_flags: Flags,
        questions: &[Question],
        rcode: Rcode,
        answers: &[Record],
    ) -> Result<(), WireError> {
        let flags = Flags {
            qr: true,
            opcode: query_flags.opcode,
            rd: query_flags.rd,
            ra: true,
            rcode,
            ..Flags::default()
        };
        encode_parts(w, id, flags, questions, [answers, &[], &[]])
    }

    /// Encodes a recursion-desired single-question `IN`-class query
    /// directly into `w`, without constructing a [`Message`]. This is the
    /// probe hot path: with a warm writer it performs zero allocations.
    ///
    /// The layout is identical to
    /// `Message::query(id, Question::new(qname, qtype)).encode()`, and a
    /// single question can never exceed the 64 KiB message limit, so this
    /// is infallible.
    pub fn encode_query_into(w: &mut WireWriter, id: u16, qname: &Name, qtype: RecordType) {
        w.clear();
        w.put_u16(id);
        w.put_u16(
            Flags {
                rd: true,
                ..Flags::default()
            }
            .to_u16(),
        );
        w.put_u16(1); // qdcount
        w.put_u16(0); // ancount
        w.put_u16(0); // nscount
        w.put_u16(0); // arcount
        w.put_name(qname);
        w.put_u16(qtype.to_u16());
        w.put_u16(RecordClass::In.to_u16());
    }

    /// Decodes a full message, rejecting trailing bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on truncation, malformed names/records, or
    /// trailing bytes beyond the declared section counts.
    pub fn decode(bytes: &[u8]) -> Result<Message, WireError> {
        let mut r = WireReader::new(bytes);
        let id = r.read_u16()?;
        let flags = Flags::from_u16(r.read_u16()?);
        let qd = r.read_u16()? as usize;
        let an = r.read_u16()? as usize;
        let ns = r.read_u16()? as usize;
        let ar = r.read_u16()? as usize;
        // Reject counts the payload cannot possibly hold before any
        // count-sized allocation: a question is at least 5 bytes (1-byte
        // root name + type + class), a record at least 11 (root name +
        // type + class + TTL + empty RDATA). Untrusted datagrams can
        // otherwise claim 65535 sections from a 12-byte header and drive
        // `Vec::with_capacity` allocations far past the input size.
        const MIN_QUESTION: usize = 5;
        const MIN_RECORD: usize = 11;
        let need = qd
            .saturating_mul(MIN_QUESTION)
            .saturating_add((an + ns + ar).saturating_mul(MIN_RECORD));
        if need > r.remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let mut questions = Vec::with_capacity(qd);
        for _ in 0..qd {
            questions.push(Question::decode(&mut r)?);
        }
        let mut read_section = |count: usize| -> Result<Vec<Record>, WireError> {
            let mut out = Vec::with_capacity(count);
            for _ in 0..count {
                out.push(Record::decode(&mut r)?);
            }
            Ok(out)
        };
        let answers = read_section(an)?;
        let authorities = read_section(ns)?;
        let additionals = read_section(ar)?;
        if !r.is_at_end() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(Message {
            id,
            flags,
            questions,
            answers,
            authorities,
            additionals,
        })
    }
}

/// Writes a whole message into `w`, clearing it first: the one layout
/// behind [`Message::encode_into`] and [`Message::encode_response_into`].
fn encode_parts(
    w: &mut WireWriter,
    id: u16,
    flags: Flags,
    questions: &[Question],
    sections: [&[Record]; 3],
) -> Result<(), WireError> {
    w.clear();
    w.put_u16(id);
    w.put_u16(flags.to_u16());
    w.put_u16(questions.len() as u16);
    for section in sections {
        w.put_u16(section.len() as u16);
    }
    for q in questions {
        q.encode(w);
    }
    for section in sections {
        for rr in section {
            rr.encode(w)?;
        }
    }
    if w.len() > u16::MAX as usize {
        return Err(WireError::MessageTooLong);
    }
    Ok(())
}

/// A zero-copy view of a DNS message header plus the location of its
/// question section.
///
/// Response matching on a measurement hot path only needs the id, the
/// header flags and a comparison of the echoed question against the
/// outstanding probe — a full [`Message::decode`] allocates section
/// vectors and owned names for data that is immediately discarded.
/// `MessagePeek` borrows the datagram instead and performs no heap
/// allocation at all.
///
/// # Examples
///
/// ```
/// use cde_dns::{Message, MessagePeek, Question, RecordType};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let qname = "x-1.cache.example".parse()?;
/// let query = Message::query(0x2b1d, Question::new(qname, RecordType::A));
/// let bytes = query.encode()?;
///
/// let peek = MessagePeek::parse(&bytes)?;
/// assert_eq!(peek.id(), 0x2b1d);
/// assert!(!peek.is_response());
/// assert!(peek.question_matches(&"x-1.cache.example".parse()?, RecordType::A)?);
/// assert!(!peek.question_matches(&"other.example".parse()?, RecordType::A)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MessagePeek<'a> {
    bytes: &'a [u8],
    id: u16,
    flags: Flags,
    qdcount: u16,
    record_count: usize,
    question_start: usize,
}

impl<'a> MessagePeek<'a> {
    /// Parses the 12-byte header, borrowing the datagram.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::UnexpectedEof`] when `bytes` is shorter than
    /// a DNS header.
    pub fn parse(bytes: &'a [u8]) -> Result<MessagePeek<'a>, WireError> {
        let mut r = WireReader::new(bytes);
        let id = r.read_u16()?;
        let flags = Flags::from_u16(r.read_u16()?);
        let qdcount = r.read_u16()?;
        // The an/ns/ar counts; the question section starts right after.
        let mut record_count = 0;
        for _ in 0..3 {
            record_count += r.read_u16()? as usize;
        }
        Ok(MessagePeek {
            bytes,
            id,
            flags,
            qdcount,
            record_count,
            question_start: 12,
        })
    }

    /// Transaction id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Header flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// `true` when the QR bit marks this as a response.
    pub fn is_response(&self) -> bool {
        self.flags.qr
    }

    /// Declared question count.
    pub fn qdcount(&self) -> u16 {
        self.qdcount
    }

    /// Declared record count of the answer, authority and additional
    /// sections together.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Reads the first question into `question`, returning the offset
    /// just past it, without allocating when the name is unchanged.
    ///
    /// A server answering a run of identical queries passes the same
    /// `question` each time: when the wire name equals `question`'s
    /// name (case-insensitively, see [`WireReader::name_matches`]) the
    /// name is kept, and only a different name is read into a fresh
    /// [`Name`]. The result is the question [`Message::decode`] would
    /// have read. On an error `question` is left as it was.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the message declares no question, or
    /// when its first question is truncated or malformed.
    pub fn read_question(&self, question: &mut Question) -> Result<usize, WireError> {
        if self.qdcount == 0 {
            return Err(WireError::UnexpectedEof);
        }
        let mut r = WireReader::new_at(self.bytes, self.question_start);
        let fresh = if r.name_matches(&question.qname)? {
            None
        } else {
            r = WireReader::new_at(self.bytes, self.question_start);
            Some(r.read_name()?)
        };
        let qtype = RecordType::from_u16(r.read_u16()?);
        let qclass = RecordClass::from_u16(r.read_u16()?);
        if let Some(qname) = fresh {
            question.qname = qname;
        }
        question.qtype = qtype;
        question.qclass = qclass;
        Ok(r.position())
    }

    /// Checks whether the first question is exactly `(qname, qtype)` in
    /// class `IN`, without allocating.
    ///
    /// A message with no question section returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] when the question section is structurally
    /// malformed (truncated or bad compression).
    pub fn question_matches(&self, qname: &Name, qtype: RecordType) -> Result<bool, WireError> {
        if self.qdcount == 0 {
            return Ok(false);
        }
        let mut r = WireReader::new_at(self.bytes, self.question_start);
        let name_ok = r.name_matches(qname)?;
        let wire_qtype = r.read_u16()?;
        let wire_qclass = r.read_u16()?;
        Ok(name_ok && wire_qtype == qtype.to_u16() && wire_qclass == RecordClass::In.to_u16())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rr::{RData, Ttl};
    use std::net::Ipv4Addr;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    #[test]
    fn opcode_rcode_roundtrip() {
        for op in [
            Opcode::Query,
            Opcode::IQuery,
            Opcode::Status,
            Opcode::Other(7),
        ] {
            assert_eq!(Opcode::from_u8(op.to_u8()), op);
        }
        for rc in [
            Rcode::NoError,
            Rcode::FormErr,
            Rcode::ServFail,
            Rcode::NxDomain,
            Rcode::NotImp,
            Rcode::Refused,
            Rcode::Other(9),
        ] {
            assert_eq!(Rcode::from_u8(rc.to_u8()), rc);
        }
    }

    #[test]
    fn flags_bits_roundtrip() {
        let f = Flags {
            qr: true,
            opcode: Opcode::Query,
            aa: true,
            tc: false,
            rd: true,
            ra: true,
            rcode: Rcode::NxDomain,
        };
        assert_eq!(Flags::from_u16(f.to_u16()), f);
    }

    #[test]
    fn flags_qr_bit_is_msb() {
        let f = Flags {
            qr: true,
            ..Flags::default()
        };
        assert_eq!(f.to_u16() & 0x8000, 0x8000);
    }

    #[test]
    fn query_roundtrip() {
        let q = Message::query(
            0xABCD,
            Question::new(name("x-1.cache.example"), RecordType::A),
        );
        let bytes = q.encode().unwrap();
        assert_eq!(Message::decode(&bytes).unwrap(), q);
    }

    #[test]
    fn query_sets_rd() {
        let q = Message::query(1, Question::new(name("a.b"), RecordType::Txt));
        assert!(q.flags.rd);
        assert!(!q.is_response());
    }

    #[test]
    fn response_echoes_id_and_question() {
        let q = Message::query(42, Question::new(name("a.b"), RecordType::Mx));
        let mut resp = Message::response_to(&q);
        resp.answers.push(Record::new(
            name("a.b"),
            Ttl::from_secs(60),
            RData::Mx {
                preference: 10,
                exchange: name("mail.a.b"),
            },
        ));
        assert_eq!(resp.id, 42);
        assert!(resp.is_response());
        assert_eq!(resp.question(), q.question());
        let bytes = resp.encode().unwrap();
        assert_eq!(Message::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn full_message_with_all_sections_roundtrips() {
        let q = Message::query(7, Question::new(name("w.sub.cache.example"), RecordType::A));
        let mut resp = Message::response_to(&q);
        resp.flags.aa = true;
        resp.answers.push(Record::new(
            name("w.sub.cache.example"),
            Ttl::from_secs(30),
            RData::A(Ipv4Addr::new(192, 0, 2, 1)),
        ));
        resp.authorities.push(Record::new(
            name("sub.cache.example"),
            Ttl::from_secs(3600),
            RData::Ns(name("ns.sub.cache.example")),
        ));
        resp.additionals.push(Record::new(
            name("ns.sub.cache.example"),
            Ttl::from_secs(3600),
            RData::A(Ipv4Addr::new(192, 0, 2, 53)),
        ));
        let bytes = resp.encode().unwrap();
        let back = Message::decode(&bytes).unwrap();
        assert_eq!(back, resp);
        assert_eq!(back.authorities.len(), 1);
        assert_eq!(back.additionals.len(), 1);
    }

    #[test]
    fn compression_shrinks_repeated_names() {
        let q = Message::query(7, Question::new(name("host.cache.example"), RecordType::A));
        let mut resp = Message::response_to(&q);
        for i in 0..4 {
            resp.answers.push(Record::new(
                name("host.cache.example"),
                Ttl::from_secs(30),
                RData::A(Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        let bytes = resp.encode().unwrap();
        // Owner name of each answer should be a 2-byte pointer, so the
        // whole message stays well under the uncompressed size.
        let uncompressed = 12
            + name("host.cache.example").wire_len()
            + 4
            + 4 * (name("host.cache.example").wire_len() + 10 + 4);
        assert!(bytes.len() < uncompressed);
        assert_eq!(Message::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn encode_query_into_matches_message_encode() {
        let qname = name("x-17.cache.example");
        let full = Message::query(0x5ace, Question::new(qname.clone(), RecordType::Txt))
            .encode()
            .unwrap();
        let mut w = WireWriter::new();
        // Dirty the writer first: encode_query_into must clear it.
        w.put_u16(0xFFFF);
        Message::encode_query_into(&mut w, 0x5ace, &qname, RecordType::Txt);
        assert_eq!(w.as_slice(), &full[..]);
    }

    #[test]
    fn encode_response_into_matches_response_to_encode() {
        let qname = name("Host.Cache.Example");
        let answers = [
            Record::new(
                qname.clone(),
                Ttl::from_secs(30),
                RData::A(Ipv4Addr::new(192, 0, 2, 1)),
            ),
            Record::new(
                name("host.cache.example"),
                Ttl::from_secs(30),
                RData::Cname(name("other.cache.example")),
            ),
        ];
        let mut query = Message::query(0x77, Question::new(qname, RecordType::A));
        query
            .questions
            .push(Question::new(name("b.example"), RecordType::Mx));
        let mut w = WireWriter::new();
        for (opcode, rd, rcode, n_answers) in [
            (Opcode::Query, true, Rcode::NoError, 2),
            (Opcode::Status, false, Rcode::NxDomain, 0),
            (Opcode::Other(9), true, Rcode::Refused, 1),
        ] {
            query.flags.opcode = opcode;
            query.flags.rd = rd;
            query.flags.aa = true;
            let mut resp = Message::response_to(&query);
            resp.flags.rcode = rcode;
            resp.answers = answers[..n_answers].to_vec();
            // Dirty the writer first: encode_response_into must clear it.
            w.put_u16(0xFFFF);
            Message::encode_response_into(
                &mut w,
                query.id,
                query.flags,
                &query.questions,
                rcode,
                &answers[..n_answers],
            )
            .unwrap();
            assert_eq!(w.as_slice(), &resp.encode().unwrap()[..]);
        }
    }

    #[test]
    fn read_question_keeps_an_equal_name_and_replaces_another() {
        let bytes = Message::query(1, Question::new(name("MiXeD.cache.example"), RecordType::A))
            .encode()
            .unwrap();
        let peek = MessagePeek::parse(&bytes).unwrap();
        let mut q = Question::new(name("mixed.cache.example"), RecordType::Txt);
        let kept = q.qname().wire().as_ptr();
        assert_eq!(peek.read_question(&mut q).unwrap(), bytes.len());
        assert_eq!(
            q.qname().wire().as_ptr(),
            kept,
            "an equal name is not re-read"
        );
        assert_eq!(&q, Message::decode(&bytes).unwrap().question().unwrap());

        let mut other = Question::new(name("other.example"), RecordType::A);
        peek.read_question(&mut other).unwrap();
        assert_eq!(&other, &q);

        // A truncated question leaves the reused question untouched.
        let short = MessagePeek::parse(&bytes[..bytes.len() - 1]).unwrap();
        assert!(short.read_question(&mut other).is_err());
        assert_eq!(&other, &q);
        let empty = MessagePeek::parse(&bytes[..12]).unwrap();
        assert!(empty.read_question(&mut other).is_err());
        let mut header = bytes[..12].to_vec();
        header[5] = 0;
        assert!(MessagePeek::parse(&header)
            .unwrap()
            .read_question(&mut other)
            .is_err());
    }

    #[test]
    fn peek_counts_records() {
        let q = Message::query(7, Question::new(name("a.b"), RecordType::A));
        let mut resp = Message::response_to(&q);
        for i in 0..3 {
            resp.answers.push(Record::new(
                name("a.b"),
                Ttl::from_secs(30),
                RData::A(Ipv4Addr::new(192, 0, 2, i)),
            ));
        }
        resp.additionals.push(resp.answers[0].clone());
        let bytes = resp.encode().unwrap();
        assert_eq!(MessagePeek::parse(&bytes).unwrap().record_count(), 4);
        let bytes = q.encode().unwrap();
        assert_eq!(MessagePeek::parse(&bytes).unwrap().record_count(), 0);
    }

    #[test]
    fn encode_into_reuses_writer() {
        let a = Message::query(1, Question::new(name("a.cache.example"), RecordType::A));
        let b = Message::query(2, Question::new(name("b.cache.example"), RecordType::A));
        let mut w = WireWriter::new();
        a.encode_into(&mut w).unwrap();
        assert_eq!(w.as_slice(), &a.encode().unwrap()[..]);
        b.encode_into(&mut w).unwrap();
        assert_eq!(w.as_slice(), &b.encode().unwrap()[..]);
    }

    #[test]
    fn peek_reads_header_and_question() {
        let qname = name("probe.cache.example");
        let q = Message::query(0xBEEF, Question::new(qname.clone(), RecordType::A));
        let mut resp = Message::response_to(&q);
        resp.answers.push(Record::new(
            qname.clone(),
            Ttl::from_secs(60),
            RData::A(Ipv4Addr::new(192, 0, 2, 5)),
        ));
        let bytes = resp.encode().unwrap();
        let peek = MessagePeek::parse(&bytes).unwrap();
        assert_eq!(peek.id(), 0xBEEF);
        assert!(peek.is_response());
        assert_eq!(peek.qdcount(), 1);
        assert_eq!(peek.flags().rcode, Rcode::NoError);
        assert!(peek.question_matches(&qname, RecordType::A).unwrap());
        assert!(!peek.question_matches(&qname, RecordType::Txt).unwrap());
        assert!(!peek
            .question_matches(&name("other.cache.example"), RecordType::A)
            .unwrap());
    }

    #[test]
    fn peek_question_match_is_case_insensitive() {
        let q = Message::query(9, Question::new(name("MiXeD.Cache.Example"), RecordType::A));
        let bytes = q.encode().unwrap();
        let peek = MessagePeek::parse(&bytes).unwrap();
        assert!(peek
            .question_matches(&name("mixed.cache.example"), RecordType::A)
            .unwrap());
    }

    #[test]
    fn peek_rejects_short_and_empty_question() {
        assert!(MessagePeek::parse(&[0u8; 11]).is_err());
        // Header-only message (qdcount = 0): parses, matches nothing.
        let m = Message {
            id: 3,
            flags: Flags::default(),
            questions: Vec::new(),
            answers: Vec::new(),
            authorities: Vec::new(),
            additionals: Vec::new(),
        };
        let bytes = m.encode().unwrap();
        let peek = MessagePeek::parse(&bytes).unwrap();
        assert!(!peek.question_matches(&name("a.b"), RecordType::A).unwrap());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let q = Message::query(1, Question::new(name("a.b"), RecordType::A));
        let mut bytes = q.encode().unwrap();
        bytes.push(0);
        assert!(matches!(
            Message::decode(&bytes).unwrap_err(),
            WireError::TrailingBytes(1)
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert_eq!(
            Message::decode(&[0, 1, 2]).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn section_count_overrun_rejected() {
        let q = Message::query(1, Question::new(name("a.b"), RecordType::A));
        let mut bytes = q.encode().unwrap();
        // Claim one answer that is not present.
        bytes[7] = 1;
        assert_eq!(
            Message::decode(&bytes).unwrap_err(),
            WireError::UnexpectedEof
        );
    }
}
