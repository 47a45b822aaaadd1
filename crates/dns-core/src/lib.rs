//! DNS substrate for the CDE (Caches Discovery and Enumeration)
//! reproduction.
//!
//! This crate implements the parts of the DNS the paper's measurement
//! techniques rely on, from scratch:
//!
//! * [`Name`] — case-normalised domain names with subdomain algebra, each
//!   one heap buffer holding its labels in uncompressed wire form (length
//!   octet, lowercased bytes, leftmost label first, no root octet). `Eq`
//!   and `Hash` read that buffer; `Ord` compares label by label, never
//!   byte-wise (see [`name`]),
//! * [`Record`]/[`RData`] — typed resource records (A, AAAA, NS, CNAME, MX,
//!   TXT, SPF, SOA, PTR, SRV, OPT and opaque),
//! * [`Message`] — full RFC 1035 wire encode/decode with name compression,
//! * [`Zone`] — authoritative answer synthesis including referrals, CNAME
//!   chains, wildcards, NODATA and NXDOMAIN.
//!
//! Referral responses and CNAME chains are not incidental features: the
//! paper's *names hierarchy* and *CNAME chain* local-cache bypasses
//! (§IV-B2) are built directly on them.
//!
//! # Examples
//!
//! Build the zone fragment the paper uses for the CNAME-chain bypass and
//! resolve one of the aliases:
//!
//! ```
//! use cde_dns::{Name, RData, Record, RecordType, Ttl, Zone};
//! use cde_dns::zone::LookupResult;
//! use std::net::Ipv4Addr;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let apex: Name = "cache.example".parse()?;
//! let mut zone = Zone::with_soa(apex.clone(), Ttl::from_secs(300));
//! let target = apex.prepend_label("name")?;
//! zone.add(Record::new(
//!     target.clone(),
//!     Ttl::from_secs(3600),
//!     RData::A(Ipv4Addr::new(198, 51, 100, 4)),
//! ))?;
//! for i in 1..=8 {
//!     zone.add(Record::new(
//!         apex.prepend_label(format!("x-{i}"))?,
//!         Ttl::from_secs(3600),
//!         RData::Cname(target.clone()),
//!     ))?;
//! }
//! match zone.lookup(&apex.prepend_label("x-3")?, RecordType::A) {
//!     LookupResult::Cname { chain, target_records } => {
//!         assert_eq!(chain.len(), 1);
//!         assert_eq!(target_records.len(), 1);
//!     }
//!     other => panic!("unexpected {other:?}"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod edns;
pub mod error;
pub mod master;
pub mod message;
pub mod name;
pub mod rr;
pub mod wire;
pub mod zone;

pub use edns::{Edns, EdnsMessage};
pub use error::{NameError, WireError, ZoneError};
pub use message::{Flags, Message, MessagePeek, Opcode, Question, Rcode};
pub use name::Name;
pub use rr::{RData, Record, RecordClass, RecordType, Soa, Ttl};
pub use zone::{LookupResult, Zone};
