//! The transport every `mphpc` process shares: the JSON dialect
//! ([`json`]), the HTTP/1.1 subset ([`http`]) and a blocking client
//! ([`client`]).
//!
//! `mphpc-serve` reads requests and writes replies with these modules,
//! `mphpc-sched`'s federated RPV provider asks a server through
//! [`client`], and `mphpc-telemetry` writes its JSONL with [`json`]'s
//! escaping, so one grammar and one writer serve all three. The crate is
//! std-only and links only `mphpc-errors`.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod json;
