//! # filterscope-logformat
//!
//! The Blue Coat SG-9000 access-log format used by the leaked Syrian proxy
//! logs (Telecomix, October 2011), and the request classification scheme of
//! §3.3 of the paper.
//!
//! The leaked files are comma-separated W3C ELFF ("extended log file
//! format") with 26 fields per record. This crate fixes the field schema
//! ([`fields::FIELDS`]), provides a typed [`LogRecord`], a strict-but-
//! recoverable parser ([`parse_line`], [`LogReader`]), a writer that
//! round-trips ([`LogRecord::write_csv`]), and the four-way traffic
//! classification ([`RequestClass`]) every analysis in the paper is built on.
//!
//! ## Schema note
//!
//! The exact leaked schema is Blue Coat's `main` format. We reproduce the 26
//! fields the paper works with (Table 2 plus the standard `main`-format
//! companions). Where the paper names a field (`cs-uri-ext`,
//! `cs-user-agent`, …) we use the paper's spelling.

#![forbid(unsafe_code)]

pub mod anonymize;
pub mod block;
pub mod classify;
pub mod csv;
pub mod enums;
pub mod fields;
pub mod frame;
pub mod reader;
pub mod record;
pub mod scan;
pub mod schema;
pub mod url;
pub mod view;

pub use block::{scan_sections, BlockParser, BlockReader, FileSections, DEFAULT_BLOCK_BYTES};
pub use classify::{PolicyClass, RequestClass};
pub use csv::LineSplitter;
pub use enums::{ClientId, ExceptionId, FilterResult, Method, SAction, Scheme};
pub use frame::{Frame, FrameKind};
pub use reader::{LogReader, LogWriter};
pub use record::{parse_line, LogRecord};
pub use schema::Schema;
pub use url::RequestUrl;
pub use view::{parse_view, RecordView, UrlView};
