//! # filterscope-match
//!
//! Pattern-matching engines used by the Blue Coat policy simulator and by the
//! censorship-inference analysis:
//!
//! * [`AhoCorasick`] — a from-scratch multi-pattern substring automaton. The
//!   SG-9000 string filter is "a simple string-matching engine that detects
//!   any blacklisted substring in the URL" (§5.4); an Aho–Corasick automaton
//!   is the canonical way to run that set-membership scan in a single pass.
//! * [`DomainIndex`] — flat reversed-label suffix index for domain
//!   blacklists and the category oracle (`facebook.com` must match
//!   `www.facebook.com` and `.il` must match any Israeli ccTLD host).
//! * [`CidrSet`] — sorted, merged interval set over IPv4 space for subnet
//!   blacklists (the Israeli-subnet block of Table 12).
//! * [`AcDfa`] — dense-DFA form of [`AhoCorasick`], decision-identical by
//!   construction, built for the compiled policy artifact
//!   (`filterscope compile`): it, [`DomainIndex`] and [`CidrSet`] serialize
//!   through `filterscope_core::bytes` and deserialize with fail-closed
//!   validation.
//! * [`naive`] — deliberately simple reference implementations used in
//!   property tests and ablation benches.

#![forbid(unsafe_code)]

pub mod aho_corasick;
pub mod cidr_set;
pub mod dfa;
pub mod domain_index;
pub mod naive;

pub use aho_corasick::{AhoCorasick, Match};
pub use cidr_set::CidrSet;
pub use dfa::AcDfa;
pub use domain_index::DomainIndex;
