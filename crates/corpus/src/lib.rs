//! # ea-corpus — synthetic Google Play corpus + manifest analyzer
//!
//! The paper's Figure 2 reports, over 1,124 popular Google Play apps in 28
//! categories (reverse-engineered with APKTool), the prevalence of the
//! three collateral-attack preconditions:
//!
//! * 72 % declare an **exported component** (IPC vector),
//! * 81 % request **`WAKE_LOCK`** (wakelock vector),
//! * 21 % request **`WRITE_SETTINGS`** (screen vector).
//!
//! We have no Play Store, so [`generate_corpus`] synthesises a manifest
//! corpus whose per-category prevalence profiles reproduce those aggregates,
//! and [`analyze`] is a real static analyzer over the generated manifests —
//! the same inspection APKTool enables, minus the APK container.
//!
//! ## Example
//!
//! ```
//! use ea_corpus::{analyze, generate_corpus, CorpusConfig};
//!
//! let corpus = generate_corpus(&CorpusConfig::paper(), 42);
//! assert_eq!(corpus.len(), 1124);
//! let stats = analyze(&corpus);
//! assert!((stats.exported_percent() - 72.0).abs() < 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod analyze;
mod generate;
mod xml;

pub use analyze::{analyze, CategoryStats, CorpusStats};
pub use generate::{generate_corpus, CategoryProfile, CorpusConfig, CATEGORIES};
pub use xml::{parse_manifest_xml, to_manifest_xml, ManifestParseError};
