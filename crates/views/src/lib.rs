//! # fgc-views — citation views: (V, C_V, F_V) triples and JSON
//! citations
//!
//! Implements Definition 2.1 of *"A Model for Fine-Grained Data
//! Citation"* (CIDR 2017) for the `fgcite` workspace:
//!
//! * [`json`] — the citation value type, its serializers, and the
//!   record *union* / *join* combinators the paper offers as natural
//!   interpretations of `·` and `+R` (Example 3.5);
//! * [`function`] — citation functions `F_V` as a small declarative
//!   mapping language (scalar / collect / constant / nested group),
//!   plus a closure escape hatch;
//! * [`view`] — the citation-view triple with validation
//!   (shared parameter lists, `X ⊆ Y`, schema conformance) and
//!   instantiation (`F_V(C_V(Y')(a₁..aₙ))`);
//! * [`registry`] — the owner-declared view set, with extent
//!   materialization for the rewriting engine;
//! * [`mod@format`] — XML and human-readable text renderings of
//!   citations (Def. 2.1 names "JSON or XML" as target formats).

#![warn(missing_docs)]

pub mod format;
pub mod function;
pub mod json;
pub mod registry;
pub mod spec;
pub mod view;

pub use format::{to_text, to_xml, TextStyle};
pub use function::{CitationFunction, FieldSpec};
pub use json::{join_records, union_all, union_records, Json};
pub use registry::ViewRegistry;
pub use spec::parse_view_file;
pub use view::{CitationView, Result as ViewResult, ViewError};
