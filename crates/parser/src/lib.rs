//! # gopt-parser — query language front-ends
//!
//! GOpt supports multiple query languages by lowering each of them into the same unified
//! GIR (`gopt-gir`). The paper builds its front-ends with ANTLR; this crate substitutes
//! hand-written recursive-descent parsers covering the language subsets exercised by the
//! paper's examples and workloads:
//!
//! * [`cypher`] — `MATCH` patterns (including variable-length paths), `WHERE`, `WITH`,
//!   `RETURN` (with aggregates), `ORDER BY`, `LIMIT`, `UNION`;
//! * [`gremlin`] — `g.V()` traversals with `hasLabel`/`has`/`as`/`out`/`in`/`both`,
//!   `match(..)`, `select`, `values`, `groupCount().by(..)`, `count`, `order().by(..)`,
//!   `dedup`, `limit`.
//!
//! Both parsers resolve label names against a [`gopt_graph::GraphSchema`] and produce a
//! [`gopt_gir::LogicalPlan`]; the same query written in either language produces an
//! equivalent plan, which is what enables GOpt to optimize both identically.

pub mod cypher;
pub mod error;
pub mod gremlin;
pub mod lexer;

pub use cypher::parse_cypher;
pub use error::ParseError;
pub use gremlin::parse_gremlin;
