//! # gopt-workloads — benchmark graphs and query sets
//!
//! The paper evaluates GOpt on the LDBC Social Network Benchmark (Interactive and
//! Business Intelligence workloads) plus four purpose-built query sets (QR, QT, QC, ST)
//! and a production fraud-detection case study. This crate provides laptop-scale,
//! fully synthetic stand-ins:
//!
//! * [`ldbc`] — an LDBC-SNB-like schema and a scalable social-network generator with
//!   power-law degree skew (Table 3's G30…G1000 become configurable scale factors);
//! * [`fraud`] — the transfer graph used by the s-t path case study (Fig. 11);
//! * [`queries`] — the query sets: simplified IC1–IC12 and BI1–BI18 CGPs, the
//!   heuristic-rule probes QR1–QR8, the type-inference probes QT1–QT5, the CBO probes
//!   QC1–QC4 (a = BasicTypes, b = UnionTypes), the s-t path queries ST1–ST5, and Gremlin
//!   variants of the QR/QC sets for the multi-language experiment (Fig. 8(e)).

pub mod fraud;
pub mod ldbc;
pub mod queries;

pub use fraud::{generate_fraud_graph, FraudConfig};
pub use ldbc::{generate_ldbc_graph, ldbc_schema, LdbcScale};
pub use queries::{
    bi_queries, ic_queries, qc_queries, qr_gremlin_queries, qr_queries, qt_queries, st_queries,
    NamedQuery,
};
