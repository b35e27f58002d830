//! # me-survey
//!
//! The paper's two "offline" software-side analyses, rebuilt on synthetic
//! but structurally faithful corpora:
//!
//! - [`spack`] — the Spack dependency-distance analysis (Table III): a
//!   package-dependency graph with the documented shape of Spack 0.15.1
//!   (4,371 packages, 14 dense-linear-algebra providers, large py-*/R-*
//!   sub-package families) and the BFS distance computation over it,
//! - [`klog`] — the K-computer batch-job analysis (§III-A): a synthetic
//!   operational database for April 2018 – March 2019 (487,563 jobs,
//!   543 M node-hours, 96% symbol coverage, domain mix from the K annual
//!   report) and the `nm`-symbol-table GEMM attribution query that yields
//!   the paper's 53.4% upper bound.

pub mod klog;
pub mod spack;

pub use klog::{generate_k_corpus, JobRecord, KDomain, KlogSummary};
pub use spack::{spack_ecosystem, DistanceRow, PackageGraph};
