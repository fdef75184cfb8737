//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (§IV) on the simulated 32-core CMP.
//!
//! The `experiments` binary drives [`experiments`]; each figure function
//! returns structured rows and also renders the same series the paper
//! plots.

pub mod ablation;
pub mod experiments;
pub mod lab;
pub mod svgplot;
pub mod table;
pub mod tmlab;

pub use experiments::*;
pub use lab::{ConfigPoint, Lab, Point};
pub use tmlab::BatchReport;
