//! The paper's artifact catalog: one [`Experiment`] per table and figure
//! of the evaluation, plus the `verify` self-checks and the `machine`
//! configuration pricer.
//!
//! Every experiment is a typed parameter struct with paper defaults
//! (`Table4 { tech }`, `Fig2 { bits, cap }`, …) whose [`Experiment::run`]
//! produces both the text rendering the paper prints and the structured
//! JSON value. The [`registry`] enumerates all of them; the `cqla` CLI,
//! the benchmark harness (`crates/bench`), the end-to-end tests and the
//! examples all iterate it instead of naming generators one by one. The
//! per-cell functions ([`table4_row_ctx`], [`fig7_cell_ctx`], …) remain
//! exported so callers can evaluate one grid cell on a shared
//! [`EvalCtx`](crate::EvalCtx) and still match the registry output
//! bitwise.
//!
//! Parameters are *typed*: every experiment declares [`ParamSpec`]s
//! ([`Domain`] + paper default), and the [`grid`] module parses
//! `key=value-set` expressions (`bits=32..=128:*2`, `base.tech=current`)
//! against that declared surface — value sets are first-class on every
//! registry entry, from every front end.

mod api;
mod apps;
mod compile;
mod figures;
pub mod grid;
mod machine;
mod tables;
mod verify;

pub use api::{
    apply_overrides, find, ids, listing_json, params_usage, parse_bits, parse_code, parse_positive,
    parse_ratio, parse_source, parse_tech, registry, suggest, unknown_key, Domain, Experiment,
    ExperimentOutput, Param, ParamError, ParamSpec, BITS_ACCEPTS, CODE_ACCEPTS, INT_ACCEPTS,
    RATIO_ACCEPTS, SOURCE_ACCEPTS, TECH_ACCEPTS,
};
pub use apps::{fig8a_row_ctx, fig8b_row, AppTimeRow, Fig8a, Fig8b, FIG8A_SIZES, FIG8B_SIZES};
pub use compile::{Compile, CompileSource};
pub use cqla_iontrap::TechPoint;
pub use figures::{
    fig6a_cell_ctx, fig6b_series, fig7_cell_ctx, Fig2, Fig2Data, Fig6a, Fig6aRow, Fig6b, Fig6bData,
    Fig7, Fig7Row, FIG6A_BLOCKS, FIG6A_SIZES, FIG6B_BLOCKS, FIG7_FACTORS, FIG7_SIZES,
};
pub use grid::{is_set_clause, Grid};
pub use machine::Machine;
pub use tables::{
    primary_blocks, table4_row_ctx, table5_row_ctx, Table1, Table2, Table3, Table3Data, Table4,
    Table4Row, Table5, Table5Row, TABLE5_PAR_XFER, TABLE5_SIZES,
};
pub use verify::Verify;
