//! The sweep document: the legacy `{"sweep", "points", "results"}`
//! rendering of a [`Sweep`], run on the grid executor.
//!
//! [`SweepRun::execute`] hands a sweep's grids to [`GridRun::run`] with
//! [`DesignPoint`] as the experiment, so every design-space sweep fans
//! out through the same pool call, evaluation context and streaming
//! hook as a registry grid. What stays here is the renderer: the sweep
//! document's head and entries, its text table, and its timing
//! document.
//!
//! Determinism contract: [`SweepRun::to_json`] depends only on the sweep
//! description — it is byte-identical across runs and thread counts
//! (the pool restores submission order, every point is a pure function
//! of its overrides, and the JSON layer formats floats reproducibly).
//! Timing lives in the separate [`SweepRun::timing_json`], which is
//! expected to differ run to run and feeds the benchmark baseline.

use std::time::Duration;

use cqla_core::{
    CqlaConfig, EvalCtx, HierarchyConfig, HierarchyResult, HierarchyStudy, SpecializationResult,
    SpecializationStudy,
};

use crate::frame;
use crate::grid::{GridPoint, GridRun};
use crate::json::{Json, ToJson};
use crate::spec::{DesignPoint, Sweep};

/// What the engine computes at one design point: always the flat-CQLA
/// specialization; the memory hierarchy too when the point asks for
/// transfer channels.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Flat CQLA evaluation (Table 4 quantities).
    pub specialization: SpecializationResult,
    /// Memory-hierarchy evaluation (Table 5 quantities), when
    /// `par_xfer` is set.
    pub hierarchy: Option<HierarchyResult>,
}

impl PointOutcome {
    /// Evaluates one design point against a memoization context — the
    /// pure function the pool fans out. Neighboring grid points differ
    /// in one axis and share the rest, so a sweep-wide `ctx` lets each
    /// DAG schedule, cache-simulator pass, and ECC table be computed once
    /// per distinct key instead of once per point. The outcome is
    /// byte-identical whether `ctx` is shared or fresh.
    #[must_use]
    pub fn evaluate_ctx(point: &DesignPoint, ctx: &EvalCtx) -> Self {
        let tech = point.tech.params();
        let specialization = SpecializationStudy::new(&tech).evaluate_ctx(
            CqlaConfig::new(point.code, point.input_bits, point.blocks),
            ctx,
        );
        let hierarchy = point.par_xfer.map(|par_xfer| {
            let mut config =
                HierarchyConfig::new(point.code, point.input_bits, par_xfer, point.blocks);
            config.cache_factor = point.cache_factor;
            HierarchyStudy::new(&tech).evaluate_ctx(config, ctx)
        });
        Self {
            specialization,
            hierarchy,
        }
    }
}

impl ToJson for PointOutcome {
    fn to_json(&self) -> Json {
        Json::obj([
            ("specialization", self.specialization.to_json()),
            ("hierarchy", self.hierarchy.to_json()),
        ])
    }
}

/// A completed sweep: every design point's [`GridPoint`] in submission
/// order, rendered as the sweep document.
#[derive(Debug, Clone)]
pub struct SweepRun {
    name: String,
    threads: usize,
    run: GridRun,
}

impl SweepRun {
    /// Executes the sweep on `threads` workers (see
    /// [`crate::pool::default_threads`] for the all-cores default).
    ///
    /// # Examples
    ///
    /// ```
    /// use cqla_sweep::{Sweep, SweepRun};
    ///
    /// let sweep = Sweep::builtin("quick").unwrap();
    /// let run = SweepRun::execute(&sweep, 2);
    /// assert_eq!(run.results().len(), sweep.len());
    /// ```
    #[must_use]
    pub fn execute(sweep: &Sweep, threads: usize) -> Self {
        Self {
            name: sweep.name().to_owned(),
            // Record the *effective* worker count (the pool clamps to the
            // job count): the timing document is the cross-PR perf
            // baseline, and a phantom thread count would mislead.
            threads: threads.clamp(1, sweep.len().max(1)),
            run: GridRun::run(sweep.grids(), threads, new_point, None, |_, _| {}),
        }
    }

    /// The sweep document's head fields, shared by [`SweepRun::to_json`]
    /// and the streamed [`crate::frame::prologue`].
    #[must_use]
    pub fn head(name: &str, points: usize) -> Vec<(&'static str, Json)> {
        vec![("sweep", Json::from(name)), ("points", points.to_json())]
    }

    /// A point's entry in the sweep document's `results` array — the
    /// design point's `{"point", "outcome"}` data, which
    /// [`crate::frame::fragment`] re-indents into a streamed fragment.
    #[must_use]
    pub fn entry(point: &GridPoint) -> Json {
        point.data.clone()
    }

    /// The sweep's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-point results in submission order.
    #[must_use]
    pub fn results(&self) -> &[GridPoint] {
        self.run.points()
    }

    /// The deterministic result document: depends only on the sweep
    /// description, never on thread count or timing.
    #[must_use]
    pub fn to_json(&self) -> Json {
        frame::document(
            Self::head(&self.name, self.results().len()),
            self.results().iter().map(Self::entry).collect(),
        )
    }

    /// The timing document: per-job wall-clock plus aggregate stats.
    /// Not deterministic — this is the benchmark-baseline artifact.
    #[must_use]
    pub fn timing_json(&self) -> Json {
        let results = self.results();
        let total: Duration = results.iter().map(|r| r.duration).sum();
        let slowest = results
            .iter()
            .max_by_key(|r| r.duration)
            .map(|r| {
                Json::obj([
                    ("point", Json::from(r.text.as_str())),
                    ("seconds", Json::Num(r.duration.as_secs_f64())),
                ])
            })
            .unwrap_or(Json::Null);
        Json::obj([
            ("sweep", Json::from(self.name.as_str())),
            ("threads", self.threads.to_json()),
            ("points", results.len().to_json()),
            ("cpu_seconds_total", Json::Num(total.as_secs_f64())),
            (
                "mean_job_seconds",
                Json::Num(if results.is_empty() {
                    0.0
                } else {
                    total.as_secs_f64() / results.len() as f64
                }),
            ),
            ("slowest_job", slowest),
            (
                "job_seconds",
                Json::Arr(
                    results
                        .iter()
                        .map(|r| Json::Num(r.duration.as_secs_f64()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the paper-style text table for terminal output: one row
    /// per point, headed by its label, read from its `outcome`.
    #[must_use]
    pub fn render_text(&self) -> String {
        use cqla_core::report::{fmt3, TextTable};
        let mut t = TextTable::new([
            "point",
            "area x",
            "speedup",
            "GP(flat)",
            "L1 speedup",
            "GP(1:2)",
        ]);
        for r in self.results() {
            // A flat point's `hierarchy` is null, so its cells read "-".
            let cell = |study: &str, field: &str| {
                r.data
                    .get("outcome")
                    .and_then(|o| o.get(study)?.get(field)?.as_f64())
                    .map_or_else(|| "-".to_owned(), fmt3)
            };
            t.push_row([
                r.text.clone(),
                cell("specialization", "area_reduction"),
                cell("specialization", "speedup"),
                cell("specialization", "gain_product"),
                cell("hierarchy", "l1_speedup"),
                cell("hierarchy", "gain_product_conservative"),
            ]);
        }
        format!(
            "sweep {}: {} points on {} thread(s)\n{}",
            self.name,
            self.results().len(),
            self.threads,
            t
        )
    }
}

/// The experiment every sweep point starts from, before its overrides.
pub(crate) fn new_point() -> Box<dyn cqla_core::experiments::Experiment> {
    Box::new(DesignPoint::paper_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn small_sweep() -> Sweep {
        Sweep::parse("base.xfer=10 tech=current,projected code=steane,bacon-shor width=32,64")
            .unwrap()
    }

    /// Runs `sweep` on the grid executor and collects what its callback
    /// sees: each point's index and its entry in the sweep document.
    fn streamed(sweep: &Sweep, threads: usize) -> Vec<(usize, Json)> {
        let seen = Mutex::new(Vec::new());
        let _ = GridRun::run(sweep.grids(), threads, new_point, None, |index, point| {
            seen.lock().unwrap().push((index, SweepRun::entry(point)));
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let sweep = small_sweep();
        let serial = SweepRun::execute(&sweep, 1);
        let parallel = SweepRun::execute(&sweep, 4);
        assert_eq!(serial.results().len(), parallel.results().len());
        for (s, p) in serial.results().iter().zip(parallel.results()) {
            assert_eq!(s.overrides, p.overrides);
            assert_eq!(s.data, p.data, "point {}", s.text);
        }
        // The deterministic documents are byte-identical.
        assert_eq!(serial.to_json().to_pretty(), parallel.to_json().to_pretty());
    }

    #[test]
    fn shared_ctx_computes_each_key_once_at_any_thread_count() {
        // table4 is twelve grids: they share one context too.
        for (name, pinned) in [("grid", 50), ("table4", 44)] {
            let sweep = Sweep::builtin(name).unwrap();
            let misses = |threads| {
                let ctx = EvalCtx::new();
                let _ = GridRun::run_in(&ctx, sweep.grids(), threads, new_point, None, |_, _| {});
                ctx.counters().1
            };
            // Pinned: a table caching a fact another table already holds
            // shows up as extra misses.
            assert_eq!(misses(1), pinned, "{name}");
            for threads in 2..=8 {
                assert_eq!(misses(threads), pinned, "{name} threads {threads}");
            }
        }
    }

    #[test]
    fn hierarchy_evaluated_only_when_requested() {
        let flat = DesignPoint::paper_default();
        assert!(PointOutcome::evaluate_ctx(&flat, &EvalCtx::new())
            .hierarchy
            .is_none());
        let mut with = flat;
        with.par_xfer = Some(10);
        let outcome = PointOutcome::evaluate_ctx(&with, &EvalCtx::new());
        let h = outcome.hierarchy.expect("hierarchy requested");
        assert!(h.l1_speedup > 1.0);
        // Both views price the same flat machine.
        assert_eq!(
            outcome.specialization.config.compute_blocks(),
            h.config.blocks
        );
    }

    #[test]
    fn cache_factor_flows_into_the_hierarchy_config() {
        let mut p = DesignPoint::paper_default();
        p.par_xfer = Some(10);
        p.cache_factor = 1.5;
        let h = PointOutcome::evaluate_ctx(&p, &EvalCtx::new())
            .hierarchy
            .unwrap();
        assert!((h.config.cache_factor - 1.5).abs() < 1e-12);
    }

    #[test]
    fn json_document_has_one_result_per_point() {
        let sweep = Sweep::builtin("quick").unwrap();
        let run = SweepRun::execute(&sweep, 2);
        let doc = run.to_json();
        assert_eq!(
            doc.get("results").unwrap().as_arr().unwrap().len(),
            sweep.len()
        );
        // And it parses back.
        assert!(crate::json::parse(&doc.to_pretty()).is_ok());
    }

    #[test]
    fn recorded_thread_count_is_the_effective_one() {
        let sweep = Sweep::builtin("quick").unwrap();
        let run = SweepRun::execute(&sweep, 64);
        assert_eq!(
            run.timing_json().get("threads").unwrap().as_f64(),
            Some(sweep.len() as f64)
        );
    }

    #[test]
    fn timing_json_reports_stats() {
        let run = SweepRun::execute(&Sweep::builtin("quick").unwrap(), 2);
        let t = run.timing_json();
        assert!(t.get("cpu_seconds_total").unwrap().as_f64().unwrap() > 0.0);
        assert_eq!(
            t.get("job_seconds").unwrap().as_arr().unwrap().len(),
            run.results().len()
        );
    }

    #[test]
    fn text_rendering_lists_every_point() {
        let sweep = Sweep::builtin("quick").unwrap();
        let text = SweepRun::execute(&sweep, 2).render_text();
        for point in sweep.points() {
            assert!(text.contains(&point.label()), "{}", point.label());
        }
    }

    #[test]
    fn streamed_framing_concatenates_to_the_merged_document() {
        for spec in ["quick", "table4", "table5"] {
            let sweep = Sweep::builtin(spec).unwrap();
            let fragments: String = streamed(&sweep, 3)
                .iter()
                .map(|(index, entry)| frame::fragment(*index, entry))
                .collect();
            let run = SweepRun::execute(&sweep, 1);
            assert_eq!(
                format!(
                    "{}{fragments}{}",
                    frame::prologue(SweepRun::head(run.name(), run.results().len())),
                    frame::DOCUMENT_EPILOGUE
                ),
                format!("{}\n", run.to_json().to_pretty()),
                "spec {spec:?}"
            );
        }
    }

    #[test]
    fn sink_sees_every_result_in_submission_order() {
        let sweep = Sweep::builtin("quick").unwrap();
        for threads in [1, 4] {
            let doc = SweepRun::execute(&sweep, threads).to_json();
            let results = doc.get("results").and_then(Json::as_arr).unwrap();
            let expected: Vec<(usize, Json)> = results.iter().cloned().enumerate().collect();
            assert_eq!(streamed(&sweep, threads), expected, "threads {threads}");
        }
    }
}
