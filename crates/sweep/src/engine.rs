//! The sweep executor: runs a [`Sweep`]'s job grid on the shared
//! pool and packages results, timings, and serialization.
//!
//! Determinism contract: [`SweepRun::to_json`] depends only on the sweep
//! description — it is byte-identical across runs and thread counts
//! (the pool restores submission order, every job is a pure function of
//! its point, and the JSON layer formats floats reproducibly). Timing
//! lives in the separate [`SweepRun::timing_json`], which is expected to
//! differ run to run and feeds the benchmark baseline.

use std::time::Duration;

use cqla_core::{
    CqlaConfig, EvalCtx, HierarchyConfig, HierarchyResult, HierarchyStudy, SpecializationResult,
    SpecializationStudy,
};

use crate::frame;
use crate::json::{Json, ToJson};
use crate::pool;
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

/// One executed job: point, outcome, and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// The design point evaluated.
    pub point: DesignPoint,
    /// What it computed.
    pub outcome: PointOutcome,
    /// Wall-clock time of this job on its worker.
    pub duration: Duration,
}

impl JobResult {
    /// This result's entry in the sweep document's `results` array — the
    /// unit [`crate::frame::fragment`] re-indents into a streamed
    /// fragment. Deterministic: duration is excluded.
    #[must_use]
    pub fn result_json(&self) -> Json {
        result_entry(&self.point, &self.outcome)
    }
}

fn result_entry(point: &DesignPoint, outcome: &PointOutcome) -> Json {
    Json::obj([("point", point.to_json()), ("outcome", outcome.to_json())])
}

/// A completed sweep: every job result in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRun {
    name: String,
    threads: usize,
    results: Vec<JobResult>,
}

impl SweepRun {
    /// Executes the sweep on `threads` workers (see
    /// [`pool::default_threads`] for the all-cores default).
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
        Self::run(sweep, threads, |_, _| {})
    }

    /// Executes the sweep, handing each result's `results` entry to
    /// `on_result` in submission order, as [`pool::map_streamed`]
    /// delivers — the hook behind streamed sweep jobs.
    #[must_use]
    pub fn execute_streamed(
        sweep: &Sweep,
        threads: usize,
        on_result: impl Fn(usize, &Json) + Sync,
    ) -> Self {
        let points = sweep.points();
        Self::run(sweep, threads, |index, outcome| {
            on_result(index, &result_entry(&points[index], outcome));
        })
    }

    fn run(sweep: &Sweep, threads: usize, deliver: impl Fn(usize, &PointOutcome) + Sync) -> Self {
        // Record the *effective* worker count (the pool clamps to the job
        // count): the timing document is the cross-PR perf baseline, and
        // a phantom thread count would make comparisons misleading.
        let threads = threads.clamp(1, sweep.len().max(1));
        // One memoization context for the whole run: points share DAG
        // schedules, cache-simulator passes, and ECC tables across
        // worker threads, and each shared key is computed once (a worker
        // racing another onto the same key waits for its value).
        let ctx = EvalCtx::new();
        let timed = pool::map_streamed(
            sweep.points(),
            threads,
            |_, point| PointOutcome::evaluate_ctx(point, &ctx),
            deliver,
        );
        let results = sweep
            .points()
            .iter()
            .zip(timed)
            .map(|(point, t)| JobResult {
                point: *point,
                outcome: t.value,
                duration: t.duration,
            })
            .collect();
        Self {
            name: sweep.name().to_owned(),
            threads,
            results,
        }
    }

    /// The sweep document's head fields, shared by [`SweepRun::to_json`]
    /// and the streamed [`crate::frame::prologue`].
    #[must_use]
    pub fn head(name: &str, points: usize) -> Vec<(&'static str, Json)> {
        vec![("sweep", Json::from(name)), ("points", points.to_json())]
    }

    /// The sweep's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Worker count the run used.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Per-job results in submission order.
    #[must_use]
    pub fn results(&self) -> &[JobResult] {
        &self.results
    }

    /// The deterministic result document: depends only on the sweep
    /// description, never on thread count or timing.
    #[must_use]
    pub fn to_json(&self) -> Json {
        frame::document(
            Self::head(&self.name, self.results.len()),
            self.results.iter().map(JobResult::result_json).collect(),
        )
    }

    /// The timing document: per-job wall-clock plus aggregate stats.
    /// Not deterministic — this is the benchmark-baseline artifact.
    #[must_use]
    pub fn timing_json(&self) -> Json {
        let total: Duration = self.results.iter().map(|r| r.duration).sum();
        let slowest = self
            .results
            .iter()
            .max_by_key(|r| r.duration)
            .map(|r| {
                Json::obj([
                    ("point", Json::from(r.point.label())),
                    ("seconds", Json::Num(r.duration.as_secs_f64())),
                ])
            })
            .unwrap_or(Json::Null);
        Json::obj([
            ("sweep", Json::from(self.name.as_str())),
            ("threads", self.threads.to_json()),
            ("points", self.results.len().to_json()),
            ("cpu_seconds_total", Json::Num(total.as_secs_f64())),
            (
                "mean_job_seconds",
                Json::Num(if self.results.is_empty() {
                    0.0
                } else {
                    total.as_secs_f64() / self.results.len() as f64
                }),
            ),
            ("slowest_job", slowest),
            (
                "job_seconds",
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| Json::Num(r.duration.as_secs_f64()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Renders the paper-style text table for terminal output.
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
        for r in &self.results {
            let s = &r.outcome.specialization;
            let (l1, gp) = r.outcome.hierarchy.as_ref().map_or_else(
                || ("-".to_owned(), "-".to_owned()),
                |h| (fmt3(h.l1_speedup), fmt3(h.gain_product_conservative)),
            );
            t.push_row([
                r.point.label(),
                fmt3(s.area_reduction),
                fmt3(s.speedup),
                fmt3(s.gain_product),
                l1,
                gp,
            ]);
        }
        format!(
            "sweep {}: {} points on {} thread(s)\n{}",
            self.name,
            self.results.len(),
            self.threads,
            t
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    fn small_sweep() -> Sweep {
        Sweep::parse("base.xfer=10 tech=current,projected code=steane,bacon-shor width=32,64")
            .unwrap()
    }

    #[test]
    fn parallel_run_matches_serial_run_exactly() {
        let sweep = small_sweep();
        let serial = SweepRun::execute(&sweep, 1);
        let parallel = SweepRun::execute(&sweep, 4);
        assert_eq!(serial.results().len(), parallel.results().len());
        for (s, p) in serial.results().iter().zip(parallel.results()) {
            assert_eq!(s.point, p.point);
            assert_eq!(s.outcome, p.outcome, "point {}", s.point.label());
        }
        // The deterministic documents are byte-identical.
        assert_eq!(serial.to_json().to_pretty(), parallel.to_json().to_pretty());
    }

    #[test]
    fn shared_ctx_computes_each_key_once_at_any_thread_count() {
        let sweep = Sweep::builtin("grid").unwrap();
        let misses = |threads| {
            let ctx = EvalCtx::new();
            pool::map(sweep.points(), threads, |_, point| {
                PointOutcome::evaluate_ctx(point, &ctx)
            });
            ctx.counters().1
        };
        // Pinned: a table caching a fact another table already holds
        // shows up as extra misses.
        assert_eq!(misses(1), 50);
        for threads in 2..=8 {
            assert_eq!(misses(threads), 50, "threads {threads}");
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
        assert_eq!(run.threads(), sweep.len(), "clamped to the job count");
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
        let run = SweepRun::execute(&Sweep::builtin("quick").unwrap(), 2);
        let text = run.render_text();
        for r in run.results() {
            assert!(text.contains(&r.point.label()), "{}", r.point.label());
        }
    }

    #[test]
    fn streamed_framing_concatenates_to_the_merged_document() {
        for spec in ["quick", "table5"] {
            let sweep = Sweep::builtin(spec).unwrap();
            let fragments = Mutex::new(String::new());
            let run = SweepRun::execute_streamed(&sweep, 3, |index, result| {
                fragments
                    .lock()
                    .unwrap()
                    .push_str(&frame::fragment(index, result));
            });
            let streamed = format!(
                "{}{}{}",
                frame::prologue(SweepRun::head(run.name(), run.results().len())),
                fragments.into_inner().unwrap(),
                frame::DOCUMENT_EPILOGUE
            );
            assert_eq!(
                streamed,
                format!("{}\n", run.to_json().to_pretty()),
                "spec {spec:?}"
            );
        }
    }

    #[test]
    fn sink_sees_every_result_in_submission_order() {
        let sweep = Sweep::builtin("quick").unwrap();
        for threads in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let run = SweepRun::execute_streamed(&sweep, threads, |index, result| {
                seen.lock().unwrap().push((index, result.clone()));
            });
            let doc = run.to_json();
            let results = doc.get("results").and_then(Json::as_arr).unwrap();
            let expected: Vec<(usize, Json)> = results.iter().cloned().enumerate().collect();
            assert_eq!(seen.into_inner().unwrap(), expected, "threads {threads}");
        }
    }
}
