//! Grid execution: run a registry-driven [`Grid`] on the shared
//! pool and merge the per-point artifact documents.
//!
//! A [`Grid`] (parsed by [`cqla_core::experiments::grid`] against an
//! experiment's declared parameters) expands to a deterministic,
//! submission-order list of parameter assignments. [`GridRun::execute`]
//! fans one job out per point — each job resolves a fresh registry
//! instance, applies the point's overrides, and runs it — and the
//! results merge into one JSON document:
//!
//! ```json
//! {
//!   "artifact": "fig2",
//!   "grid": "bits=32..=128:*2",
//!   "points": 3,
//!   "results": [{"params": {"bits": "32", "cap": "15"}, "data": …}, …]
//! }
//! ```
//!
//! Sweep documents share this framing ([`crate::frame`]). Determinism
//! contract: like [`crate::SweepRun::to_json`], the merged document
//! depends only on the grid description — byte-identical across runs and
//! thread counts. The CLI (`cqla run <id> k=set…`,
//! `cqla sweep <id> k=set…`) and the HTTP service (`GET /v1/run/{id}`,
//! `POST /v1/sweep/{id}`) all emit exactly this document, which is what
//! lets the service cache *per point*: every point's single-run body is
//! the same bytes a direct single-value request would produce, exposed
//! through the [`PointCache`] hook.

use cqla_core::experiments::{find, Grid};
use cqla_core::json::Json;
use cqla_core::EvalCtx;

use crate::{frame, pool};

/// One executed grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// The clause-level overrides that select this point (base + axis
    /// assignments, in clause order) — what a user would pass to
    /// `cqla run <id>` to reproduce it alone.
    pub overrides: Vec<(String, String)>,
    /// The fully resolved parameter surface after applying the
    /// overrides (declared order, rendered values).
    pub params: Vec<(String, String)>,
    /// The structured result (the single-run document's `data`).
    pub data: Json,
    /// The paper-style text rendering. Empty when the point was served
    /// from a [`PointCache`] (cached bodies carry only the JSON).
    pub text: String,
    /// Whether the experiment's self-checks passed.
    pub passed: bool,
}

impl GridPoint {
    /// This point's entry in the merged document's `results` array —
    /// the unit [`crate::frame::fragment`] re-indents into a streamed
    /// fragment.
    #[must_use]
    pub fn result_json(&self) -> Json {
        Json::obj([
            (
                "params",
                Json::obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                ),
            ),
            ("data", self.data.clone()),
        ])
    }
}

/// A per-point result cache the grid executor reads through — the HTTP
/// service plugs its results cache in here, so a grid run reuses
/// previously computed single-run documents and leaves one cache entry
/// per point behind.
///
/// Bodies are *single-run bodies*: the pretty `{"artifact", "data"}`
/// document plus trailing newline — exactly what a single-value request
/// produces. `compute` runs the point and returns its body, or `None`
/// for a run that failed its self-checks; implementations store only
/// `Some` bodies (the body format does not record the verdict, so a
/// cached point is reported as passed). An implementation may coalesce
/// concurrent calls on one point onto a single `compute`.
pub trait PointCache: Sync {
    /// The cached body for these overrides, or the one `compute`
    /// produces — `None` when it produced none.
    fn get_or_compute(
        &self,
        overrides: &[(String, String)],
        compute: &mut dyn FnMut() -> Option<String>,
    ) -> Option<String>;
}

/// The pass-through cache behind plain [`GridRun::execute`].
pub(crate) struct NoCache;

impl PointCache for NoCache {
    fn get_or_compute(
        &self,
        _overrides: &[(String, String)],
        compute: &mut dyn FnMut() -> Option<String>,
    ) -> Option<String> {
        compute()
    }
}

/// A completed grid run: every point's document in submission order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridRun {
    id: String,
    spec: String,
    points: Vec<GridPoint>,
}

impl GridRun {
    /// Executes every grid point on `threads` workers.
    ///
    /// # Examples
    ///
    /// ```
    /// use cqla_core::experiments::{find, Grid};
    /// use cqla_sweep::grid::GridRun;
    ///
    /// let exp = find("fig2").unwrap();
    /// let grid = Grid::parse("fig2", &exp.specs(), "bits=8,16").unwrap();
    /// let run = GridRun::execute(&grid, 2);
    /// assert_eq!(run.points().len(), 2);
    /// assert!(run.passed());
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the grid names an experiment the registry no longer
    /// has, or a value `Experiment::set` rejects — both impossible for
    /// grids produced by [`Grid::parse`], which validates id and values
    /// against the same registry surface (the completeness test in
    /// `tests/registry.rs` pins that contract).
    #[must_use]
    pub fn execute(grid: &Grid, threads: usize) -> Self {
        Self::run(grid, threads, &NoCache, |_, _| {})
    }

    /// Executes the grid, reading each point through `cache` (populating
    /// it on misses) and handing each point's `results` entry to
    /// `on_point` in submission order, as [`pool::map_streamed`]
    /// delivers — the hook behind the HTTP service's streamed grid
    /// responses and jobs. Cached points keep their JSON but have no
    /// text rendering (cached bodies are JSON documents). A blocking
    /// `on_point` (a slow client's socket) stalls delivery, not
    /// correctness; the serving path bounds it with write timeouts.
    ///
    /// # Panics
    ///
    /// As [`GridRun::execute`].
    #[must_use]
    pub fn execute_streamed(
        grid: &Grid,
        threads: usize,
        cache: &dyn PointCache,
        on_point: impl Fn(usize, &Json) + Sync,
    ) -> Self {
        Self::run(grid, threads, cache, |index, point| {
            on_point(index, &point.result_json());
        })
    }

    fn run(
        grid: &Grid,
        threads: usize,
        cache: &dyn PointCache,
        deliver: impl Fn(usize, &GridPoint) + Sync,
    ) -> Self {
        let id = grid.id().to_owned();
        // One evaluation context for the whole grid: neighboring points
        // share most memo keys, each computed once across the workers.
        let ctx = EvalCtx::new();
        let points = pool::map_streamed(
            &grid.points(),
            threads,
            |_, overrides| run_point(&id, overrides, cache, &ctx),
            deliver,
        )
        .into_iter()
        .map(|t| t.value)
        .collect();
        Self {
            id,
            spec: grid.spec().to_owned(),
            points,
        }
    }

    /// The grid document's head fields, shared by [`GridRun::to_json`]
    /// and the streamed [`crate::frame::prologue`].
    #[must_use]
    pub fn head(id: &str, spec: &str, points: usize) -> Vec<(&'static str, Json)> {
        vec![
            ("artifact", Json::from(id)),
            ("grid", Json::from(spec)),
            ("points", Json::Int(points as i64)),
        ]
    }

    /// The experiment id the grid ran.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The expression text the grid was parsed from.
    #[must_use]
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Per-point results in submission order.
    #[must_use]
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }

    /// Whether every point's self-checks passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.points.iter().all(|p| p.passed)
    }

    /// The merged grid document. Deterministic: depends only on the
    /// grid description, never on thread count or cache state.
    #[must_use]
    pub fn to_json(&self) -> Json {
        frame::document(
            Self::head(&self.id, &self.spec, self.points.len()),
            self.points.iter().map(GridPoint::result_json).collect(),
        )
    }

    /// Renders the paper-style text for terminal output: one banner and
    /// rendering per point.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = format!(
            "grid {}: {} point(s){}\n",
            self.id,
            self.points.len(),
            if self.spec.is_empty() {
                String::new()
            } else {
                format!(" ({})", self.spec)
            }
        );
        for p in &self.points {
            let assignment = p
                .overrides
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "\n== {}{}{} ==\n{}\n",
                self.id,
                if assignment.is_empty() { "" } else { " " },
                assignment,
                p.text
            ));
        }
        out
    }
}

/// Executes one grid point: resolve the experiment, apply the
/// overrides, and read it through the cache, running it on a miss.
fn run_point(
    id: &str,
    overrides: &[(String, String)],
    cache: &dyn PointCache,
    ctx: &EvalCtx,
) -> GridPoint {
    let mut exp = find(id).expect("grid experiment is registered");
    for (key, value) in overrides {
        exp.set(key, value)
            .expect("grid-validated value accepted by set");
    }
    let params: Vec<(String, String)> = exp
        .params()
        .iter()
        .map(|p| (p.key.to_owned(), p.value.clone()))
        .collect();
    let mut computed = None;
    let body = cache.get_or_compute(overrides, &mut || {
        let output = exp.run_ctx(ctx);
        // Failing runs are never cached: the cached body cannot carry
        // the verdict, so a hit is reported as passed.
        let body = output
            .passed
            .then(|| format!("{}\n", output.document(id).to_pretty()));
        computed = Some(output);
        body
    });
    if computed.is_none() {
        let data = body.and_then(|b| cqla_core::json::parse(&b).ok()?.get("data").cloned());
        if let Some(data) = data {
            return GridPoint {
                overrides: overrides.to_vec(),
                params,
                data,
                text: String::new(),
                passed: true,
            };
        }
    }
    // Computed here, or the cached body was unreadable.
    let output = computed.unwrap_or_else(|| exp.run_ctx(ctx));
    GridPoint {
        overrides: overrides.to_vec(),
        params,
        data: output.data,
        text: output.text,
        passed: output.passed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqla_core::experiments;
    use std::sync::Mutex;

    fn grid(id: &str, expr: &str) -> Grid {
        let exp = find(id).unwrap();
        Grid::parse(id, &exp.specs(), expr).unwrap()
    }

    #[test]
    fn grid_run_matches_single_runs_pointwise() {
        let run = GridRun::execute(&grid("fig2", "bits=8..=32:*2"), 3);
        assert_eq!(run.points().len(), 3);
        for (point, bits) in run.points().iter().zip(["8", "16", "32"]) {
            let mut exp = find("fig2").unwrap();
            exp.set("bits", bits).unwrap();
            let single = exp.run();
            assert_eq!(point.data, single.data, "bits={bits}");
            assert_eq!(point.text, single.text, "bits={bits}");
            assert_eq!(point.params[0], ("bits".to_owned(), bits.to_owned()));
        }
        assert!(run.passed());
    }

    #[test]
    fn merged_document_is_deterministic_across_thread_counts() {
        let g = grid("fig2", "bits=8,16,24 cap=4,8");
        let serial = GridRun::execute(&g, 1).to_json().to_pretty();
        let parallel = GridRun::execute(&g, 4).to_json().to_pretty();
        assert_eq!(serial, parallel);
        let doc = cqla_core::json::parse(&serial).unwrap();
        assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("fig2"));
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(6.0));
        assert_eq!(
            doc.get("results").and_then(Json::as_arr).map(<[_]>::len),
            Some(6)
        );
    }

    #[test]
    fn compile_seed_grids_are_deterministic_across_thread_counts() {
        // The compile workload generator is seeded, so a grid over
        // seeds must be as reproducible as any analytic experiment:
        // the merged document is byte-identical however the pool
        // splits the points.
        let g = grid("compile", "seed=1,2,3,4 qubits=8 gates=48");
        let serial = GridRun::execute(&g, 1).to_json().to_pretty();
        let parallel = GridRun::execute(&g, 4).to_json().to_pretty();
        assert_eq!(serial, parallel);
        let doc = cqla_core::json::parse(&serial).unwrap();
        assert_eq!(doc.get("artifact").and_then(Json::as_str), Some("compile"));
        assert_eq!(doc.get("points").and_then(Json::as_f64), Some(4.0));
    }

    #[test]
    fn point_cache_is_read_through_and_populated() {
        struct MapCache(Mutex<std::collections::HashMap<String, String>>);
        impl MapCache {
            fn get(&self, overrides: &[(String, String)]) -> Option<String> {
                self.0
                    .lock()
                    .unwrap()
                    .get(&format!("{overrides:?}"))
                    .cloned()
            }
        }
        impl PointCache for MapCache {
            fn get_or_compute(
                &self,
                overrides: &[(String, String)],
                compute: &mut dyn FnMut() -> Option<String>,
            ) -> Option<String> {
                if let Some(body) = self.get(overrides) {
                    return Some(body);
                }
                let body = compute()?;
                self.0
                    .lock()
                    .unwrap()
                    .insert(format!("{overrides:?}"), body.clone());
                Some(body)
            }
        }
        let cache = MapCache(Mutex::new(std::collections::HashMap::new()));
        let g = grid("fig2", "bits=8,16");
        let cold = GridRun::execute_streamed(&g, 2, &cache, |_, _| {});
        assert_eq!(cache.0.lock().unwrap().len(), 2, "one entry per point");
        // Every cached body is the exact single-run document.
        for point in cold.points() {
            let mut exp = find("fig2").unwrap();
            for (k, v) in &point.overrides {
                exp.set(k, v).unwrap();
            }
            let expected = format!("{}\n", exp.run().document("fig2").to_pretty());
            assert_eq!(cache.get(&point.overrides).as_deref(), Some(&*expected));
        }
        // A warm run produces the same merged document without text.
        let warm = GridRun::execute_streamed(&g, 2, &cache, |_, _| {});
        assert_eq!(warm.to_json().to_pretty(), cold.to_json().to_pretty());
        assert!(warm.points().iter().all(|p| p.text.is_empty()));
    }

    #[test]
    fn empty_expression_runs_the_default_point() {
        let run = GridRun::execute(&grid("table2", ""), 1);
        assert_eq!(run.points().len(), 1);
        let default = experiments::find("table2").unwrap().run();
        assert_eq!(run.points()[0].data, default.data);
        assert!(run.render_text().contains("== table2 =="));
    }

    #[test]
    fn streamed_framing_concatenates_to_the_merged_document() {
        for expr in ["", "bits=8,16 cap=4,8", "bits=8..=32:*2"] {
            let g = grid("fig2", expr);
            let fragments = Mutex::new(String::new());
            let run = GridRun::execute_streamed(&g, 3, &NoCache, |index, result| {
                fragments
                    .lock()
                    .unwrap()
                    .push_str(&frame::fragment(index, result));
            });
            let streamed = format!(
                "{}{}{}",
                frame::prologue(GridRun::head(run.id(), run.spec(), run.points().len())),
                fragments.into_inner().unwrap(),
                frame::DOCUMENT_EPILOGUE
            );
            assert_eq!(
                streamed,
                format!("{}\n", run.to_json().to_pretty()),
                "expr {expr:?}"
            );
        }
    }

    #[test]
    fn sink_sees_every_point_in_submission_order() {
        let g = grid("fig2", "bits=8,16,24 cap=4,8");
        for threads in [1, 4] {
            let seen = Mutex::new(Vec::new());
            let run = GridRun::execute_streamed(&g, threads, &NoCache, |index, result| {
                seen.lock().unwrap().push((index, result.clone()));
            });
            let doc = run.to_json();
            let results = doc.get("results").and_then(Json::as_arr).unwrap();
            let expected: Vec<(usize, Json)> = results.iter().cloned().enumerate().collect();
            assert_eq!(seen.into_inner().unwrap(), expected, "threads {threads}");
        }
    }
}
