//! The grid executor: run value-set grids on the shared pool, one
//! [`GridPoint`] per point in submission order.
//!
//! A [`Grid`] (parsed by [`cqla_core::experiments::grid`] against an
//! experiment's declared parameters) expands to a deterministic list of
//! parameter assignments. [`GridRun::run`] is the one code path that fans
//! grid points out to the pool. It takes a slice of grids and the
//! [`Experiment`] every point instantiates — a registry entry, or the
//! sweep's [`crate::DesignPoint`] — and runs all their points on one
//! [`EvalCtx`], each on a fresh instance with the point's overrides
//! applied, optionally read through a [`PointCache`].
//!
//! Two renderers read the same points, each with its own head and
//! entry function over the shared [`crate::frame`]. The grid document
//! ([`GridRun::head`], [`GridRun::entry`]) is what `cqla run <id>
//! k=set…`, `cqla sweep <id> k=set…`, `GET /v1/run/{id}` and
//! `POST /v1/sweep/{id}` print:
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
//! The sweep document ([`crate::SweepRun::head`],
//! [`crate::SweepRun::entry`]) is what `cqla sweep SPEC` and
//! `POST /v1/sweep` print. Determinism contract: both documents depend
//! only on the grids, never on thread count or cache state. Every grid
//! point's single-run body is the same bytes a direct single-value
//! request would produce, which is what lets the HTTP service cache
//! *per point* through the [`PointCache`] hook.

use std::time::Duration;

use cqla_core::experiments::{find, Experiment, ExperimentOutput, Grid};
use cqla_core::json::Json;
use cqla_core::EvalCtx;

use crate::{frame, pool};

/// One executed grid point.
#[derive(Debug, Clone)]
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
    /// The text rendering. Empty when the point was served from a
    /// [`PointCache`] (cached bodies carry only the JSON).
    pub text: String,
    /// Whether the experiment's self-checks passed.
    pub passed: bool,
    /// Wall-clock time the point ran on its worker. The pool records it
    /// when the run completes, so a streaming callback sees zero.
    pub duration: Duration,
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

/// A completed grid run: every point in submission order.
#[derive(Debug, Clone)]
pub struct GridRun {
    id: String,
    spec: String,
    points: Vec<GridPoint>,
}

impl GridRun {
    /// Executes every point of a registry grid on `threads` workers.
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
        Self::run(
            std::slice::from_ref(grid),
            threads,
            registry_entry(grid.id()),
            None,
            |_, _| {},
        )
    }

    /// Executes a registry grid, reading each point through `cache`
    /// (populating it on misses) and handing each point to `on_point`
    /// as [`GridRun::run`] does — the HTTP service's streamed grid
    /// responses.
    ///
    /// # Panics
    ///
    /// As [`GridRun::execute`].
    #[must_use]
    pub fn execute_streamed(
        grid: &Grid,
        threads: usize,
        cache: &dyn PointCache,
        on_point: impl Fn(usize, &GridPoint) + Sync,
    ) -> Self {
        Self::run(
            std::slice::from_ref(grid),
            threads,
            registry_entry(grid.id()),
            Some(cache),
            on_point,
        )
    }

    /// The grid executor: runs every point of `grids`, in order, on
    /// `threads` workers and one shared [`EvalCtx`]. Each point runs on
    /// a fresh `experiment()` with the point's overrides applied, read
    /// through `cache` when there is one. `on_point` sees each point in
    /// submission order, as [`pool::map_streamed`] delivers; a blocking
    /// `on_point` (a slow client's socket) stalls delivery, not
    /// correctness.
    ///
    /// A one-grid run's id and spec are its grid's; a multi-grid run
    /// (a [`crate::Sweep`]) takes the first grid's id and one spec line
    /// per grid.
    ///
    /// # Panics
    ///
    /// Panics if `experiment().set` rejects a grid value — impossible
    /// when the grids were parsed against that experiment's specs.
    #[must_use]
    pub fn run(
        grids: &[Grid],
        threads: usize,
        experiment: impl Fn() -> Box<dyn Experiment> + Sync,
        cache: Option<&dyn PointCache>,
        on_point: impl Fn(usize, &GridPoint) + Sync,
    ) -> Self {
        // One evaluation context for the whole run: neighboring points
        // share most memo keys, each computed once across the workers.
        Self::run_in(&EvalCtx::new(), grids, threads, experiment, cache, on_point)
    }

    /// [`GridRun::run`] on a caller's context.
    pub(crate) fn run_in(
        ctx: &EvalCtx,
        grids: &[Grid],
        threads: usize,
        experiment: impl Fn() -> Box<dyn Experiment> + Sync,
        cache: Option<&dyn PointCache>,
        on_point: impl Fn(usize, &GridPoint) + Sync,
    ) -> Self {
        let overrides: Vec<_> = grids.iter().flat_map(Grid::points).collect();
        let points = pool::map_streamed(
            &overrides,
            threads,
            |_, overrides| run_point(experiment(), overrides, cache, ctx),
            on_point,
        )
        .into_iter()
        .map(|t| GridPoint {
            duration: t.duration,
            ..t.value
        })
        .collect();
        Self {
            id: grids.first().map_or("", Grid::id).to_owned(),
            spec: grids.iter().map(Grid::spec).collect::<Vec<_>>().join("\n"),
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

    /// A point's entry in the grid document's `results` array — the
    /// unit [`crate::frame::fragment`] re-indents into a streamed
    /// fragment.
    #[must_use]
    pub fn entry(point: &GridPoint) -> Json {
        Json::obj([
            (
                "params",
                Json::obj(
                    point
                        .params
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.as_str()))),
                ),
            ),
            ("data", point.data.clone()),
        ])
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
            self.points.iter().map(Self::entry).collect(),
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

/// The registry entry a grid of `id` instantiates per point.
fn registry_entry(id: &str) -> impl Fn() -> Box<dyn Experiment> + Sync + '_ {
    move || find(id).expect("grid experiment is registered")
}

/// Executes one grid point: apply the overrides to a fresh experiment
/// and run it, through the cache when there is one.
fn run_point(
    mut exp: Box<dyn Experiment>,
    overrides: &[(String, String)],
    cache: Option<&dyn PointCache>,
    ctx: &EvalCtx,
) -> GridPoint {
    for (key, value) in overrides {
        exp.set(key, value)
            .expect("grid-validated value accepted by set");
    }
    let params = exp
        .params()
        .into_iter()
        .map(|p| (p.key.to_owned(), p.value))
        .collect();
    let output = match cache {
        Some(cache) => read_through(cache, exp.as_ref(), overrides, ctx),
        None => exp.run_ctx(ctx),
    };
    GridPoint {
        overrides: overrides.to_vec(),
        params,
        data: output.data,
        text: output.text,
        passed: output.passed,
        duration: Duration::ZERO,
    }
}

/// Reads one point through `cache`, running it on a miss. A hit has the
/// cached JSON but no text, and is reported as passed.
fn read_through(
    cache: &dyn PointCache,
    exp: &dyn Experiment,
    overrides: &[(String, String)],
    ctx: &EvalCtx,
) -> ExperimentOutput {
    let mut computed = None;
    let body = cache.get_or_compute(overrides, &mut || {
        let output = exp.run_ctx(ctx);
        // Failing runs are never cached: the cached body cannot carry
        // the verdict, so a hit is reported as passed.
        let body = output
            .passed
            .then(|| format!("{}\n", output.document(exp.id()).to_pretty()));
        computed = Some(output);
        body
    });
    computed
        .or_else(|| {
            let data = cqla_core::json::parse(&body?).ok()?.get("data")?.clone();
            Some(ExperimentOutput::new(String::new(), data))
        })
        // The cached body was unreadable: run the point here.
        .unwrap_or_else(|| exp.run_ctx(ctx))
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

    /// Runs `g` on the executor and collects what its callback sees:
    /// each point's index and its entry in the document.
    fn stream(g: &Grid, threads: usize) -> (GridRun, Vec<(usize, Json)>) {
        let seen = Mutex::new(Vec::new());
        let run = GridRun::run(
            std::slice::from_ref(g),
            threads,
            registry_entry(g.id()),
            None,
            |index, point| seen.lock().unwrap().push((index, GridRun::entry(point))),
        );
        (run, seen.into_inner().unwrap())
    }

    /// The streamed framing of `seen` under `head`.
    fn framed(head: Vec<(&'static str, Json)>, seen: &[(usize, Json)]) -> String {
        let fragments: String = seen
            .iter()
            .map(|(index, entry)| frame::fragment(*index, entry))
            .collect();
        format!(
            "{}{fragments}{}",
            frame::prologue(head),
            frame::DOCUMENT_EPILOGUE
        )
    }

    /// A merged document's `results`, numbered.
    fn numbered(doc: &Json) -> Vec<(usize, Json)> {
        let results = doc.get("results").and_then(Json::as_arr).unwrap();
        results.iter().cloned().enumerate().collect()
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
            let (run, seen) = stream(&g, 3);
            let head = GridRun::head(run.id(), run.spec(), run.points().len());
            assert_eq!(
                framed(head, &seen),
                format!("{}\n", run.to_json().to_pretty()),
                "expr {expr:?}"
            );
        }
    }

    #[test]
    fn sink_sees_every_point_in_submission_order() {
        let g = grid("fig2", "bits=8,16,24 cap=4,8");
        for threads in [1, 4] {
            let (run, seen) = stream(&g, threads);
            assert_eq!(seen, numbered(&run.to_json()), "threads {threads}");
        }
    }
}
