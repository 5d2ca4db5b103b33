//! Sweep tour: drive the parallel experiment engine end to end —
//! describe an architecture-space sweep (built-in name, spec-expression
//! string, an expression over a pinned base point), execute it on all cores,
//! serialize the results as JSON, and grid-run a registry artifact over
//! a value-set expression.
//!
//! ```text
//! cargo run --release --example sweep_tour
//! ```

use cqla_repro::core::experiments::{find, Grid};
use cqla_repro::sweep::{pool, GridRun, Sweep, SweepRun, TechPoint, ToJson};

fn main() {
    // 1. A built-in spec: the multi-technology grid behind `cqla sweep`.
    let grid = Sweep::builtin("grid").expect("built-in spec");
    println!(
        "built-in 'grid': {} points spanning {} technologies",
        grid.len(),
        TechPoint::ALL.len()
    );

    // 2. The same grid as a spec expression — what `cqla sweep` accepts
    //    on the command line or via --spec-file. Clause order is axis
    //    order; `width` couples each size to its Table 4 block count;
    //    `:*2` doubles through the range.
    let expr = "tech=current,projected code=steane,bacon-shor width=32..=1024:*2 xfer=10";
    let parsed = Sweep::parse(expr).expect("the expression parses");
    assert_eq!(parsed.points(), grid.points(), "one grid, two spellings");
    println!("same grid as an expression: `{expr}`\n");

    // 3. Parse errors are spanned: a typo is pinpointed, not guessed at.
    let typo = "tech=current widht=64..=512:*2";
    if let Err(e) = Sweep::parse(typo) {
        println!("a typo'd spec reports exactly where it went wrong:\n{e}\n");
    }

    // 4. A custom sweep over a pinned base point: how does the cache
    //    ratio trade against the transfer-channel budget for a 256-bit
    //    machine on 36 blocks, per code? `base.` clauses pin a value on
    //    every point without adding an axis.
    let sweep =
        Sweep::parse("base.bits=256 base.blocks=36 code=steane,bacon-shor xfer=5,10 cache=1,2")
            .expect("the expression parses");
    println!("custom sweep '{}': {} points", sweep.name(), sweep.len());

    // 5. Execute on every available core. Result order is submission
    //    order no matter how jobs land on workers.
    let threads = pool::default_threads();
    let run = SweepRun::execute(&sweep, threads);
    println!("{}", run.render_text());

    // 6. The headline: pick the best gain product in the swept space.
    let best = run
        .results()
        .iter()
        .filter_map(|r| {
            r.outcome
                .hierarchy
                .as_ref()
                .map(|h| (r, h.gain_product_conservative))
        })
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("hierarchy points exist");
    println!(
        "best design point: {} (gain product {:.1})\n",
        best.0.point.label(),
        best.1
    );

    // 7. Serialize. The result document is deterministic (byte-identical
    //    across runs and thread counts); timings live in a separate
    //    document because they are not.
    let doc = run.to_json();
    println!(
        "JSON result document: {} bytes pretty, {} bytes compact",
        doc.to_pretty().len(),
        doc.to_compact().len()
    );
    let serial = SweepRun::execute(&sweep, 1);
    assert_eq!(
        doc.to_pretty(),
        serial.to_json().to_pretty(),
        "parallel and serial runs serialize identically"
    );
    println!("determinism check: parallel output == serial output ✔");

    // 8. Individual results serialize too — print one row.
    let first = &run.results()[0];
    println!(
        "\nfirst point as JSON:\n{}",
        first.outcome.specialization.to_json().to_pretty()
    );

    // 9. Value sets are first-class on *every* registry artifact, not
    //    just the design-space sweep: a grid expression parses against
    //    the experiment's own declared parameters (`cqla run fig2
    //    bits=32..=128:*2` at the CLI). `base.<key>=v` pins a value on
    //    every point without adding an axis.
    let fig2 = find("fig2").expect("fig2 is registered");
    let grid = Grid::parse("fig2", &fig2.specs(), "base.cap=15 bits=32..=128:*2")
        .expect("the grid expression parses");
    let grid_run = GridRun::execute(&grid, threads);
    println!(
        "\ngrid over fig2 (`{}`): {} points, merged document {} bytes",
        grid.spec(),
        grid_run.points().len(),
        grid_run.to_json().to_pretty().len()
    );
    for point in grid_run.points() {
        let stretch = point
            .data
            .get("capped_makespan")
            .zip(point.data.get("unlimited_makespan"))
            .and_then(|(c, u)| Some(c.as_f64()? / u.as_f64()?))
            .expect("fig2 data carries both makespans");
        let bits = &point.overrides[1].1;
        println!("  {bits:>4}-bit adder on 15 blocks: {stretch:.2}x stretch");
    }
}
