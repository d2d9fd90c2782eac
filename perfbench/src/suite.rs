//! `suite_smoke`: the whole paper reproduction at smoke scale on the
//! CIFAR-10 analogue, cold (a fresh artifact cache and journal every
//! time), with `--jobs 2` on a thread budget of 2 — the `suite` binary's
//! prewarm-then-tables sequence driven in-process, inside the run's
//! throwaway working directory so the CSVs never touch the repository's
//! `results/`.

use crate::measure::{median, Outcome, Setup};
use crate::train::{prepare, SETUP_BURST};
use eos_bench::exp::report_failure;
use eos_bench::{tables, Args, ArtifactCache, BackbonePlan, Engine, EngineError};
use eos_core::Scale;
use eos_data::SynthSpec;
use std::path::Path;
use std::time::{Duration, Instant};

type TableRun = fn(&Engine, &Args) -> Result<(), EngineError>;
type TablePlan = fn(&Args) -> Vec<BackbonePlan>;

/// The 13 table modules in paper order: metric name, traced span name,
/// plan and run entry points.
const TABLES: [(&str, &str, TablePlan, TableRun); 13] = [
    (
        "table1",
        "table.table1",
        tables::table1::plan,
        tables::table1::run,
    ),
    (
        "table2",
        "table.table2",
        tables::table2::plan,
        tables::table2::run,
    ),
    (
        "table3",
        "table.table3",
        tables::table3::plan,
        tables::table3::run,
    ),
    (
        "table4",
        "table.table4",
        tables::table4::plan,
        tables::table4::run,
    ),
    (
        "table5",
        "table.table5",
        tables::table5::plan,
        tables::table5::run,
    ),
    ("fig3", "table.fig3", tables::fig3::plan, tables::fig3::run),
    ("fig4", "table.fig4", tables::fig4::plan, tables::fig4::run),
    ("fig5", "table.fig5", tables::fig5::plan, tables::fig5::run),
    ("fig6", "table.fig6", tables::fig6::plan, tables::fig6::run),
    ("fig7", "table.fig7", tables::fig7::plan, tables::fig7::run),
    (
        "gap_eos",
        "table.gap_eos",
        tables::gap_eos::plan,
        tables::gap_eos::run,
    ),
    (
        "pixel_eos",
        "table.pixel_eos",
        tables::pixel_eos::plan,
        tables::pixel_eos::run,
    ),
    (
        "ablations",
        "table.ablations",
        tables::ablations::plan,
        tables::ablations::run,
    ),
];

/// Every CSV the deterministic part of the suite writes.
const CSV_NAMES: [&str; 16] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "fig3",
    "fig4",
    "fig5",
    "fig6_summary",
    "fig6_coords",
    "fig7",
    "gap_eos",
    "pixel_eos",
    "ablation_direction",
    "ablation_gap_definition",
    "ablation_decoupling",
];

fn suite_args(seed: u64) -> Args {
    let argv = [
        "--scale",
        "smoke",
        "--seed",
        &seed.to_string(),
        "--datasets",
        "cifar10",
        "--skip-runtime",
        "--jobs",
        "2",
    ];
    Args::try_parse(argv.iter().map(|s| s.to_string())).expect("fixed suite arguments parse")
}

fn engine(args: &Args, cache: &Path) -> Engine {
    Engine::with_cache(args.scale, args.seed, Some(ArtifactCache::at(cache))).with_jobs(args.jobs)
}

struct SuiteRun {
    wall_s: f64,
    failures: u64,
    csvs: Vec<Option<Vec<u8>>>,
}

/// One cold suite: a fresh cache, prewarm of every planned backbone, then
/// the 13 tables. `traced` wraps the prewarm, the table phase and each
/// table in spans.
fn suite_once(args: &Args, work: &Path, rep: usize, traced: bool) -> SuiteRun {
    let cache = work.join(format!("cache{rep}"));
    let _ = std::fs::remove_dir_all(&cache);
    let _ = std::fs::remove_dir_all(work.join("results"));
    let span = |name: &'static str| traced.then(|| eos_trace::span(name));
    let t0 = Instant::now();
    let mut failures = 0;
    {
        let _root = span("bench.suite");
        let eng = engine(args, &cache);
        let plans: Vec<BackbonePlan> = TABLES.iter().flat_map(|t| (t.2)(args)).collect();
        {
            let _s = span("exp.prewarm");
            eng.prewarm(&plans);
        }
        let _s = span("exp.tables");
        for (name, span_name, _, run) in TABLES {
            let _t = span(span_name);
            if let Err(e) = run(&eng, args) {
                report_failure(name, &e);
                failures += 1;
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let csvs = CSV_NAMES
        .iter()
        .map(|n| std::fs::read(work.join("results").join(format!("{n}.csv"))).ok())
        .collect();
    let _ = std::fs::remove_dir_all(&cache);
    SuiteRun {
        wall_s,
        failures,
        csvs,
    }
}

/// Missing or differing CSVs between two suites.
fn csv_mismatches(a: &SuiteRun, b: &SuiteRun) -> u64 {
    a.csvs
        .iter()
        .zip(&b.csvs)
        .filter(|(x, y)| x.is_none() || x != y)
        .count() as u64
}

/// Seconds one cold suite took on a 2-core host; sets how many suites a
/// run makes.
const SUITE_NOMINAL_S: f64 = 8.0;

/// Cold suite set-ups timed back to back in one repetition: one takes
/// only a few milliseconds, too short to time on its own steadily.
const SETUP_BATCH: usize = 16;

/// Times one burst of set-ups into `setup`. A set-up is what a cold
/// `suite` invocation does before its prewarm: an engine with its input
/// dataset generated, and every table's backbone plan collected.
fn setup_burst(args: &Args, work: &Path, setup: &mut Setup) {
    for _ in 0..SETUP_BURST {
        setup.time(SETUP_BATCH, || {
            let eng = engine(args, &work.join("setup_cache"));
            std::hint::black_box(eng.dataset("cifar10"));
            std::hint::black_box(TABLES.iter().map(|t| (t.2)(args).len()).sum::<usize>())
        });
    }
}

pub fn run(seed: u64, budget: Duration, trace: bool, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let args = suite_args(seed);
    let mut setup = Setup::default();

    if trace {
        setup_burst(&args, work, &mut setup);
        // The smoke suite's input data, re-derived here to time its two
        // halves separately; the fingerprint match below proves it is the
        // dataset the engine prepares.
        let mut spec = SynthSpec::by_name("cifar10", Scale::Smoke.data_scale());
        spec.n_max_train = (spec.n_max_train / 8).max(40);
        spec.imbalance_ratio = spec.imbalance_ratio.min(10.0);
        spec.n_test_per_class = (spec.n_test_per_class / 5).max(20);
        let data = prepare(&spec, seed);
        let same = engine(&args, &work.join("setup_cache"))
            .dataset("cifar10")
            .0
            .fingerprint()
            == data.train.fingerprint();
        out.check("re-derived smoke dataset is the engine's", same);
        if same {
            out.layer("data.generate_ms", data.generate_ms);
            out.layer("data.standardize_ms", data.standardize_ms);
        }
        let untraced = suite_once(&args, work, 0, false);
        eos_trace::reset();
        eos_trace::set_enabled(true);
        let traced = suite_once(&args, work, 1, true);
        eos_trace::set_enabled(false);
        let snap = eos_trace::snapshot();
        out.attempted = 2 * TABLES.len() as u64;
        out.failed = untraced.failures + traced.failures;
        out.check(
            "all 16 CSVs byte-identical traced and untraced",
            csv_mismatches(&untraced, &traced) == 0,
        );
        out.layer(
            "trace.overhead_pct",
            100.0 * (traced.wall_s / untraced.wall_s - 1.0),
        );
        let prewarm_s = out.span_ns(&snap, "bench.suite/exp.prewarm") / 1e9;
        out.layer("exp.prewarm_s", prewarm_s);
        let tables_s = out.span_ns(&snap, "bench.suite/exp.tables") / 1e9;
        out.layer("exp.tables_s", tables_s);
        for (name, span_name, _, _) in TABLES {
            let path = format!("bench.suite/exp.tables/{span_name}");
            let table_s = out.span_ns(&snap, &path) / 1e9;
            out.layer(&format!("exp.table.{name}_s"), table_s);
        }
        // A cold suite trains, stores, reads back, checkpoints and
        // journals: each of these counters must tick.
        for (metric, counter) in [
            ("exp.backbones_trained", "exp.backbone.trained"),
            ("exp.cache_bytes_written", "exp.cache.bytes_written"),
            ("exp.cache_bytes_read", "exp.cache.bytes_read"),
            ("exp.ckpt_saved", "train.ckpt.saved"),
            ("exp.journal_cells", "exp.cell.computed"),
        ] {
            let v = out.ticked(&snap, counter);
            out.layer(metric, v);
        }
        let busy = out.ticked(&snap, "exp.job.busy_ns");
        let idle = snap.counter("exp.job.idle_ns") as f64;
        out.layer(
            "exp.job.busy_share",
            if busy + idle > 0.0 {
                busy / (busy + idle)
            } else {
                0.0
            },
        );
        crate::probe::pool_metrics(&mut out, &snap, "bench.suite");
        crate::probe::accounted(&mut out, &snap, "bench.suite");
        return out;
    }

    let mut runs: Vec<SuiteRun> = Vec::new();
    // A count fixed by the run's seconds, not "as many as fit": peak
    // memory grows with each suite, so a count that followed the host's
    // speed would move it. At least two, so the CSV comparison has a
    // partner.
    let suites = ((budget.as_secs_f64() / SUITE_NOMINAL_S).round() as usize).max(2);
    while runs.len() < suites {
        setup_burst(&args, work, &mut setup);
        let r = suite_once(&args, work, runs.len(), false);
        out.attempted += TABLES.len() as u64;
        out.failed += r.failures;
        if let Some(first) = runs.first() {
            out.failed += csv_mismatches(first, &r);
        }
        runs.push(r);
    }
    out.check(
        "all 16 CSVs present and byte-identical across suites",
        out.failed == 0,
    );
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let suite_s = median(&walls);
    out.metric("setup_s", setup.median_s(), "s");
    out.metric("work_per_s", TABLES.len() as f64 / suite_s, "1/s");
    out.metric("op_ms", suite_s * 1e3, "ms");
    out.detail = vec![
        ("suite_s", suite_s, "s"),
        (
            "suite_max_s",
            walls.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        ("suites", walls.len() as f64, "count"),
    ];
    out.raw = vec![("setup_s", setup.samples()), ("suite_s", walls)];
    out
}
