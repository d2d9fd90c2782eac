//! `augment_finetune`: the paper's cheap path. One LDAM backbone is
//! trained during set-up (and twice more between rounds, to time the
//! set-up at several moments); the timed part repeats rounds of
//! `finetune_and_eval` cells over the Table II lineup (SMOTE, Borderline
//! SMOTE, Balanced SVM, EOS) plus one `gap_report`, at a thread budget
//! of 2. No conv backward runs here: the work is kNN, interpolation,
//! head SGD and eval-mode convolution.

use crate::measure::{median, ms, percentile, Outcome, Setup};
use crate::train::{prepare_burst, Prepared};
use eos_core::{evaluate, extract_embeddings, Eos, PipelineConfig, ThreePhase};
use eos_data::SynthSpec;
use eos_neighbors::{AutoIndex, Metric};
use eos_nn::{fnv1a, save_weights_bytes, LossKind};
use eos_resample::{balance_with, BalancedSvm, BorderlineSmote, Oversampler, Smote};
use eos_tensor::Rng64;
use std::time::{Duration, Instant};

/// One cell of the lineup: the sampler, its metric tag and the span the
/// traced round wraps its cell in.
struct Cell {
    tag: &'static str,
    span: &'static str,
    sampler: Box<dyn Oversampler>,
}

fn lineup() -> Vec<Cell> {
    vec![
        Cell {
            tag: "smote",
            span: "cell.smote",
            sampler: Box::new(Smote::new(5)),
        },
        Cell {
            tag: "bsmote",
            span: "cell.bsmote",
            sampler: Box::new(BorderlineSmote::new(5, 5)),
        },
        Cell {
            tag: "balsvm",
            span: "cell.balsvm",
            sampler: Box::new(BalancedSvm::new(5)),
        },
        Cell {
            tag: "eos",
            span: "cell.eos",
            sampler: Box::new(Eos::new(10)),
        },
    ]
}

/// What one round produced: per-cell wall time and BAC bits, the gap
/// report's digest, and the round's wall time.
struct Round {
    cell_ms: Vec<f64>,
    bac_bits: Vec<u64>,
    gap_digest: u64,
    round_ms: f64,
}

/// The RNG stream of a cell depends only on the seed and the sampler, so
/// every round of a run must reproduce the same BACs.
fn cell_rng(seed: u64, cell: &Cell) -> Rng64 {
    Rng64::new(seed ^ eos_bench::name_hash(cell.tag))
}

fn round(
    tp: &mut ThreePhase,
    data: &Prepared,
    cfg: &PipelineConfig,
    seed: u64,
    cells: &[Cell],
    traced: bool,
) -> Round {
    let t_round = Instant::now();
    let mut cell_ms = Vec::with_capacity(cells.len());
    let mut bac_bits = Vec::with_capacity(cells.len());
    for cell in cells {
        let mut rng = cell_rng(seed, cell);
        let t0 = Instant::now();
        let result = if traced {
            // finetune_and_eval is exactly these two public calls; split
            // so each gets its own span.
            let _cell = eos_trace::span(cell.span);
            {
                let _s = eos_trace::span("core.finetune_head");
                tp.finetune_head(Some(cell.sampler.as_ref()), cfg, &mut rng);
            }
            let _s = eos_trace::span("core.evaluate");
            evaluate(&mut tp.net, &data.test)
        } else {
            tp.finetune_and_eval(cell.sampler.as_ref(), &data.test, cfg, &mut rng)
        };
        cell_ms.push(ms(t0.elapsed()));
        bac_bits.push(result.bac.to_bits());
    }
    let (gaps, split) = {
        let _s = traced.then(|| eos_trace::span("core.gap_report"));
        tp.gap_report(&data.test)
    };
    let gap_digest = fnv1a(format!("{gaps:?} {split:?}").as_bytes());
    Round {
        cell_ms,
        bac_bits,
        gap_digest,
        round_ms: ms(t_round.elapsed()),
    }
}

/// Backbone trainings timed as set-up: one before the rounds, and the
/// others after each further share of the budget, so the reported median
/// samples the host at several moments of the run. Only the first
/// backbone is fine-tuned; the others must reproduce its weights.
const BACKBONES: usize = 3;

/// One phase-1 LDAM training on the prepared data, and its seconds.
fn train_backbone(
    data: &Prepared,
    cfg: &PipelineConfig,
    seed: u64,
) -> (Result<ThreePhase, String>, f64) {
    let t0 = Instant::now();
    let trained = ThreePhase::try_train(&data.train, LossKind::Ldam, cfg, &mut Rng64::new(seed));
    (
        trained.map_err(|e| e.to_string()),
        t0.elapsed().as_secs_f64(),
    )
}

pub fn run(seed: u64, budget: Duration, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let cfg = PipelineConfig::small();
    let cells = lineup();
    let mut data_setup = Setup::default();
    let data = prepare_burst(&SynthSpec::cifar10_like(1), seed, &mut data_setup);
    let (trained, secs) = train_backbone(&data, &cfg, seed);
    let mut backbone_s = vec![secs];
    let mut tp = match trained {
        Ok(tp) => tp,
        Err(e) => {
            eprintln!("set-up backbone training failed: {e}");
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let backbone = fnv1a(&save_weights_bytes(&mut tp.net));

    if trace {
        out.layer("data.generate_ms", data.generate_ms);
        out.layer("data.standardize_ms", data.standardize_ms);
        // The first round after training warms caches and the pool; the
        // overhead compares two warm rounds.
        let _ = round(&mut tp, &data, &cfg, seed, &cells, false);
        let untraced = round(&mut tp, &data, &cfg, seed, &cells, false);
        eos_trace::reset();
        eos_trace::set_enabled(true);
        let traced = {
            let _root = eos_trace::span("bench.round");
            round(&mut tp, &data, &cfg, seed, &cells, true)
        };
        eos_trace::set_enabled(false);
        let snap = eos_trace::snapshot();
        out.attempted = 2 * cells.len() as u64;
        out.check(
            "per-sampler BAC identical traced and untraced",
            untraced.bac_bits == traced.bac_bits && untraced.gap_digest == traced.gap_digest,
        );
        out.layer(
            "trace.overhead_pct",
            100.0 * (traced.round_ms / untraced.round_ms - 1.0),
        );
        let n = cells.len() as f64;
        let mut finetune = 0.0;
        let mut eval = 0.0;
        for cell in &cells {
            let base = format!("bench.round/{}", cell.span);
            finetune += out.span_ns(&snap, &format!("{base}/core.finetune_head")) / 1e6;
            eval += out.span_ns(&snap, &format!("{base}/core.evaluate")) / 1e6;
            let balance =
                out.span_ns(&snap, &format!("{base}/core.finetune_head/eos.phase2")) / 1e6;
            let name = match cell.tag {
                "eos" => "core.balance_eos_ms".to_string(),
                tag => format!("resample.{tag}.balance_ms"),
            };
            out.layer(&name, balance);
        }
        out.layer("core.finetune_head_ms", finetune / n);
        out.layer("core.evaluate_ms", eval / n);
        let gap_ms = out.span_ns(&snap, "bench.round/core.gap_report") / 1e6;
        out.layer("core.gap_report_ms", gap_ms);
        let tree = snap.counter("neighbors.tree_queries") as f64;
        let brute = snap.counter("neighbors.brute_queries") as f64;
        if tree + brute == 0.0 {
            out.missing
                .push("counters neighbors.{tree,brute}_queries".into());
        }
        out.layer("neighbors.queries", tree + brute);
        out.layer(
            "neighbors.tree_share",
            if tree + brute > 0.0 {
                tree / (tree + brute)
            } else {
                0.0
            },
        );
        crate::probe::pool_metrics(&mut out, &snap, "bench.round");
        crate::probe::accounted(&mut out, &snap, "bench.round");
        direct_calls(&mut tp, &data, &cells, seed, &mut out);
        return out;
    }

    let mut cell_ms = Vec::new();
    let mut round_ms = Vec::new();
    let mut first: Option<(Vec<u64>, u64)> = None;
    let mut wrong = 0u64;
    let mut retrained_wrong = 0u64;
    let t0 = Instant::now();
    // Set-up time spent inside the loop, which the budget does not count.
    let mut setup_in_loop = Duration::ZERO;
    while round_ms.is_empty() || t0.elapsed() - setup_in_loop < budget {
        let r = round(&mut tp, &data, &cfg, seed, &cells, false);
        out.attempted += r.bac_bits.len() as u64;
        match &first {
            None => first = Some((r.bac_bits.clone(), r.gap_digest)),
            Some((bacs, gap)) => {
                wrong += bacs.iter().zip(&r.bac_bits).filter(|(a, b)| a != b).count() as u64;
                wrong += u64::from(*gap != r.gap_digest);
            }
        }
        cell_ms.extend(r.cell_ms);
        round_ms.push(r.round_ms);
        let due = budget.mul_f64(backbone_s.len() as f64 / BACKBONES as f64);
        if backbone_s.len() < BACKBONES && t0.elapsed() - setup_in_loop >= due {
            let (again, secs) = train_backbone(&data, &cfg, seed);
            setup_in_loop += Duration::from_secs_f64(secs);
            out.attempted += 1;
            backbone_s.push(secs);
            let same = again.is_ok_and(|mut t| fnv1a(&save_weights_bytes(&mut t.net)) == backbone);
            retrained_wrong += u64::from(!same);
        }
    }
    out.failed += wrong + retrained_wrong;
    out.check(
        "per-sampler BAC and gap report identical across rounds",
        wrong == 0,
    );
    out.check(
        "set-up backbone weights identical across trainings",
        retrained_wrong == 0,
    );
    let rate = cell_ms.len() as f64 / (round_ms.iter().sum::<f64>() / 1e3);
    let setup_s = data_setup.median_s() + median(&backbone_s);
    out.metric("setup_s", setup_s, "s");
    out.metric("work_per_s", rate, "1/s");
    out.metric("op_ms", percentile(&cell_ms, 50.0), "ms");
    out.detail = vec![
        ("finetune_cells_per_s", rate, "1/s"),
        ("finetune_cell_p50_ms", percentile(&cell_ms, 50.0), "ms"),
        ("finetune_cell_p90_ms", percentile(&cell_ms, 90.0), "ms"),
        ("cells", cell_ms.len() as f64, "count"),
        ("backbone_s", median(&backbone_s), "s"),
    ];
    out.raw = vec![
        ("data_setup_s", data_setup.samples()),
        ("backbone_s", backbone_s),
        ("cell_ms", cell_ms),
        ("round_ms", round_ms),
    ];
    out
}

/// Untraced direct calls for the layers a round reaches only inside
/// other calls: embedding extraction, the kNN index, and each sampler's
/// synthetic row count.
fn direct_calls(
    tp: &mut ThreePhase,
    data: &Prepared,
    cells: &[Cell],
    seed: u64,
    out: &mut Outcome,
) {
    const REPS: usize = 3;
    let mut extract = Vec::new();
    for _ in 0..REPS {
        let t0 = Instant::now();
        std::hint::black_box(extract_embeddings(&mut tp.net, &data.test.x));
        extract.push(ms(t0.elapsed()));
    }
    out.layer("core.extract_embeddings_ms", median(&extract));

    let (mut build, mut query) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let t0 = Instant::now();
        let index = AutoIndex::new(&tp.train_fe, Metric::Euclidean);
        build.push(ms(t0.elapsed()));
        let t0 = Instant::now();
        std::hint::black_box(index.query_batch(&tp.train_fe, 6));
        query.push(ms(t0.elapsed()));
    }
    out.layer("neighbors.build_ms", median(&build));
    out.layer("neighbors.query_ms", median(&query));

    let n = tp.train_y.len();
    let rows: usize = cells
        .iter()
        .map(|cell| {
            let (_, y) = balance_with(
                cell.sampler.as_ref(),
                &tp.train_fe,
                &tp.train_y,
                tp.num_classes,
                &mut cell_rng(seed, cell),
            );
            y.len() - n
        })
        .sum();
    out.layer("resample.synthetic_rows", rows as f64);
}
