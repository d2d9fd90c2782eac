//! Shared measurement plumbing: the metric lists of `BENCHMARK.json`,
//! order statistics, set-up timing, the per-run outcome, the host block,
//! and the result line the benchmark contract expects.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The metric lists of `BENCHMARK.json`, the one place the metric names
/// and units are kept; the benchmark reads them from there.
pub struct Spec {
    pub end_to_end: Vec<(String, String)>,
    pub per_layer: Vec<(String, String)>,
}

impl Spec {
    /// The lists of the `BENCHMARK.json` this binary was built with;
    /// `Err` if the file is not valid JSON, a list is missing, or a name
    /// is used twice.
    pub fn get() -> Result<&'static Spec, String> {
        static SPEC: OnceLock<Result<Spec, String>> = OnceLock::new();
        SPEC.get_or_init(|| Spec::parse(include_str!("../../BENCHMARK.json")))
            .as_ref()
            .map_err(Clone::clone)
    }

    fn parse(json: &str) -> Result<Spec, String> {
        eos_trace::validate(json)?;
        let spec = Spec {
            end_to_end: metric_list(json, "end_to_end")?,
            per_layer: metric_list(json, "per_layer")?,
        };
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|(n, _)| n.as_str())
            .collect();
        names.sort_unstable();
        if let Some(w) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("metric {} is listed twice", w[0]));
        }
        Ok(spec)
    }

    /// The unit `BENCHMARK.json` gives the per-layer metric `name`.
    pub fn layer_unit(&self, name: &str) -> Option<&str> {
        self.per_layer
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, u)| u.as_str())
    }
}

/// `(name, unit)` of every object in the array under `key`. The file is
/// valid JSON whose metric objects hold only strings and numbers, so the
/// array ends at its first `]` and each object at its first `}`.
fn metric_list(json: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let at = json
        .find(&format!("\"{key}\":"))
        .ok_or_else(|| format!("no {key} list"))?;
    let rest = &json[at..];
    let (open, close) = rest
        .find('[')
        .zip(rest.find(']'))
        .ok_or_else(|| format!("{key} is not a list"))?;
    rest[open + 1..close]
        .split('}')
        .filter(|obj| obj.contains('{'))
        .map(|obj| Ok((field(obj, "name")?, field(obj, "unit")?)))
        .collect()
}

/// The string value of `key` in one flat JSON object's text.
fn field(obj: &str, key: &str) -> Result<String, String> {
    let missing = || format!("a metric has no string {key}");
    let at = obj.find(&format!("\"{key}\"")).ok_or_else(missing)? + key.len() + 2;
    let value = obj[at..]
        .trim_start()
        .strip_prefix(':')
        .map(str::trim_start)
        .and_then(|v| v.strip_prefix('"'))
        .ok_or_else(missing)?;
    let end = value.find('"').ok_or_else(missing)?;
    Ok(value[..end].to_string())
}

/// Median of `v` (the mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `q` (0..=100) of `v`.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Milliseconds of a duration, unrounded.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-up repetitions spread over a run. A workload times a few set-ups
/// at several points of its run, so the median samples the host at
/// several moments instead of one stretch of it.
#[derive(Default)]
pub struct Setup(Vec<f64>);

impl Setup {
    /// Runs the set-up `f` `batch` times back to back and records the
    /// mean seconds per set-up; returns the last set-up's result.
    pub fn time<R>(&mut self, batch: usize, mut f: impl FnMut() -> R) -> R {
        let t0 = Instant::now();
        let mut last = f();
        for _ in 1..batch {
            last = f();
        }
        self.0.push(t0.elapsed().as_secs_f64() / batch as f64);
        last
    }

    /// Median seconds per set-up.
    pub fn median_s(&self) -> f64 {
        median(&self.0)
    }

    /// The recorded per-set-up seconds.
    pub fn samples(&self) -> Vec<f64> {
        self.0.clone()
    }
}

/// The process's peak resident set size in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (trainings, cells, requests or tables).
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// The metrics of the result line: end-to-end metrics untraced,
    /// per-layer metrics traced.
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// The workload's own end-to-end figures under their descriptive
    /// names, printed in the report (untraced runs only).
    pub detail: Vec<(&'static str, f64, &'static str)>,
    /// Raw per-repetition samples behind the reported figures.
    pub raw: Vec<(&'static str, Vec<f64>)>,
    /// Spans, counters and histograms the workload must reach but the
    /// trace did not record.
    pub missing: Vec<String>,
}

impl Outcome {
    /// Records a named check; a failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Sets a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    /// Sets a per-layer metric with the unit `BENCHMARK.json` gives it;
    /// a name the file does not list gets the unit `?`, which fails the
    /// run's check against the file.
    pub fn layer(&mut self, name: &str, value: f64) {
        let unit = Spec::get().ok().and_then(|s| s.layer_unit(name));
        self.metric(name, value, unit.unwrap_or("?"));
    }

    /// Total nanoseconds of the traced span at `path`; a span that was
    /// never recorded is noted as missing (and reads 0).
    pub fn span_ns(&mut self, snap: &eos_trace::Snapshot, path: &str) -> f64 {
        match snap.span(path) {
            Some(s) => s.total_ns as f64,
            None => {
                self.missing.push(format!("span {path}"));
                0.0
            }
        }
    }

    /// Value of a counter the workload must tick; one that stayed at 0
    /// is noted as missing.
    pub fn ticked(&mut self, snap: &eos_trace::Snapshot, name: &str) -> f64 {
        let v = snap.counter(name);
        if v == 0 {
            self.missing.push(format!("counter {name}"));
        }
        v as f64
    }

    /// A histogram the workload must fill; an empty one is noted as
    /// missing.
    pub fn hist<'a>(
        &mut self,
        snap: &'a eos_trace::Snapshot,
        name: &str,
    ) -> Option<&'a eos_trace::HistSnapshot> {
        let h = snap.histogram(name);
        if h.is_none() {
            self.missing.push(format!("histogram {name}"));
        }
        h
    }

    /// Completes a traced run's metrics: every per-layer metric the
    /// workload reaches (names starting with one of `reaches`) must have
    /// been measured, and every other one reads 0.
    pub fn finish_layers(&mut self, reaches: &[&str]) {
        let Ok(spec) = Spec::get() else { return };
        let reached = |n: &str| reaches.iter().any(|p| n.starts_with(p));
        let unmeasured: Vec<&str> = spec
            .per_layer
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| reached(n) && !self.metrics.contains_key(*n))
            .collect();
        let stray: Vec<String> = self
            .metrics
            .keys()
            .filter(|n| !reached(n))
            .cloned()
            .collect();
        for n in &unmeasured {
            eprintln!("per-layer metric {n} was not measured");
        }
        for n in &stray {
            eprintln!("per-layer metric {n} is set on a workload that does not reach it");
        }
        self.check(
            "every per-layer metric the workload reaches was measured, no other",
            unmeasured.is_empty() && stray.is_empty(),
        );
        for (name, _) in &spec.per_layer {
            if !reached(name) {
                self.layer(name, 0.0);
            }
        }
        for m in &self.missing {
            eprintln!("trace did not record {m}");
        }
        let recorded = self.missing.is_empty();
        self.check(
            "every span, counter and histogram the workload reaches was recorded",
            recorded,
        );
    }

    /// Checks that the result line carries exactly the metrics, with the
    /// units, that `BENCHMARK.json` lists for this kind of run.
    pub fn check_against_spec(&mut self, trace: bool) {
        let ok = Spec::get().is_ok_and(|spec| {
            let want = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            want.len() == self.metrics.len()
                && want.iter().all(|(n, u)| {
                    self.metrics
                        .get(n.as_str())
                        .is_some_and(|(_, unit)| unit == u)
                })
        });
        if !ok {
            let have: Vec<&String> = self.metrics.keys().collect();
            eprintln!("result metrics differ from BENCHMARK.json: {have:?}");
        }
        self.check("metrics and units exactly as BENCHMARK.json lists them", ok);
    }

    /// True when every check held, no operation failed and every metric
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
            && self.failed == 0
            && self.attempted > 0
            && self.metrics.values().all(|(v, _)| v.is_finite())
    }
}

/// Facts about the machine and build that every result carries.
pub struct Host {
    pub nproc: usize,
    pub threads: usize,
    pub git_rev: String,
    pub rustc: &'static str,
    pub cpu: String,
}

impl Host {
    pub fn probe(threads: usize) -> Host {
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            threads,
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            rustc: env!("PERFBENCH_RUSTC"),
            cpu: std::fs::read_to_string("/proc/cpuinfo")
                .ok()
                .and_then(|s| {
                    s.lines()
                        .find_map(|l| l.strip_prefix("model name"))
                        .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
                })
                .unwrap_or_else(|| "unknown".into()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git (a
/// benchmark checkout need not be a repository at all).
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// JSON number text for a metric value: every digit Rust's shortest
/// round-trip formatting gives, never an exponent or a non-finite token.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
    format!("\"{}\"", eos_trace::escape(s))
}

/// Everything the run produced, as printed and stored: the
/// human-readable report, the record line (host block, checks, raw
/// samples) and the contract's result line.
pub struct Rendered {
    pub report: String,
    pub record: String,
    pub result: String,
}

pub fn render(out: &Outcome, host: &Host, workload: &str, seed: u64, trace: bool) -> Rendered {
    let correct = out.correct();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "perfbench {workload} seed {seed} ({}): {} attempted, {} failed",
        if trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed
    );
    for (name, value, unit) in &out.detail {
        let _ = writeln!(report, "  {name:<28} {value:>14.4} {unit}");
    }
    for (name, ok) in &out.checks {
        let _ = writeln!(
            report,
            "  check {name}: {}",
            if *ok { "ok" } else { "FAILED" }
        );
    }

    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(name),
                num(*value),
                string(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );

    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok)| format!("{}: {ok}", string(n)))
        .collect();
    let detail: Vec<String> = out
        .detail
        .iter()
        .map(|(n, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                string(n),
                num(*v),
                string(u)
            )
        })
        .collect();
    let raw: Vec<String> = out
        .raw
        .iter()
        .map(|(n, vs)| {
            let vs: Vec<String> = vs.iter().map(|v| num(*v)).collect();
            format!("{}: [{}]", string(n), vs.join(", "))
        })
        .collect();
    let record = format!(
        "{{\"host\": {{\"nproc\": {}, \"threads\": {}, \"git_rev\": {}, \"rustc\": {}, \"cpu\": {}, \
         \"seed\": {seed}}}, \"workload\": {}, \"trace\": {trace}, \"checks\": {{{}}}, \
         \"detail\": {{{}}}, \"raw\": {{{}}}, \"result\": {result}}}",
        host.nproc,
        host.threads,
        string(&host.git_rev),
        string(host.rustc),
        string(&host.cpu),
        string(workload),
        checks.join(", "),
        detail.join(", "),
        raw.join(", "),
    );
    Rendered {
        report,
        record,
        result,
    }
}
