//! The repository benchmark.
//!
//! ```text
//! msrbench --workload W --seed N --seconds S --trace 0|1 [--tiny] [--bank B]
//! msrbench selftest
//! msrbench compare A.json B.json
//! msrbench pin
//! ```
//!
//! A run prepares the workload's inputs and oracles (five times,
//! reporting the median as `setup_s`), measures ops for `--seconds`,
//! checks every output, and prints one JSON line: the end-to-end metrics
//! of `BENCHMARK.json` with `--trace 0`, its per-layer metrics with
//! `--trace 1`. A traced run alternates untraced and traced quarters of
//! its window, reports the difference as `trace.overhead_pct`, and
//! writes the spans as a Chrome trace. Every run also writes a record
//! with its provenance under `.bench_out/`. Any failed op makes the exit
//! code non-zero. `suite.json` names the default seed and the default
//! and held-out input banks, and records what each workload measures
//! and why.

mod closure;
mod dp;
mod report;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use msrnet_incremental::json::{parse_json, Json};

use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");
const SUITE_JSON: &str = include_str!("../suite.json");
const PINNED_JSON: &str = include_str!("../pinned.json");

/// Directory (relative to the checkout root) for records and traces.
const OUT_DIR: &str = ".bench_out";

/// What one run was asked to do.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Schedule seed: the order of ops over the bank.
    pub seed: u64,
    /// Input bank: the nets, chips and traces the ops run on.
    pub bank: u64,
    /// Timed window length.
    pub seconds: f64,
    /// Smallest inputs (self-test).
    pub tiny: bool,
    /// Flip the first pinned digest, so the run must fail (self-test).
    pub corrupt_pinned: bool,
    /// Ignore `pinned.json` (while re-pinning).
    pub pinning: bool,
}

impl Ctx {
    /// The digests pinned for this workload, size and bank, one per
    /// input entry; all `None` for a bank that was not pinned.
    pub fn pins(&self, count: usize) -> Result<Vec<Option<u64>>, String> {
        if self.pinning {
            return Ok(vec![None; count]);
        }
        let size = if self.tiny { "tiny" } else { "full" };
        let pinned = pinned_digests(&self.workload, size)?;
        match pinned {
            Some((bank, digests)) if bank == self.bank => {
                if digests.len() != count {
                    return Err(format!(
                        "pinned.json has {} {size} digests for {}, the run has {count} inputs",
                        digests.len(),
                        self.workload
                    ));
                }
                let mut out: Vec<Option<u64>> = digests.into_iter().map(Some).collect();
                if self.corrupt_pinned {
                    out[0] = out[0].map(|d| d ^ 1);
                }
                Ok(out)
            }
            _ if self.corrupt_pinned => Err("--corrupt-pinned needs a pinned bank".into()),
            _ => Ok(vec![None; count]),
        }
    }
}

/// One timed window.
#[derive(Default)]
pub struct Window {
    /// Latency of every op, ms.
    pub lat_ms: Vec<f64>,
    /// For workloads that repeat the same ops in every pass: the input
    /// entry of each op, parallel to `lat_ms`. Empty otherwise.
    pub entry: Vec<usize>,
    /// Wall time of the window, s.
    pub elapsed_s: f64,
}

impl Window {
    /// Appends another window's ops and time.
    fn absorb(&mut self, other: Window) {
        self.lat_ms.extend(other.lat_ms);
        self.entry.extend(other.entry);
        self.elapsed_s += other.elapsed_s;
    }

    /// The latencies the percentiles are taken over, and ops per second.
    ///
    /// Where passes repeat the same ops, each entry counts once, at the
    /// median of its latencies in the window, and the rate is one op
    /// per entry at those latencies. A burst of host noise then moves an
    /// entry only if it hits most of that entry's ops. On the two-vCPU
    /// host such bursts doubled single solves, and with 60-150 ops a
    /// run's p99 is one of its two slowest ops.
    fn summary(&self) -> (Vec<f64>, f64) {
        if self.entry.is_empty() {
            return (
                self.lat_ms.clone(),
                self.lat_ms.len() as f64 / self.elapsed_s,
            );
        }
        let mut by_entry: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
        for (&e, &ms) in self.entry.iter().zip(&self.lat_ms) {
            by_entry.entry(e).or_default().push(ms);
        }
        let lat: Vec<f64> = by_entry.values().map(|v| median(v)).collect();
        let rate = lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3);
        (lat, rate)
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// A workload: seeded inputs, timed ops, oracle checks and per-layer
/// metrics.
pub trait Workload: Sized {
    /// Generates inputs and oracles and warms up; everything before the
    /// first timed op.
    fn prepare(ctx: &Ctx, tracer: &Tracer) -> Result<Self, String>;
    /// Runs ops for about `budget_s` seconds.
    fn window(&mut self, budget_s: f64, tracer: &Tracer) -> Window;
    /// Digests of the run's checked outputs, one per input entry (what
    /// `msrbench pin` records).
    fn observed(&self) -> Vec<u64>;
    /// Runs the post-window oracles and fills the per-layer metrics;
    /// returns one message per failed op.
    fn finish(self, tracer: &Tracer, m: &mut Metrics) -> Vec<String>;
}

/// Runs whole passes until the next one would overrun `budget_s`
/// (at least one); returns the elapsed seconds.
pub fn run_passes(budget_s: f64, mut pass: impl FnMut()) -> f64 {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        pass();
        let last = t.elapsed().as_secs_f64();
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + last > budget_s {
            return elapsed;
        }
    }
}

/// Name and unit of every metric `BENCHMARK.json` declares.
pub struct Spec {
    /// `(name, unit, better, bound)` of the end-to-end metrics.
    pub end_to_end: Vec<(String, String, String, f64)>,
    /// `(name, unit)` of the per-layer metrics.
    pub per_layer: Vec<(String, String)>,
    /// Workload names.
    pub workloads: Vec<String>,
}

fn obj(j: &Json) -> Result<&[(String, Json)], String> {
    match j {
        Json::Obj(f) => Ok(f),
        _ => Err("expected a JSON object".into()),
    }
}

fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    Json::get(fields, key).ok_or_else(|| format!("missing key {key:?}"))
}

fn str_field(fields: &[(String, Json)], key: &str) -> Result<String, String> {
    match field(fields, key)? {
        Json::Str(s) => Ok(s.clone()),
        _ => Err(format!("{key:?} is not a string")),
    }
}

fn num_field(fields: &[(String, Json)], key: &str) -> Result<f64, String> {
    match field(fields, key)? {
        Json::Num(x) => Ok(*x),
        _ => Err(format!("{key:?} is not a number")),
    }
}

fn arr_field<'a>(fields: &'a [(String, Json)], key: &str) -> Result<&'a [Json], String> {
    match field(fields, key)? {
        Json::Arr(a) => Ok(a),
        _ => Err(format!("{key:?} is not an array")),
    }
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let root = parse_json(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let root = obj(&root)?;
        let mut spec = Spec {
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            workloads: Vec::new(),
        };
        for m in arr_field(root, "end_to_end")? {
            let m = obj(m)?;
            spec.end_to_end.push((
                str_field(m, "name")?,
                str_field(m, "unit")?,
                str_field(m, "better")?,
                num_field(m, "bound")?,
            ));
        }
        for m in arr_field(root, "per_layer")? {
            let m = obj(m)?;
            spec.per_layer
                .push((str_field(m, "name")?, str_field(m, "unit")?));
        }
        for w in arr_field(root, "workloads")? {
            spec.workloads.push(str_field(obj(w)?, "name")?);
        }
        Ok(spec)
    }
}

/// `suite.json`'s default seed and bank.
pub fn suite_defaults() -> Result<(u64, u64), String> {
    let root = parse_json(SUITE_JSON).map_err(|e| format!("suite.json: {e}"))?;
    let root = obj(&root)?;
    Ok((
        num_field(root, "default_seed")? as u64,
        num_field(root, "default_bank")? as u64,
    ))
}

/// `(key, digests)` pinned for `workload` at `size`, if any.
fn pinned_digests(workload: &str, size: &str) -> Result<Option<(u64, Vec<u64>)>, String> {
    let root = parse_json(PINNED_JSON).map_err(|e| format!("pinned.json: {e}"))?;
    let Some(w) = Json::get(obj(&root)?, workload) else {
        return Ok(None);
    };
    let w = obj(w)?;
    let Some(Json::Arr(list)) = Json::get(w, size) else {
        return Ok(None);
    };
    let key = num_field(w, "bank")? as u64;
    let digests = list
        .iter()
        .map(|d| match d {
            Json::Str(s) => {
                u64::from_str_radix(s, 16).map_err(|e| format!("pinned digest {s}: {e}"))
            }
            _ => Err("pinned digests are hex strings".into()),
        })
        .collect::<Result<Vec<u64>, String>>()?;
    Ok(Some((key, digests)))
}

/// Everything one run measured.
pub struct RunResult {
    /// Ops timed.
    pub attempted: u64,
    /// One message per failed op.
    pub failures: Vec<String>,
    /// Metrics of the requested kind.
    pub metrics: Metrics,
    /// Digests of the checked outputs.
    pub observed: Vec<u64>,
    /// Chrome trace of the traced run.
    pub trace_json: Option<String>,
    /// Share of CPU time the host gave to other guests during the
    /// timed windows, %.
    pub steal_pct: f64,
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`.
fn cpu_ticks() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = text
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn drive<W: Workload>(ctx: &Ctx, traced: bool) -> Result<RunResult, String> {
    let on = Tracer::new(traced);
    let off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut prepared: Option<W> = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous setup before timing the next one.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(W::prepare(ctx, &on)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = prepared.expect("SETUP_REPEATS > 0");
    let mut metrics = Metrics::default();
    let (attempted, trace_json);
    let (steal0, total0) = cpu_ticks();
    if traced {
        // Untraced and traced quarters alternate, so a drift in the
        // host's speed falls on both sides alike.
        let (mut plain, mut spans) = (Window::default(), Window::default());
        for quarter in 0..4 {
            if quarter % 2 == 0 {
                plain.absorb(w.window(ctx.seconds / 4.0, &off));
            } else {
                spans.absorb(w.window(ctx.seconds / 4.0, &on));
            }
        }
        let (a, b) = (median(&plain.summary().0), median(&spans.summary().0));
        metrics.set("trace.overhead_pct", 100.0 * (b - a) / a);
        attempted = (plain.lat_ms.len() + spans.lat_ms.len()) as u64;
        trace_json = Some(on.chrome_json());
    } else {
        let win = w.window(ctx.seconds, &off);
        let (lat, ops_per_s) = win.summary();
        metrics.set("setup_s", median(&setups));
        metrics.set("ops_per_s", ops_per_s);
        metrics.set("op_ms_p50", percentile(&lat, 0.5));
        metrics.set("op_ms_p90", percentile(&lat, 0.9));
        metrics.set("op_ms_p99", percentile(&lat, 0.99));
        attempted = win.lat_ms.len() as u64;
        trace_json = None;
    }
    let (steal1, total1) = cpu_ticks();
    let steal_pct = 100.0 * (steal1 - steal0) as f64 / (total1 - total0).max(1) as f64;
    let observed = w.observed();
    let mut layers = Metrics::default();
    let failures = w.finish(&on, &mut layers);
    if traced {
        metrics.0.append(&mut layers.0);
        metrics.set("host.steal_pct", steal_pct);
    } else {
        // Measured last, so the oracles' memory counts too.
        metrics.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(RunResult {
        attempted,
        failures,
        metrics,
        observed,
        trace_json,
        steal_pct,
    })
}

/// Runs one workload in this process.
pub fn run_workload(ctx: &Ctx, traced: bool) -> Result<RunResult, String> {
    match ctx.workload.as_str() {
        "table4" => drive::<dp::Dp>(ctx, traced),
        "serve" => drive::<serve::Serve>(ctx, traced),
        "closure" => drive::<closure::Closure>(ctx, traced),
        w => Err(format!("unknown workload {w:?}")),
    }
}

struct Args {
    ctx: Ctx,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (seed, bank) = suite_defaults()?;
    let mut ctx = Ctx {
        workload: String::new(),
        seed,
        bank,
        seconds: 10.0,
        tiny: false,
        corrupt_pinned: false,
        pinning: false,
    };
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?.clone(),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--bank" => ctx.bank = value()?.parse().map_err(|e| format!("--bank: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds.is_finite() && ctx.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
                })
            }
            "--tiny" => ctx.tiny = true,
            "--corrupt-pinned" => ctx.corrupt_pinned = true,
            f => return Err(format!("unknown argument {f:?}")),
        }
    }
    if ctx.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(Args {
        ctx,
        trace: trace.unwrap_or(false),
    })
}

fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let Args { ctx, trace } = parse_args(args)?;
    let spec = Spec::load()?;
    let result = run_workload(&ctx, trace)?;
    for f in &result.failures {
        eprintln!("FAILED {}: {f}", ctx.workload);
    }
    let line = report::result_line(&spec, &result, trace)?;
    let provenance = report::provenance(&ctx);
    let tag = format!(
        "{}-seed{}-trace{}{}",
        ctx.workload,
        ctx.seed,
        u8::from(trace),
        if ctx.tiny { "-tiny" } else { "" }
    );
    report::write_record(
        &tag,
        &provenance,
        result.steal_pct,
        &line,
        result.trace_json.as_deref(),
    )?;
    println!("provenance {provenance}");
    println!("{line}");
    Ok(if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("selftest") => report::selftest(),
        Some("compare") => report::compare(&args[1..]),
        Some("pin") => report::pin(),
        _ => run_main(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("msrbench: {e}");
        ExitCode::from(2)
    })
}
