//! Result line, provenance records, `compare`, `selftest` and `pin`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use msrnet_incremental::json::{parse_json, Json};

use crate::stats::Digest;
use crate::{obj, run_workload, suite_defaults, Ctx, RunResult, Spec, OUT_DIR};

/// Units whose values are exact counts (or ratios of counts) and must
/// repeat bit-for-bit across runs of one seed.
const EXACT_UNITS: [&str; 3] = ["count", "ratio", "bytes"];

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final stdout line: `correct`, `attempted`, `failed` and every
/// metric of the requested kind with its unit.
pub fn result_line(spec: &Spec, r: &RunResult, traced: bool) -> Result<String, String> {
    let declared: Vec<(&str, &str)> = if traced {
        spec.per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect()
    } else {
        spec.end_to_end
            .iter()
            .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
            .collect()
    };
    if let Some(extra) = r
        .metrics
        .0
        .keys()
        .find(|k| !declared.iter().any(|(n, _)| n == k))
    {
        return Err(format!("metric {extra} is not declared in BENCHMARK.json"));
    }
    let mut metrics = Vec::new();
    for (name, unit) in declared {
        let value = match r.metrics.0.get(name) {
            Some(&v) => v,
            // A layer this workload never calls did no work.
            None if traced => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            num(value),
            quote(unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failures.is_empty(),
        r.attempted,
        r.failures.len(),
        metrics.join(", ")
    ))
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn proc_field(path: &str, key: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Digest of the measured source: every `.rs`, `.toml` and `.json` file
/// under `crates/` and `msrbench/`. It identifies the code where the
/// checkout carries no git metadata.
fn tree_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for e in rd.flatten() {
            let p = e.path();
            let name = e.file_name().to_string_lossy().into_owned();
            if p.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(&p, out);
                }
            } else if [".rs", ".toml", ".json"].iter().any(|x| name.ends_with(x)) {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("msrbench"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut d = Digest::default();
    for f in files {
        d.bytes(f.to_string_lossy().as_bytes());
        d.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    format!("{:016x}", d.finish())
}

/// Provenance of a run: code identity, inputs and host fingerprint.
pub fn provenance(ctx: &Ctx) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let git = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"git_rev\": {}, \"tree\": {}, \"workload\": {}, \"seed\": {}, \"bank\": {}, \
         \"tiny\": {}, \"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"mem\": {}}}}}",
        quote(&git),
        quote(&tree_digest()),
        quote(&ctx.workload),
        ctx.seed,
        ctx.bank,
        ctx.tiny,
        quote(&proc_field("/proc/cpuinfo", "model name")),
        quote(&rustc),
        quote(&proc_field("/proc/meminfo", "MemTotal")),
    )
}

/// Writes `.bench_out/<tag>.json` (provenance, the host's steal share
/// during the timed windows, result) and, for a traced run,
/// `.bench_out/<tag>.trace.json`.
pub fn write_record(
    tag: &str,
    provenance: &str,
    steal_pct: f64,
    line: &str,
    trace: Option<&str>,
) -> Result<(), String> {
    let dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    let record = format!(
        "{{\"provenance\": {provenance}, \"steal_pct\": {}, \"result\": {line}}}\n",
        num(steal_pct)
    );
    let path = dir.join(format!("{tag}.json"));
    std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(trace) = trace {
        let path = dir.join(format!("{tag}.trace.json"));
        std::fs::write(&path, trace).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_values(result: &Json) -> Result<Vec<(String, f64)>, String> {
    let metrics = Json::get(obj(result)?, "metrics").ok_or("result has no metrics")?;
    obj(metrics)?
        .iter()
        .map(|(name, m)| match Json::get(obj(m)?, "value") {
            Some(Json::Num(v)) => Ok((name.clone(), *v)),
            _ => Err(format!("metric {name} has no numeric value")),
        })
        .collect()
}

/// `msrbench compare BASE.json NEW.json`: compares two run records.
/// Refuses (exit 2) when their host fingerprints differ; fails (exit 1)
/// when an end-to-end metric is worse by more than its bound or an exact
/// count differs.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err("usage: msrbench compare BASE.json NEW.json".into());
    };
    let (a, b) = (load(base)?, load(new)?);
    let part = |j: &Json, key: &str| -> Result<Json, String> {
        Json::get(obj(j)?, key)
            .cloned()
            .ok_or_else(|| format!("record has no {key}"))
    };
    let host = |j: &Json| -> Result<Json, String> { part(&part(j, "provenance")?, "host") };
    if host(&a)? != host(&b)? {
        eprintln!("msrbench compare: refusing, the host fingerprints differ");
        return Ok(ExitCode::from(2));
    }
    let spec = Spec::load()?;
    let units: Vec<(&str, &str)> = spec
        .end_to_end
        .iter()
        .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
        .chain(spec.per_layer.iter().map(|(n, u)| (n.as_str(), u.as_str())))
        .collect();
    let new_values = metric_values(&part(&b, "result")?)?;
    let mut bad = 0;
    for (name, old) in metric_values(&part(&a, "result")?)? {
        let Some(&(_, new)) = new_values.iter().find(|(n, _)| *n == name) else {
            continue;
        };
        let unit = units
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        let bound = spec.end_to_end.iter().find(|(n, ..)| *n == name);
        let verdict = if EXACT_UNITS.contains(&unit) {
            if old.to_bits() == new.to_bits() {
                "same"
            } else {
                "COUNT CHANGED"
            }
        } else if let Some((_, _, better, bound)) = bound {
            let worse = if better == "lower" {
                new > old * (1.0 + bound)
            } else {
                new < old * (1.0 - bound)
            };
            if worse {
                "REGRESSION"
            } else {
                "within bound"
            }
        } else {
            ""
        };
        if verdict == "COUNT CHANGED" || verdict == "REGRESSION" {
            bad += 1;
        }
        let pct = if old == 0.0 {
            0.0
        } else {
            100.0 * (new - old) / old
        };
        println!("{name:<40} {old:>14.6} {new:>14.6} {pct:>+8.2}% {unit:<6} {verdict}");
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Runs this binary as a child and returns its exit status and parsed
/// result line.
fn child(
    workload: &str,
    seed: u64,
    traced: bool,
    extra: &[&str],
) -> Result<(bool, Option<Json>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed, "--seconds", "1"])
        .args(["--trace", if traced { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().and_then(|l| parse_json(l).ok());
    Ok((out.status.success(), line))
}

/// `msrbench selftest`: every workload at its tiny size. Each must
/// pass, emit every declared metric, repeat every exact count across
/// two traced runs, and fail when a pinned digest is corrupted.
pub fn selftest() -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let (seed, _) = suite_defaults()?;
    let mut problems = Vec::new();
    for w in &spec.workloads {
        let mut check = |ok: bool, what: String| {
            println!("{} {w}: {what}", if ok { "ok  " } else { "FAIL" });
            if !ok {
                problems.push(format!("{w}: {what}"));
            }
        };
        let (ok0, plain) = child(w, seed, false, &[])?;
        let (ok1, first) = child(w, seed, true, &[])?;
        let (ok2, second) = child(w, seed, true, &[])?;
        check(
            ok0 && ok1 && ok2,
            "three tiny runs pass their oracles".into(),
        );
        let values = |j: &Option<Json>| {
            j.as_ref()
                .map(metric_values)
                .transpose()
                .map(Option::unwrap_or_default)
        };
        let (plain, first, second) = (values(&plain)?, values(&first)?, values(&second)?);
        for (name, ..) in &spec.end_to_end {
            let v = plain.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            check(
                v.is_some_and(|v| v > 0.0),
                format!("end-to-end {name} emitted and positive"),
            );
        }
        for (name, unit) in &spec.per_layer {
            let a = first.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            let b = second.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
            check(
                a.is_some() && b.is_some(),
                format!("per-layer {name} emitted"),
            );
            if EXACT_UNITS.contains(&unit.as_str()) {
                let same = a.zip(b).is_some_and(|(a, b)| a.to_bits() == b.to_bits());
                check(same, format!("{name} repeats exactly ({a:?} vs {b:?})"));
            }
        }
        let (corrupt_ok, corrupt) = child(w, seed, false, &["--corrupt-pinned"])?;
        let flagged = corrupt
            .as_ref()
            .and_then(|j| Json::get(obj(j).ok()?, "correct").cloned());
        check(
            !corrupt_ok && flagged == Some(Json::Bool(false)),
            "a corrupted pinned digest fails the run".into(),
        );
    }
    println!("selftest: {} problem(s)", problems.len());
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `msrbench pin`: re-records `msrbench/pinned.json` from this build,
/// at the default seed and bank, full and tiny sizes. Run it from the
/// repository root, and only when a change to the outputs is intended.
pub fn pin() -> Result<ExitCode, String> {
    let spec = Spec::load()?;
    let (seed, bank) = suite_defaults()?;
    let mut out = String::from("{\n");
    for (i, w) in spec.workloads.iter().enumerate() {
        let _ = write!(out, "  {}: {{\"bank\": {bank}", quote(w));
        for size in ["full", "tiny"] {
            let ctx = Ctx {
                workload: w.clone(),
                seed,
                bank,
                seconds: 0.0,
                tiny: size == "tiny",
                corrupt_pinned: false,
                pinning: true,
            };
            let r = run_workload(&ctx, false)?;
            if let Some(f) = r.failures.first() {
                return Err(format!("{w} {size}: cannot pin a failing run: {f}"));
            }
            let digests: Vec<String> = r.observed.iter().map(|d| format!("\"{d:016x}\"")).collect();
            let _ = write!(out, ",\n    \"{size}\": [{}]", digests.join(", "));
            eprintln!("pinned {w} {size}: {} digests", digests.len());
        }
        out.push_str(if i + 1 < spec.workloads.len() {
            "\n  },\n"
        } else {
            "\n  }\n"
        });
    }
    out.push_str("}\n");
    std::fs::write("msrbench/pinned.json", out)
        .map_err(|e| format!("msrbench/pinned.json: {e}"))?;
    Ok(ExitCode::SUCCESS)
}
