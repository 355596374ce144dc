//! `msrnet-cli` — generate, inspect, optimize and render multisource
//! nets from the command line.
//!
//! ```text
//! msrnet-cli gen --terminals 10 --seed 1 [--spacing 800] -o net.msr
//! msrnet-cli ard net.msr [--root 0]
//! msrnet-cli optimize net.msr [--root 0] [--spec PS] [--driver-cost C]
//! msrnet-cli batch a.msr b.msr [--threads 4] [-o report.json]
//! msrnet-cli edits net.msr --trace edits.json [--timing] [-o report.json]
//! msrnet-cli serve --tcp 127.0.0.1:0
//! msrnet-cli client --tcp 127.0.0.1:PORT edits net.msr --trace edits.json
//! msrnet-cli timing --nets 40 --seed 1 [--k 8] [--rounds 8] [-o report.json]
//! msrnet-cli render net.msr -o net.svg [--best] [--no-labels]
//! ```

use std::process::ExitCode;

use msrnet_cli::args::{parse_finite, Flags};
use msrnet_cli::svg::{render_svg, RenderOptions};
use msrnet_core::ard::ard_linear;
use msrnet_core::exhaustive::apply_terminal_choices;
use msrnet_core::{
    optimize, optimize_with_wires, MsriOptions, PruningStrategy, StepStats, TerminalOption,
    TerminalOptions, TradeoffCurve, WireOption,
};
use msrnet_incremental::json::{json_num, json_str};
use msrnet_netgen::format::{parse_net_file, write_net_file, NetFile};
use msrnet_netgen::{table1, ExperimentNet};
use msrnet_rctree::{Assignment, TerminalId};
use msrnet_rng::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  msrnet-cli gen --terminals N --seed S [--spacing UM] [--raw] [-o FILE]
  msrnet-cli stats FILE
  msrnet-cli ard FILE [--root T]
  msrnet-cli optimize FILE [--root T] [--spec PS] [--driver-cost C]
                       [--sizes 1,2,4] [--widths 1,2,4 [--width-cost C/um]]
                       [--pruning divide-conquer|naive|whole-domain]
                       [--stats]
  msrnet-cli batch [FILES...] [--count N --terminals T --seed S [--spacing UM]]
                       [--threads K] [--driver-cost C] [--pruning STRATEGY]
                       [--no-timing] [-o FILE.json]
  msrnet-cli edits FILE --trace EDITS.json [--root T] [--driver-cost C]
                       [--widths 1,2,4 [--width-cost C/um]]
                       [--pruning STRATEGY] [--timing] [-o FILE.json]
  msrnet-cli topology FILE [--root T] [--objective best-ard|min-cost:ARD|hypervolume:C:A]
                       [--rounds R] [--neighbors K] [--radius-weight W]
                       [--densify D] [--seed S] [--pruning STRATEGY] [-o FILE.json]
  msrnet-cli serve (--tcp HOST:PORT | --unix PATH) [--once]
                       [--max-frame BYTES] [--max-sessions N] [--max-resident N]
                       [--max-connections N] [--batch-threads K]
                       [--read-timeout-ms MS]
  msrnet-cli client (--tcp HOST:PORT | --unix PATH) edits FILE --trace EDITS.json
                       [--root T] [--driver-cost C] [--pruning STRATEGY]
                       [--deadline-ms MS] [-o FILE]
  msrnet-cli client (--tcp HOST:PORT | --unix PATH) batch FILES...
                       [--threads K] [--driver-cost C] [--pruning STRATEGY]
                       [--deadline-ms MS] [-o FILE]
  msrnet-cli client (--tcp HOST:PORT | --unix PATH) stats [--deadline-ms MS] [-o FILE]
  msrnet-cli timing [--nets N] [--levels L] [--seed S] [--max-pins P]
                       [--spacing UM] [--clock PS] [--k K] [--rounds R]
                       [--threads T] [--slack-target PS] [-o FILE.json]
  msrnet-cli render FILE [-o FILE.svg] [--best] [--no-labels]
  msrnet-cli report FILE [-o FILE.md] [--root T] [--spec PS] [--driver-cost C]
  msrnet-cli verify [--seed S] [--cases N] [--budget-ms B] [--max-failures K]
                       [--repro-dir DIR] [-o FILE.json]
  msrnet-cli lint [--root DIR] [--json] [-o FILE.json] [--callgraph FILE.json]";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "gen" => cmd_gen(&rest),
        "stats" => cmd_stats(&rest),
        "ard" => cmd_ard(&rest),
        "optimize" => cmd_optimize(&rest),
        "batch" => cmd_batch(&rest),
        "edits" => cmd_edits(&rest),
        "topology" => cmd_topology(&rest),
        "serve" => cmd_serve(&rest),
        "client" => cmd_client(&rest),
        "timing" => cmd_timing(&rest),
        "render" => cmd_render(&rest),
        "report" => cmd_report(&rest),
        "verify" => cmd_verify(&rest),
        "lint" => cmd_lint(&rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

fn cmd_gen(args: &[&String]) -> Result<(), String> {
    let f = Flags::parse(args, &["raw"])?;
    f.reject_unknown(&["terminals", "seed", "spacing", "o"])?;
    let n = f.get_int("terminals", 8usize)?;
    let seed = f.get_int("seed", 1u64)?;
    let spacing = f.get_num("spacing", 800.0)?;
    if n < 2 {
        return Err("--terminals must be at least 2".into());
    }
    let params = table1();
    let mut rng = msrnet_rng::rngs::StdRng::seed_from_u64(seed);
    let exp = ExperimentNet::random(&mut rng, n, &params).map_err(|e| e.to_string())?;
    // --raw keeps the bare Steiner route (no insertion-point seeding):
    // the input `topology` search wants, since its densify moves place
    // repeater sites where the DP frontier earns them.
    let net = if f.has("raw") {
        exp.net
    } else {
        exp.with_insertion_points(spacing)
    };
    let lib = vec![params.repeater(1.0)];
    let text = write_net_file(&net, &lib);
    match f.get("o") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} terminals, {} insertion points, {:.0} µm wire",
                net.topology.terminal_count(),
                net.topology.insertion_point_count(),
                net.topology.total_wirelength()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn load(path: &str) -> Result<NetFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_net_file(&text).map_err(|e| e.to_string())
}

fn root_flag(f: &Flags<'_>, nf: &NetFile) -> Result<TerminalId, String> {
    let idx = f.get_int("root", 0usize)?;
    if idx >= nf.net.terminals.len() {
        return Err(format!("--root {idx} out of range"));
    }
    Ok(TerminalId(idx))
}

fn cmd_stats(args: &[&String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&[])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    println!("{}", nf.net.stats());
    if nf.library.is_empty() {
        println!("repeater library : (none)");
    } else {
        println!("repeater library :");
        for r in &nf.library {
            println!(
                "  {} cost={} capA={} capB={}{}",
                r.name,
                r.cost,
                r.cap_a,
                r.cap_b,
                if r.inverting { " inverting" } else { "" }
            );
        }
    }
    Ok(())
}

fn cmd_ard(args: &[&String]) -> Result<(), String> {
    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&["root"])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    let root = root_flag(&f, &nf)?;
    let rooted = nf.net.rooted_at_terminal(root);
    let asg = Assignment::empty(nf.net.topology.vertex_count());
    let report = ard_linear(&nf.net, &rooted, &nf.library, &asg);
    if report.ard == f64::NEG_INFINITY {
        println!("ARD: unconstrained (no distinct source/sink pair)");
    } else {
        let (u, w) = report.critical.expect("finite ARD has a pair");
        println!("ARD: {:.2} ps", report.ard);
        println!("critical path: {u} → {w}");
    }
    Ok(())
}

fn parse_list(raw: &str, flag: &str) -> Result<Vec<f64>, String> {
    raw.split(',')
        .map(|v| {
            parse_finite(flag, v.trim()).and_then(|x| {
                if x > 0.0 {
                    Ok(x)
                } else {
                    Err(format!("--{flag}: values must be positive"))
                }
            })
        })
        .collect()
}

/// The wire-sizing menu from `--widths 1,2,4 [--width-cost C/um]`: an
/// area cost per µm per unit of extra width, so 1W stays free and the
/// min-cost baseline is the bare net. Absent flag → the unit menu.
fn widths_flag(f: &Flags<'_>) -> Result<Vec<WireOption>, String> {
    match f.get("widths") {
        None => Ok(vec![WireOption::unit()]),
        Some(raw) => {
            let width_cost = f.get_num("width-cost", 0.0)?;
            Ok(parse_list(raw, "widths")?
                .into_iter()
                .map(|w| WireOption::width(&format!("{w}W"), w, width_cost * (w - 1.0)))
                .collect())
        }
    }
}

/// Parses `--pruning` into a [`PruningStrategy`] (default when absent).
/// The grammar lives in [`PruningStrategy::parse`], which every entry
/// point (optimize, batch, edits, client, served requests) shares.
fn pruning_flag(f: &Flags<'_>) -> Result<PruningStrategy, String> {
    match f.get("pruning") {
        None => Ok(PruningStrategy::default()),
        Some(v) => PruningStrategy::parse(v).map_err(|e| format!("--pruning: {e}")),
    }
}

/// Deterministic pruning-statistics JSON for `optimize --stats`: no
/// timing fields, so the output is byte-stable for a fixed input and can
/// be pinned by a golden-file test.
fn stats_json(curve: &TradeoffCurve) -> String {
    let s = curve.stats();
    let step = |st: &StepStats| {
        format!(
            "{{\"generated\": {}, \"scalar_pruned\": {}, \"pwl_pruned\": {}, \
             \"prebound_rejected\": {}, \"materialized_avoided\": {}, \"peak_set\": {}}}",
            st.generated,
            st.scalar_pruned,
            st.pwl_pruned,
            st.prebound_rejected,
            st.materialized_avoided,
            st.peak_set
        )
    };
    format!(
        "{{\n  \"generated\": {},\n  \"surviving\": {},\n  \"prunes\": {},\n  \
         \"max_set_size\": {},\n  \"max_segments\": {},\n  \"peak_set\": {},\n  \
         \"tradeoff_points\": {},\n  \"steps\": {{\n    \"leaf\": {},\n    \
         \"augment\": {},\n    \"join\": {},\n    \"repeater\": {}\n  }}\n}}",
        s.generated,
        s.surviving,
        s.prunes,
        s.max_set_size,
        s.max_segments,
        s.peak_set(),
        curve.len(),
        step(&s.leaf),
        step(&s.augment),
        step(&s.join),
        step(&s.repeater),
    )
}

fn cmd_optimize(args: &[&String]) -> Result<(), String> {
    let f = Flags::parse(args, &["stats"])?;
    f.reject_unknown(&[
        "root",
        "spec",
        "driver-cost",
        "sizes",
        "widths",
        "width-cost",
        "pruning",
    ])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    let root = root_flag(&f, &nf)?;
    if nf.library.is_empty() {
        eprintln!("note: file has no repeater library; only the bare net is evaluated");
    }
    let driver_cost = f.get_num("driver-cost", 0.0)?;
    // Driver sizing: scale each terminal's file-declared driver by the
    // requested factors (kX: resistance / k, bus capacitance × k, cost
    // driver_cost × k). Prev/next-stage loading is not modeled in the
    // file format; keep arrival/downstream extras at the file values.
    let term_opts = match f.get("sizes") {
        None => TerminalOptions::defaults_with_cost(&nf.net, driver_cost),
        Some(raw) => {
            let sizes = parse_list(raw, "sizes")?;
            let menus = nf
                .net
                .terminals
                .iter()
                .map(|t| {
                    sizes
                        .iter()
                        .map(|&k| TerminalOption {
                            name: format!("{k}X"),
                            cost: driver_cost * k,
                            arrival_extra: t.drive_intrinsic,
                            drive_res: t.drive_res / k,
                            cap: t.cap * k,
                            downstream_extra: 0.0,
                        })
                        .collect()
                })
                .collect();
            TerminalOptions::new(menus)
        }
    };
    let wire_options = widths_flag(&f)?;
    let options = MsriOptions {
        allow_inverting: nf.library.iter().any(|r| r.inverting),
        pruning: pruning_flag(&f)?,
        ..MsriOptions::default()
    };
    let curve = optimize_with_wires(&nf.net, root, &nf.library, &term_opts, &wire_options, &options)
        .map_err(|e| e.to_string())?;
    println!("{curve}");
    if f.has("stats") {
        println!("{}", stats_json(&curve));
    }
    if let Some(spec) = f.get("spec") {
        let spec = parse_finite("spec", spec)?;
        match curve.min_cost_meeting(spec) {
            None => println!("spec {spec} ps: UNACHIEVABLE (best is {:.2})", curve.best_ard().ard),
            Some(p) => {
                println!("spec {spec} ps: cost {:.1}, ARD {:.2} ps", p.cost, p.ard);
                for (v, placed) in p.assignment.placements() {
                    println!(
                        "  {} at {} oriented {}",
                        nf.library[placed.repeater].name, nf.names[v.0], placed.orientation
                    );
                }
                // Independent re-verification.
                let rooted = nf.net.rooted_at_terminal(root);
                let (scenario, _) =
                    apply_terminal_choices(&nf.net, &term_opts, &p.terminal_choices);
                let check = ard_linear(&scenario, &rooted, &nf.library, &p.assignment);
                println!("  verified: {:.2} ps", check.ard);
            }
        }
    }
    Ok(())
}

fn cmd_batch(args: &[&String]) -> Result<(), String> {
    use msrnet_batch::{random_jobs, run_batch, BatchJob};
    let f = Flags::parse(args, &["no-timing"])?;
    f.reject_unknown(&[
        "threads",
        "driver-cost",
        "count",
        "terminals",
        "seed",
        "spacing",
        "pruning",
        "o",
    ])?;
    let threads = f.get_int("threads", 1usize)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let driver_cost = f.get_num("driver-cost", 0.0)?;
    let pruning = pruning_flag(&f)?;
    let mut jobs: Vec<BatchJob> = Vec::new();
    for path in &f.positional {
        let nf = load(path)?;
        let mut job = BatchJob::new(*path, nf.net, nf.library);
        job.drivers = TerminalOptions::defaults_with_cost(&job.net, driver_cost);
        job.options.allow_inverting = job.library.iter().any(|r| r.inverting);
        jobs.push(job);
    }
    let count = f.get_int("count", 0usize)?;
    if count > 0 {
        let n = f.get_int("terminals", 8usize)?;
        let seed = f.get_int("seed", 1u64)?;
        let spacing = f.get_num("spacing", 800.0)?;
        if n < 2 {
            return Err("--terminals must be at least 2".into());
        }
        jobs.extend(random_jobs(&table1(), count, n, seed, spacing));
    }
    // One strategy for every job in the run, file-loaded and generated
    // alike — the same plumbing the served `batch` request uses.
    for job in &mut jobs {
        job.options.pruning = pruning;
    }
    if jobs.is_empty() {
        return Err("no nets to optimize: pass FILE arguments or --count N".into());
    }
    let report = run_batch(&jobs, threads);
    let failed = report.results.iter().filter(|r| r.outcome.is_err()).count();
    eprintln!(
        "optimized {} nets on {} threads in {:.1} ms ({failed} failed)",
        report.results.len(),
        report.threads,
        report.wall.as_secs_f64() * 1e3,
    );
    // --no-timing nulls the volatile fields (wall_ms, nets_per_s,
    // micros), making the report byte-identical across runs and thread
    // counts — the local oracle for the served `batch` request.
    let json = report.to_json_opts(!f.has("no-timing"));
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn cmd_edits(args: &[&String]) -> Result<(), String> {
    use msrnet_incremental::parse_trace;
    use msrnet_service::replay::Replayer;

    let f = Flags::parse(args, &["timing"])?;
    f.reject_unknown(&[
        "trace",
        "root",
        "driver-cost",
        "widths",
        "width-cost",
        "pruning",
        "o",
    ])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    let root = root_flag(&f, &nf)?;
    let trace_path = f.get("trace").ok_or("missing --trace EDITS.json")?;
    let trace_text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("reading {trace_path}: {e}"))?;
    let edits = parse_trace(&trace_text).map_err(|e| format!("{trace_path}: {e}"))?;
    let driver_cost = f.get_num("driver-cost", 0.0)?;
    let wire_options = widths_flag(&f)?;
    let timing = f.has("timing");

    // The replay engine is shared with `msrnet-service`: served
    // sessions drive this exact implementation, so this command is the
    // byte-for-byte oracle for a served open/edit/recompute exchange.
    let mut rep = Replayer::open_with_wires(
        *path,
        nf.net,
        root,
        nf.library,
        wire_options,
        driver_cost,
        pruning_flag(&f)?,
        timing,
    )?;
    rep.replay(&edits, timing);

    let json = rep.report();
    eprintln!(
        "replayed {} edits ({} applied, {} rejected, {} mismatches)",
        rep.edits_seen(),
        rep.applied(),
        rep.rejected(),
        rep.mismatches(),
    );
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{json}"),
    }
    if rep.mismatches() == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} incremental recompute(s) diverged from the from-scratch oracle",
            rep.mismatches()
        ))
    }
}

fn cmd_topology(args: &[&String]) -> Result<(), String> {
    use msrnet_incremental::{trace_to_json, IncrementalOptimizer, Objective, SearchConfig,
        TopologySearch};

    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&[
        "root",
        "objective",
        "rounds",
        "neighbors",
        "radius-weight",
        "densify",
        "seed",
        "pruning",
        "o",
    ])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    let root = root_flag(&f, &nf)?;
    if nf.library.is_empty() {
        return Err("net file has no repeater library (topology search scores DP frontiers)".into());
    }
    let objective: Objective = f
        .get("objective")
        .unwrap_or("best-ard")
        .parse()
        .map_err(|e| format!("--objective: {e}"))?;
    let radius_weight = f.get_num("radius-weight", 0.5)?;
    if !(radius_weight.is_finite() && radius_weight >= 0.0) {
        return Err("--radius-weight must be finite and non-negative".into());
    }
    let cfg = SearchConfig {
        rounds: f.get_int("rounds", 2usize)?,
        neighbors: f.get_int("neighbors", 4usize)?,
        radius_weight,
        densify_top: f.get_int("densify", 2usize)?,
        seed: f.get_int("seed", 1u64)?,
    };

    // Zero-cost default driver menus: the search only detaches
    // terminals whose removal + re-attachment reproduces the session's
    // menus exactly, and the structural edits rebuild default menus.
    let term_opts = TerminalOptions::defaults(&nf.net);
    let options = MsriOptions {
        allow_inverting: nf.library.iter().any(|r| r.inverting),
        pruning: pruning_flag(&f)?,
        ..MsriOptions::default()
    };
    let session = IncrementalOptimizer::new(
        nf.net,
        root,
        nf.library,
        term_opts,
        vec![WireOption::unit()],
        options,
    );
    let mut search = TopologySearch::new(session, objective, cfg);
    let out = search.run();

    // Non-finite (infeasible) scores serialize as null.
    let json = format!(
        "{{\n  \"benchmark\": \"msrnet_topology\",\n  \"net\": {},\n  \
         \"root\": {},\n  \"objective\": {},\n  \"seed\": {},\n  \
         \"rounds\": {},\n  \"rounds_run\": {},\n  \"improved\": {},\n  \
         \"initial\": {{\"score\": {}, \"wirelength\": {}, \"points\": {}}},\n  \
         \"final\": {{\"score\": {}, \"wirelength\": {}, \"points\": {}}},\n  \
         \"moves\": {{\"reattach_trials\": {}, \"reattach_accepted\": {}, \
         \"densify_trials\": {}, \"densify_accepted\": {}, \"rejected_edits\": {}}},\n  \
         \"trace\": {}\n}}\n",
        json_str(path),
        root.0,
        json_str(&objective.to_string()),
        cfg.seed,
        cfg.rounds,
        out.stats.rounds_run,
        out.improved(),
        json_num(out.initial_score),
        json_num(out.initial_wirelength),
        out.initial_points,
        json_num(out.final_score),
        json_num(out.final_wirelength),
        out.final_points,
        out.stats.reattach_trials,
        out.stats.reattach_accepted,
        out.stats.densify_trials,
        out.stats.densify_accepted,
        out.stats.rejected_edits,
        trace_to_json(&out.edits),
    );
    eprintln!(
        "searched {} round(s): score {} -> {} ({}), {} edit(s) kept",
        out.stats.rounds_run,
        json_num(out.initial_score),
        json_num(out.final_score),
        if out.improved() { "improved" } else { "unchanged" },
        out.edits.len(),
    );
    match f.get("o") {
        Some(dst) => {
            std::fs::write(dst, &json).map_err(|e| format!("writing {dst}: {e}"))?;
            eprintln!("wrote {dst}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

/// The server/client endpoint from `--tcp HOST:PORT` or `--unix PATH`
/// (exactly one required).
fn endpoint_flag(f: &Flags<'_>) -> Result<msrnet_service::net::Endpoint, String> {
    use msrnet_service::net::Endpoint;
    match (f.get("tcp"), f.get("unix")) {
        (Some(addr), None) => Ok(Endpoint::Tcp(addr.to_string())),
        (None, Some(path)) => Ok(Endpoint::Unix(std::path::PathBuf::from(path))),
        (Some(_), Some(_)) => Err("--tcp and --unix are mutually exclusive".into()),
        (None, None) => Err("missing endpoint: pass --tcp HOST:PORT or --unix PATH".into()),
    }
}

fn cmd_serve(args: &[&String]) -> Result<(), String> {
    use msrnet_service::server::{Server, ServerConfig};
    use std::io::Write;
    use std::sync::atomic::AtomicBool;

    let f = Flags::parse(args, &["once"])?;
    f.reject_unknown(&[
        "tcp",
        "unix",
        "max-frame",
        "max-sessions",
        "max-resident",
        "max-connections",
        "batch-threads",
        "read-timeout-ms",
    ])?;
    if let Some(extra) = f.positional.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let endpoint = endpoint_flag(&f)?;
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        max_payload: f.get_int("max-frame", defaults.max_payload)?,
        max_sessions: f.get_int("max-sessions", defaults.max_sessions)?,
        max_resident: f.get_int("max-resident", defaults.max_resident)?,
        max_connections: f.get_int("max-connections", defaults.max_connections)?,
        batch_threads_cap: f.get_int("batch-threads", defaults.batch_threads_cap)?,
        read_timeout_ms: f.get_int("read-timeout-ms", defaults.read_timeout_ms)?,
        once: f.has("once"),
    };
    let server =
        Server::bind(&endpoint, config).map_err(|e| format!("binding {endpoint}: {e}"))?;
    let local = server.local_endpoint().map_err(|e| e.to_string())?;
    // The bound endpoint goes to stdout, flushed eagerly, so scripts
    // and tests can read the OS-assigned port of a `--tcp HOST:0` bind
    // before the first connection arrives.
    println!("{local}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    eprintln!("serving on {local}");
    let stop = AtomicBool::new(false);
    server.run(&stop).map_err(|e| e.to_string())
}

fn cmd_client(args: &[&String]) -> Result<(), String> {
    use msrnet_service::client::Client;

    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&[
        "tcp",
        "unix",
        "trace",
        "root",
        "driver-cost",
        "threads",
        "deadline-ms",
        "pruning",
        "o",
    ])?;
    let endpoint = endpoint_flag(&f)?;
    let op = f
        .positional
        .first()
        .ok_or("missing client operation (edits|batch|stats)")?;
    let mut client = Client::connect(&endpoint)
        .map_err(|e| format!("connecting to {endpoint}: {e}"))?;
    client.deadline_ms = f.get_int("deadline-ms", client.deadline_ms)?;
    let output = match *op {
        // One served open/edit/recompute/close exchange; the printed
        // report is byte-identical to a local `msrnet-cli edits` run on
        // the same net and trace (same Replayer, verbatim payloads).
        "edits" => {
            let path = f.positional.get(1).ok_or("missing net file")?;
            let msr = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {path}: {e}"))?;
            let trace_path = f.get("trace").ok_or("missing --trace EDITS.json")?;
            let trace = std::fs::read_to_string(trace_path)
                .map_err(|e| format!("reading {trace_path}: {e}"))?;
            let root = f.get_int("root", 0u32)?;
            let driver_cost = f.get_num("driver-cost", 0.0)?;
            // Validate locally so a bad strategy fails before the dial.
            let pruning = pruning_flag(&f)?.to_string();
            let session = client
                .open_with_pruning(path, &msr, root, driver_cost, &pruning)
                .map_err(|e| e.to_string())?;
            client.edit(session, &trace).map_err(|e| e.to_string())?;
            let report = client.recompute(session).map_err(|e| e.to_string())?;
            client.close(session).map_err(|e| e.to_string())?;
            report
        }
        // A served pool run; output matches a local
        // `msrnet-cli batch --no-timing` on the same files.
        "batch" => {
            let files = &f.positional[1..];
            if files.is_empty() {
                return Err("no nets to optimize: pass FILE arguments".into());
            }
            let threads = f.get_int("threads", 1usize)?;
            let driver_cost = f.get_num("driver-cost", 0.0)?;
            let pruning = pruning_flag(&f)?.to_string();
            let mut spec = format!(
                "{{\"threads\": {threads}, \"driver_cost\": {driver_cost}, \
                 \"pruning\": {}, \"nets\": [",
                json_str(&pruning)
            );
            for (i, path) in files.iter().enumerate() {
                let msr = std::fs::read_to_string(path)
                    .map_err(|e| format!("reading {path}: {e}"))?;
                if i > 0 {
                    spec.push_str(", ");
                }
                spec.push_str(&format!(
                    "{{\"name\": {}, \"msr\": {}}}",
                    json_str(path),
                    json_str(&msr)
                ));
            }
            spec.push_str("]}");
            client.batch(&spec).map_err(|e| e.to_string())?
        }
        "stats" => client.stats().map_err(|e| e.to_string())?,
        other => {
            return Err(format!(
                "unknown client operation `{other}` (use edits|batch|stats)"
            ))
        }
    };
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &output).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{output}"),
    }
    Ok(())
}

fn cmd_timing(args: &[&String]) -> Result<(), String> {
    use msrnet_timing::{generate_chip, run_closure, ChipConfig, ClosureConfig};
    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&[
        "nets",
        "levels",
        "seed",
        "max-pins",
        "spacing",
        "clock",
        "k",
        "rounds",
        "threads",
        "slack-target",
        "o",
    ])?;
    let threads = f.get_int("threads", 1usize)?;
    if threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    let chip = ChipConfig {
        nets: f.get_int("nets", 40usize)?,
        levels: f.get_int("levels", 4usize)?,
        seed: f.get_int("seed", 1u64)?,
        max_pins: f.get_int("max-pins", 10usize)?,
        spacing: f.get_num("spacing", 2500.0)?,
        clock: f.get_num("clock", 0.0)?,
        ..ChipConfig::default()
    };
    if chip.nets == 0 {
        return Err("--nets must be at least 1".into());
    }
    if chip.levels == 0 {
        return Err("--levels must be at least 1".into());
    }
    let cfg = ClosureConfig {
        k: f.get_int("k", 8usize)?,
        max_rounds: f.get_int("rounds", 8usize)?,
        threads,
        slack_target: f.get_num("slack-target", 0.0)?,
    };
    let mut design = generate_chip(&chip).map_err(|e| e.to_string())?;
    let report = run_closure(&mut design, &cfg).map_err(|e| e.to_string())?;
    let touched: usize = report.rounds.iter().map(|r| r.touched.len()).sum();
    eprintln!(
        "closed timing on {} nets ({} cells, {} pins): WNS {:.2} -> {:.2} ps, \
         TNS {:.2} -> {:.2} ps over {} round(s), {touched} nets touched, \
         repeater cost {:.1}{}",
        report.nets,
        report.cells,
        report.pins,
        report.wns_initial,
        report.wns_final,
        report.tns_initial,
        report.tns_final,
        report.rounds.len(),
        report.cost_added,
        if report.converged { "" } else { " (round budget exhausted)" },
    );
    let json = report.to_json();
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{json}"),
    }
    Ok(())
}

fn cmd_verify(args: &[&String]) -> Result<(), String> {
    use msrnet_verify::{run_verify, VerifyConfig, VerifyReport};
    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&["seed", "cases", "budget-ms", "max-failures", "repro-dir", "o"])?;
    let cfg = VerifyConfig {
        seed: f.get_int("seed", 7u64)?,
        cases: f.get_int("cases", 500usize)?,
        budget_ms: f.get_int("budget-ms", 30_000u64)?,
        max_failures: f.get_int("max-failures", 3usize)?,
    };
    let repro_dir = f.get("repro-dir").unwrap_or("verify-repros");
    let report = run_verify(&cfg);

    eprintln!(
        "verified {} cases ({} skipped by the generator) in {:.0} ms{}",
        report.cases_run,
        report.cases_skipped,
        report.wall_ms,
        if report.budget_exhausted {
            " — budget exhausted"
        } else {
            ""
        }
    );
    for (name, kind, stats) in &report.checks {
        eprintln!(
            "  {name:<30} [{}] pass {:>4}  skip {:>4}  fail {:>2}",
            match kind {
                msrnet_verify::CheckKind::Oracle => "oracle",
                msrnet_verify::CheckKind::Metamorphic => "metamo",
            },
            stats.passed,
            stats.skipped,
            stats.failed
        );
    }

    // Persist every shrunk repro as a .msr plus a ready-to-paste
    // regression test before reporting failure.
    if !report.failures.is_empty() {
        std::fs::create_dir_all(repro_dir).map_err(|e| format!("creating {repro_dir}: {e}"))?;
        for fail in &report.failures {
            let base = format!("{repro_dir}/{}-{}", fail.case, fail.check);
            let msr = format!("{base}.msr");
            let inst = &fail.shrunk.instance;
            std::fs::write(&msr, write_net_file(&inst.net, &inst.library))
                .map_err(|e| format!("writing {msr}: {e}"))?;
            let test = format!("{base}.test.rs");
            std::fs::write(&test, VerifyReport::regression_test_snippet(fail, &msr))
                .map_err(|e| format!("writing {test}: {e}"))?;
            // Companion edit trace so the incremental-session checks can
            // be replayed from the pinned corpus files.
            if !inst.edits.is_empty() {
                let trace = format!("{base}.edits.json");
                std::fs::write(&trace, msrnet_incremental::trace_to_json(&inst.edits))
                    .map_err(|e| format!("writing {trace}: {e}"))?;
            }
            eprintln!(
                "mismatch: {} on {} ({} -> {} terminals after shrinking); repro {msr}, regression test {test}",
                fail.check, fail.case, fail.terminals_before, fail.terminals_after
            );
            eprintln!(
                "  promote the repro into crates/verify/corpus/ to pin it in the replay suite"
            );
        }
    }

    let json = report.to_json();
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{json}"),
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "{} oracle mismatch(es); shrunk repros in {repro_dir}/",
            report.failures.len()
        ))
    }
}

fn cmd_lint(args: &[&String]) -> Result<(), String> {
    use std::path::Path;

    let f = Flags::parse(args, &["json"])?;
    f.reject_unknown(&["root", "o", "callgraph"])?;
    // Default root: walk up from the current directory to the first
    // ancestor holding a workspace manifest (so `msrnet-cli lint` works
    // from anywhere inside the tree).
    let root = match f.get("root") {
        Some(dir) => Path::new(dir).to_path_buf(),
        None => {
            let cwd = std::env::current_dir().map_err(|e| format!("cwd: {e}"))?;
            let mut probe = cwd.as_path();
            loop {
                if probe.join("Cargo.toml").is_file() && probe.join("crates").is_dir() {
                    break probe.to_path_buf();
                }
                probe = probe
                    .parent()
                    .ok_or("no workspace root found; pass --root DIR")?;
            }
        }
    };
    let (report, callgraph_json) =
        msrnet_analyzer::analyze_workspace_full(&root).map_err(|e| e.to_string())?;
    if let Some(out) = f.get("callgraph") {
        std::fs::write(out, &callgraph_json).map_err(|e| format!("writing {out}: {e}"))?;
        eprintln!("wrote call graph to {out}");
    }
    eprintln!(
        "linted {} crates, {} files: {} diagnostic(s), {} suppressed by markers",
        report.crates_scanned,
        report.files_scanned,
        report.diagnostics.len(),
        report.suppressed,
    );
    if f.has("json") || f.get("o").is_some() {
        let json = report.to_json();
        match f.get("o") {
            Some(out) => {
                std::fs::write(out, &json).map_err(|e| format!("writing {out}: {e}"))?;
                eprintln!("wrote {out}");
                if f.has("json") {
                    print!("{json}");
                }
            }
            None => print!("{json}"),
        }
    }
    if !f.has("json") {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!(
            "{} unsuppressed lint diagnostic(s); fix them or add justified \
             `msrnet-allow` markers",
            report.diagnostics.len()
        ))
    }
}

fn cmd_report(args: &[&String]) -> Result<(), String> {
    use msrnet_cli::report::{make_report, ReportOptions};
    let f = Flags::parse(args, &[])?;
    f.reject_unknown(&["root", "spec", "driver-cost", "o"])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    let root = root_flag(&f, &nf)?;
    let spec = match f.get("spec") {
        None => None,
        Some(v) => Some(parse_finite("spec", v)?),
    };
    let opts = ReportOptions {
        root,
        spec,
        driver_cost: f.get_num("driver-cost", 0.0)?,
    };
    let report = make_report(&nf, &opts)?;
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &report).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{report}"),
    }
    Ok(())
}

fn cmd_render(args: &[&String]) -> Result<(), String> {
    let f = Flags::parse(args, &["best", "no-labels"])?;
    f.reject_unknown(&["o"])?;
    let path = f.positional.first().ok_or("missing net file")?;
    let nf = load(path)?;
    let opts = RenderOptions {
        labels: !f.has("no-labels"),
        ..RenderOptions::default()
    };
    let assignment = if f.has("best") {
        let term_opts = TerminalOptions::defaults(&nf.net);
        let options = MsriOptions {
            allow_inverting: nf.library.iter().any(|r| r.inverting),
            ..MsriOptions::default()
        };
        let curve = optimize(&nf.net, TerminalId(0), &nf.library, &term_opts, &options)
            .map_err(|e| e.to_string())?;
        eprintln!(
            "rendering best solution: ARD {:.1} ps, {} repeaters",
            curve.best_ard().ard,
            curve.best_ard().assignment.placed_count()
        );
        Some(curve.best_ard().assignment.clone())
    } else {
        None
    };
    let svg = render_svg(&nf.net, assignment.as_ref(), &opts);
    match f.get("o") {
        Some(out) => {
            std::fs::write(out, &svg).map_err(|e| format!("writing {out}: {e}"))?;
            eprintln!("wrote {out}");
        }
        None => print!("{svg}"),
    }
    Ok(())
}
