//! End-to-end tests of the `msrnet-cli` binary: generate a net file,
//! inspect it, optimize it, render it — all through the real executable.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msrnet-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msrnet-cli-test-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn msrnet-cli");
    assert!(
        out.status.success(),
        "command failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

#[test]
fn gen_ard_optimize_render_report_roundtrip() {
    let dir = tmpdir("roundtrip");
    let net = dir.join("net.msr");
    let svg = dir.join("net.svg");
    let md = dir.join("report.md");

    run_ok(bin().args([
        "gen",
        "--terminals",
        "5",
        "--seed",
        "7",
        "--spacing",
        "1000",
        "-o",
        net.to_str().expect("utf8 path"),
    ]));
    let text = std::fs::read_to_string(&net).expect("net file written");
    assert!(text.contains("tech "));
    assert!(text.contains("repeater "));

    let out = run_ok(bin().args(["stats", net.to_str().expect("utf8")]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("terminals        : 5"));

    let out = run_ok(bin().args(["ard", net.to_str().expect("utf8")]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ARD:"));
    assert!(stdout.contains("critical path:"));

    let out = run_ok(bin().args([
        "optimize",
        net.to_str().expect("utf8"),
        "--spec",
        "999999",
        "--driver-cost",
        "2",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cost"));
    assert!(stdout.contains("verified:"));

    run_ok(bin().args([
        "render",
        net.to_str().expect("utf8"),
        "-o",
        svg.to_str().expect("utf8"),
        "--best",
    ]));
    let rendered = std::fs::read_to_string(&svg).expect("svg written");
    assert!(rendered.starts_with("<svg"));
    assert!(rendered.contains("<polygon"), "best solution draws repeaters");

    run_ok(bin().args([
        "report",
        net.to_str().expect("utf8"),
        "-o",
        md.to_str().expect("utf8"),
    ]));
    let report = std::fs::read_to_string(&md).expect("report written");
    assert!(report.contains("# msrnet report"));
    assert!(report.contains("Knee of the frontier"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gen_to_stdout_parses_back() {
    let out = run_ok(bin().args(["gen", "--terminals", "4", "--seed", "1"]));
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = msrnet_netgen::format::parse_net_file(&text).expect("stdout parses");
    assert_eq!(parsed.net.topology.terminal_count(), 4);
}

#[test]
fn optimize_with_sizing_flags() {
    let dir = tmpdir("sizing-flags");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "11", "--spacing", "2000",
        "-o", net.to_str().expect("utf8"),
    ]));
    // Driver sizing alone must reach a frontier at least as good as the
    // fixed-driver run.
    let base = run_ok(bin().args(["optimize", net.to_str().expect("utf8")]));
    let sized = run_ok(bin().args([
        "optimize", net.to_str().expect("utf8"),
        "--sizes", "1,2,4", "--driver-cost", "2",
    ]));
    let last_ard = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.chars().next().is_some_and(|c| c.is_ascii_digit()))
            .filter_map(|l| l.split_whitespace().nth(1).and_then(|v| v.parse::<f64>().ok()))
            .fold(f64::INFINITY, f64::min)
    };
    assert!(last_ard(&sized) <= last_ard(&base) + 1e-6);
    // Wire widths parse and run.
    let wired = run_ok(bin().args([
        "optimize", net.to_str().expect("utf8"),
        "--widths", "1,2", "--width-cost", "0.0005",
    ]));
    assert!(String::from_utf8_lossy(&wired.stdout).contains("cost"));
    // Bad lists are rejected.
    let bad = bin()
        .args(["optimize", net.to_str().expect("utf8"), "--sizes", "1,zero"])
        .output()
        .expect("spawn");
    assert!(!bad.status.success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `args`, expecting exit code 1 with `--{flag}` named on stderr.
fn assert_flag_rejected(args: &[&str], flag: &str) {
    let out = bin().args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("--{flag}")), "{args:?}: {stderr}");
}

#[test]
fn widths_list_rejects_non_finite_values() {
    let dir = tmpdir("widths-finite");
    let net = dir.join("net.msr");
    let trace = dir.join("trace.json");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "1", "-o", net.to_str().expect("utf8"),
    ]));
    let edit = r#"{"edits": [{"op": "set_arrival", "terminal": 1, "value": 40}]}"#;
    std::fs::write(&trace, edit).expect("write trace");
    let (net, trace) = (net.to_str().expect("utf8"), trace.to_str().expect("utf8"));
    assert_flag_rejected(&["optimize", net, "--widths", "1,inf"], "widths");
    assert_flag_rejected(&["edits", net, "--trace", trace, "--widths", "1,1e309"], "widths");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sizes_list_rejects_non_finite_values() {
    let dir = tmpdir("sizes-finite");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "1", "-o", net.to_str().expect("utf8"),
    ]));
    assert_flag_rejected(&["optimize", net.to_str().expect("utf8"), "--sizes", "1,inf"], "sizes");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pruning_flag_is_validated_on_every_entry_point() {
    let dir = tmpdir("pruning-flag");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "3", "--spacing", "2000",
        "-o", net.to_str().expect("utf8"),
    ]));
    let trace = dir.join("trace.json");
    std::fs::write(&trace, "{\"edits\": []}").expect("write trace");

    // Valid strategies run on optimize, batch and edits...
    let out = run_ok(bin().args([
        "optimize", net.to_str().expect("utf8"),
        "--pruning", "naive", "--stats",
    ]));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"steps\""), "stats JSON reports the per-step rows");
    assert!(!stdout.contains("\"approx\""), "no approximation block is reported");
    run_ok(bin().args([
        "batch", "--count", "1", "--terminals", "4", "--seed", "3",
        "--pruning", "whole-domain",
    ]));
    run_ok(bin().args([
        "edits", net.to_str().expect("utf8"),
        "--trace", trace.to_str().expect("utf8"),
        "--pruning", "whole-domain",
    ]));

    // ...and every entry point rejects a malformed strategy through the
    // one shared parser; `approx:EPS` names no strategy.
    let edits = |strategy: &'static str| {
        vec![
            "edits",
            net.to_str().expect("utf8"),
            "--trace",
            trace.to_str().expect("utf8"),
            "--pruning",
            strategy,
        ]
    };
    for cmd in [
        vec!["optimize", net.to_str().expect("utf8"), "--pruning", "quantum"],
        vec!["optimize", net.to_str().expect("utf8"), "--pruning", "approx:0.05"],
        vec!["optimize", net.to_str().expect("utf8"), "--pruning", "approx:0"],
        vec!["batch", "--count", "1", "--pruning", "quantum"],
        vec!["batch", "--count", "1", "--pruning", "approx:0.05"],
        edits("approx:0.05"),
        edits("approx:-0.1"),
    ] {
        let out = bin().args(&cmd).output().expect("spawn");
        assert_eq!(out.status.code(), Some(1), "{cmd:?} must exit 1");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--pruning"), "{cmd:?} stderr names the flag: {stderr}");
    }

    // Commands that never learned the flag reject it as unknown.
    let out = bin()
        .args(["ard", net.to_str().expect("utf8"), "--pruning", "naive"])
        .output()
        .expect("spawn");
    assert!(!out.status.success(), "ard must reject --pruning as unknown");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_and_negative_net_values_exit_1_naming_the_line() {
    let dir = tmpdir("non-finite");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "3", "--spacing", "2000",
        "-o", net.to_str().expect("utf8"),
    ]));
    let text = std::fs::read_to_string(&net).expect("net file written");
    let lines: Vec<&str> = text.lines().collect();
    let find = |prefix: &str| {
        lines.iter().position(|l| l.starts_with(prefix)).expect("line present")
    };
    // Rewrites the value of one `key=value` word.
    let set = |line: &str, key: &str, value: &str| {
        line.split(' ')
            .map(|w| match w.split_once('=') {
                Some((k, _)) if k == key => format!("{key}={value}"),
                _ => w.to_owned(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    // (line to rewrite, its replacement) — each edit alone must fail.
    let wire = find("wire ");
    let tech = find("tech ");
    let terminal = find("terminal ");
    let repeater = find("repeater ");
    let edits = [
        (wire, format!("{} res_scale=nan", lines[wire])),
        (wire, format!("{} res_scale=-1", lines[wire])),
        (wire, format!("{} cap_scale=nan", lines[wire])),
        (wire, format!("{} cap_scale=-1", lines[wire])),
        (tech, "tech nan 0.00035".to_owned()),
        (terminal, set(lines[terminal], "cap", "nan")),
        (repeater, set(lines[repeater], "cost", "nan")),
        (terminal, set(lines[terminal], "cap", "-1")),
        (repeater, set(lines[repeater], "cost", "-2")),
    ];
    for (i, (at, replacement)) in edits.iter().enumerate() {
        let mut mutated = lines.clone();
        mutated[*at] = replacement;
        let bad = dir.join(format!("bad{i}.msr"));
        std::fs::write(&bad, mutated.join("\n") + "\n").expect("write mutated net");
        let out = bin()
            .args(["optimize", bad.to_str().expect("utf8")])
            .output()
            .expect("spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{replacement}: {stderr}");
        assert!(
            stderr.contains(&format!("line {}:", at + 1)),
            "{replacement}: stderr names the line: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overflowing_parasitics_exit_1_with_a_typed_error() {
    let dir = tmpdir("overflow");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "3", "--spacing", "2000",
        "-o", net.to_str().expect("utf8"),
    ]));
    let text = std::fs::read_to_string(&net).expect("net file written");
    // A finite but huge wire: its resistance times the net's capacitance
    // is not a finite delay.
    let mut edited = false;
    let huge: Vec<String> = text
        .lines()
        .map(|l| match l.split_once(" length=") {
            Some((head, _)) if !edited && l.starts_with("wire ") => {
                edited = true;
                format!("{head} length=1e300")
            }
            _ => l.to_owned(),
        })
        .collect();
    assert!(edited, "the generated net has a wire with a length");
    let bad = dir.join("huge.msr");
    std::fs::write(&bad, huge.join("\n") + "\n").expect("write edited net");
    let out = bin()
        .args(["optimize", bad.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("overflow"), "{stderr}");
    assert!(out.stdout.is_empty(), "no frontier is printed");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn integer_flags_refuse_signs_fractions_exponents_and_overflow() {
    let dir = tmpdir("int-flags");
    let net = dir.join("net.msr");
    run_ok(bin().args([
        "gen", "--terminals", "4", "--seed", "0", "-o", net.to_str().expect("utf8"),
    ]));
    let net = net.to_str().expect("utf8");
    assert_flag_rejected(&["gen", "--terminals", "5", "--seed", "-3"], "seed");
    assert_flag_rejected(&["gen", "--terminals", "5.9"], "terminals");
    assert_flag_rejected(&["optimize", net, "--root", "-1"], "root");
    assert_flag_rejected(&["optimize", net, "--root", "0.5"], "root");
    // Formerly an abort (exit 134) reserving 10^13 jobs up front.
    assert_flag_rejected(&["batch", "--count", "1e13", "--terminals", "3"], "count");
    // Out of `u32` range: refused, not saturated.
    assert_flag_rejected(
        &["serve", "--tcp", "127.0.0.1:0", "--max-frame", "4294967296"],
        "max-frame",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"));

    let out = bin().args(["ard", "/no/such/file.msr"]).output().expect("spawn");
    assert!(!out.status.success());

    let out = bin().args(["optimize"]).output().expect("spawn");
    assert!(!out.status.success());
}

#[test]
fn help_prints_usage() {
    let out = run_ok(bin().arg("--help"));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}
