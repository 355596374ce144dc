//! Golden-file and error-path tests for the `msrnet-cli edits`
//! subcommand.
//!
//! Without `--timing` the replay report contains no timing fields, so
//! the entire stdout on a fixed generated net + fixed trace is
//! byte-deterministic and pinned verbatim. If an intentional schema or
//! engine change lands, regenerate with:
//!
//! ```text
//! msrnet-cli gen --terminals 5 --seed 7 --spacing 4000 -o net.msr
//! msrnet-cli edits net.msr --trace crates/cli/tests/golden/edits-trace-seed7.json \
//!   > crates/cli/tests/golden/edits-seed7.json
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use msrnet_incremental::json::{json_str, parse_json, Json};

const GOLDEN: &str = include_str!("golden/edits-seed7.json");
const TRACE: &str = include_str!("golden/edits-trace-seed7.json");

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msrnet-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msrnet-edits-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates the fixed seed-7 net and writes the pinned trace next to
/// it; returns (net path, trace path).
fn fixture(dir: &Path) -> (String, String) {
    let net = dir.join("net.msr");
    let gen = bin()
        .args([
            "gen",
            "--terminals",
            "5",
            "--seed",
            "7",
            "--spacing",
            "4000",
            "-o",
            net.to_str().expect("utf8 temp path"),
        ])
        .output()
        .expect("spawn msrnet-cli gen");
    assert!(
        gen.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&gen.stderr)
    );
    let trace = dir.join("trace.json");
    std::fs::write(&trace, TRACE).expect("write trace");
    (
        net.to_str().expect("utf8").to_string(),
        trace.to_str().expect("utf8").to_string(),
    )
}

#[test]
fn edits_replay_matches_golden_output() {
    let dir = tmpdir("golden");
    let (net, trace) = fixture(&dir);
    // A quote and a backslash in the path must reach the report's
    // "net" field escaped, and parse back to the path.
    let odd = dir.join("my\"net\\.msr");
    std::fs::copy(&net, &odd).expect("copy net");
    for net in [net.as_str(), odd.to_str().expect("utf8")] {
        let out = bin()
            .args(["edits", net, "--trace", &trace])
            .output()
            .expect("spawn msrnet-cli edits");
        assert!(
            out.status.success(),
            "edits failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let actual = String::from_utf8(out.stdout).expect("utf8 output");
        let Ok(Json::Obj(fields)) = parse_json(&actual) else {
            panic!("report is not a JSON object: {actual}")
        };
        assert_eq!(Json::get(&fields, "net"), Some(&Json::Str(net.to_string())));
        // The report embeds the (temp-dir) net path; normalize it before
        // comparing against the pinned file.
        let actual =
            actual.replace(&format!("\"net\": {}", json_str(net)), "\"net\": \"net.msr\"");
        assert_eq!(
            actual, GOLDEN,
            "edits replay diverged from the golden output; if intentional, \
             regenerate crates/cli/tests/golden/edits-seed7.json (see module docs)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edits_rejects_missing_and_malformed_inputs() {
    let dir = tmpdir("errors");
    let (net, trace) = fixture(&dir);

    // Missing net file.
    let out = bin()
        .args(["edits", "/no/such/net.msr", "--trace", &trace])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Malformed net file.
    let bad_net = dir.join("bad.msr");
    std::fs::write(&bad_net, "tech 0.1\nthis is not a net file\n").expect("write");
    let out = bin()
        .args(["edits", bad_net.to_str().expect("utf8"), "--trace", &trace])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Missing --trace flag.
    let out = bin().args(["edits", &net]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--trace"));

    // Malformed trace JSON: the parser reports the byte offset.
    let bad_trace = dir.join("bad.json");
    std::fs::write(&bad_trace, "{\"edits\": [{\"op\": \"warp\"}]}").expect("write");
    let out = bin()
        .args(["edits", &net, "--trace", bad_trace.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown op"));

    // Truncated trace JSON.
    std::fs::write(&bad_trace, "{\"edits\": [").expect("write");
    let out = bin()
        .args(["edits", &net, "--trace", bad_trace.to_str().expect("utf8")])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Unknown flag is rejected, not ignored.
    let out = bin()
        .args(["edits", &net, "--trace", &trace, "--frobnicate", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));

    // Non-finite numeric flag is rejected.
    let out = bin()
        .args(["edits", &net, "--trace", &trace, "--driver-cost", "NaN"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Out-of-range root.
    let out = bin()
        .args(["edits", &net, "--trace", &trace, "--root", "99"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn edits_timing_flag_fills_micros() {
    let dir = tmpdir("timing");
    let (net, trace) = fixture(&dir);
    let out = bin()
        .args(["edits", &net, "--trace", &trace, "--timing"])
        .output()
        .expect("spawn");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every applied step carries a measured (non-null) micros field.
    for line in stdout.lines().filter(|l| l.contains("\"status\": \"ok\"")) {
        assert!(
            !line.contains("\"micros\": null"),
            "--timing left micros null: {line}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
