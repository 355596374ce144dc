//! Golden-file, determinism, and error-path tests for the
//! `msrnet-cli topology` subcommand.
//!
//! The report contains no wall-clock fields, so the entire stdout on a
//! fixed generated net is byte-deterministic and pinned verbatim. If an
//! intentional schema or search change lands, regenerate with:
//!
//! ```text
//! msrnet-cli gen --terminals 7 --seed 7 --raw -o traw.msr
//! msrnet-cli topology traw.msr --seed 7 --rounds 2 --densify 3 \
//!   > crates/cli/tests/golden/topology-seed7.json
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

use msrnet_incremental::json::{json_str, parse_json, Json};

const GOLDEN: &str = include_str!("golden/topology-seed7.json");

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msrnet-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msrnet-topology-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates the fixed seed-7 *raw* net (no insertion points — the
/// search densifies on its own) and returns its path.
fn fixture(dir: &Path) -> String {
    let net = dir.join("traw.msr");
    let gen = bin()
        .args([
            "gen",
            "--terminals",
            "7",
            "--seed",
            "7",
            "--raw",
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
    net.to_str().expect("utf8").to_string()
}

fn run_topology(net: &str, extra: &[&str]) -> std::process::Output {
    let mut args = vec!["topology", net, "--seed", "7", "--rounds", "2", "--densify", "3"];
    args.extend_from_slice(extra);
    bin().args(&args).output().expect("spawn msrnet-cli topology")
}

#[test]
fn topology_report_matches_golden_output() {
    let dir = tmpdir("golden");
    let net = fixture(&dir);
    // A quote and a backslash in the path must reach the report's
    // "net" field escaped, and parse back to the path.
    let odd = dir.join("my\"net\\.msr");
    std::fs::copy(&net, &odd).expect("copy net");
    for net in [net.as_str(), odd.to_str().expect("utf8")] {
        let out = run_topology(net, &[]);
        assert!(
            out.status.success(),
            "topology failed: {}",
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
            actual.replace(&format!("\"net\": {}", json_str(net)), "\"net\": \"traw.msr\"");
        assert_eq!(
            actual, GOLDEN,
            "topology search diverged from the golden output; if intentional, \
             regenerate crates/cli/tests/golden/topology-seed7.json (see module docs)"
        );
        // The pinned instance must show a strict improvement: the search
        // beat the initial Steiner route on its own scoring objective.
        assert!(actual.contains("\"improved\": true"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_is_byte_deterministic_across_runs_and_objectives() {
    let dir = tmpdir("determinism");
    let net = fixture(&dir);
    for extra in [
        &[][..],
        &["--objective", "min-cost:4000"][..],
        &["--objective", "hypervolume:40:6000"][..],
    ] {
        let a = run_topology(&net, extra);
        let b = run_topology(&net, extra);
        assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
        assert_eq!(
            a.stdout, b.stdout,
            "two identical runs diverged ({extra:?})"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_writes_report_with_o_flag() {
    let dir = tmpdir("output");
    let net = fixture(&dir);
    let dst = dir.join("report.json");
    let out = run_topology(&net, &["-o", dst.to_str().expect("utf8")]);
    assert!(out.status.success());
    assert!(out.stdout.is_empty(), "-o must silence stdout");
    let written = std::fs::read_to_string(&dst).expect("report file");
    assert!(written.contains("\"benchmark\": \"msrnet_topology\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn topology_rejects_missing_and_malformed_inputs() {
    let dir = tmpdir("errors");
    let net = fixture(&dir);

    // Missing net file.
    let out = bin()
        .args(["topology", "/no/such/net.msr"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Unknown objective grammar.
    let out = run_topology(&net, &["--objective", "shortest"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("objective"));

    // Hypervolume missing its second reference.
    let out = run_topology(&net, &["--objective", "hypervolume:3"]);
    assert!(!out.status.success());

    // Out-of-range root.
    let out = run_topology(&net, &["--root", "99"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    // Negative radius weight.
    let out = run_topology(&net, &["--radius-weight", "-1"]);
    assert!(!out.status.success());

    // Unknown flag is rejected, not ignored.
    let out = run_topology(&net, &["--frobnicate", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));

    std::fs::remove_dir_all(&dir).ok();
}
