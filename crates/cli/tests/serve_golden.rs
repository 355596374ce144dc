//! Golden-file and error-path tests for the `msrnet-cli serve` /
//! `client` subcommands.
//!
//! The round-trip test drives a real `serve --once` child process over
//! loopback TCP and pins the served `client edits` output to the same
//! golden file as the local `edits` subcommand
//! (`golden/edits-seed7.json`): a served replay must be byte-identical
//! to a local one, so the two tests share one golden. The batch test
//! asserts the served pool run equals a local `batch --no-timing` and
//! that the report does not depend on the thread count.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

use msrnet_incremental::json::{json_str, parse_json, Json};

const GOLDEN: &str = include_str!("golden/edits-seed7.json");
const TRACE: &str = include_str!("golden/edits-trace-seed7.json");

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_msrnet-cli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("msrnet-serve-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Generates the fixed seed-7 net (the `edits` golden fixture) and
/// writes the pinned trace next to it; returns (net path, trace path).
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

/// A `serve --once` child on an OS-assigned loopback port; killed on
/// drop so a failing client assertion cannot leak a listener.
struct ServeOnce {
    child: Child,
    addr: String,
}

impl ServeOnce {
    fn spawn() -> ServeOnce {
        let mut child = bin()
            .args(["serve", "--once", "--tcp", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn msrnet-cli serve");
        // The first stdout line is the bound endpoint (`tcp:HOST:PORT`),
        // flushed before the accept loop starts.
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read endpoint line");
        let addr = line
            .trim()
            .strip_prefix("tcp:")
            .unwrap_or_else(|| panic!("unexpected endpoint line {line:?}"))
            .to_string();
        ServeOnce { child, addr }
    }

    /// Waits for the one served connection to finish.
    fn finish(mut self) {
        let status = self.child.wait().expect("wait for serve");
        assert!(status.success(), "serve --once exited with {status}");
        // Forget the child so Drop does not try to kill a reaped pid.
        std::mem::forget(self);
    }
}

impl Drop for ServeOnce {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn served_edits_round_trip_matches_golden_and_local() {
    let dir = tmpdir("edits");
    let (net, trace) = fixture(&dir);
    // `client edits` names the session after the path it is given; a
    // quote and a backslash in that name must reach the report's "net"
    // field escaped, and parse back to the name.
    std::fs::copy(&net, dir.join("a\"b\\c")).expect("copy net");
    for name in [net.as_str(), "a\"b\\c"] {
        let serve = ServeOnce::spawn();
        let out = bin()
            .current_dir(&dir)
            .args(["client", "edits", name, "--trace", &trace, "--tcp", &serve.addr])
            .output()
            .expect("spawn msrnet-cli client");
        assert!(
            out.status.success(),
            "client edits failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        serve.finish();
        let served = String::from_utf8(out.stdout).expect("utf8 output");

        // Byte-identical to the local subcommand on the same inputs...
        let local = bin()
            .current_dir(&dir)
            .args(["edits", name, "--trace", &trace])
            .output()
            .expect("spawn msrnet-cli edits");
        assert!(local.status.success());
        assert_eq!(
            served,
            String::from_utf8(local.stdout).expect("utf8 output"),
            "served edits diverged from the local `edits` subcommand"
        );
        let Ok(Json::Obj(fields)) = parse_json(&served) else {
            panic!("served report is not a JSON object: {served}")
        };
        assert_eq!(Json::get(&fields, "net"), Some(&Json::Str(name.to_string())));

        // ...and therefore to the pinned golden (shared with edits_golden).
        let normalized =
            served.replace(&format!("\"net\": {}", json_str(name)), "\"net\": \"net.msr\"");
        assert_eq!(
            normalized, GOLDEN,
            "served edits diverged from the golden output; if intentional, \
             regenerate crates/cli/tests/golden/edits-seed7.json (see edits_golden.rs)"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A purely structural trace over the served path: midpoint split,
/// terminal growth at a Steiner hub, pure-pop removal, and an
/// unknown-terminal edit that must come back as a *typed rejection row*
/// — not a tombstoned session (the follow-up `recompute` on the same
/// session must still succeed, byte-identical to the local subcommand).
#[test]
fn served_structural_edits_round_trip_matches_local() {
    let dir = tmpdir("structural");
    let net = dir.join("traw.msr");
    let gen = bin()
        .args(["gen", "--terminals", "7", "--seed", "7", "--raw", "-o"])
        .arg(&net)
        .output()
        .expect("spawn msrnet-cli gen");
    assert!(gen.status.success());
    let net = net.to_str().expect("utf8").to_string();
    let trace = dir.join("structural.json");
    std::fs::write(
        &trace,
        concat!(
            "{\"edits\": [\n",
            "  {\"op\": \"add_insertion_point\", \"edge\": 0, \"frac\": 0.5},\n",
            "  {\"op\": \"add_terminal\", \"at\": 7, \"x\": 5000, \"y\": 5000, ",
            "\"arrival\": 0, \"downstream\": 0, \"cap\": 0.3, \"drive_res\": 150, ",
            "\"drive_intrinsic\": 20},\n",
            "  {\"op\": \"remove_terminal\", \"terminal\": 7},\n",
            "  {\"op\": \"remove_terminal\", \"terminal\": 42}\n",
            "]}\n",
        ),
    )
    .expect("write trace");
    let trace = trace.to_str().expect("utf8").to_string();

    let serve = ServeOnce::spawn();
    let out = bin()
        .args(["client", "edits", &net, "--trace", &trace, "--tcp", &serve.addr])
        .output()
        .expect("spawn msrnet-cli client");
    assert!(
        out.status.success(),
        "client edits failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    serve.finish();
    let served = String::from_utf8(out.stdout).expect("utf8 output");

    let local = bin()
        .args(["edits", &net, "--trace", &trace])
        .output()
        .expect("spawn msrnet-cli edits");
    assert!(local.status.success());
    assert_eq!(
        served,
        String::from_utf8(local.stdout).expect("utf8 output"),
        "served structural edits diverged from the local `edits` subcommand"
    );

    // The unknown-terminal step is a typed rejection row, every applied
    // structural step stayed bit-identical to the from-scratch oracle,
    // and the session survived to serve the final recompute.
    assert!(served.contains("\"op\": \"add_terminal\", \"status\": \"ok\""));
    assert!(served.contains("\"op\": \"remove_terminal\", \"status\": \"ok\""));
    assert!(served.contains("\"status\": \"rejected\", \"reason\": \"unknown terminal t42\""));
    assert!(served.contains("\"rejected\": 1"));
    assert!(served.contains("\"mismatches\": 0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn served_batch_matches_local_and_is_thread_count_invariant() {
    let dir = tmpdir("batch");
    let (net, _trace) = fixture(&dir);

    let mut served_by_threads = Vec::new();
    for threads in ["1", "4"] {
        let local = bin()
            .args(["batch", &net, "--no-timing", "--threads", threads])
            .output()
            .expect("spawn msrnet-cli batch");
        assert!(
            local.status.success(),
            "batch failed: {}",
            String::from_utf8_lossy(&local.stderr)
        );
        let local = String::from_utf8(local.stdout).expect("utf8 output");

        let serve = ServeOnce::spawn();
        let out = bin()
            .args(["client", "batch", &net, "--threads", threads, "--tcp", &serve.addr])
            .output()
            .expect("spawn msrnet-cli client");
        assert!(
            out.status.success(),
            "client batch failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        serve.finish();
        let served = String::from_utf8(out.stdout).expect("utf8 output");
        assert_eq!(
            served, local,
            "served batch with {threads} thread(s) diverged from local \
             `batch --no-timing --threads {threads}`"
        );
        served_by_threads.push(served);
    }

    // Everything but the `"threads"` header line is pool-size
    // invariant: the per-net results must not depend on scheduling.
    let strip = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("\"threads\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        strip(&served_by_threads[0]),
        strip(&served_by_threads[1]),
        "served batch results depend on the thread count"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_flag_combinations() {
    // Both endpoints at once.
    let out = bin()
        .args(["serve", "--tcp", "127.0.0.1:0", "--unix", "/tmp/x.sock"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("mutually exclusive"));

    // No endpoint at all.
    let out = bin().args(["serve"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tcp HOST:PORT or --unix PATH"));

    // Unknown flag is rejected, not ignored.
    let out = bin()
        .args(["serve", "--tcp", "127.0.0.1:0", "--frobnicate", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));

    // Stray positional argument.
    let out = bin()
        .args(["serve", "net.msr", "--tcp", "127.0.0.1:0"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unexpected argument"));
}

#[test]
fn client_rejects_bad_operations_and_flags() {
    // Unknown operation (before any connection is attempted the
    // endpoint is still validated, so give it one).
    let out = bin()
        .args(["client", "optimize", "--tcp", "127.0.0.1:1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());

    // Missing endpoint.
    let out = bin().args(["client", "stats"]).output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--tcp HOST:PORT or --unix PATH"));

    // Unknown flag is rejected, not ignored.
    let out = bin()
        .args(["client", "stats", "--tcp", "127.0.0.1:1", "--frobnicate", "1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("frobnicate"));

    // Missing operation.
    let out = bin()
        .args(["client", "--tcp", "127.0.0.1:1"])
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("edits|batch|stats"));
}
