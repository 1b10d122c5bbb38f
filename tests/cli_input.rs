//! Outside input is bounded: hostile JSON and malformed command lines
//! get an error and a failing exit code, never an abort, a hang or a run
//! with silently substituted defaults.

use std::path::PathBuf;
use std::process::{Command, Output};

use e_android::chaos::FaultPlan;
use e_android::fleet::FleetReport;
use e_android::lint::render;

/// 100,000 unclosed `[`: enough nesting to overflow any recursive
/// descent parser's stack.
fn deep_nesting() -> String {
    "[".repeat(100_000)
}

/// A scratch file holding `contents`, removed on drop.
struct TempFile(PathBuf);

impl TempFile {
    fn new(name: &str, contents: &str) -> TempFile {
        let path =
            std::env::temp_dir().join(format!("eandroid-cli-input-{}-{name}", std::process::id()));
        std::fs::write(&path, contents).expect("write scratch file");
        TempFile(path)
    }

    fn path(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn eandroid(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_eandroid"))
        .args(args)
        .output()
        .expect("spawn eandroid")
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn deeply_nested_json_is_an_error_in_every_loader() {
    let input = deep_nesting();

    let report = serde_json::from_str::<FleetReport>(&input);
    assert!(report.is_err(), "report loader accepted 100k `[`");

    let baseline = render::parse_json(&input);
    let message = baseline.expect_err("baseline loader accepted 100k `[`");
    assert!(message.contains("nesting"), "{message}");

    let file = TempFile::new("plan.json", &input);
    let message = FaultPlan::parse(file.path(), 1).expect_err("plan loader accepted 100k `[`");
    assert!(message.contains("nesting"), "{message}");
}

#[test]
fn deeply_nested_json_files_fail_the_cli_without_aborting() {
    let file = TempFile::new("nested.json", &deep_nesting());
    for args in [
        vec!["replay", file.path()],
        vec!["fleet", "--size", "1", "--faults", file.path()],
        vec!["lint", "demo", "--baseline", file.path()],
    ] {
        let output = eandroid(&args);
        let err = stderr(&output);
        // A signal (stack-overflow abort) leaves no exit code; a file that
        // fails to load is bad input, not bad usage, so exit 1 and no
        // usage line.
        assert_eq!(output.status.code(), Some(1), "{args:?}: {err}");
        assert!(err.contains("nesting"), "{args:?}: {err}");
        assert!(!err.contains("usage:"), "{args:?}: {err}");
    }
}

/// Each `(args, complaint)` must exit 2 before running anything, with
/// the complaint and the command's usage line on stderr.
fn assert_rejected_with_usage(cases: &[(Vec<&str>, &str)]) {
    for (args, complaint) in cases {
        let output = eandroid(args);
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(complaint), "{args:?}: {err}");
        let usage = format!("usage: eandroid {}", args[0]);
        assert!(
            err.contains(&usage),
            "{args:?} must print its usage line: {err}"
        );
        assert!(
            output.stdout.is_empty(),
            "{args:?} must not run: stdout not empty"
        );
    }
}

#[test]
fn bad_fleet_serve_and_metrics_arguments_exit_2_with_usage() {
    assert_rejected_with_usage(&[
        (
            vec!["fleet", "--bogus-flag"],
            "unknown argument: --bogus-flag",
        ),
        (vec!["fleet", "--jobs", "abc"], "--jobs expects a number"),
        (vec!["fleet", "--size"], "--size needs a value"),
        (vec!["fleet", "--size", "-3"], "--size expects a number"),
        (vec!["fleet", "--reference-scheduler"], "unknown argument"),
        (vec!["fleet", "--reference-lifecycle"], "unknown argument"),
        (vec!["fleet", "--batch-kernel", "maybe"], "expects on|off"),
        (vec!["fleet", "extra"], "unknown argument: extra"),
        (vec!["serve", "--lanes", "two"], "--lanes expects a number"),
        (vec!["serve", "--trace", "t"], "unknown argument: --trace"),
        (vec!["metrics", "--seed", "1e3"], "--seed expects a number"),
        (vec!["metrics", "--hold"], "unknown argument: --hold"),
        (
            vec!["scenario", "all", "--reference-lifecycle"],
            "unknown argument",
        ),
        (
            vec!["scenario", "all", "--fault-seed", "x"],
            "--fault-seed expects a number",
        ),
    ]);
}

#[test]
fn bad_replay_query_chaos_and_lint_arguments_exit_2_with_usage() {
    assert_rejected_with_usage(&[
        (
            vec!["replay", "report.json", "--healthy", "abc"],
            "--healthy expects a number",
        ),
        (
            vec!["replay", "report.json", "--bogus"],
            "unknown argument: --bogus",
        ),
        (vec!["replay", "--healthy"], "--healthy needs a value"),
        (
            vec!["query", "--socket", "s", "--retries", "x"],
            "--retries expects a number",
        ),
        (
            vec!["query", "--socket", "s", "--retry-delay-ms", "1.5"],
            "--retry-delay-ms expects a number",
        ),
        (
            vec!["query", "--socket", "s", "snapshot", "extra"],
            "unknown argument: extra",
        ),
        (vec!["query", "--sock", "s"], "unknown argument: --sock"),
        (vec!["chaos", "--seed", "abc"], "--seed expects a number"),
        (
            vec!["chaos", "--fleet-size", "-1"],
            "--fleet-size expects a number",
        ),
        (vec!["chaos", "--quik"], "unknown argument: --quik"),
        (vec!["chaos", "quick"], "unknown argument: quick"),
        (
            vec!["lint", "corpus", "--seed", "x"],
            "--seed expects a number",
        ),
        (
            vec!["lint", "corpus", "--size", "1e3"],
            "--size expects a number",
        ),
        (vec!["lint", "--bogus"], "unknown argument: --bogus"),
        (vec!["lint", "demo", "corpus"], "unknown argument: corpus"),
        (vec!["lint", "--baseline"], "--baseline needs a value"),
        (
            vec!["depletion", "--cap-hours", "x"],
            "--cap-hours expects a number",
        ),
        (vec!["corpus", "--size", "big"], "--size expects a number"),
        (vec!["micro", "--runs", "x"], "--runs expects a number"),
        (
            vec!["workload", "--sessions", "x"],
            "--sessions expects a number",
        ),
    ]);
}
