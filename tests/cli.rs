//! End-to-end tests of the `lambdav` binary: `run` renders one result
//! whatever the evaluation options (plain, `--timeout`, saving a snapshot,
//! loading it back), and a tripped `--timeout` fails loudly.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn lambdav(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lambdav"))
        .args(args)
        .output()
        .expect("spawn lambdav")
}

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/core/tests/golden")
        .join(name)
}

/// Removes the snapshot file when the test ends, pass or fail.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn run_renders_two_phase_commit_identically_on_every_path() {
    let program = golden("two_phase_commit.txt");
    let program = program.to_str().expect("utf-8 path");
    let want = std::fs::read_to_string(golden("two_phase_commit_fuel16.txt")).unwrap() + "\n";
    let snap = TempFile(
        std::env::temp_dir().join(format!("lambdav-cli-test-{}.snap", std::process::id())),
    );
    let snap_path = snap.0.to_str().expect("utf-8 path");
    let cases: [(&str, &[&str]); 4] = [
        ("plain", &[]),
        ("--timeout", &["--timeout", "60000"]),
        ("--save-snapshot", &["--save-snapshot", snap_path]),
        ("--load-snapshot", &["--load-snapshot", snap_path]),
    ];
    for (name, extra) in cases {
        let mut args = vec!["run", program, "--fuel", "16"];
        args.extend_from_slice(extra);
        let out = lambdav(&args);
        assert!(
            out.status.success(),
            "{name}: exit {:?}, stderr {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            out.stdout == want.as_bytes(),
            "{name}: output differs from two_phase_commit_fuel16.txt"
        );
        if name == "--save-snapshot" {
            assert!(snap.0.exists(), "no snapshot written");
        }
    }
}

#[test]
fn run_fails_when_the_deadline_trips() {
    let out = lambdav(&[
        "run",
        "(\\x. x x) (\\x. x x)",
        "--fuel",
        "1000000000",
        "--timeout",
        "50",
    ]);
    assert!(!out.status.success(), "Ω under a 50 ms deadline exited 0");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("deadline exceeded"), "stderr: {stderr}");
}
