//! `catdb run` output files: a requested `--dag-out` or `--trace-out`
//! that cannot be written fails the run with exit code 1, after the
//! pipeline is printed and each failed write is reported.

use std::path::Path;
use std::process::{Command, Output};

#[test]
fn output_files_that_cannot_be_written_fail_the_run() {
    let dir = std::env::temp_dir().join(format!("catdb-cli-outputs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("toy.csv");
    let rows: String = (0..120)
        .map(|i| format!("{},{},cat{},{}\n", i % 37, i * 53 % 70, i % 4, i % 37 > 18))
        .collect();
    std::fs::write(&csv, format!("a,b,c,y\n{rows}")).unwrap();
    let run = |out: &Path| -> Output {
        Command::new(env!("CARGO_BIN_EXE_catdb"))
            .args(["run", "--target", "y", "--task", "binary", "--seed", "5", "--csv"])
            .arg(&csv)
            .arg("--dag-out")
            .arg(out.join("dag.json"))
            .arg("--trace-out")
            .arg(out.join("trace.json"))
            .output()
            .unwrap()
    };

    let written = run(&dir);
    assert_eq!(written.status.code(), Some(0), "{}", String::from_utf8_lossy(&written.stderr));
    assert!(dir.join("dag.json").is_file() && dir.join("trace.json").is_file());

    let unwritten = run(&dir.join("missing"));
    let stderr = String::from_utf8_lossy(&unwritten.stderr);
    assert_eq!(unwritten.status.code(), Some(1), "{stderr}");
    assert_eq!(unwritten.stdout, written.stdout, "the pipeline is printed either way");
    assert!(stderr.contains("failed to write DAG to"), "{stderr}");
    assert!(stderr.contains("failed to write trace to"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}
