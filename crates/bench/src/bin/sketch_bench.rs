//! Out-of-core sketch-profiling benchmark and synthetic CSV generator.
//!
//! ```text
//! sketch_bench gen PATH ROWS    # write a deterministic ROWS-row CSV
//! sketch_bench bench [ROWS]     # stream-ingest + sketch-profile ROWS
//!                               # rows (default 10M) via a spill file,
//!                               # print one `key=value ...` line
//! ```
//!
//! The bench mode is what `scripts/bench_quick.sh` records as
//! `profiler/sketch_10m_rows`: the CSV is written to a temp directory,
//! ingested through [`ChunkedTable`] (peak RSS stays O(chunk)), and
//! profiled with mergeable sketches; ingest and profile are timed
//! separately. The `gen` mode feeds `scripts/smoke.sh outofcore`, which
//! profiles a file several times larger than a hard `ulimit -v` cap.

use catdb_profiler::{profile_chunked, ProfileMode, ProfileOptions};
use catdb_table::{ChunkedTable, CsvOptions, DEFAULT_CHUNK_ROWS};
use std::io::Write;
use std::time::Instant;

/// Four columns exercising every page kind: a unique int, a float, a
/// low-cardinality string, and a bool — with a sprinkle of nulls.
fn write_csv(path: &std::path::Path, rows: usize) -> std::io::Result<u64> {
    let f = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, f);
    writeln!(w, "id,val,cat,flag")?;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..rows {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let cat = (state >> 33) % 16;
        let frac = (state >> 12) % 100_000;
        if i % 101 == 0 {
            writeln!(w, "{i},,c{cat},")?;
        } else {
            writeln!(w, "{i},{}.{frac:05},c{cat},{}", i % 977, i % 3 == 0)?;
        }
    }
    w.flush()?;
    Ok(std::fs::metadata(path)?.len())
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("gen") => {
            let (Some(path), Some(rows)) =
                (argv.get(2), argv.get(3).and_then(|s| s.parse::<usize>().ok()))
            else {
                eprintln!("usage: sketch_bench gen PATH ROWS");
                std::process::exit(2);
            };
            let bytes = write_csv(std::path::Path::new(path), rows).expect("write CSV");
            eprintln!("[wrote {rows} row(s), {bytes} byte(s) to {path}]");
        }
        Some("bench") | None => {
            let rows = argv.get(2).and_then(|s| s.parse::<usize>().ok()).unwrap_or(10_000_000);
            let dir =
                std::env::temp_dir().join(format!("catdb-sketch-bench-{}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let csv = dir.join("bench.csv");
            let bytes = write_csv(&csv, rows).expect("write CSV");

            let t0 = Instant::now();
            let chunked = ChunkedTable::from_csv_path(
                csv.to_str().unwrap(),
                &CsvOptions::default(),
                DEFAULT_CHUNK_ROWS,
            )
            .expect("ingest");
            let ingest_ms = t0.elapsed().as_secs_f64() * 1e3;

            let opts = ProfileOptions {
                mode: ProfileMode::Sketch { chunk_rows: DEFAULT_CHUNK_ROWS },
                ..Default::default()
            };
            let t1 = Instant::now();
            let profile = profile_chunked("bench", &chunked, &opts).expect("profile");
            let profile_ms = t1.elapsed().as_secs_f64() * 1e3;

            println!(
                "sketch_bench rows={rows} csv_bytes={bytes} chunks={} ingest_ms={ingest_ms:.1} \
                 profile_ms={profile_ms:.1} profile_rows_per_sec={:.0} columns={}",
                chunked.n_chunks(),
                rows as f64 / (profile_ms / 1e3),
                profile.columns.len(),
            );
            drop(chunked);
            std::fs::remove_dir_all(&dir).ok();
        }
        Some(other) => {
            eprintln!("unknown mode '{other}' (expected `gen` or `bench`)");
            std::process::exit(2);
        }
    }
}
