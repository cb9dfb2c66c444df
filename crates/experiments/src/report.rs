//! Report rendering: aligned text tables (the paper's rows) plus JSON
//! artifacts for downstream plotting.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Prints an aligned table with a header row.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Directory where experiment JSON artifacts are written.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("TABLEAU_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Serializes `value` as pretty JSON into `results/<name>.json`.
pub fn write_json<T: Serialize>(name: &str, value: &T) -> PathBuf {
    write_json_to(&results_dir(), name, value)
}

/// Serializes `value` as pretty JSON into `<dir>/<name>.json`.
///
/// Tests use this with an explicit temporary directory instead of mutating
/// the process-global `TABLEAU_RESULTS_DIR` (which races with parallel
/// tests and can clobber the tracked `results/` artifacts).
pub fn write_json_to<T: Serialize>(dir: &Path, name: &str, value: &T) -> PathBuf {
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("serialize report");
    let mut f = std::fs::File::create(&path).expect("create report file");
    f.write_all(json.as_bytes()).expect("write report");
    println!("[written] {}", path.display());
    path
}

/// The short git revision of the working tree, or `"unknown"` outside a
/// repository. Artifact metadata records this so every `results/*.json`
/// file names the code that produced it: `<rev>-dirty` when tracked files
/// differ from that commit (an artifact cut before its own commit names
/// the parent it was built on, and says so).
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    match git(&["status", "--porcelain", "--untracked-files=no"]) {
        Some(changes) if !changes.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// Formats a nanosecond value as milliseconds with two decimals.
pub fn ms(ns: rtsched::time::Nanos) -> String {
    format!("{:.2}", ns.as_millis_f64())
}

/// Formats a microsecond float with two decimals.
pub fn us(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_does_not_panic() {
        print_table(
            "demo",
            &["a", "b"],
            &[
                vec!["1".into(), "22".into()],
                vec!["333".into(), "4".into()],
            ],
        );
    }

    #[test]
    fn json_round_trip() {
        // Explicit output dir: no process-global env mutation, so this is
        // safe alongside other tests running in parallel threads.
        let dir = std::env::temp_dir().join("tbl-test-json-round-trip");
        let path = write_json_to(&dir, "unit-test", &vec![1, 2, 3]);
        let back: Vec<i32> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        assert!(path.exists());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(ms(rtsched::time::Nanos::from_micros(1_500)), "1.50");
        assert_eq!(us(2.34567), "2.35");
    }
}
