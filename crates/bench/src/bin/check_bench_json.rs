//! `check_bench_json` — validator for `BENCH_*.json` artifacts.
//!
//! CI's `bench-json` step pipes every emitted artifact through this binary
//! before uploading. Each file is parsed and held to its kind's schema and
//! semantic gate ([`adaserve_bench::summary::validate`]; `docs/BENCH.md`
//! lists every kind's keys and gates); any violation fails the job with
//! every violation listed.
//!
//! ```sh
//! cargo run -p adaserve-bench --bin check_bench_json -- BENCH_foo.json [...]
//! ```
//!
//! Exit status: 0 if every file passes, 1 otherwise, 2 on usage errors.

use adaserve_bench::json::{self, Json};
use adaserve_bench::summary::validate;

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: check_bench_json BENCH_foo.json [BENCH_bar.json ...]");
        std::process::exit(2);
    }

    let mut failed = false;
    for path in &paths {
        let checked = std::fs::read_to_string(path)
            .map_err(|e| vec![format!("unreadable: {e}")])
            .and_then(|text| json::parse(&text).map_err(|e| vec![format!("invalid JSON: {e}")]))
            .and_then(|doc| validate(&doc).map(|()| doc));
        match checked {
            Ok(doc) => {
                let rows = doc
                    .get("rows")
                    .and_then(Json::as_arr)
                    .map_or(0, <[Json]>::len);
                let name = doc.get("name").and_then(Json::as_str).unwrap_or("?");
                let mode = doc.get("mode").and_then(Json::as_str).unwrap_or("?");
                println!("{path}: OK ({name}, mode={mode}, {rows} rows)");
            }
            Err(errors) => {
                for e in &errors {
                    eprintln!("{path}: {e}");
                }
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
