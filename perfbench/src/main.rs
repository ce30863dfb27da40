//! `perfbench` — runs one benchmark workload (or all of them) and prints
//! its metrics, ending with one JSON line.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload colocated-paper --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml   # all workloads
//! ```

use perfbench::measure::{self, Checked, TracedWall, END_TO_END, PER_LAYER};
use perfbench::probe::Probe;
use perfbench::shapes::{self, Mode, Run, Scale, Shape, EXEC};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: perfbench [--workload colocated-paper|fleet-sparse|tenants-disagg] \
                     [--seed N] [--seconds N] [--trace 0|1]";

/// Repetitions measured at least, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Traced/untraced pairs measured at least in a traced run.
const MIN_PAIRS: usize = 2;

/// Set-ups measured on their own before serving, so `setup_s` is a
/// median over many samples even on workloads with few repetitions...
const SETUP_SAMPLES: usize = 30;

/// ...unless they take longer than this.
const SETUP_BUDGET: Duration = Duration::from_secs(2);

#[derive(Debug)]
struct Args {
    workload: Option<Shape>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Shape::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The commit of the checkout in the working directory, read from
/// `.git` without running git.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (no .git here)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn header(shape: Shape, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        shape.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={nproc} exec={} commit={}",
        EXEC.label(),
        git_commit()
    );
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Prints the human-readable rows and the final JSON line; returns the
/// exit code.
fn finish(
    checked: &Checked,
    problems: &[String],
    metrics: &BTreeMap<&'static str, f64>,
    spec: &[(&'static str, &'static str)],
) -> ExitCode {
    let mut problems = problems.to_vec();
    let mut json = Vec::new();
    for &(name, unit) in spec {
        match metrics.get(name) {
            Some(v) if v.is_finite() => {
                println!("  {name:<32} {v:>16.4} {unit}");
                json.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
            Some(v) => problems.push(format!("metric {name} is not finite ({v})")),
            None => println!("  {name:<32} {:>16} {unit}", "missing"),
        }
    }
    let correct = problems.is_empty();
    if correct {
        println!("checks: pass");
    }
    for p in &problems {
        println!("check failed: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checked.offered.max(1),
        checked.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn describe(shape: Shape, run: &Run, checked: &Checked, reps: usize) {
    println!(
        "{}: requests_offered={} requests_finished={} requests_failed={} \
         percentile_samples={} repetitions={reps}",
        shape.name(),
        checked.offered,
        checked.finished,
        checked.failed,
        run.report.records.len()
    );
    println!("records digest: {:016x}", measure::records_digest(run));
}

/// The untraced run: end-to-end metrics, repeated for `--seconds`.
fn plain(shape: Shape, args: &Args) -> Result<ExitCode, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut first: Option<Run> = None;
    let mut problems = Vec::new();
    let (mut setup_s, mut tokens_per_s) = (Vec::new(), Vec::new());
    while setup_s.len() < SETUP_SAMPLES && start.elapsed() < SETUP_BUDGET {
        setup_s.push(shapes::setup_ms(shape, Scale::Bench, args.seed) / 1e3);
    }
    while tokens_per_s.len() < MIN_REPS || start.elapsed() < budget {
        let run = shapes::run(shape, Scale::Bench, args.seed, &Mode::Plain)?;
        setup_s.push((run.workload_ms + run.deployment_ms) / 1e3);
        tokens_per_s.push(measure::output_tokens(&run) as f64 / (run.serve_ms / 1e3));
        match &first {
            None => first = Some(run),
            Some(f) if !measure::same_outcome(f, &run) => {
                problems.push("a repetition served the same seed differently".into());
            }
            Some(_) => {}
        }
    }
    let run = first.expect("at least one repetition");
    let checked = measure::check(&run);
    problems.extend(checked.problems.iter().cloned());
    describe(shape, &run, &checked, tokens_per_s.len());
    let mut metrics: BTreeMap<&'static str, f64> = measure::simulated(&run).into_iter().collect();
    metrics.insert("sim_tokens_per_s", measure::median(&tokens_per_s));
    metrics.insert("setup_s", measure::median(&setup_s));
    if let Some(rss) = measure::peak_rss_mib() {
        metrics.insert("peak_rss_mib", rss);
    }
    Ok(finish(&checked, &problems, &metrics, &END_TO_END))
}

/// One repetition timed as a whole: the run, then its metrics.
fn timed_rep(shape: Shape, args: &Args, mode: &Mode) -> Result<(Run, TracedWall), String> {
    let start = Instant::now();
    let run = shapes::run(shape, Scale::Bench, args.seed, mode)?;
    let post = Instant::now();
    std::hint::black_box((measure::simulated(&run), measure::records_digest(&run)));
    let post_ms = ms_since(post);
    Ok((
        run,
        TracedWall {
            wall_ms: ms_since(start),
            post_ms,
        },
    ))
}

/// The traced run: per-layer metrics from instrumented repetitions,
/// alternated with untraced ones for the overhead and identity checks.
fn traced(shape: Shape, args: &Args) -> Result<ExitCode, String> {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut reference: Option<Run> = None;
    let mut problems = Vec::new();
    let mut replay_ok = true;
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut rows: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    while traced_walls.len() < MIN_PAIRS || start.elapsed() < budget {
        let (run, wall) = timed_rep(shape, args, &Mode::Plain)?;
        plain_walls.push(wall.wall_ms);
        match &reference {
            None => reference = Some(run),
            Some(r) if !measure::same_outcome(r, &run) => {
                problems.push("a repetition served the same seed differently".into());
            }
            Some(_) => {}
        }
        let reference = reference.as_ref().expect("set above");

        let probe = Probe::shared();
        let mode = if replay_ok {
            Mode::Replay(probe.clone())
        } else {
            Mode::Wrapped(probe.clone())
        };
        let (run, wall) = timed_rep(shape, args, &mode)?;
        if !measure::same_outcome(reference, &run) {
            if replay_ok {
                replay_ok = false;
                println!(
                    "note: the AdaServe step replay no longer reproduces the engine's \
                     records; engine-internal rows are missing (update src/replay.rs)"
                );
                continue;
            }
            problems.push("the traced run's records differ from the untraced run's".into());
        }
        let checked = measure::check(&run);
        problems.extend(checked.problems);
        traced_walls.push(wall.wall_ms);
        for (name, value) in measure::layers(&run, &probe, wall) {
            rows.entry(name).or_default().push(value);
        }
        if run.waits.is_some_and(|w| w.dropped > 0) {
            println!("note: the trace ring dropped events; wait.* rows cover a suffix");
        }
    }
    if !replay_ok {
        for name in measure::ENGINE_INTERNAL {
            rows.remove(name);
        }
    }
    let reference = reference.expect("at least one repetition");
    let checked = measure::check(&reference);
    problems.extend(checked.problems.iter().cloned());
    problems.sort();
    problems.dedup();
    describe(shape, &reference, &checked, traced_walls.len());
    let mut metrics: BTreeMap<&'static str, f64> = rows
        .iter()
        .map(|(name, values)| (*name, measure::median(values)))
        .collect();
    metrics.insert(
        "trace.overhead_pct",
        100.0 * (measure::median(&traced_walls) / measure::median(&plain_walls) - 1.0),
    );
    print_shares(&metrics, measure::median(&traced_walls));
    Ok(finish(&checked, &problems, &metrics, &PER_LAYER))
}

/// Prints each named layer's self time as a share of the traced wall,
/// largest first.
fn print_shares(metrics: &BTreeMap<&'static str, f64>, wall_ms: f64) {
    let get = |k: &str| metrics.get(k).copied().unwrap_or(0.0);
    let internal = ["draft", "scsd", "verify", "kv", "roofline"];
    let internal_ms: f64 = internal.iter().map(|l| get(&format!("{l}.busy_ms"))).sum();
    let mut shares = vec![
        (
            "setup",
            get("setup.workload_ms") + get("setup.deployment_ms"),
        ),
        ("session", get("session.self_ms")),
        ("fairness", get("fairness.self_ms")),
        ("router", get("router.busy_ms")),
        ("deployment", get("deployment.self_ms")),
        ("engine (self)", get("engine.busy_ms") - internal_ms),
        ("report", get("report.ms")),
    ];
    for l in internal {
        shares.push((l, get(&format!("{l}.busy_ms"))));
    }
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!("layer self time, share of traced wall ({wall_ms:.1} ms):");
    for (layer, ms) in &shares {
        println!(
            "  {layer:<14} {ms:>12.1} ms {:>7.2} %",
            100.0 * ms / wall_ms
        );
    }
    println!("dominant layer: {}", shares[0].0);
}

/// Runs every workload, plain then traced, each in its own process.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for shape in Shape::ALL {
        for trace in ["0", "1"] {
            let status = Command::new(&exe)
                .args(["--workload", shape.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .status()
                .map_err(|e| e.to_string())?;
            ok &= status.success();
            println!();
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        None => run_all(&args),
        Some(shape) => {
            header(shape, &args);
            if args.trace {
                traced(shape, &args)
            } else {
                plain(shape, &args)
            }
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: run failed: {e}");
        ExitCode::FAILURE
    })
}
