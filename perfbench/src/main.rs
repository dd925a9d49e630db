//! Host-time benchmark of the timego simulator.
//!
//! ```text
//! timego-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <path>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off: one
//! warm-up rep, then reps until `--seconds` have passed (at least
//! [`MIN_REPS`]), all at one substrate worker thread. Every rep's
//! simulated signature must equal the warm-up's. On the sharded xfer
//! workload one more rep runs at two worker threads, and its signature
//! must equal the others too.
//!
//! `--trace 1` alternates untraced and traced reps and reports the
//! per-layer metrics (medians over the traced reps), the overhead of
//! tracing and, on the sharded xfer workload, the one-thread over
//! two-thread wall time. Traced signatures must equal the untraced
//! ones, the substrate wrapper's counts must repeat exactly, and the
//! engine profiler must drop no sample.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--record` also
//! writes the run's details (environment, per-metric sample count and
//! quartiles, and in traced runs the benchmark's spans) to a JSON file.

mod layers;
mod timed;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use layers::Metric;
use workloads::{Rep, Workload};

/// Fewest measured reps in a run, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Fewest traced reps in a traced run.
const MIN_TRACED_REPS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&String>, String> {
        match argv.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(Some)
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let name = value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = match value("--seed")? {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s:?}"))?,
        None => 1,
    };
    let seconds: f64 = match value("--seconds")? {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s:?}"))?,
        None => 10.0,
    };
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!("bad --seconds {seconds}"));
    }
    let trace = match value("--trace")?.map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(t) => return Err(format!("bad --trace {t:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record: value("--record")?.cloned(),
    })
}

/// Median and quartiles as Python's `statistics.median` and
/// `statistics.quantiles(values, n=4)` (the exclusive method) give
/// them.
#[derive(Clone, Copy, Debug)]
struct Summary {
    n: usize,
    median: f64,
    q1: f64,
    q3: f64,
}

fn summarize(values: &[f64]) -> Summary {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let quartile = |i: i64| {
        if n < 2 {
            return v[0];
        }
        let (n, m) = (n as i64, n as i64 + 1);
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        median,
        q1: quartile(1),
        q3: quartile(3),
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// What one invocation measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Each metric's name, unit and samples.
    metrics: Vec<(String, &'static str, Vec<f64>)>,
    reps: usize,
    notes: Vec<String>,
    /// The reference rep's simulated signature.
    signature: Vec<u64>,
    spans: Vec<(usize, &'static str, f64, f64)>,
}

impl Outcome {
    /// Fold a rep in; a rep that broke any check counts all its
    /// operations as failed.
    fn fold(&mut self, rep: &Rep, broken: Vec<String>) {
        self.attempted += rep.attempted;
        self.failed += if broken.is_empty() {
            rep.failed
        } else {
            rep.attempted
        };
        self.notes.extend(broken);
    }

    /// On the sharded xfer workload, one more untraced rep at
    /// [`Workload::check_threads`] worker threads: its signature must
    /// equal the one-thread reference. Returns its wall time.
    fn thread_check(&mut self, args: &Args, reference: &Rep) -> Option<f64> {
        let threads = args.workload.check_threads()?;
        let rep = args.workload.rep(args.seed, threads, false);
        let mut broken = Vec::new();
        if rep.signature != reference.signature {
            broken.push(format!(
                "signature at {threads} threads differs from the one at 1 thread"
            ));
        }
        self.fold(&rep, broken);
        Some(rep.wall_s)
    }
}

fn end_to_end(args: &Args) -> Outcome {
    let w = args.workload;
    let mut o = Outcome::default();
    let warm = w.rep(args.seed, 1, false);
    // The peak of a process that has run one rep and nothing else;
    // later reps reuse freed memory, so the figure holds for them too.
    let peak_mb = peak_rss_mb();
    o.fold(&warm, Vec::new());
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let rep = w.rep(args.seed, 1, false);
        let mut broken = Vec::new();
        if rep.signature != warm.signature {
            broken.push(format!(
                "rep {} signature differs from the warm-up's",
                reps.len()
            ));
        }
        o.fold(&rep, broken);
        reps.push(rep);
    }
    o.thread_check(args, &warm);
    let series = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    o.metrics = vec![
        ("wall_s".into(), "s", series(|r| r.wall_s)),
        (
            "ops_per_s".into(),
            "1/s",
            series(|r| r.ops() as f64 / r.wall_s),
        ),
        ("setup_s".into(), "s", series(|r| r.setup_s)),
        ("peak_rss_mb".into(), "MB", vec![peak_mb]),
    ];
    o.reps = reps.len();
    o.signature = warm.signature;
    o
}

fn per_layer(args: &Args) -> Outcome {
    let w = args.workload;
    let mut o = Outcome::default();
    let reference = w.rep(args.seed, 1, false);
    o.fold(&reference, Vec::new());
    let start = Instant::now();
    let (mut plain, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    while traced.len() < MIN_TRACED_REPS || start.elapsed().as_secs_f64() < args.seconds {
        for is_traced in [false, true] {
            let rep = w.rep(args.seed, 1, is_traced);
            let i = traced.len();
            let mut broken = Vec::new();
            if rep.signature != reference.signature {
                broken.push(format!(
                    "rep {i} (traced: {is_traced}) signature differs from the untraced one"
                ));
            }
            let counts = |r: &Rep| r.layers.net.as_ref().map(timed::NetTrace::counts);
            if is_traced
                && traced
                    .first()
                    .is_some_and(|first| counts(first) != counts(&rep))
            {
                broken.push(format!(
                    "traced rep {i}: substrate call counts differ from traced rep 0"
                ));
            }
            if rep.layers.profiler_dropped > 0 {
                broken.push(format!(
                    "traced rep {i}: profiler dropped {} samples",
                    rep.layers.profiler_dropped
                ));
            }
            o.fold(&rep, broken);
            if is_traced {
                o.spans.extend(
                    rep.layers
                        .spans
                        .list()
                        .map(|(name, at, d)| (i, name, at, d)),
                );
                traced.push(rep);
            } else {
                plain.push(rep);
            }
        }
    }
    let rows: Vec<Vec<Metric>> = traced.iter().map(|r| r.layers.metrics()).collect();
    for (k, (name, _, unit)) in rows[0].iter().enumerate() {
        o.metrics
            .push((name.clone(), unit, rows.iter().map(|r| r[k].1).collect()));
    }
    let median_wall =
        |reps: &[Rep]| summarize(&reps.iter().map(|r| r.wall_s).collect::<Vec<_>>()).median;
    let (plain_wall, traced_wall) = (median_wall(&plain), median_wall(&traced));
    o.metrics.push((
        "trace.overhead_pct".into(),
        "%",
        vec![100.0 * (traced_wall / plain_wall - 1.0)],
    ));
    // The shard-the-engine gate: one-thread over two-thread wall time
    // (0 where the workload has no worker threads).
    let speedup = o
        .thread_check(args, &reference)
        .map_or(0.0, |t2| plain_wall / t2);
    o.metrics
        .push(("run.t2_speedup".into(), "ratio", vec![speedup]));
    o.reps = traced.len();
    o.signature = reference.signature;
    o
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn record(args: &Args, o: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"reps\": {}, \"nproc\": {nproc}, \
         \"threads\": 1, \"check_threads\": {}, \"profile\": {}, \"rustc\": {}, \"attempted\": {}, \"failed\": {}, \"notes\": [{}], \"signature\": [{}], \"metrics\": {{",
        json_str(args.workload.name()),
        args.seed,
        u8::from(args.trace),
        json_num(args.seconds),
        o.reps,
        args.workload.check_threads().unwrap_or(1),
        json_str(profile),
        json_str(&rustc_version()),
        o.attempted,
        o.failed,
        o.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        o.signature.iter().map(u64::to_string).collect::<Vec<_>>().join(", "),
    );
    for (i, (name, unit, samples)) in o.metrics.iter().enumerate() {
        let sm = summarize(samples);
        let _ = write!(
            s,
            "{}{}: {{\"unit\": {}, \"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"spread\": {}, \"samples\": [{}]}}",
            if i == 0 { "" } else { ", " },
            json_str(name),
            json_str(unit),
            sm.n,
            json_num(sm.median),
            json_num(sm.q1),
            json_num(sm.q3),
            json_num(if sm.median == 0.0 { 0.0 } else { (sm.q3 - sm.q1) / sm.median }),
            samples.iter().map(|&v| json_num(v)).collect::<Vec<_>>().join(", "),
        );
    }
    s.push_str("}, \"spans\": [");
    for (i, (rep, name, at, d)) in o.spans.iter().enumerate() {
        let _ = write!(
            s,
            "{}{{\"rep\": {rep}, \"name\": {}, \"start_s\": {}, \"dur_s\": {}}}",
            if i == 0 { "" } else { ", " },
            json_str(name),
            json_num(*at),
            json_num(*d)
        );
    }
    s.push_str("]}\n");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: timego-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--record <path>]");
            return ExitCode::from(2);
        }
    };
    let o = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };

    println!(
        "{} seed {} trace {}: {} reps, {} attempted, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        o.reps,
        o.attempted,
        o.failed
    );
    println!(
        "{:<46} {:>14} {:>3} {:>14} {:>14} {:>14}",
        "metric", "unit", "n", "median", "q1", "q3"
    );
    for (name, unit, samples) in &o.metrics {
        let s = summarize(samples);
        println!(
            "{name:<46} {unit:>14} {:>3} {:>14.6} {:>14.6} {:>14.6}",
            s.n, s.median, s.q1, s.q3
        );
    }
    for note in &o.notes {
        println!("check failed: {note}");
    }
    if let Some(path) = &args.record {
        if let Err(e) = std::fs::write(path, record(&args, &o)) {
            eprintln!("could not write {path}: {e}");
        }
    }

    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, unit, samples)| {
            let median = summarize(samples).median;
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(median),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
