//! The regression benchmark: seeded inputs, four workloads, verified
//! outputs, end-to-end metrics with tracing off and per-layer metrics
//! from a separate traced run. See `README.md` beside this package.
//!
//! ```text
//! persona-regress --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! persona-regress run --seed <n> --out <dir> [--seconds <s>]
//! persona-regress compare <a.json> <b.json>
//! ```

mod batch;
mod catalog;
mod compare;
mod inputs;
mod micro;
mod replay;
mod service;
mod span;
mod stats;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use crate::batch::Kind;
use crate::inputs::Sizes;
use crate::stats::Metric;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// What one invocation measures.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
    pub threads: usize,
    /// Scratch space (stores, journals) and where trace files land.
    pub out_dir: PathBuf,
}

/// What a workload reports: its metrics in catalogue order, and how
/// many verified operations it attempted and how many failed.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

/// Seconds a run measures for when `run` is not told otherwise (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 10.0;

pub fn run_workload(workload: &str, traced: bool, args: &RunArgs) -> Res<Outcome> {
    let kind = match workload {
        "fastq_to_bam" => Some(Kind::FastqToBam),
        "aligned_to_sam" => Some(Kind::AlignedToSam),
        "bwa_align" => Some(Kind::BwaAlign),
        "service_mixed" => None,
        other => return Err(format!("unknown workload `{other}`").into()),
    };
    match (kind, traced) {
        (Some(kind), false) => batch::run_e2e(kind, args),
        (Some(kind), true) => batch::run_traced(kind, args),
        (None, false) => service::run_e2e(args),
        (None, true) => service::run_traced(args),
    }
}

/// `workload  metric  value  unit  n  q1  q3`, tab-separated.
fn metric_line(workload: &str, m: &Metric) -> String {
    format!("{workload}\t{}\t{:?}\t{}\t{}\t{:?}\t{:?}", m.name, m.value, m.unit, m.n, m.q1, m.q3)
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric exactly `value` and `unit`.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{:?},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    )
}

struct Cli {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    smoke: bool,
}

impl Cli {
    fn parse(args: impl Iterator<Item = String>) -> Res<Cli> {
        let mut cli = Cli { positional: Vec::new(), flags: Vec::new(), smoke: false };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some("smoke") => cli.smoke = true,
                Some(name) => {
                    let value = args.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    cli.flags.push((name.to_string(), value));
                }
                None => cli.positional.push(arg),
            }
        }
        Ok(cli)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Res<Option<T>> {
        match self.flag(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad --{name} `{v}`").into()),
        }
    }

    fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// One workload, one trace mode: what the driver (and `run`) invokes.
fn single(cli: &Cli) -> Res<ExitCode> {
    let workload = cli.flag("workload").ok_or("--workload is required")?;
    let seed: u64 = cli.parsed("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = cli.parsed("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let traced = match cli.flag("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace `{other}`").into()),
    };
    // Without --out the scratch directory is this invocation's own and
    // goes away with it; with --out the trace files stay.
    let (out_dir, keep) = match cli.flag("out") {
        Some(dir) => (PathBuf::from(dir), true),
        None => {
            let name = format!("{workload}-t{}-{seed}-{}", u8::from(traced), std::process::id());
            (Path::new(".bench_out").join(name), false)
        }
    };
    std::fs::create_dir_all(&out_dir)?;
    let args = RunArgs { seed, seconds, sizes: cli.sizes(), threads: inputs::threads(), out_dir };
    let outcome = run_workload(workload, traced, &args);
    if !keep {
        let _ = std::fs::remove_dir_all(&args.out_dir);
        let _ = std::fs::remove_dir(".bench_out"); // only when empty
    }
    let outcome = outcome?;
    for m in &outcome.metrics {
        println!("{}", metric_line(workload, m));
    }
    println!("{}", result_json(&outcome));
    if outcome.failed > 0 {
        eprintln!(
            "{workload}: {} of {} verified operations failed",
            outcome.failed, outcome.attempted
        );
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One full set: every workload end to end, then every workload
/// traced, each in its own child process (so `peak_rss_mb` is per
/// workload). Writes `<out>/result.json`.
fn run_set(cli: &Cli) -> Res<ExitCode> {
    let seed: u64 = cli.parsed("seed")?.ok_or("--seed is required")?;
    let seconds: f64 = cli.parsed("seconds")?.unwrap_or(DEFAULT_SECONDS);
    let out = PathBuf::from(cli.flag("out").ok_or("--out is required")?);
    std::fs::create_dir_all(&out)?;
    let exe = std::env::current_exe()?;
    let mut ok = true;
    let mut sections = Vec::new();
    for workload in catalog::WORKLOADS {
        let mut parts = Vec::new();
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .arg("--out")
                .arg(&out)
                .stdout(Stdio::piped());
            if cli.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.spawn()?.wait_with_output()?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            let (result, table) = lines.split_last().ok_or("child printed nothing")?;
            for line in table {
                println!("{line}");
            }
            ok &= output.status.success();
            let metrics: Vec<String> = table
                .iter()
                .filter_map(|line| {
                    let f: Vec<&str> = line.split('\t').collect();
                    (f.len() == 7).then(|| {
                        format!(
                            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{},\"q1\":{},\"q3\":{}}}",
                            f[1], f[2], f[3], f[4], f[5], f[6]
                        )
                    })
                })
                .collect();
            let key = if trace == "0" { "end_to_end" } else { "per_layer" };
            parts.push(format!("\"{key}\":{{{}}},\"{key}_result\":{result}", metrics.join(",")));
        }
        sections.push(format!("\"{workload}\":{{{}}}", parts.join(",")));
    }
    let envelope = format!(
        "{{\"schema\":1,\"seed\":{seed},\"seconds\":{seconds:?},\"nproc\":{},\"threads\":{},\
         \"git_revision\":\"{}\",\"sizes\":{},\"workloads\":{{\n{}\n}}}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        inputs::threads(),
        git_revision(),
        cli.sizes().to_json(),
        sections.join(",\n")
    );
    let path = out.join("result.json");
    std::fs::write(&path, envelope)?;
    eprintln!("wrote {}", path.display());
    Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let run = || -> Res<ExitCode> {
        let cli = Cli::parse(std::env::args().skip(1))?;
        match cli.positional.first().map(String::as_str) {
            None => single(&cli),
            Some("run") => run_set(&cli),
            Some("compare") => match &cli.positional[1..] {
                [a, b] => compare::run(Path::new(a), Path::new(b), cli.flag("benchmark")),
                _ => Err("usage: compare <a.json> <b.json> [--benchmark BENCHMARK.json]".into()),
            },
            Some(other) => Err(format!("unknown command `{other}`").into()),
        }
    };
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("persona-regress: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    /// Every workload in both modes at smoke sizes: each must verify
    /// its outputs and print exactly the metrics `BENCHMARK.json`
    /// names, finite, with names and units in the permitted alphabet.
    #[test]
    fn smoke_run_prints_every_metric_benchmark_json_names() {
        let started = std::time::Instant::now();
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(manifest.join("../BENCHMARK.json")).unwrap();
        let spec = serde_json::parse_value(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(items)) = spec.get(key) else { panic!("no {key}") };
            items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                    (Some(Value::String(n)), None) => (n.clone(), String::new()),
                    _ => panic!("bad entry in {key}"),
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, catalog::WORKLOADS);
        let allowed = |s: &str, extra: &str| {
            !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let out_dir = manifest.join("out").join(format!("smoke-{}", std::process::id()));
        for workload in catalog::WORKLOADS {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = RunArgs {
                    seed: 42,
                    seconds: 0.2,
                    sizes: Sizes::SMOKE,
                    threads: 2,
                    out_dir: out_dir.clone(),
                };
                std::fs::create_dir_all(&out_dir).unwrap();
                let outcome = run_workload(workload, traced, &args)
                    .unwrap_or_else(|e| panic!("{workload} trace={traced}: {e}"));
                assert_eq!(outcome.failed, 0, "{workload} trace={traced}");
                assert!(outcome.attempted >= 1);
                let printed: Vec<(String, String)> =
                    outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
                assert_eq!(printed, names(key), "{workload}: printed vs BENCHMARK.json {key}");
                for m in &outcome.metrics {
                    assert!(m.value.is_finite(), "{workload} {}", m.name);
                    assert!(allowed(&m.name, "_.-") && allowed(m.unit, "_/%.-"), "{}", m.name);
                    if !traced {
                        assert!(
                            m.value > 0.0,
                            "{workload} {}: end-to-end metrics are never 0",
                            m.name
                        );
                    }
                }
                let doc = serde_json::parse_value(&result_json(&outcome)).unwrap();
                assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
                if traced {
                    let trace = out_dir.join(format!("trace_{workload}.json"));
                    let doc =
                        serde_json::parse_value(std::fs::read_to_string(trace).unwrap().trim());
                    assert!(doc.unwrap().get("traceEvents").is_some());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&out_dir);
        assert!(started.elapsed().as_secs() < 20, "smoke run took {:?}", started.elapsed());
    }
}
