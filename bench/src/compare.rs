//! `compare <a.json> <b.json>`: one row per (workload, end-to-end
//! metric) with both medians, quartiles, the difference, the bound from
//! `BENCHMARK.json` and a verdict. `a` is the baseline, `b` the
//! candidate. Exits non-zero when any row is `worse` or a count that
//! must repeat exactly did not.

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::catalog::{EXACT_ON_BATCH, WORKLOADS};
use crate::Res;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Sample {
    /// Interquartile range as a share of the median.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    /// The spread of either side is wider than the bound: the pair
    /// cannot show a change of the size the bound is about.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b` is than `a` as a share of `a` (negative: better),
/// and the verdict under `bound`.
pub fn judge(a: Sample, b: Sample, lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let worse_by = if a.value == 0.0 {
        0.0
    } else if lower_is_better {
        (b.value - a.value) / a.value.abs()
    } else {
        (a.value - b.value) / a.value.abs()
    };
    let verdict = if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (worse_by, verdict)
}

fn number(v: Option<&Value>) -> Option<f64> {
    match v? {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

fn sample(envelope: &Value, workload: &str, section: &str, metric: &str) -> Option<Sample> {
    let m = envelope.get("workloads")?.get(workload)?.get(section)?.get(metric)?;
    Some(Sample {
        value: number(m.get("value"))?,
        q1: number(m.get("q1"))?,
        q3: number(m.get("q3"))?,
    })
}

fn load(path: &Path) -> Res<Value> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(serde_json::parse_value(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?)
}

pub fn run(a_path: &Path, b_path: &Path, benchmark: Option<&str>) -> Res<ExitCode> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let spec_path = match benchmark {
        Some(p) => Path::new(p).to_path_buf(),
        None if Path::new("BENCHMARK.json").exists() => Path::new("BENCHMARK.json").to_path_buf(),
        None => Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
    };
    let spec = load(&spec_path)?;
    let Some(Value::Array(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };

    let mut bad = 0usize;
    println!("workload\tmetric\ta\ta_q1\ta_q3\tb\tb_q1\tb_q3\tworse_by\tbound\tverdict");
    for workload in WORKLOADS {
        for spec in metrics {
            let (Some(Value::String(name)), Some(Value::String(better)), Some(bound)) =
                (spec.get("name"), spec.get("better"), number(spec.get("bound")))
            else {
                return Err("BENCHMARK.json: end_to_end entry needs name, better, bound".into());
            };
            let (Some(sa), Some(sb)) = (
                sample(&a, workload, "end_to_end", name),
                sample(&b, workload, "end_to_end", name),
            ) else {
                println!("{workload}\t{name}\tmissing from a set");
                bad += 1;
                continue;
            };
            let (worse_by, verdict) = judge(sa, sb, better == "lower", bound);
            bad += usize::from(verdict == Verdict::Worse);
            println!(
                "{workload}\t{name}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:.6}\t{:+.4}\t{bound}\t{}",
                sa.value,
                sa.q1,
                sa.q3,
                sb.value,
                sb.q1,
                sb.q3,
                worse_by,
                verdict.as_str()
            );
        }
    }

    // Counts of the program's work repeat exactly when the inputs do.
    let same_inputs = a.get("seed") == b.get("seed") && a.get("sizes") == b.get("sizes");
    if same_inputs {
        for workload in WORKLOADS.iter().filter(|w| **w != "service_mixed") {
            let exact = EXACT_ON_BATCH
                .iter()
                .map(|m| ("per_layer", *m))
                .chain([("end_to_end", "stored_bytes_per_input_byte")]);
            for (section, metric) in exact {
                let (va, vb) =
                    (sample(&a, workload, section, metric), sample(&b, workload, section, metric));
                if va.map(|s| s.value) != vb.map(|s| s.value) || va.is_none() {
                    println!("{workload}\t{metric}\texact count differs: {va:?} vs {vb:?}");
                    bad += 1;
                }
            }
        }
        println!("exact counts: checked (same seed and sizes)");
    } else {
        println!("exact counts: not compared (the sets have different seeds or sizes)");
    }
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, q1: f64, q3: f64) -> Sample {
        Sample { value, q1, q3 }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tight = |v: f64| s(v, v * 0.99, v * 1.01);
        // Throughput (higher is better), bound 10 %.
        assert_eq!(judge(tight(100.0), tight(95.0), false, 0.1).1, Verdict::Same);
        assert_eq!(judge(tight(100.0), tight(85.0), false, 0.1).1, Verdict::Worse);
        assert_eq!(judge(tight(100.0), tight(115.0), false, 0.1).1, Verdict::Better);
        // Latency (lower is better): the same numbers read the other way.
        assert_eq!(judge(tight(100.0), tight(85.0), true, 0.1).1, Verdict::Better);
        assert_eq!(judge(tight(100.0), tight(115.0), true, 0.1).1, Verdict::Worse);
        // A spread wider than the bound resolves nothing, either way.
        assert_eq!(judge(s(100.0, 90.0, 110.0), tight(50.0), false, 0.1).1, Verdict::Unresolved);
        let (worse_by, _) = judge(tight(200.0), tight(150.0), false, 0.1);
        assert!((worse_by - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reads_samples_out_of_an_envelope() {
        let doc = serde_json::parse_value(
            r#"{"workloads":{"bwa_align":{"end_to_end":{"setup_s":{"value":2,"unit":"s","n":3,"q1":1.5,"q3":2.5}}}}}"#,
        )
        .unwrap();
        assert_eq!(sample(&doc, "bwa_align", "end_to_end", "setup_s"), Some(s(2.0, 1.5, 2.5)));
        assert_eq!(sample(&doc, "bwa_align", "end_to_end", "nope"), None);
    }
}
