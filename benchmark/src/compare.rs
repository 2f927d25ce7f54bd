//! `ffdl-benchmark compare A B`: the A-A check behind `aa.sh`. Reads the
//! `result-<workload>.json` files two full runs left in `A` and `B` and
//! fails if any end-to-end metric on any workload differs by more than
//! its bound.

use crate::json::{self, Value};
use crate::spec::{Better, END_TO_END, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

/// How much worse the worse of `a`, `b` is, as a share of the better.
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    let (good, bad) = match better {
        Better::Lower => (a.min(b), a.max(b)),
        Better::Higher => (a.max(b), a.min(b)),
    };
    if good == 0.0 {
        return if bad == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (bad - good).abs() / good.abs()
}

fn read_result(dir: &Path, workload: &str) -> Result<Value, String> {
    let path = dir.join(format!("result-{workload}.json"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(result: &Value, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let mut violations = 0;
    println!(
        "{:<18} {:<17} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "A", "B", "spread", "bound"
    );
    for w in &WORKLOADS {
        let (ra, rb) = match (read_result(a, w.name), read_result(b, w.name)) {
            (Ok(ra), Ok(rb)) => (ra, rb),
            (Err(e), _) | (_, Err(e)) => {
                println!("{}: {e}", w.name);
                violations += 1;
                continue;
            }
        };
        for r in [&ra, &rb] {
            if r.get("correct") != Some(&Value::Bool(true)) {
                println!("{}: a run was not correct", w.name);
                violations += 1;
            }
        }
        for (m, bound) in &END_TO_END {
            let (Some(va), Some(vb)) = (metric(&ra, m.name), metric(&rb, m.name)) else {
                println!("{} {}: missing", w.name, m.name);
                violations += 1;
                continue;
            };
            let spread = worsening(va, vb, m.better);
            let verdict = if spread > *bound {
                violations += 1;
                "  OUTSIDE"
            } else {
                ""
            };
            println!(
                "{:<18} {:<17} {:>14.6} {:>14.6} {:>7.2}% {:>5.1}%{verdict}",
                w.name,
                m.name,
                va,
                vb,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if violations == 0 {
        println!("A-A: every end-to-end metric of every workload agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A-A: {violations} disagreement(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_is_relative_to_the_better_side() {
        assert!((worsening(100.0, 110.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(110.0, 100.0, Better::Lower) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(5.0, 5.0, Better::Higher), 0.0);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }
}
