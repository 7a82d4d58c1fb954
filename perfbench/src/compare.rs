//! Reports over result directories, with the bounds `BENCHMARK.json`
//! fixes.
//!
//! `spread DIR`: one row per workload and end-to-end metric with the
//! median over the directory's runs and the spread (interquartile
//! distance over the median) against the metric's bound.
//!
//! `compare OLD_DIR NEW_DIR`: one row per workload and end-to-end metric
//! with each side's median and quartiles, the metric's bound, and a
//! verdict.
//!
//! Verdicts:
//! * `better`: the new side wins at least nine tenths of the runs paired
//!   by seed (ties count for neither), and the medians differ in its
//!   favour by more than the old side's interquartile distance;
//! * `unresolved`: either side's interquartile distance, as a share of
//!   its median, exceeds the bound, unless every new run beats every old
//!   run;
//! * `worse`: the new median is worse than the old by more than the bound;
//! * `no worse`: otherwise.

use std::collections::BTreeMap;

use hmdiv_serve::{json, Json};

use crate::stats::{median, quartiles};

/// A report subcommand over its arguments.
pub type Command = fn(&[String]) -> Result<(), String>;

/// `(seed, value)` per run, per workload and metric.
type Runs = BTreeMap<(String, String), Vec<(u64, f64)>>;

fn load_dir(dir: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("reading {dir}: {e}"))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with("-trace0.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
        let result = json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let workload = result
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_owned();
        let seed = result.get("seed").and_then(Json::as_u64).unwrap_or(0);
        for (metric, v) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(value) = v.get("value").and_then(Json::as_f64) {
                runs.entry((workload.clone(), metric.clone()))
                    .or_default()
                    .push((seed, value));
            }
        }
    }
    Ok(runs)
}

/// `name -> (bound, lower is better)` from the benchmark definition.
fn load_bounds() -> Result<BTreeMap<String, (f64, bool)>, String> {
    let path = "BENCHMARK.json";
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let def = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(def
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                (
                    m.get("bound")?.as_f64()?,
                    m.get("better")?.as_str()? == "lower",
                ),
            ))
        })
        .collect())
}

/// Interquartile distance over the median.
fn spread(q: [f64; 3]) -> f64 {
    (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE)
}

/// The verdict for one metric of one workload.
pub fn verdict(old: &[(u64, f64)], new: &[(u64, f64)], bound: f64, lower: bool) -> &'static str {
    let (a, b) = (values(old), values(new));
    let (Some(qa), Some(qb)) = (quartiles(&a), quartiles(&b)) else {
        return "unresolved";
    };
    let better = |x: f64, y: f64| if lower { x < y } else { x > y };
    let (ma, mb) = (median(&a), median(&b));
    // Pair runs by seed, falling back to run order.
    let by_seed: BTreeMap<u64, f64> = old.iter().copied().collect();
    let paired: Vec<(f64, f64)> = if new.iter().all(|(s, _)| by_seed.contains_key(s)) {
        new.iter().map(|(s, v)| (by_seed[s], *v)).collect()
    } else {
        a.iter().copied().zip(b.iter().copied()).collect()
    };
    let wins = paired.iter().filter(|(x, y)| better(*y, *x)).count();
    if !paired.is_empty()
        && wins as f64 >= 0.9 * paired.len() as f64
        && better(mb, ma)
        && (mb - ma).abs() > qa[2] - qa[0]
    {
        return "better";
    }
    let all_better = b.iter().all(|y| a.iter().all(|x| better(*y, *x)));
    if spread(qa).max(spread(qb)) > bound && !all_better {
        return "unresolved";
    }
    let worse_by = if lower { mb - ma } else { ma - mb };
    if worse_by > bound * ma.abs() {
        "worse"
    } else {
        "no worse"
    }
}

fn values(runs: &[(u64, f64)]) -> Vec<f64> {
    runs.iter().map(|r| r.1).collect()
}

/// `spread DIR`. Fails when any spread but that of `setup_s` exceeds its
/// bound.
pub fn spread_main(args: &[String]) -> Result<(), String> {
    let [dir] = args else {
        return Err("spread needs one result directory".to_owned());
    };
    let bounds = load_bounds()?;
    let runs = load_dir(dir)?;
    println!(
        "{:<16} {:<22} {:>5} {:>14} {:>8} {:>6}  share of bound",
        "workload", "metric", "runs", "median", "spread", "bound"
    );
    let mut worst: f64 = 0.0;
    for ((workload, metric), r) in &runs {
        let Some((bound, _)) = bounds.get(metric) else {
            continue;
        };
        let Some(q) = quartiles(&values(r)) else {
            continue;
        };
        let share = spread(q) / bound;
        if metric != "setup_s" {
            worst = worst.max(share);
        }
        println!(
            "{workload:<16} {metric:<22} {:>5} {:>14.4} {:>8.4} {bound:>6}  {share:.3}",
            r.len(),
            q[1],
            spread(q)
        );
    }
    println!("largest spread as a share of its bound (setup_s aside): {worst:.3}");
    if worst > 1.0 {
        return Err("a spread exceeds its bound".to_owned());
    }
    Ok(())
}

/// `compare OLD_DIR NEW_DIR`.
pub fn main(args: &[String]) -> Result<(), String> {
    let [old_dir, new_dir] = args else {
        return Err("compare needs two result directories".to_owned());
    };
    let bounds = load_bounds()?;
    let old = load_dir(old_dir)?;
    let new = load_dir(new_dir)?;
    println!(
        "{:<16} {:<22} {:>5} {:>12} {:>25} {:>12} {:>25} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "old median",
        "old quartiles",
        "new median",
        "new quartiles",
        "bound"
    );
    for ((workload, metric), a) in &old {
        let Some((bound, lower)) = bounds.get(metric) else {
            continue;
        };
        let Some(b) = new.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let q = |runs: &[(u64, f64)]| {
            quartiles(&values(runs))
                .map_or_else(|| "-".to_owned(), |q| format!("[{:.4}, {:.4}]", q[0], q[2]))
        };
        let med = |runs: &[(u64, f64)]| median(&values(runs));
        println!(
            "{:<16} {:<22} {:>5} {:>12.4} {:>25} {:>12.4} {:>25} {:>6}  {}",
            workload,
            metric,
            a.len().min(b.len()),
            med(a),
            q(a),
            med(b),
            q(b),
            bound,
            verdict(a, b, *bound, *lower)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::verdict;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| (i as u64, *v))
            .collect()
    }

    #[test]
    fn verdicts_follow_the_rules() {
        let old = runs(&[
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ]);
        let faster = runs(&[80.0, 81.0, 79.0, 80.5, 79.5, 80.0, 80.2, 79.8, 80.1, 79.9]);
        let slower = runs(&[
            130.0, 131.0, 129.0, 130.5, 129.5, 130.0, 130.2, 129.8, 130.1, 129.9,
        ]);
        let same = runs(&[
            100.1, 100.9, 99.1, 100.4, 99.6, 100.0, 100.3, 99.7, 100.2, 99.8,
        ]);
        let noisy = runs(&[
            60.0, 140.0, 70.0, 130.0, 100.0, 90.0, 120.0, 80.0, 110.0, 100.0,
        ]);
        assert_eq!(verdict(&old, &faster, 0.1, true), "better");
        assert_eq!(verdict(&old, &slower, 0.1, true), "worse");
        assert_eq!(verdict(&old, &same, 0.1, true), "no worse");
        assert_eq!(verdict(&old, &noisy, 0.1, true), "unresolved");
        assert_eq!(verdict(&faster, &old, 0.1, false), "better");
    }
}
