//! Sample statistics, a minimal JSON writer, and the host fingerprint of
//! the `mermaid-bench-v1` record.

use std::fmt;
use std::process::Command;

/// Median and quartiles of a sample, with the same interpolation as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method).
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        // Python's exclusive method: for quartile i, j = i(n+1)/4 clamped
        // to 1..=n-1 and a (possibly extrapolating) weight i(n+1) - 4j.
        let quartile = |i: usize| -> f64 {
            if n == 1 {
                return v[0];
            }
            let m = (i * (n + 1)) as i64;
            let j = (m / 4).clamp(1, n as i64 - 1);
            let delta = (m - 4 * j) as f64;
            let j = j as usize;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            n,
            min: v[0],
            q1: quartile(1),
            median,
            q3: quartile(3),
            max: v[n - 1],
        }
    }

    pub fn json(&self, unit: &str) -> J {
        J::obj([
            ("unit", J::str(unit)),
            ("n", J::Int(self.n as u64)),
            ("min", J::Num(self.min)),
            ("q1", J::Num(self.q1)),
            ("median", J::Num(self.median)),
            ("q3", J::Num(self.q3)),
            ("max", J::Num(self.max)),
        ])
    }
}

/// A JSON value.
pub enum J {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn str(s: impl Into<String>) -> J {
        J::Str(s.into())
    }

    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the caller, rendered as null rather than as invalid JSON.
            J::Num(x) if !x.is_finite() => f.write_str("null"),
            J::Num(x) if x.fract() == 0.0 && x.abs() < 1e15 => write!(f, "{x:.1}"),
            J::Num(x) => write!(f, "{x}"),
            J::Int(i) => write!(f, "{i}"),
            J::Bool(b) => write!(f, "{b}"),
            J::Str(s) => write_str(f, s),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            J::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// First line of a command's standard output, or `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The git revision of the current directory, only when it is the
/// top level of a git work tree (a parent directory's repository is not
/// this checkout's revision).
fn git_rev() -> String {
    let here = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let top = command_line("git", &["rev-parse", "--show-toplevel"]);
    let top = std::path::Path::new(&top).canonicalize().ok();
    if here.is_some() && here == top {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".into()
    }
}

/// Host fingerprint: core count, CPU model, compiler and source revision.
pub fn host_fingerprint() -> J {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    J::obj([
        ("nproc", J::Int(nproc as u64)),
        ("cpu_model", J::Str(cpu)),
        ("rustc", J::Str(command_line("rustc", &["--version"]))),
        ("git_rev", J::Str(git_rev())),
    ])
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([4, 8], n=4) == [3.0, 6.0, 9.0]
        let s = Summary::of(&[8.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (3.0, 6.0, 9.0));
    }

    #[test]
    fn json_renders_numbers_with_all_digits() {
        let j = J::obj([("a", J::Num(0.123456789012)), ("b", J::Num(2.0))]);
        assert_eq!(j.to_string(), r#"{"a":0.123456789012,"b":2.0}"#);
    }
}
