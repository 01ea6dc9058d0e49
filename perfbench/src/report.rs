//! Command line, summary statistics, digests and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ProfileCohort,
    DefenseGrid,
    ServeStream,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileCohort => "profile-cohort",
            Workload::DefenseGrid => "defense-grid",
            Workload::ServeStream => "serve-stream",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        [
            Workload::ProfileCohort,
            Workload::DefenseGrid,
            Workload::ServeStream,
        ]
        .into_iter()
        .find(|w| w.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement budget of the run, in seconds.
    pub seconds: f64,
    /// `true` for the layer-attributed run of the traced build.
    pub trace: bool,
}

/// lgo-runtime pool threads of every timed pass: one, so each pass runs on
/// the thread the speed probe measures and the traced run's layer times
/// add up to its wall time.
pub const POOL_THREADS: usize = 1;

/// Pool threads of the traced schedule pass: two, or fewer on a narrower
/// machine.
pub fn schedule_threads() -> usize {
    nproc().min(2)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut args = args;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} is outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// One output check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (patients profiled, grid cells, windows).
    pub attempted: u64,
    /// Operations that failed, were refused or were shed.
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Extra fields of the run record, as `(key, JSON value)`.
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, name: &'static str, passed: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            passed,
            detail: detail.into(),
        });
    }

    pub fn info(&mut self, key: &'static str, json: impl Into<String>) {
        self.info.push((key, json.into()));
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run record printed before the result line: provenance, checks
    /// and workload-specific details.
    pub fn record_line(&self, args: &Args) -> String {
        let mut out = String::from("{\"record\": {");
        let _ =
            write!(
            out,
            "\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
             \"pool_threads\": {}, \"features\": [{}], \"revision\": {}",
            args.workload.name(),
            args.seed,
            json_f64(args.seconds),
            args.trace,
            nproc(),
            POOL_THREADS,
            if cfg!(feature = "trace") { "\"trace\"" } else { "" },
            json_str(&std::env::var("LGO_PERFBENCH_REVISION").unwrap_or_else(|_| "unknown".into())),
        );
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\": \"{}\", \"passed\": {}, \"detail\": {}}}",
                    c.name,
                    c.passed,
                    json_str(&c.detail)
                )
            })
            .collect();
        let _ = write!(out, ", \"checks\": [{}]", checks.join(", "));
        for (k, v) in &self.info {
            let _ = write!(out, ", \"{k}\": {v}");
        }
        out.push_str("}}");
        out
    }
}

/// A float as JSON (non-finite values become `null`, which the result
/// consumer rejects).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// A string as JSON.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Nearest-rank quantile of unsorted samples (`q` in `[0, 1]`); 0 when
/// there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a, the digest every output check uses.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(mut self, v: u64) -> Self {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn f64s<'a>(self, values: impl IntoIterator<Item = &'a f64>) -> Self {
        values.into_iter().fold(self, |h, v| h.u64(v.to_bits()))
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of a window's exact bits.
pub fn window_digest(window: &[Vec<f64>]) -> u64 {
    window
        .iter()
        .fold(Fnv::default().u64(window.len() as u64), |h, row| {
            h.f64s(row)
        })
        .finish()
}

/// Peak resident set size of this process, in MB, from `VmHWM`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Wall time of [`probe`] on the reference machine (a 2-vCPU cloud VM) in
/// its fast state.
pub const PROBE_NOMINAL_S: f64 = 0.012;

/// The machine-speed probe: a fixed single-thread `f64` matrix product.
/// It uses nothing from the repository, so no change to the program can
/// move it; only the speed the machine gives this thread can. Returns its
/// wall time.
pub fn probe() -> f64 {
    const N: usize = 96;
    let a: Vec<f64> = (0..N * N).map(|i| (i % 17) as f64 * 0.01).collect();
    let b: Vec<f64> = (0..N * N).map(|i| (i % 13) as f64 * 0.02).collect();
    let mut c = vec![0.0f64; N * N];
    let start = Instant::now();
    for _ in 0..20 {
        for i in 0..N {
            for k in 0..N {
                let x = a[i * N + k];
                for j in 0..N {
                    c[i * N + j] += x * b[k * N + j];
                }
            }
        }
        std::hint::black_box(&mut c);
    }
    start.elapsed().as_secs_f64()
}

/// Scales wall times of work done on the probing thread to the reference
/// machine speed.
///
/// The shared VMs this runs on slow a busy thread down by up to 2x for
/// seconds to minutes at a time (neighbours on the host), which swamps
/// run-to-run comparisons of raw wall time. The speed can also change
/// from one timed section to the next. The benchmark samples the probe
/// just before and after each timed section on the same thread, and
/// scales that section's wall time by `PROBE_NOMINAL_S / median(probe)`
/// over those samples.
#[derive(Debug, Default)]
pub struct SpeedMeter {
    probes: Vec<f64>,
}

impl SpeedMeter {
    /// Runs the probe once and keeps its time.
    pub fn sample(&mut self) {
        self.probes.push(probe());
    }

    /// The factor from wall seconds to reference seconds over the whole run.
    pub fn factor(&self) -> f64 {
        self.factor_since(0)
    }

    /// The factor over the samples from the `first`-th on.
    fn factor_since(&self, first: usize) -> f64 {
        match self.probes.get(first..) {
            Some(probes) if !probes.is_empty() => PROBE_NOMINAL_S / median(probes),
            _ => 1.0,
        }
    }

    /// Samples the probe, runs `section`, samples again, and returns the
    /// section's result with its wall time, raw and scaled by the samples
    /// taken since the one before it.
    fn scaled<T>(&mut self, section: impl FnOnce(&mut Self) -> (T, f64)) -> (T, f64, f64) {
        if self.probes.is_empty() {
            self.sample();
        }
        let first = self.probes.len() - 1;
        let (value, wall) = section(self);
        self.sample();
        (value, wall, wall * self.factor_since(first))
    }
}

/// Runs `setup` `reps` times and keeps the last result; returns it with
/// the median of the scaled wall times.
pub fn repeated_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut meter = SpeedMeter::default();
    let mut walls = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (value, _, wall) = meter.scaled(|_| time(&mut setup));
        walls.push(wall);
        last = Some(value);
    }
    (last.expect("setup ran at least once"), median(&walls))
}

/// Wall time of `f`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Repeats `pass` until `seconds` have elapsed and at least `min_passes`
/// passes ran, sampling machine speed before the first pass and after
/// every pass; a pass may sample more often through the meter it is
/// handed. Each pass returns its result and the wall time it measured
/// itself, so checks on the result stay outside the timed region; that
/// wall time comes back raw and scaled by the samples taken around and
/// during the pass.
pub fn timed_passes<T>(
    seconds: f64,
    min_passes: usize,
    meter: &mut SpeedMeter,
    mut pass: impl FnMut(&mut SpeedMeter) -> (T, f64),
) -> Vec<(T, f64, f64)> {
    let begin = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes || begin.elapsed().as_secs_f64() < seconds {
        out.push(meter.scaled(&mut pass));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            failed: 1,
            ..Outcome::default()
        };
        o.metric("work_s", 1.25, "s");
        o.check("ok", true, "");
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"work_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
        o.check("bad", false, "x");
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-stream --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(a.workload, Workload::ServeStream);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload serve-stream --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload serve-stream --seconds 1 --trace 0").is_err());
    }

    #[test]
    fn window_digest_sees_every_bit() {
        let w = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut v = w.clone();
        v[1][1] = f64::from_bits(4.0f64.to_bits() + 1);
        assert_ne!(window_digest(&w), window_digest(&v));
        assert_eq!(window_digest(&w), window_digest(&w.clone()));
    }
}
