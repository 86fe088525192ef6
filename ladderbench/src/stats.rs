//! Latency samples, medians, and the report the benchmark prints.

use std::time::{Duration, Instant};

/// Nanoseconds elapsed since `t0`.
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Segments a run's measured phase is cut into, one per round. Each
/// end-to-end value is the median of its per-segment values, so a burst
/// of interference on a shared host, or a round whose servers settled
/// into a rarer state, moves one segment rather than the result.
pub const SEGMENTS: usize = 20;

/// Maps completion times to the segment one round measures. Load
/// starts at `start`; the segment is measured from `t0`, after the
/// warm-up.
#[derive(Clone, Copy)]
pub struct Clock {
    pub t0: Instant,
    seg_ns: u64,
    round: usize,
}

impl Clock {
    /// Round `round` of a run that measures `seconds` in all.
    pub fn round(start: Instant, warmup_s: f64, seconds: f64, round: usize) -> Clock {
        let seg_ns = (seconds * 1e9 / SEGMENTS as f64).max(1.0) as u64;
        let t0 = start + Duration::from_secs_f64(warmup_s);
        Clock { t0, seg_ns, round }
    }

    /// When the round's measured segment ends.
    pub fn end(&self) -> Instant {
        self.t0 + Duration::from_nanos(self.seg_ns)
    }

    pub fn segment_seconds(&self) -> f64 {
        self.seg_ns as f64 / 1e9
    }

    /// The round's segment once the warm-up is over (`None` before);
    /// completions after the end count toward it too.
    pub fn segment(&self) -> Option<usize> {
        (Instant::now() >= self.t0).then_some(self.round)
    }
}

/// Client-observed latencies of one request class, in nanoseconds,
/// kept per segment.
#[derive(Clone, Default)]
pub struct Lat {
    segs: [Vec<u64>; SEGMENTS],
}

/// Nearest-rank percentile of `ns` in microseconds (`q` in `(0, 1]`).
fn percentile_us(ns: &mut [u64], q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((q * ns.len() as f64).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64 / 1e3
}

impl Lat {
    pub fn push(&mut self, segment: usize, ns: u64) {
        self.segs[segment].push(ns);
    }

    pub fn extend(&mut self, other: Lat) {
        for (mine, theirs) in self.segs.iter_mut().zip(other.segs) {
            mine.extend(theirs);
        }
    }

    pub fn len(&self) -> usize {
        self.segs.iter().map(Vec::len).sum()
    }

    /// Samples in the thinnest segment.
    pub fn min_segment_len(&self) -> usize {
        self.segs.iter().map(Vec::len).min().unwrap_or(0)
    }

    /// Each segment's percentile `q`, in microseconds; segments without
    /// samples are skipped.
    pub fn by_segment_us(&mut self, q: f64) -> Vec<f64> {
        self.segs
            .iter_mut()
            .filter(|s| !s.is_empty())
            .map(|s| percentile_us(s, q))
            .collect()
    }
}

/// Median of `values` (mean of the two central ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Quantile `q` of `values`, linearly interpolated between the two
/// nearest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * frac
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation prints.
#[derive(Default)]
pub struct Report {
    /// Oracle or recovery mismatches; any entry fails the run.
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run metadata as `(key, JSON value)` pairs.
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn meta(&mut self, key: &str, json_value: impl Into<String>) {
        self.meta.push((key.to_string(), json_value.into()));
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The metadata as one JSON object.
    pub fn meta_json(&self) -> String {
        let fields: Vec<String> = self
            .meta
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which no metric should produce)
/// become 0 so the line still parses.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
