//! Reads a server's `METRICS` page and `STATS` line and turns two
//! readings into per-run deltas: phase sums, tick families, WAL
//! histograms. Only the public text verbs are used.

use std::collections::HashMap;
use std::net::SocketAddr;

use sprofile_server::{Client, ClientResult};

/// The `le` boundaries of every histogram on the `METRICS` page.
const LE: [&str; 10] = [
    "16", "64", "256", "1024", "4096", "16384", "65536", "262144", "1048576", "+Inf",
];

/// The nine span phases; their sums partition a request's server time.
pub const PHASES: [&str; 9] = [
    "queue",
    "parse",
    "apply",
    "wal_lock_wait",
    "wal_append",
    "fsync",
    "commit_wait",
    "fanout",
    "reply",
];

/// One reading of a server.
pub struct Scrape {
    series: HashMap<String, f64>,
    pub stats: String,
}

impl Scrape {
    /// Reads `METRICS` and `STATS` over a fresh text connection.
    pub fn take(addr: SocketAddr) -> ClientResult<Scrape> {
        let mut c = Client::connect(addr)?;
        let page = c.metrics()?;
        let stats = c.stats()?;
        c.quit()?;
        let series = page
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_string(), value.parse().ok()?))
            })
            .collect();
        Ok(Scrape { series, stats })
    }

    /// A numeric `STATS` field (0 when absent).
    pub fn stat(&self, key: &str) -> f64 {
        Client::stats_field(&self.stats, key).unwrap_or(0) as f64
    }
}

/// Series growth between two readings, summed over servers.
#[derive(Default)]
pub struct Delta {
    series: HashMap<String, f64>,
}

impl Delta {
    pub fn between(before: &Scrape, after: &Scrape) -> Delta {
        let series = after
            .series
            .iter()
            .map(|(k, &v)| (k.clone(), v - before.series.get(k).copied().unwrap_or(0.0)))
            .collect();
        Delta { series }
    }

    /// Adds another server's delta (for a cluster's nodes).
    pub fn absorb(&mut self, other: Delta) {
        for (k, v) in other.series {
            *self.series.entry(k).or_insert(0.0) += v;
        }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.series.get(key).copied().unwrap_or(0.0)
    }

    fn key(family: &str, suffix: &str, labels: &str) -> String {
        if labels.is_empty() {
            format!("{family}_{suffix}")
        } else {
            format!("{family}_{suffix}{{{labels}}}")
        }
    }

    /// Samples a histogram series gained.
    pub fn count(&self, family: &str, labels: &str) -> f64 {
        self.get(&Self::key(family, "count", labels))
    }

    /// Sum a histogram series gained.
    pub fn sum(&self, family: &str, labels: &str) -> f64 {
        self.get(&Self::key(family, "sum", labels))
    }

    /// Mean of the samples a histogram series gained (0 without any).
    pub fn mean(&self, family: &str, labels: &str) -> f64 {
        ratio(self.sum(family, labels), self.count(family, labels))
    }

    /// Quantile `q` of the samples a histogram series gained, linearly
    /// interpolated inside its power-of-four bucket (0 without any).
    pub fn quantile(&self, family: &str, labels: &str, q: f64) -> f64 {
        let bucket = |le: &str| {
            let sep = if labels.is_empty() { "" } else { "," };
            self.get(&format!("{family}_bucket{{{labels}{sep}le=\"{le}\"}}"))
        };
        let total = bucket("+Inf");
        if total <= 0.0 {
            return 0.0;
        }
        let target = q * total;
        let (mut lo, mut below) = (0.0, 0.0);
        for le in LE {
            let c = bucket(le);
            let Ok(hi) = le.parse::<f64>() else {
                return lo; // past the last finite bound
            };
            if c >= target {
                let frac = if c > below {
                    (target - below) / (c - below)
                } else {
                    0.0
                };
                return lo + (hi - lo) * frac;
            }
            (lo, below) = (hi, c);
        }
        lo
    }

    /// Server span time: the nine phase sums, in microseconds.
    pub fn span_us(&self) -> f64 {
        PHASES
            .iter()
            .map(|p| self.sum("sprofile_phase_duration_us", &format!("phase=\"{p}\"")))
            .sum()
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
