//! SimPoint selection: weighted representative intervals per phase.
//!
//! Each k-means cluster of BBV intervals elects the interval closest to
//! its centroid as the cluster's simulation point, plus (when the
//! cluster has at least two members) the runner-up as a second sample —
//! two independent draws per phase give the replay layer a within-phase
//! variance estimate, which is what the printed error bars are built
//! from. Weights are interval counts (integers, so the sidecar stays
//! exactly representable and byte-deterministic): the members of a
//! cluster are split across its elected points.
//!
//! The `.simpts` sidecar is a line-oriented text format:
//!
//! ```text
//! strata-simpoints-v1
//! interval 2000
//! intervals 523
//! instructions 1045310
//! k 10
//! point <interval-index> <weight> <cluster>
//! ...
//! ```

use crate::bbv::{bbvs, dist2};
use crate::file::Trace;
use crate::kmeans::kmeans;

/// Sidecar format version line.
pub const SIMPTS_VERSION: &str = "strata-simpoints-v1";

/// Seed for the clustering rng; fixed so selection is a pure function of
/// the trace.
const KMEANS_SEED: u64 = 0x51_3170_1275; // "simpoints"

/// Intervals per cluster the ROADMAP sizing targets: k ≈ n/25, clamped.
const INTERVALS_PER_CLUSTER: usize = 25;

/// Hard cap on cluster count.
pub const MAX_K: usize = 10;

/// One elected simulation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimPoint {
    /// Index of the elected interval in the trace's interval sequence.
    pub interval: u64,
    /// Number of intervals this point stands for (its estimator weight).
    pub weight: u64,
    /// The phase (cluster) the point represents.
    pub cluster: u32,
}

/// A full SimPoint selection for one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimPoints {
    /// Interval length in instructions.
    pub interval: u64,
    /// Total number of intervals in the trace (including the trailing
    /// partial one).
    pub intervals: u64,
    /// Total recorded instructions.
    pub instructions: u64,
    /// Number of phases (clusters).
    pub k: u32,
    /// Elected points, sorted by interval index.
    pub points: Vec<SimPoint>,
}

impl SimPoints {
    /// Fraction of the trace the elected intervals cover (the sampled
    /// guest-dispatch work relative to exact mode, before warmup).
    pub fn coverage(&self) -> f64 {
        if self.intervals == 0 {
            return 0.0;
        }
        self.points.len() as f64 / self.intervals as f64
    }

    /// Renders the text sidecar (trailing newline included).
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(SIMPTS_VERSION);
        s.push('\n');
        s.push_str(&format!("interval {}\n", self.interval));
        s.push_str(&format!("intervals {}\n", self.intervals));
        s.push_str(&format!("instructions {}\n", self.instructions));
        s.push_str(&format!("k {}\n", self.k));
        for p in &self.points {
            s.push_str(&format!(
                "point {} {} {}\n",
                p.interval, p.weight, p.cluster
            ));
        }
        s
    }

    /// Parses a sidecar produced by [`SimPoints::render`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn parse(text: &str) -> Result<SimPoints, String> {
        let mut lines = text.lines();
        if lines.next() != Some(SIMPTS_VERSION) {
            return Err(format!("missing {SIMPTS_VERSION} header"));
        }
        fn field(line: Option<&str>, key: &str) -> Result<u64, String> {
            let line = line.ok_or_else(|| format!("missing {key} line"))?;
            let rest = line
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| format!("expected `{key} <n>`, got `{line}`"))?;
            rest.parse()
                .map_err(|_| format!("bad {key} value `{rest}`"))
        }
        let interval = field(lines.next(), "interval")?;
        let intervals = field(lines.next(), "intervals")?;
        let instructions = field(lines.next(), "instructions")?;
        let k = field(lines.next(), "k")?;
        let k = u32::try_from(k).map_err(|_| format!("k {k} out of range"))?;
        let mut points = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            if parts.next() != Some("point") {
                return Err(format!("expected `point ...`, got `{line}`"));
            }
            let mut num = |name: &str| -> Result<u64, String> {
                parts
                    .next()
                    .ok_or_else(|| format!("point line missing {name}"))?
                    .parse()
                    .map_err(|_| format!("bad point {name} in `{line}`"))
            };
            let interval = num("interval")?;
            let weight = num("weight")?;
            let cluster = num("cluster")?;
            let cluster = u32::try_from(cluster)
                .map_err(|_| format!("point cluster {cluster} out of range in `{line}`"))?;
            points.push(SimPoint {
                interval,
                weight,
                cluster,
            });
        }
        let total = points
            .iter()
            .try_fold(0u64, |sum, p| sum.checked_add(p.weight))
            .ok_or("point weights overflow")?;
        if total != intervals {
            return Err(format!(
                "point weights sum to {total}, expected {intervals}"
            ));
        }
        // Replay indexes the trace by these, so they must describe it.
        if intervals != instructions.div_ceil(interval.max(1))
            || points.iter().any(|p| p.interval >= intervals)
        {
            return Err(format!(
                "{intervals} intervals of {interval}, or a point beyond them, do not fit \
                 {instructions} instructions"
            ));
        }
        // `select` writes points sorted, one per interval: a repeat would
        // be sampled twice, and the trace is read in one forward pass.
        if points.windows(2).any(|w| w[0].interval >= w[1].interval) {
            return Err("point lines are not strictly increasing".into());
        }
        Ok(SimPoints {
            interval,
            intervals,
            instructions,
            k,
            points,
        })
    }
}

/// Elects simulation points for `trace` at its recorded interval length.
///
/// # Panics
///
/// Panics if the trace's interval length is zero.
pub fn select(trace: &Trace) -> SimPoints {
    let vecs = bbvs(&trace.records, trace.interval);
    let n = vecs.len();
    if n == 0 {
        return SimPoints {
            interval: trace.interval,
            intervals: 0,
            instructions: 0,
            k: 0,
            points: Vec::new(),
        };
    }
    let k = (n / INTERVALS_PER_CLUSTER).clamp(1, MAX_K).min(n);
    let clustering = kmeans(&vecs, k, KMEANS_SEED);

    let mut points = Vec::new();
    for cluster in 0..k {
        let members: Vec<usize> = (0..n)
            .filter(|&i| clustering.assignments[i] == cluster)
            .collect();
        if members.is_empty() {
            continue;
        }
        // Rank members by distance to the centroid; ties break on the
        // earlier interval for determinism.
        let mut ranked: Vec<(f64, usize)> = members
            .iter()
            .map(|&i| (dist2(&vecs[i], &clustering.centroids[cluster]), i))
            .collect();
        ranked.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let size = members.len() as u64;
        if ranked.len() >= 2 {
            let runner_weight = size / 2;
            points.push(SimPoint {
                interval: ranked[0].1 as u64,
                weight: size - runner_weight,
                cluster: cluster as u32,
            });
            points.push(SimPoint {
                interval: ranked[1].1 as u64,
                weight: runner_weight,
                cluster: cluster as u32,
            });
        } else {
            points.push(SimPoint {
                interval: ranked[0].1 as u64,
                weight: size,
                cluster: cluster as u32,
            });
        }
    }
    points.sort_by_key(|p| p.interval);
    SimPoints {
        interval: trace.interval,
        intervals: n as u64,
        instructions: trace.records.len() as u64,
        k: k as u32,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::NativeSummary;
    use strata_isa::ControlKind;
    use strata_machine::observers::{CompactRetire, MemClass};

    fn phase_trace(phases: &[(u32, usize)], interval: u64) -> Trace {
        // Each phase loops on a single-block self-jump at its own pc.
        let mut records = Vec::new();
        for &(pc, len) in phases {
            for _ in 0..len {
                records.push(CompactRetire {
                    pc,
                    kind: ControlKind::Direct,
                    taken: true,
                    indirect: false,
                    target: pc,
                    mem: MemClass::None,
                });
            }
        }
        Trace {
            workload: "synthetic".into(),
            scale: 1,
            variant: 0,
            interval,
            checksum: 0,
            natives: Vec::<NativeSummary>::new(),
            records,
        }
    }

    #[test]
    fn weights_partition_the_intervals() {
        let t = phase_trace(&[(0x1000, 5000), (0x8000, 3000)], 100);
        let sp = select(&t);
        assert_eq!(sp.intervals, 80);
        let total: u64 = sp.points.iter().map(|p| p.weight).sum();
        assert_eq!(total, sp.intervals);
        assert!(sp.coverage() <= 0.5, "coverage {}", sp.coverage());
    }

    #[test]
    fn clusters_elect_two_samples_when_possible() {
        let t = phase_trace(&[(0x1000, 5000), (0x8000, 5000)], 100);
        let sp = select(&t);
        // Degenerate synthetic input can leave a k-means cluster empty
        // (identical points); every *electing* cluster contributes one
        // or two points, and multi-member clusters contribute two.
        let electing: std::collections::BTreeSet<u32> =
            sp.points.iter().map(|p| p.cluster).collect();
        assert!(!electing.is_empty());
        for &cluster in &electing {
            let n = sp.points.iter().filter(|p| p.cluster == cluster).count();
            assert!((1..=2).contains(&n), "cluster {cluster} elected {n} points");
        }
        assert!(
            sp.points
                .iter()
                .any(|p| sp.points.iter().filter(|q| q.cluster == p.cluster).count() == 2),
            "at least one phase has a runner-up sample"
        );
    }

    #[test]
    fn sidecar_round_trips() {
        let t = phase_trace(&[(0x1000, 2600), (0x8000, 2600)], 100);
        let sp = select(&t);
        let text = sp.render();
        let back = SimPoints::parse(&text).unwrap();
        assert_eq!(back, sp);
    }

    #[test]
    fn render_is_deterministic() {
        let t = phase_trace(&[(0x1000, 2600), (0x8000, 2600)], 100);
        assert_eq!(select(&t).render(), select(&t).render());
    }

    #[test]
    fn parse_rejects_weight_mismatch() {
        let text = format!(
            "{SIMPTS_VERSION}\ninterval 100\nintervals 10\ninstructions 1000\nk 1\npoint 0 9 0\n"
        );
        assert!(SimPoints::parse(&text).unwrap_err().contains("sum to 9"));
        // Weights that wrap a u64 sum, and counts too wide for their u32
        // fields, are errors rather than a wrapped or truncated value.
        let head = format!("{SIMPTS_VERSION}\ninterval 100\nintervals 2\ninstructions 200\n");
        assert!(SimPoints::parse(&format!("{head}k 1\npoint 0 2 0\n")).is_ok());
        for (bad, needle) in [
            (
                "k 1\npoint 0 18446744073709551615 0\npoint 1 3 0\n",
                "overflow",
            ),
            ("k 1\npoint 0 2 4294967296\n", "cluster 4294967296"),
            ("k 4294967296\npoint 0 2 0\n", "k 4294967296"),
        ] {
            let err = SimPoints::parse(&format!("{head}{bad}")).unwrap_err();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn parse_rejects_points_and_counts_that_do_not_fit_the_trace() {
        let head = format!("{SIMPTS_VERSION}\ninterval 100\n");
        let beyond = format!("{head}intervals 10\ninstructions 1000\nk 1\npoint 10 10 0\n");
        let miscut = format!("{head}intervals 10\ninstructions 1001\nk 1\npoint 0 10 0\n");
        for bad in [beyond, miscut] {
            assert!(SimPoints::parse(&bad).unwrap_err().contains("do not fit"));
        }
        let partial = format!("{head}intervals 11\ninstructions 1001\nk 1\npoint 10 11 0\n");
        assert!(SimPoints::parse(&partial).is_ok());
    }

    #[test]
    fn parse_rejects_points_out_of_order() {
        let head =
            format!("{SIMPTS_VERSION}\ninterval 100\nintervals 10\ninstructions 1000\nk 2\n");
        let sorted = format!("{head}point 2 4 0\npoint 3 3 1\npoint 7 3 1\n");
        assert!(SimPoints::parse(&sorted).is_ok());
        let repeated = format!("{head}point 2 4 0\npoint 3 3 1\npoint 3 3 1\n");
        let descending = format!("{head}point 2 4 0\npoint 7 3 1\npoint 3 3 1\n");
        for bad in [repeated, descending] {
            let err = SimPoints::parse(&bad).unwrap_err();
            assert!(err.contains("strictly increasing"), "{err}");
        }
    }

    #[test]
    fn parse_rejects_bad_header() {
        assert!(SimPoints::parse("nope\n").is_err());
        assert!(SimPoints::parse("strata-simpoints-v1\ninterval x\n").is_err());
    }

    #[test]
    fn empty_trace_selects_nothing() {
        let t = phase_trace(&[], 100);
        let sp = select(&t);
        assert_eq!(sp.k, 0);
        assert!(sp.points.is_empty());
        assert_eq!(SimPoints::parse(&sp.render()).unwrap(), sp);
    }
}
