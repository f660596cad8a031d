//! The timed phase: rounds of a fixed rotation of configurations.
//!
//! A round executes each configuration of the rotation once, so host drift
//! lands on all of them alike, with uninstrumented runs in between. There is
//! one slowdown estimator, for both kinds of run: the median, over rounds, of
//! the configuration's time over the mean of the nearest uninstrumented run
//! before and after it ([`Rounds::slowdown`]); the ladder's rungs are
//! differences of such slowdowns. Consecutive uninstrumented runs are A/A
//! pairs whose disagreement is the noise floor. Rounds repeat until the next
//! one would overrun the time the caller allows.

use crate::stats;
use crate::subject::{count, Config, Outcome, Subject};
use std::fmt::Write as _;
use std::time::Instant;

/// The end-to-end rotation.
pub const END_TO_END: [Config; 9] = [
    Config::Nop,
    Config::SingleRun,
    Config::Nop,
    Config::FirstRun,
    Config::Nop,
    Config::SecondRun,
    Config::Nop,
    Config::Velodrome,
    Config::Nop,
];

/// The layer rotation: the ladder rungs, then the optional modes on trial.
pub const LAYERS: [Config; 15] = [
    Config::Nop,
    Config::OctetOnly,
    Config::FirstNoScc,
    Config::FirstRun,
    Config::SingleNoPcd,
    Config::SingleRun,
    Config::Nop,
    Config::CacheOff,
    Config::Pipelined,
    Config::Velodrome,
    Config::Nop,
    Config::Aerodrome,
    Config::ObsCounters,
    Config::ObsFull,
    Config::Nop,
];

/// Every execution of a timed phase, round by round.
#[derive(Clone, Debug)]
pub struct Rounds {
    /// `rounds[r][i]` is the outcome of rotation entry `i` in round `r`.
    pub rounds: Vec<Vec<Outcome>>,
}

impl Rounds {
    /// Runs rounds of `rotation` for at most `seconds`, warm-up included: at
    /// least `min_rounds`, then for as long as another round of the longest
    /// length seen still fits.
    pub fn measure(
        subject: &Subject,
        rotation: &[Config],
        seconds: f64,
        min_rounds: usize,
    ) -> Rounds {
        let start = Instant::now();
        // Warm-up, not sampled: the first executions of a process pay for
        // page faults and cold caches that no later one does.
        for _ in 0..2 {
            subject.execute(Config::Nop, None);
        }
        let mut rounds = Vec::new();
        let mut longest = 0.0f64;
        loop {
            let round_start = Instant::now();
            rounds.push(rotation.iter().map(|&c| subject.execute(c, None)).collect());
            longest = longest.max(round_start.elapsed().as_secs_f64());
            let fits = start.elapsed().as_secs_f64() + longest <= seconds;
            if rounds.len() >= min_rounds && !fits {
                return Rounds { rounds };
            }
        }
    }

    /// All outcomes of `config`, in execution order.
    pub fn of(&self, config: Config) -> impl Iterator<Item = &Outcome> {
        self.rounds
            .iter()
            .flatten()
            .filter(move |o| o.config == config)
    }

    /// Wall times of `config` in ms.
    pub fn walls_ms(&self, config: Config) -> Vec<f64> {
        self.of(config).map(|o| o.wall_ns as f64 / 1e6).collect()
    }

    /// The median of the count `key` over the executions of `config`.
    pub fn median_count(&self, config: Config, key: &str) -> f64 {
        let values: Vec<f64> = self
            .of(config)
            .map(|o| count(&o.counts, key) as f64)
            .collect();
        stats::median(&values)
    }

    /// The phase for people: rounds, every configuration's samples
    /// summarized (the uninstrumented run first), the noise floor, and what
    /// the single-run executions counted.
    pub fn describe(&self, rotation: &[Config]) -> String {
        let mut text = format!(
            "rounds {} (noise floor, nop vs next nop: {:.2} %)\n",
            self.rounds.len(),
            self.aa_floor() * 100.0
        );
        let mut configs = rotation.to_vec();
        configs.sort();
        configs.dedup();
        for config in configs {
            if let Some(s) = stats::summarize(&self.walls_ms(config)) {
                let _ = writeln!(
                    text,
                    "{:<24} {}",
                    config.name(),
                    stats::fmt_summary(&s, "ms")
                );
            }
        }
        let single = |key| self.median_count(Config::SingleRun, key);
        let _ = writeln!(
            text,
            "single-run counts (median): {} cross edges, {} SCCs to PCD, {} log entries, {} unblamed cycles",
            single("icd.cross_edges"),
            single("icd.sccs_to_pcd"),
            single("icd.log_entries"),
            single("core.unblamed_cycles"),
        );
        text
    }

    /// The gated wall time of `config` in ms.
    pub fn gated_ms(&self, config: Config) -> f64 {
        stats::gated(&self.walls_ms(config))
    }

    /// Per execution of `config`, in order, its time over the mean of the
    /// nearest uninstrumented run before and after it in its round (1 for
    /// the uninstrumented run itself). Every configuration runs once per
    /// round, so two configurations' ratios pair up round by round.
    pub fn ratios(&self, config: Config) -> Vec<f64> {
        let mut ratios = Vec::new();
        for round in &self.rounds {
            for (i, outcome) in round.iter().enumerate() {
                if outcome.config != config {
                    continue;
                }
                if config == Config::Nop {
                    ratios.push(1.0);
                    break;
                }
                let nop = |o: &&Outcome| o.config == Config::Nop;
                let near = [
                    round[..i].iter().rev().find(nop),
                    round[i..].iter().find(nop),
                ];
                let walls: Vec<f64> = near.iter().flatten().map(|o| o.wall_ns as f64).collect();
                if !walls.is_empty() {
                    let base = walls.iter().sum::<f64>() / walls.len() as f64;
                    ratios.push(outcome.wall_ns as f64 / base);
                }
            }
        }
        ratios
    }

    /// Slowdown of `config`: the median of its [`Rounds::ratios`]. The one
    /// estimator of both kinds of run: it cancels the host's regime instead
    /// of hoping that two order statistics dodged it alike.
    pub fn slowdown(&self, config: Config) -> stats::Ratio {
        stats::Ratio {
            x: stats::median(&self.ratios(config)),
            base_ms: self.gated_ms(Config::Nop),
        }
    }

    /// The disagreement of consecutive uninstrumented runs of a round (see
    /// [`stats::aa_floor`]).
    pub fn aa_floor(&self) -> f64 {
        let mut pairs = Vec::new();
        for round in &self.rounds {
            let nops: Vec<f64> = round
                .iter()
                .filter(|o| o.config == Config::Nop)
                .map(|o| o.wall_ns as f64)
                .collect();
            pairs.extend(nops.windows(2).map(|w| (w[0], w[1])));
        }
        stats::aa_floor(&pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subject::{Counts, HistorySplit};

    fn outcome(config: Config, ms: u64) -> Outcome {
        Outcome {
            config,
            wall_ns: ms * 1_000_000,
            peak_heap: 0,
            counts: Counts::default(),
            split: HistorySplit::default(),
            failures: Vec::new(),
            false_cycles: Vec::new(),
        }
    }

    #[test]
    fn a_slowdown_is_the_median_ratio_to_the_neighbouring_nops() {
        use Config::{FirstRun, Nop, SingleRun};
        let round = |times: [u64; 5]| -> Vec<Outcome> {
            [Nop, SingleRun, Nop, FirstRun, Nop]
                .into_iter()
                .zip(times)
                .map(|(c, ms)| outcome(c, ms))
                .collect()
        };
        let rounds = Rounds {
            rounds: vec![
                round([100, 300, 100, 200, 100]),
                // The host slows down mid-round: each ratio follows its own
                // neighbours.
                round([100, 450, 200, 400, 200]),
                round([100, 280, 100, 220, 120]),
            ],
        };
        assert_eq!(rounds.ratios(SingleRun), [3.0, 3.0, 2.8]);
        assert_eq!(rounds.ratios(FirstRun), [2.0, 2.0, 2.0]);
        assert_eq!(rounds.ratios(Nop), [1.0, 1.0, 1.0]);
        let r = rounds.slowdown(SingleRun);
        assert_eq!((r.x, r.base_ms), (3.0, 100.0));
        assert_eq!(rounds.gated_ms(SingleRun), 280.0);
        // A/A pairs: (100,100) (100,100) (100,200) (200,200) (100,100)
        // (100,120): gaps 0 0 1 0 0 0.2, median 0.
        assert_eq!(rounds.aa_floor(), 0.0);
    }
}
