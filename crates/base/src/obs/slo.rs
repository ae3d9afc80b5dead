//! Per-tenant SLO tracking: latency objectives per priority class and
//! rolling-window error-budget burn rates.
//!
//! The query server records every settled request into an
//! [`SloTracker`] keyed by `tenant/priority`. Each class keeps an
//! all-time total and a bounded rolling window of good/bad verdicts;
//! the burn rate is the window's bad fraction divided by the budget
//! the target leaves open:
//!
//! ```text
//! budget     = 1 - target            (e.g. 0.05 for a 95% target)
//! burn_rate  = window_bad_fraction / budget
//! ```
//!
//! A burn rate of 1.0 means the class is consuming its error budget
//! exactly as fast as the objective allows; above 1.0 the budget is
//! burning down and the class will violate its SLO over the window.
//!
//! What counts against the budget:
//!
//! * `shed` and `err` outcomes — always;
//! * `ok` outcomes slower than the class's latency objective.
//!
//! Client-deadline **cancellations are budget-neutral** (not recorded
//! at all): the client chose the deadline, the server honoured it, and
//! charging them would let an aggressive client burn its own budget —
//! or make the "zero high-priority violations" check of
//! `crates/bench/tests/fleets.rs` flaky on loaded runners. The admission ledger still counts them separately.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use crate::admission::Priority;
use crate::json::{Fixed, Layout::{Block, Inline}, Writer};
use crate::sync::Mutex;
use super::qlog::Outcome;

/// Latency objectives and error-budget policy for the tracker.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Latency objective for `Priority::High` completions.
    pub high: Duration,
    /// Latency objective for `Priority::Low` completions.
    pub low: Duration,
    /// Success-rate target in `(0, 1)`; the error budget is `1 - target`.
    pub target: f64,
    /// Rolling-window size, in recorded requests per class.
    pub window: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            high: Duration::from_secs(5),
            low: Duration::from_secs(30),
            target: 0.95,
            window: 256,
        }
    }
}

impl SloConfig {
    /// Parse a `--slo` spec: comma-separated `key=value` pairs over
    /// `high`/`low` (objective in ms), `target` (fraction), and
    /// `window` (request count). Unset keys keep their defaults.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut cfg = Self::default();
        for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("slo spec part {part:?} is not key=value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("slo {key}={value:?}: {e}");
            match key.trim() {
                "high" => cfg.high = Duration::from_millis(value.parse().map_err(|e| bad(&e))?),
                "low" => cfg.low = Duration::from_millis(value.parse().map_err(|e| bad(&e))?),
                "target" => cfg.target = value.parse().map_err(|e| bad(&e))?,
                "window" => cfg.window = value.parse().map_err(|e| bad(&e))?,
                other => return Err(format!("unknown slo key {other:?}")),
            }
        }
        if !(cfg.target > 0.0 && cfg.target < 1.0) {
            return Err(format!("slo target must be in (0, 1), got {}", cfg.target));
        }
        if cfg.window == 0 {
            return Err("slo window must be > 0".into());
        }
        Ok(cfg)
    }

    /// The latency objective for a priority class.
    pub(crate) fn objective(&self, priority: Priority) -> Duration {
        match priority {
            Priority::High => self.high,
            Priority::Low => self.low,
        }
    }
}

#[derive(Debug, Default)]
struct ClassState {
    total: u64,
    violations: u64,
    /// Rolling window of verdicts; `true` = violation.
    window: VecDeque<bool>,
}

/// Tracks per-`tenant/priority` SLO compliance. One per server.
pub struct SloTracker {
    cfg: SloConfig,
    classes: Mutex<BTreeMap<String, ClassState>>,
}

impl SloTracker {
    /// Build a tracker with the given policy.
    pub fn new(cfg: SloConfig) -> Self {
        Self { cfg, classes: Mutex::new(BTreeMap::new()) }
    }

    /// Record one settled request. Cancellations are budget-neutral
    /// and ignored entirely (see the module docs for why).
    pub fn record(&self, tenant: &str, priority: Priority, outcome: Outcome, latency: Duration) {
        let violation = match outcome {
            Outcome::Cancelled => return,
            Outcome::Shed | Outcome::Err => true,
            Outcome::Ok => latency > self.cfg.objective(priority),
        };
        let mut classes = self.classes.lock();
        let class = classes.entry(format!("{tenant}/{priority}")).or_default();
        class.total += 1;
        if violation {
            class.violations += 1;
        }
        if class.window.len() == self.cfg.window {
            class.window.pop_front();
        }
        class.window.push_back(violation);
    }

    /// Violations recorded all-time for one class.
    #[cfg(test)]
    fn violations(&self, tenant: &str, priority: Priority) -> u64 {
        self.classes
            .lock()
            .get(&format!("{tenant}/{priority}"))
            .map_or(0, |c| c.violations)
    }

    /// Current burn rate for one class (0.0 when unrecorded).
    #[cfg(test)]
    fn burn_rate(&self, tenant: &str, priority: Priority) -> f64 {
        self.classes
            .lock()
            .get(&format!("{tenant}/{priority}"))
            .map_or(0.0, |c| self.class_burn(c))
    }

    fn class_burn(&self, class: &ClassState) -> f64 {
        if class.window.is_empty() {
            return 0.0;
        }
        let bad = class.window.iter().filter(|&&v| v).count() as f64;
        let fraction = bad / class.window.len() as f64;
        fraction / (1.0 - self.cfg.target)
    }

    /// The tracker as the writer's next value — `STATS`'s `slo` block:
    /// policy header plus one line per `tenant/priority` class
    /// (BTreeMap order).
    pub(crate) fn write_json(&self, w: &mut Writer) {
        let classes = self.classes.lock();
        w.object(Block).key("objective_ms").object(Inline);
        w.member("high", self.cfg.high.as_millis() as u64);
        w.member("low", self.cfg.low.as_millis() as u64).end();
        w.member("target", Fixed(self.cfg.target, 3)).member("window", self.cfg.window);
        w.key("tenants").object(Block);
        for (key, class) in classes.iter() {
            let bad = class.window.iter().filter(|&&v| v).count();
            let bad_fraction = bad as f64 / class.window.len().max(1) as f64;
            w.key(key).object(Inline);
            w.member("total", class.total).member("violations", class.violations);
            w.member("window_total", class.window.len()).member("window_violations", bad);
            w.member("bad_fraction", Fixed(bad_fraction, 3));
            w.member("burn_rate", Fixed(self.class_burn(class), 3)).end();
        }
        w.end().end();
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// The tracker's block as a document of its own.
    fn render_json(t: &SloTracker) -> String {
        let mut w = Writer::new();
        t.write_json(&mut w);
        w.finish()
    }

    const SLO: &str = "{\n  \"objective_ms\": {\"high\": 10, \"low\": 250},\n  \"target\": 0.900,\n  \"window\": 4,\n  \"tenants\": {\n    \"bronze/low\": {\"total\": 1, \"violations\": 1, \"window_total\": 1, \"window_violations\": 1, \"bad_fraction\": 1.000, \"burn_rate\": 10.000},\n    \"gold/high\": {\"total\": 3, \"violations\": 1, \"window_total\": 3, \"window_violations\": 1, \"bad_fraction\": 0.333, \"burn_rate\": 3.333}\n  }\n}\n";
    const SLO_EMPTY: &str = "{\n  \"objective_ms\": {\"high\": 5000, \"low\": 30000},\n  \"target\": 0.950,\n  \"window\": 256,\n  \"tenants\": {}\n}\n";

    /// Byte for byte what the hand-rolled renderer wrote (captured on
    /// the commit before `json::Writer`), and documents the strict
    /// parser accepts.
    #[test]
    fn slo_block_is_pinned() {
        let t = SloTracker::new(SloConfig { high: ms(10), low: ms(250), target: 0.9, window: 4 });
        t.record("bronze", Priority::Low, Outcome::Shed, Duration::ZERO);
        t.record("gold", Priority::High, Outcome::Ok, ms(1));
        t.record("gold", Priority::High, Outcome::Ok, ms(50));
        t.record("gold", Priority::High, Outcome::Ok, ms(2));
        assert_eq!(render_json(&t), SLO);
        assert_eq!(render_json(&SloTracker::new(SloConfig::default())), SLO_EMPTY);
        for doc in [SLO, SLO_EMPTY] {
            crate::json::parse(doc).unwrap();
        }
    }

    #[test]
    fn spec_parses_and_rejects_nonsense() {
        let cfg = SloConfig::parse("high=6000,low=30000,target=0.9,window=64").unwrap();
        assert_eq!(cfg.high, ms(6000));
        assert_eq!(cfg.low, ms(30000));
        assert_eq!(cfg.target, 0.9);
        assert_eq!(cfg.window, 64);
        // Partial specs keep defaults.
        let partial = SloConfig::parse("high=1000").unwrap();
        assert_eq!(partial.high, ms(1000));
        assert_eq!(partial.low, SloConfig::default().low);
        assert!(SloConfig::parse("high").is_err());
        assert!(SloConfig::parse("bogus=1").is_err());
        assert!(SloConfig::parse("target=1.5").is_err());
        assert!(SloConfig::parse("window=0").is_err());
    }

    #[test]
    fn violations_are_sheds_errs_and_slow_oks_but_never_cancellations() {
        let cfg = SloConfig { high: ms(10), low: ms(100), target: 0.9, window: 8 };
        let t = SloTracker::new(cfg);
        t.record("a", Priority::High, Outcome::Ok, ms(5)); // good
        t.record("a", Priority::High, Outcome::Ok, ms(50)); // slow -> violation
        t.record("a", Priority::High, Outcome::Shed, ms(0)); // violation
        t.record("a", Priority::High, Outcome::Err, ms(1)); // violation
        t.record("a", Priority::High, Outcome::Cancelled, ms(500)); // ignored
        t.record("a", Priority::Low, Outcome::Ok, ms(50)); // good (low objective)
        assert_eq!(t.violations("a", Priority::High), 3);
        assert_eq!(t.violations("a", Priority::Low), 0);
        // 3 bad of 4 recorded, budget 0.1 -> burn 7.5.
        assert!((t.burn_rate("a", Priority::High) - 7.5).abs() < 1e-9);
        assert_eq!(t.burn_rate("a", Priority::Low), 0.0);
        assert_eq!(t.burn_rate("missing", Priority::High), 0.0);
    }

    #[test]
    fn burn_rate_is_computed_over_the_rolling_window_only() {
        let cfg = SloConfig { high: ms(10), low: ms(10), target: 0.5, window: 4 };
        let t = SloTracker::new(cfg);
        // Four violations fill the window: burn = 1.0 / 0.5 = 2.0.
        for _ in 0..4 {
            t.record("w", Priority::High, Outcome::Err, ms(0));
        }
        assert!((t.burn_rate("w", Priority::High) - 2.0).abs() < 1e-9);
        // Four good completions push them all out: burn drops to 0,
        // while the all-time violation count stays.
        for _ in 0..4 {
            t.record("w", Priority::High, Outcome::Ok, ms(1));
        }
        assert_eq!(t.burn_rate("w", Priority::High), 0.0);
        assert_eq!(t.violations("w", Priority::High), 4);
    }
}
