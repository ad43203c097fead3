//! The online SLO feedback controller: a deterministic, pure
//! observe→decide→act loop the scheduler consults before every wavefront
//! dispatch, closing the loop the explorer leaves open — static
//! Pareto-optimal `<h_t, h_e>` points become a knob that *moves with
//! load*.
//!
//! # Control law
//!
//! The controller watches three causal pressure signals:
//!
//! 1. **Deadline misses** — a rolling window over the last
//!    [`ControllerConfig::window`] *graded* frames (a frame is graded
//!    once its wavefront has completed at or before the next dispatch
//!    cycle, so the controller never reads the future). Misses beyond
//!    [`ControllerConfig::miss_budget`] add pressure one-for-one.
//! 2. **Backlog** — every [`ControllerConfig::backlog_unit`] frames
//!    queued at dispatch time add one unit of pressure.
//! 3. **Maintenance storms** — a tick whose map-maintenance slot is at
//!    least one full service period (a `RotationBurst`-style rebuild
//!    storm) adds one unit, so elision ramps *while* the map is
//!    expensive rather than after the misses land.
//!
//! The decision is a bounded step toward the pressure target:
//! `h_e' = clamp(min(pressure, h_e_max), h_e − 1, h_e + 1)` — at most
//! one level per wavefront, never outside `[0, h_e_max]`, decaying back
//! to `h_e = 0` (exact answers) whenever slack returns. Step-toward-
//! target is jointly monotone in (current `h_e`, pressure), which is
//! what the monotone-pressure property test in
//! `tests/serve_controller.rs` pins.
//!
//! The **act** half lives in the scheduler: the chosen `h_e` becomes
//! the wavefront's `StreamSearchConfig::elision_depth` for
//! [`ServiceInstance::run_wavefront`](crescent_accel::ServiceInstance::run_wavefront),
//! and the tree-maintenance policy of a tick is re-chosen (spec policy
//! vs its alternate, whichever slot is cheaper) whenever the controller
//! was holding `h_e > 0` as the tick began — see
//! [`h_e_in_effect`]. Everything is integer arithmetic over modeled
//! cycles: same spec, same bytes, so the byte-exact serve gate covers
//! the controller like any other metric.

use std::collections::VecDeque;

/// Which knob policy a grid point runs: the innermost serve-grid axis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlMode {
    /// `h_e` is pinned to the point's `elision_depth` for the whole run
    /// and maintenance follows the spec policy — byte-identical to the
    /// pre-controller (`crescent-serve/v1`) service.
    Static,
    /// The SLO controller steps `h_e` per wavefront within
    /// `[0, h_e_max]`, starting from the point's `elision_depth`.
    Slo,
}

impl ControlMode {
    /// Stable report label (`"static"` / `"slo"`).
    pub fn label(&self) -> &'static str {
        match self {
            ControlMode::Static => "static",
            ControlMode::Slo => "slo",
        }
    }
}

/// Tuning of the SLO controller, echoed (and fingerprinted) in the
/// report header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerConfig {
    /// Top of the elision band: chosen `h_e` never exceeds this (and
    /// never goes below 0 — the band is `[0, h_e_max]`).
    pub h_e_max: usize,
    /// Rolling window length, in graded frames, over which misses are
    /// counted.
    pub window: usize,
    /// Misses per window the SLO tolerates before miss pressure starts.
    pub miss_budget: usize,
    /// Queued frames per unit of backlog pressure.
    pub backlog_unit: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig { h_e_max: 4, window: 8, miss_budget: 0, backlog_unit: 4 }
    }
}

impl ControllerConfig {
    /// Validates the tuning before an expensive run.
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("controller window must cover at least one frame".into());
        }
        if self.backlog_unit == 0 {
            return Err("controller backlog_unit must be >= 1".into());
        }
        if self.h_e_max > 16 {
            return Err("controller h_e_max is depth-from-leaves; > 16 is degenerate".into());
        }
        Ok(())
    }
}

/// The per-run controller state: current `h_e` plus the rolling graded
/// window. One instance per service run (the fleet shares one map and
/// one SLO, so it shares one controller).
#[derive(Clone, Debug)]
pub struct Controller {
    cfg: ControllerConfig,
    h_e: usize,
    window: VecDeque<bool>,
}

impl Controller {
    /// Creates a controller starting at `initial_h_e` (clamped into the
    /// configured band).
    pub fn new(cfg: ControllerConfig, initial_h_e: usize) -> Controller {
        Controller { h_e: initial_h_e.min(cfg.h_e_max), cfg, window: VecDeque::new() }
    }

    /// The `h_e` currently in force.
    pub fn h_e(&self) -> usize {
        self.h_e
    }

    /// Feeds one graded frame outcome (oldest evicted beyond the
    /// configured window). The scheduler calls this for every frame
    /// whose wavefront completed at or before the upcoming dispatch —
    /// strictly causal observation.
    pub fn observe(&mut self, missed: bool) {
        self.window.push_back(missed);
        while self.window.len() > self.cfg.window {
            self.window.pop_front();
        }
    }

    /// The combined pressure signal at a dispatch: windowed misses over
    /// budget + backlog units + the maintenance-storm flag.
    pub fn pressure(&self, backlog: usize, storm: bool) -> usize {
        let misses = self.window.iter().filter(|&&m| m).count();
        misses.saturating_sub(self.cfg.miss_budget)
            + backlog / self.cfg.backlog_unit
            + storm as usize
    }

    /// One decision: step `h_e` at most one level toward
    /// `min(pressure, h_e_max)` and return the new value. Jointly
    /// monotone in (current `h_e`, pressure); always inside
    /// `[0, h_e_max]`.
    pub fn decide(&mut self, backlog: usize, storm: bool) -> usize {
        let target = self.pressure(backlog, storm).min(self.cfg.h_e_max);
        let low = self.h_e.saturating_sub(1);
        let high = (self.h_e + 1).min(self.cfg.h_e_max);
        self.h_e = target.clamp(low, high);
        self.h_e
    }
}

/// The `h_e` a knob trajectory was holding as cycle `at` began: the
/// depth of the last decision dispatched strictly before `at`, or
/// `None` if no wavefront had been dispatched yet. `trajectory` is
/// `(start_cycle, h_e)` pairs in dispatch order.
///
/// This is how the scheduler re-chooses a tick's maintenance policy
/// causally: tick `t`'s tree must be ready at `t · period`, so only
/// decisions made before that boundary may influence it.
pub fn h_e_in_effect(trajectory: &[(u64, usize)], at: u64) -> Option<usize> {
    trajectory.iter().take_while(|&&(start, _)| start < at).last().map(|&(_, h_e)| h_e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_labels_are_stable() {
        assert_eq!(ControlMode::Static.label(), "static");
        assert_eq!(ControlMode::Slo.label(), "slo");
    }

    #[test]
    fn config_validation() {
        assert!(ControllerConfig::default().validate().is_ok());
        assert!(ControllerConfig { window: 0, ..Default::default() }.validate().is_err());
        assert!(ControllerConfig { backlog_unit: 0, ..Default::default() }.validate().is_err());
        assert!(ControllerConfig { h_e_max: 17, ..Default::default() }.validate().is_err());
        assert!(ControllerConfig { h_e_max: 0, ..Default::default() }.validate().is_ok());
    }

    #[test]
    fn initial_h_e_is_clamped_into_the_band() {
        let c = Controller::new(ControllerConfig { h_e_max: 2, ..Default::default() }, 9);
        assert_eq!(c.h_e(), 2);
    }

    #[test]
    fn idle_controller_decays_to_zero_and_stays() {
        let mut c = Controller::new(ControllerConfig::default(), 4);
        let mut seen = Vec::new();
        for _ in 0..6 {
            c.observe(false);
            seen.push(c.decide(0, false));
        }
        assert_eq!(seen, vec![3, 2, 1, 0, 0, 0], "one step per decision, then pinned at 0");
    }

    #[test]
    fn sustained_misses_ramp_one_step_at_a_time_within_the_band() {
        let cfg = ControllerConfig { h_e_max: 3, ..Default::default() };
        let mut c = Controller::new(cfg, 0);
        let mut seen = Vec::new();
        for _ in 0..6 {
            c.observe(true);
            seen.push(c.decide(0, false));
        }
        assert_eq!(seen, vec![1, 2, 3, 3, 3, 3], "ramps to the band top, never beyond");
    }

    #[test]
    fn window_eviction_forgets_old_misses() {
        let cfg = ControllerConfig { window: 2, ..Default::default() };
        let mut c = Controller::new(cfg, 0);
        c.observe(true);
        c.observe(true);
        assert_eq!(c.pressure(0, false), 2);
        c.observe(false);
        c.observe(false);
        assert_eq!(c.pressure(0, false), 0, "window of 2 holds only the clean frames");
    }

    #[test]
    fn backlog_and_storm_pressure_add_up() {
        let cfg = ControllerConfig { backlog_unit: 4, ..Default::default() };
        let c = Controller::new(cfg, 0);
        assert_eq!(c.pressure(0, false), 0);
        assert_eq!(c.pressure(3, false), 0);
        assert_eq!(c.pressure(8, false), 2);
        assert_eq!(c.pressure(8, true), 3);
        assert_eq!(c.pressure(0, true), 1, "a maintenance storm alone ramps elision");
    }

    #[test]
    fn miss_budget_tolerates_the_slo() {
        let cfg = ControllerConfig { miss_budget: 2, ..Default::default() };
        let mut c = Controller::new(cfg, 0);
        c.observe(true);
        c.observe(true);
        assert_eq!(c.pressure(0, false), 0, "two misses are inside the budget");
        c.observe(true);
        assert_eq!(c.pressure(0, false), 1);
    }

    #[test]
    fn decide_is_monotone_in_current_state_and_pressure() {
        // exhaustive: for every (h_e, target) pair in the band, a higher
        // current state or a higher target never yields a lower decision
        let cfg = ControllerConfig { h_e_max: 4, backlog_unit: 1, ..Default::default() };
        let decide = |h_e: usize, backlog: usize| {
            let mut c = Controller::new(cfg, h_e);
            c.decide(backlog, false)
        };
        for h_e in 0..=4usize {
            for p in 0..=6usize {
                if h_e < 4 {
                    assert!(decide(h_e + 1, p) >= decide(h_e, p));
                }
                assert!(decide(h_e, p + 1) >= decide(h_e, p));
            }
        }
    }

    #[test]
    fn h_e_in_effect_is_strictly_causal() {
        let traj = [(0u64, 1usize), (100, 2), (250, 3)];
        assert_eq!(h_e_in_effect(&traj, 0), None, "nothing dispatched before cycle 0");
        assert_eq!(h_e_in_effect(&traj, 1), Some(1));
        assert_eq!(
            h_e_in_effect(&traj, 100),
            Some(1),
            "a decision at the boundary is not yet in effect"
        );
        assert_eq!(h_e_in_effect(&traj, 101), Some(2));
        assert_eq!(h_e_in_effect(&traj, 10_000), Some(3));
        assert_eq!(h_e_in_effect(&[], 10_000), None);
    }
}
