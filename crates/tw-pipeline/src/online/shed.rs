//! When to shed load and what each rung of the ladder means: the
//! slope-driven [`ShedLadder`] picks a [`DegradationLevel`] per window,
//! and [`LadderedWeaver`] holds the reconstruction engine each level runs.

use super::config::{DegradationLevel, ShedPolicy};
use tw_core::TraceWeaver;

/// Parameters of the slope-driven shed ladder. The signal is the change
/// in the shard's input-queue depth (`tw_pipeline_queue_depth`) between
/// consecutive window-cut ticks, smoothed with an EWMA: a persistently
/// positive slope means ingest outruns reconstruction *now*; a negative
/// slope means the backlog is draining and it is safe to climb back down.
/// Hysteresis comes from two asymmetries: `down_slope` is strictly below
/// `up_slope` (a dead band where the ladder holds), and any transition
/// arms a `hold` countdown of ticks during which no further transition
/// fires.
#[derive(Debug, Clone, Copy)]
struct AdaptiveShed {
    /// EWMA smoothing factor for the per-tick depth delta, in (0, 1].
    alpha: f64,
    /// Escalate one rung when the smoothed slope exceeds this
    /// (items/tick).
    up_slope: f64,
    /// Relax one rung when the smoothed slope falls below this.
    down_slope: f64,
    /// Cut ticks to hold after a transition before the next one may fire.
    hold: u32,
}

impl Default for AdaptiveShed {
    fn default() -> Self {
        AdaptiveShed {
            alpha: 0.3,
            up_slope: 0.5,
            down_slope: -0.25,
            hold: 3,
        }
    }
}

/// Runtime state of the adaptive ladder.
#[derive(Debug, Clone)]
struct AdaptiveState {
    cfg: AdaptiveShed,
    ewma: f64,
    last_depth: f64,
    rung: usize,
    cooldown: u32,
    primed: bool,
}

impl AdaptiveState {
    const LEVELS: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::ShrinkBatch,
        DegradationLevel::Greedy,
        DegradationLevel::Skip,
    ];

    fn new(cfg: AdaptiveShed) -> Self {
        AdaptiveState {
            cfg,
            ewma: 0.0,
            last_depth: 0.0,
            rung: 0,
            cooldown: 0,
            primed: false,
        }
    }

    /// Advance one cut tick with the observed input-queue depth and
    /// return the rung to run the next window at.
    fn on_tick(&mut self, depth: usize) -> DegradationLevel {
        let depth = depth as f64;
        if !self.primed {
            self.primed = true;
            self.last_depth = depth;
        }
        let delta = depth - self.last_depth;
        self.last_depth = depth;
        self.ewma = self.cfg.alpha * delta + (1.0 - self.cfg.alpha) * self.ewma;
        if self.cooldown > 0 {
            self.cooldown -= 1;
        } else if self.ewma > self.cfg.up_slope && self.rung < Self::LEVELS.len() - 1 {
            self.rung += 1;
            self.cooldown = self.cfg.hold;
        } else if self.ewma < self.cfg.down_slope && self.rung > 0 {
            self.rung -= 1;
            self.cooldown = self.cfg.hold;
        }
        Self::LEVELS[self.rung]
    }
}

/// The shard's shed ladder: a [`ShedPolicy`] plus the adaptive ladder's
/// runtime state.
#[derive(Debug, Clone)]
pub(super) struct ShedLadder {
    forced: Option<DegradationLevel>,
    adaptive: Option<AdaptiveState>,
}

impl ShedLadder {
    pub(super) fn new(policy: ShedPolicy) -> Self {
        ShedLadder {
            forced: policy.forced,
            adaptive: policy
                .adaptive
                .then(|| AdaptiveState::new(AdaptiveShed::default())),
        }
    }

    /// Ladder rung for the next window. `tick_depth` is the shard's
    /// input-queue depth at the cut mark (`Some` only on the live mark
    /// path — the adaptive ladder's signal); the shutdown flush passes
    /// `None` and holds the current rung, so draining never sheds what a
    /// live overload would not have.
    pub(super) fn pick_level(&mut self, tick_depth: Option<usize>) -> DegradationLevel {
        if let Some(level) = self.forced {
            return level;
        }
        match (self.adaptive.as_mut(), tick_depth) {
            (Some(state), Some(depth)) => state.on_tick(depth),
            (Some(state), None) => AdaptiveState::LEVELS[state.rung],
            (None, _) => DegradationLevel::Full,
        }
    }
}

/// The configured engine plus its pre-built degraded variants, one per
/// shedding rung: halving `batch_size` and dropping joint optimization
/// are `Params` changes, so each rung is just the same call graph under
/// different parameters, built once per worker instead of per window.
pub(super) struct LadderedWeaver {
    full: TraceWeaver,
    shrink: TraceWeaver,
    greedy: TraceWeaver,
}

impl LadderedWeaver {
    pub(super) fn new(full: TraceWeaver) -> Self {
        let mut shrunk = *full.params();
        shrunk.batch_size = (shrunk.batch_size / 2).max(1);
        let shrink = TraceWeaver::new(full.call_graph().clone(), shrunk);
        let greedy = TraceWeaver::new(
            full.call_graph().clone(),
            full.params().ablate_joint_optimization(),
        );
        LadderedWeaver {
            full,
            shrink,
            greedy,
        }
    }

    /// Engine to reconstruct with at `level`; `None` means skip the
    /// window entirely.
    pub(super) fn for_level(&self, level: DegradationLevel) -> Option<&TraceWeaver> {
        match level {
            DegradationLevel::Full => Some(&self.full),
            DegradationLevel::ShrinkBatch => Some(&self.shrink),
            DegradationLevel::Greedy => Some(&self.greedy),
            DegradationLevel::Skip => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shed_policy_ladder_order() {
        let mut default = ShedLadder::new(ShedPolicy::default());
        for depth in [Some(0), Some(usize::MAX), None] {
            assert_eq!(
                default.pick_level(depth),
                DegradationLevel::Full,
                "default policy never sheds"
            );
        }
        let mut forced = ShedLadder::new(ShedPolicy {
            forced: Some(DegradationLevel::Greedy),
            adaptive: true,
        });
        for depth in [Some(0), Some(usize::MAX), None] {
            assert_eq!(forced.pick_level(depth), DegradationLevel::Greedy);
        }
        assert!(DegradationLevel::Full < DegradationLevel::Skip);
    }

    /// The adaptive ladder escalates on a sustained positive depth slope,
    /// holds inside the dead band, and relaxes on a draining queue — with
    /// a hold-down between transitions so it cannot flap rung-to-rung.
    #[test]
    fn adaptive_ladder_hysteresis() {
        let mut s = AdaptiveState::new(AdaptiveShed {
            alpha: 1.0, // no smoothing: the raw delta is the slope
            up_slope: 0.5,
            down_slope: -0.5,
            hold: 2,
        });
        assert_eq!(s.on_tick(0), DegradationLevel::Full);
        // Depth climbing by 2/tick: escalate, then hold for 2 ticks.
        assert_eq!(s.on_tick(2), DegradationLevel::ShrinkBatch);
        assert_eq!(s.on_tick(4), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(s.on_tick(6), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(s.on_tick(8), DegradationLevel::Greedy);
        // Flat depth sits in the dead band: no transition either way.
        s.cooldown = 0;
        assert_eq!(s.on_tick(8), DegradationLevel::Greedy);
        assert_eq!(s.on_tick(8), DegradationLevel::Greedy);
        // Draining: relax one rung per hold-down period, down to Full.
        assert_eq!(s.on_tick(5), DegradationLevel::ShrinkBatch);
        assert_eq!(s.on_tick(2), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(s.on_tick(0), DegradationLevel::ShrinkBatch, "hold-down");
        assert_eq!(
            s.on_tick(0),
            DegradationLevel::ShrinkBatch,
            "flat: dead band"
        );
        s.last_depth = 2.0; // next tick at depth 0 sees a -2 drain slope
        assert_eq!(s.on_tick(0), DegradationLevel::Full);
    }
}
