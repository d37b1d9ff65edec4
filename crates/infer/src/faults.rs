//! Deterministic fault injection for the serving layer.
//!
//! Real deployments see worker crashes, straggler batches, and cache-miss
//! storms; the chaos tests reproduce them *deterministically* so that
//! panic-recovery and load-shedding regressions fail fast in CI. A
//! [`FaultPlan`] is a seeded schedule of faults keyed by the **global batch
//! attempt index**: every [`crate::BatchedEngine::try_infer`] call on an
//! engine carrying a [`FaultInjector`] draws the next index from a shared
//! atomic counter and fires whatever fault the schedule assigns to it.
//! Because the schedule is a pure function of `(seed, counts, horizon)`, two
//! runs of the same trace fire the same faults at the same attempt indices
//! regardless of worker interleaving — which is what makes the chaos
//! counters reproducible.
//!
//! The hook is zero-cost when disabled: an engine without an injector never
//! touches the counter (a single `Option` check on the batch path).

use gcnp_tensor::init::seeded_rng;
use rand::RngExt;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::ServingError;

/// One injected fault, drawn per batch attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Nothing injected for this attempt.
    None,
    /// Panic inside the engine — models a crashing worker. The panic message
    /// starts with `"gcnp-faults:"` so recovery paths can distinguish
    /// injected crashes in logs.
    Panic,
    /// Straggler batch: after computing, stall for `multiplier − 1` times
    /// the batch's own compute time (a 4.0 multiplier makes the batch take
    /// 4x as long end to end).
    Straggle { multiplier: f64 },
    /// Store-miss storm: the engine ignores the feature store for this
    /// batch (every lookup misses), forcing full supporting-node expansion —
    /// models a cold or flushed cache.
    StoreMiss,
    /// Stage stall: the stage hosting this attempt sleeps for `seconds`
    /// before doing any work — models a stage wedged on its `StageLink`
    /// that only the supervision watchdog can detect.
    StageStall { seconds: f64 },
    /// Deterministic bit flip in one resident feature-store row — models
    /// silent memory corruption; the per-row checksum must catch it on the
    /// next read and serve re-gathered data instead.
    RowFlip,
    /// Clock skew: the batch's busy-time observation fed to the EWMA
    /// estimator is multiplied by `factor`. Perturbs only the dispatcher's
    /// virtual clock, never real latency accounting.
    ClockSkew { factor: f64 },
    /// Queue wedge: one `StageLink` wakeup for this attempt's handoff is
    /// dropped — models a lost condvar notify; the timed re-check waits
    /// must recover it.
    QueueWedge,
}

impl Fault {
    /// This fault's slot in [`FaultInjector::fired`] (`FaultPlan` field
    /// order); `None` for [`Fault::None`].
    fn kind(self) -> Option<usize> {
        match self {
            Fault::None => None,
            Fault::Panic => Some(0),
            Fault::Straggle { .. } => Some(1),
            Fault::StoreMiss => Some(2),
            Fault::StageStall { .. } => Some(3),
            Fault::RowFlip => Some(4),
            Fault::ClockSkew { .. } => Some(5),
            Fault::QueueWedge => Some(6),
        }
    }
}

/// A seeded fault schedule: how many of each fault to scatter over the
/// first `horizon` batch attempts.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Worker panics to inject.
    pub panics: usize,
    /// Straggler batches to inject.
    pub stragglers: usize,
    /// Straggler slowdown multiplier (≥ 1.0).
    pub straggle_multiplier: f64,
    /// Store-miss storms to inject.
    pub storms: usize,
    /// Stage stalls to inject (second generation).
    pub stalls: usize,
    /// Stage-stall duration in milliseconds (≥ 0, finite).
    pub stall_ms: f64,
    /// Feature-store row bit flips to inject (second generation).
    pub row_flips: usize,
    /// EWMA clock-skew perturbations to inject (second generation).
    pub skews: usize,
    /// Clock-skew factor applied to the busy-time observation (> 0, finite).
    pub skew: f64,
    /// Stage-queue wakeup drops to inject (second generation).
    pub wedges: usize,
    /// Attempt-index horizon the faults are scattered over. Every fault
    /// lands on a distinct index in `[0, horizon)`; a run must execute at
    /// least `horizon` batch attempts for the whole plan to fire.
    pub horizon: u64,
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            panics: 0,
            stragglers: 0,
            straggle_multiplier: 4.0,
            storms: 0,
            stalls: 0,
            stall_ms: 50.0,
            row_flips: 0,
            skews: 0,
            skew: 4.0,
            wedges: 0,
            horizon: 64,
            seed: 0,
        }
    }
}

impl std::fmt::Display for FaultPlan {
    /// Canonical spec form: every key, in the grammar order accepted by
    /// [`FaultPlan::parse`]. `parse(plan.to_string()) == plan` for any valid
    /// plan (f64 fields print in Rust's shortest round-trip form).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "panics={},stragglers={},multiplier={},storms={},stalls={},stall-ms={},\
             rowflips={},skews={},skew={},wedges={},horizon={},seed={}",
            self.panics,
            self.stragglers,
            self.straggle_multiplier,
            self.storms,
            self.stalls,
            self.stall_ms,
            self.row_flips,
            self.skews,
            self.skew,
            self.wedges,
            self.horizon,
            self.seed
        )
    }
}

impl FaultPlan {
    /// Parse a CLI spec: comma-separated `key=value` pairs, e.g.
    /// `"panics=3,stragglers=5,storms=2,horizon=60,seed=7,multiplier=4"`.
    /// Unknown keys are rejected so typos fail loudly.
    pub fn parse(spec: &str) -> Result<FaultPlan, ServingError> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',').filter(|p| !p.trim().is_empty()) {
            let (key, value) = pair.split_once('=').ok_or_else(|| {
                ServingError::InvalidFaultSpec(format!("expected key=value, got {pair:?}"))
            })?;
            let bad =
                |v: &str| ServingError::InvalidFaultSpec(format!("bad value for {key}: {v:?}"));
            match key.trim() {
                "panics" => plan.panics = value.trim().parse().map_err(|_| bad(value))?,
                "stragglers" => plan.stragglers = value.trim().parse().map_err(|_| bad(value))?,
                "storms" => plan.storms = value.trim().parse().map_err(|_| bad(value))?,
                "horizon" => plan.horizon = value.trim().parse().map_err(|_| bad(value))?,
                "seed" => plan.seed = value.trim().parse().map_err(|_| bad(value))?,
                "multiplier" => {
                    plan.straggle_multiplier = value.trim().parse().map_err(|_| bad(value))?
                }
                "stalls" => plan.stalls = value.trim().parse().map_err(|_| bad(value))?,
                "stall-ms" => plan.stall_ms = value.trim().parse().map_err(|_| bad(value))?,
                "rowflips" => plan.row_flips = value.trim().parse().map_err(|_| bad(value))?,
                "skews" => plan.skews = value.trim().parse().map_err(|_| bad(value))?,
                "skew" => plan.skew = value.trim().parse().map_err(|_| bad(value))?,
                "wedges" => plan.wedges = value.trim().parse().map_err(|_| bad(value))?,
                other => {
                    return Err(ServingError::InvalidFaultSpec(format!(
                        "unknown key {other:?} (panics|stragglers|storms|horizon|seed|multiplier\
                         |stalls|stall-ms|rowflips|skews|skew|wedges)"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> Result<(), ServingError> {
        let total = (self.panics
            + self.stragglers
            + self.storms
            + self.stalls
            + self.row_flips
            + self.skews
            + self.wedges) as u64;
        if total > self.horizon {
            return Err(ServingError::InvalidFaultSpec(format!(
                "{total} faults do not fit in horizon {}",
                self.horizon
            )));
        }
        if self.straggle_multiplier < 1.0 {
            return Err(ServingError::InvalidFaultSpec(format!(
                "multiplier must be >= 1.0, got {}",
                self.straggle_multiplier
            )));
        }
        if !self.stall_ms.is_finite() || self.stall_ms < 0.0 {
            return Err(ServingError::InvalidFaultSpec(format!(
                "stall-ms must be finite and >= 0, got {}",
                self.stall_ms
            )));
        }
        if !self.skew.is_finite() || self.skew <= 0.0 {
            return Err(ServingError::InvalidFaultSpec(format!(
                "skew must be finite and > 0, got {}",
                self.skew
            )));
        }
        Ok(())
    }

    /// Materialize the schedule into a shareable injector. Every engine
    /// replica in a serving fleet should hold a clone of the same `Arc` so
    /// that the attempt counter is global across workers.
    pub fn build(&self) -> Result<Arc<FaultInjector>, ServingError> {
        self.validate()?;
        let mut rng = seeded_rng(self.seed ^ 0x6661_756c_7473); // "faults"
        let mut schedule: HashMap<u64, Fault> = HashMap::new();
        let mut place = |fault: Fault, rng: &mut rand::rngs::StdRng| loop {
            let idx = rng.random_range(0..self.horizon);
            if let std::collections::hash_map::Entry::Vacant(e) = schedule.entry(idx) {
                e.insert(fault);
                break;
            }
        };
        for _ in 0..self.panics {
            place(Fault::Panic, &mut rng);
        }
        for _ in 0..self.stragglers {
            place(
                Fault::Straggle {
                    multiplier: self.straggle_multiplier,
                },
                &mut rng,
            );
        }
        for _ in 0..self.storms {
            place(Fault::StoreMiss, &mut rng);
        }
        // Second-generation faults place after the originals, so a plan with
        // zero gen-2 counts draws exactly the same schedule as before.
        for _ in 0..self.stalls {
            place(
                Fault::StageStall {
                    seconds: self.stall_ms / 1e3,
                },
                &mut rng,
            );
        }
        for _ in 0..self.row_flips {
            place(Fault::RowFlip, &mut rng);
        }
        for _ in 0..self.skews {
            place(Fault::ClockSkew { factor: self.skew }, &mut rng);
        }
        for _ in 0..self.wedges {
            place(Fault::QueueWedge, &mut rng);
        }
        Ok(Arc::new(FaultInjector {
            schedule,
            counter: AtomicU64::new(0),
            fired: Default::default(),
        }))
    }
}

/// A built fault schedule plus the shared attempt counter. Attach to engines
/// with [`crate::BatchedEngine::set_faults`].
pub struct FaultInjector {
    schedule: HashMap<u64, Fault>,
    counter: AtomicU64,
    /// Faults fired so far, one slot per kind ([`Fault::kind`]).
    fired: [AtomicUsize; 7],
}

impl FaultInjector {
    /// Draw the fault for the next global batch attempt (called once per
    /// `try_infer` on fault-carrying engines) and record it as fired.
    pub fn next_fault(&self) -> Fault {
        let idx = self.counter.fetch_add(1, Ordering::Relaxed);
        let fault = self.schedule.get(&idx).copied().unwrap_or(Fault::None);
        if let Some(k) = fault.kind() {
            self.fired[k].fetch_add(1, Ordering::Relaxed);
        }
        fault
    }

    /// Batch attempts drawn so far.
    pub fn attempts(&self) -> u64 {
        self.counter.load(Ordering::Relaxed)
    }

    /// Faults actually fired so far, per kind, in [`FaultPlan`] field order:
    /// `[panics, stragglers, storms, stalls, row_flips, skews, wedges]`.
    pub fn fired(&self) -> [usize; 7] {
        self.fired.each_ref().map(|n| n.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let plan = FaultPlan::parse("panics=3, stragglers=5,storms=2,horizon=40,seed=9").unwrap();
        assert_eq!(plan.panics, 3);
        assert_eq!(plan.stragglers, 5);
        assert_eq!(plan.storms, 2);
        assert_eq!(plan.horizon, 40);
        assert_eq!(plan.seed, 9);
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("panics").is_err());
        assert!(FaultPlan::parse("panics=x").is_err());
        assert!(FaultPlan::parse("frobs=3").is_err());
        assert!(
            FaultPlan::parse("panics=9,horizon=4").is_err(),
            "overfull horizon"
        );
        assert!(
            FaultPlan::parse("multiplier=0.5").is_err(),
            "sub-1 multiplier"
        );
    }

    #[test]
    fn schedule_is_deterministic_and_complete() {
        let plan = FaultPlan {
            panics: 3,
            stragglers: 5,
            storms: 2,
            horizon: 30,
            seed: 7,
            ..Default::default()
        };
        let a = plan.build().unwrap();
        let b = plan.build().unwrap();
        let drain =
            |inj: &FaultInjector| -> Vec<Fault> { (0..30).map(|_| inj.next_fault()).collect() };
        let fa = drain(&a);
        let fb = drain(&b);
        assert_eq!(fa, fb, "same seed, same schedule");
        assert_eq!(
            a.fired(),
            [3, 5, 2, 0, 0, 0, 0],
            "every fault fires within the horizon"
        );
        assert_eq!(fa.iter().filter(|f| **f == Fault::Panic).count(), 3);
        // Past the horizon nothing fires.
        assert_eq!(a.next_fault(), Fault::None);
    }

    #[test]
    fn empty_plan_never_fires() {
        let inj = FaultPlan::default().build().unwrap();
        for _ in 0..100 {
            assert_eq!(inj.next_fault(), Fault::None);
        }
        assert_eq!(inj.fired(), [0; 7]);
    }

    #[test]
    fn gen2_keys_parse_and_fire() {
        let plan = FaultPlan::parse(
            "stalls=2,stall-ms=1,rowflips=3,skews=1,skew=2.5,wedges=2,horizon=16,seed=4",
        )
        .unwrap();
        assert_eq!(plan.stalls, 2);
        assert_eq!(plan.stall_ms, 1.0);
        assert_eq!(plan.row_flips, 3);
        assert_eq!(plan.skews, 1);
        assert_eq!(plan.skew, 2.5);
        assert_eq!(plan.wedges, 2);
        let inj = plan.build().unwrap();
        let drawn: Vec<Fault> = (0..16).map(|_| inj.next_fault()).collect();
        assert_eq!(
            inj.fired(),
            [0, 0, 0, 2, 3, 1, 2],
            "gen-1 counters untouched"
        );
        assert!(drawn.contains(&Fault::StageStall { seconds: 1e-3 }));
        assert!(drawn.contains(&Fault::ClockSkew { factor: 2.5 }));
    }

    #[test]
    fn gen2_placement_preserves_gen1_schedules() {
        // A gen-1-only plan draws the identical schedule it drew before the
        // second-generation variants existed (placement order appends).
        let plan = FaultPlan {
            panics: 3,
            stragglers: 5,
            storms: 2,
            horizon: 30,
            seed: 7,
            ..Default::default()
        };
        let inj = plan.build().unwrap();
        for _ in 0..30 {
            inj.next_fault();
        }
        assert_eq!(inj.fired(), [3, 5, 2, 0, 0, 0, 0]);
    }

    #[test]
    fn gen2_validation_rejects_bad_values() {
        assert!(FaultPlan::parse("stall-ms=-1").is_err());
        assert!(FaultPlan::parse("stall-ms=inf").is_err());
        assert!(FaultPlan::parse("skew=0").is_err());
        assert!(FaultPlan::parse("skew=nan").is_err());
        assert!(
            FaultPlan::parse("stalls=30,wedges=40,horizon=64").is_err(),
            "gen-2 counts count against the horizon"
        );
    }

    #[test]
    fn display_is_canonical_and_parses_back() {
        let plan = FaultPlan {
            panics: 1,
            stragglers: 2,
            straggle_multiplier: 1.5,
            storms: 1,
            stalls: 1,
            stall_ms: 12.5,
            row_flips: 2,
            skews: 1,
            skew: 3.0,
            wedges: 1,
            horizon: 20,
            seed: 11,
        };
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    mod grammar_round_trip {
        use super::*;
        use proptest::prelude::*;

        fn arb_plan() -> impl Strategy<Value = FaultPlan> {
            (
                (0usize..4, 0usize..4, 0usize..4, 0usize..4),
                (0usize..4, 0usize..4, 0usize..4),
                (1.0f64..8.0, 0.0f64..100.0, 0.1f64..8.0),
                0u64..1000,
            )
                .prop_map(
                    |(
                        (panics, stragglers, storms, stalls),
                        (row_flips, skews, wedges),
                        (straggle_multiplier, stall_ms, skew),
                        seed,
                    )| {
                        let total =
                            panics + stragglers + storms + stalls + row_flips + skews + wedges;
                        FaultPlan {
                            panics,
                            stragglers,
                            straggle_multiplier,
                            storms,
                            stalls,
                            stall_ms,
                            row_flips,
                            skews,
                            skew,
                            wedges,
                            horizon: total as u64 + 1 + seed % 64,
                            seed,
                        }
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Satellite acceptance: parse → display → parse identity over
            /// the full extended grammar.
            #[test]
            fn parse_display_parse_identity(plan in arb_plan()) {
                let spec = plan.to_string();
                let reparsed = FaultPlan::parse(&spec).unwrap();
                prop_assert_eq!(&reparsed, &plan);
                prop_assert_eq!(reparsed.to_string(), spec);
            }

            /// Malformed specs come back as typed errors, never a panic.
            #[test]
            fn malformed_specs_stay_typed_errors(
                key in collection::vec(0u8..26, 1..8),
                value in -3i64..3,
            ) {
                let name: String = key.iter().map(|k| (b'a' + k) as char).collect();
                let spec = format!("{name}={value}");
                match FaultPlan::parse(&spec) {
                    Ok(plan) => {
                        // Only real grammar keys with valid values parse.
                        prop_assert!(FaultPlan::parse(&plan.to_string()).is_ok());
                    }
                    Err(e) => {
                        prop_assert!(matches!(e, ServingError::InvalidFaultSpec(_)));
                    }
                }
            }
        }
    }
}
