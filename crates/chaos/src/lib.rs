//! # boe-chaos
//!
//! Deterministic fault injection for the enrichment workflow.
//!
//! Production code is instrumented with **named injection sites** —
//! cheap calls to [`inject`] / [`corruption`] at every pipeline stage
//! boundary and inside the `boe-par` worker loop. When no plan is
//! installed a site costs one relaxed atomic load; when a plan targets
//! the site it fires one of three fault modes:
//!
//! * [`FaultMode::Panic`] — panic with a recognizable message, so the
//!   `catch_unwind` guards and degradation paths can be exercised;
//! * [`FaultMode::Stall`] — sleep for a configured duration, so
//!   wall-clock and per-stage deadlines demonstrably trip;
//! * [`FaultMode::Corrupt`] — report a deterministic corruption verdict
//!   (NaN / empty) for intermediate vectors, decided purely from the
//!   plan seed, the site name and a caller-supplied key — never from
//!   call order — so outcomes are identical at any thread count.
//!
//! Plans come from the `BOE_CHAOS` environment variable
//! (`site=<name>,mode=<panic|stall|corrupt>[,stall_ms=N][,seed=N]`,
//! or `off`) or programmatically via [`install`], which always wins
//! over the environment. Benchmarks call [`is_enabled`] and refuse to
//! record numbers while injection is live.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;

/// The catalogue of named injection sites the workspace instruments.
///
/// Every constant here is hit at least once per pipeline run on the
/// corresponding path; the chaos matrix test sweeps all of them.
pub mod sites {
    /// Before upfront input validation.
    pub const VALIDATE: &str = "pipeline.validate";
    /// Before Step I term extraction.
    pub const STEP1_EXTRACT: &str = "pipeline.step1";
    /// Inside Step I candidate extraction, at the entry of its one
    /// serial pattern scan over the corpus.
    pub const TERMEX_CANDIDATES: &str = "termex.candidates";
    /// Before Step II detector training.
    pub const STEP2_TRAIN: &str = "pipeline.step2.train";
    /// Before the Step III/IV inducer + linker construction.
    pub const STEP34_SETUP: &str = "pipeline.step34.setup";
    /// Before the per-term Steps II–IV fan-out.
    pub const FANOUT: &str = "pipeline.fanout";
    /// Inside the per-term Step II classification guard.
    pub const TERM_DETECT: &str = "term.detect";
    /// Inside the per-term Step III induction guard (supports
    /// [`corruption`](crate::corruption) of context vectors).
    pub const TERM_INDUCE: &str = "term.induce";
    /// Inside the per-term Step IV linkage guard.
    pub const TERM_LINK: &str = "term.link";
    /// Before final report assembly.
    pub const REPORT: &str = "pipeline.report";
    /// Inside the `boe-par` worker loop, once per worker before its
    /// first claim (the one worker of a serial run included), keyed by
    /// the worker index.
    pub const PAR_WORKER: &str = "par.worker";

    /// Every site, for matrix sweeps.
    pub const ALL: [&str; 11] = [
        VALIDATE,
        STEP1_EXTRACT,
        TERMEX_CANDIDATES,
        STEP2_TRAIN,
        STEP34_SETUP,
        FANOUT,
        TERM_DETECT,
        TERM_INDUCE,
        TERM_LINK,
        REPORT,
        PAR_WORKER,
    ];
}

/// What an armed injection site does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Panic with `"chaos: injected panic at <site>"`.
    Panic,
    /// Sleep for [`ChaosPlan::stall_ms`] milliseconds (to trip deadlines).
    Stall,
    /// Offer a deterministic [`Corruption`] verdict via [`corruption`];
    /// [`inject`] itself is a no-op in this mode.
    Corrupt,
}

impl FaultMode {
    /// All modes, for matrix sweeps.
    pub const ALL: [FaultMode; 3] = [FaultMode::Panic, FaultMode::Stall, FaultMode::Corrupt];

    /// Lower-case name as used in `BOE_CHAOS`.
    pub fn name(self) -> &'static str {
        match self {
            FaultMode::Panic => "panic",
            FaultMode::Stall => "stall",
            FaultMode::Corrupt => "corrupt",
        }
    }
}

/// One armed fault: a target site plus a mode and its parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// The targeted injection site (one of [`sites`]).
    pub site: String,
    /// What to do when the site is hit.
    pub mode: FaultMode,
    /// Sleep duration for [`FaultMode::Stall`], in milliseconds.
    pub stall_ms: u64,
    /// Seed for the deterministic [`corruption`] decisions.
    pub seed: u64,
    /// When set, [`FaultMode::Stall`] fires only for hits whose key
    /// matches; `None` fires on every hit. Panic always fires on every
    /// hit; corruption is always keyed.
    pub key: Option<u64>,
}

impl ChaosPlan {
    /// A plan for `site` with `mode` and default parameters
    /// (50 ms stall, seed 0, fire on every hit).
    pub fn new(site: &str, mode: FaultMode) -> Self {
        ChaosPlan {
            site: site.to_owned(),
            mode,
            stall_ms: 50,
            seed: 0,
            key: None,
        }
    }
}

/// A deterministic corruption verdict for an intermediate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Replace the value's weights with NaN.
    MakeNan,
    /// Drop the value entirely (empty vector).
    MakeEmpty,
}

/// Fast-path state: 0 = undecided (env not parsed yet), 1 = disabled,
/// 2 = enabled.
static STATE: AtomicU8 = AtomicU8::new(0);

/// The active plan. `None` inside the mutex means "explicitly disabled";
/// the mutex content is only consulted when `STATE == 2`.
static PLAN: Mutex<Option<ChaosPlan>> = Mutex::new(None);

/// Install a plan programmatically (tests, harnesses), replacing any
/// previous plan and overriding the `BOE_CHAOS` environment variable.
/// `None` disables injection entirely.
pub fn install(plan: Option<ChaosPlan>) {
    let mut guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    let enabled = plan.is_some();
    *guard = plan;
    STATE.store(if enabled { 2 } else { 1 }, Ordering::SeqCst);
}

/// Whether any injection plan is active (programmatic or `BOE_CHAOS`).
pub fn is_enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => {
            init_from_env();
            STATE.load(Ordering::Relaxed) == 2
        }
        1 => false,
        _ => true,
    }
}

/// Parse `BOE_CHAOS` once and settle `STATE`. Malformed values disable
/// injection (printing one warning) rather than arming a garbled fault.
fn init_from_env() {
    let plan = match std::env::var("BOE_CHAOS") {
        Ok(v) => {
            let v = v.trim().to_owned();
            if v.is_empty() || v.eq_ignore_ascii_case("off") {
                None
            } else {
                match parse_env(&v) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        eprintln!("boe-chaos: ignoring malformed BOE_CHAOS ({e})");
                        None
                    }
                }
            }
        }
        Err(_) => None,
    };
    // `install` also settles STATE, and a concurrent programmatic
    // install wins because it runs after this store.
    install(plan);
}

/// Parse `site=<name>,mode=<m>[,stall_ms=N][,seed=N][,key=N]`.
fn parse_env(v: &str) -> Result<ChaosPlan, String> {
    let mut site = None;
    let mut mode = None;
    let mut stall_ms = 50u64;
    let mut seed = 0u64;
    let mut key = None;
    for part in v.split(',') {
        let (k, val) = part
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
        match k.trim() {
            "site" => site = Some(val.trim().to_owned()),
            "mode" => {
                mode = Some(match val.trim() {
                    "panic" => FaultMode::Panic,
                    "stall" => FaultMode::Stall,
                    "corrupt" => FaultMode::Corrupt,
                    other => return Err(format!("unknown mode {other:?}")),
                })
            }
            "stall_ms" => stall_ms = val.trim().parse().map_err(|e| format!("stall_ms: {e}"))?,
            "seed" => seed = val.trim().parse().map_err(|e| format!("seed: {e}"))?,
            "key" => key = Some(val.trim().parse().map_err(|e| format!("key: {e}"))?),
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    Ok(ChaosPlan {
        site: site.ok_or("missing site=")?,
        mode: mode.ok_or("missing mode=")?,
        stall_ms,
        seed,
        key,
    })
}

/// Snapshot the plan if it targets `site`.
fn plan_for(site: &str) -> Option<ChaosPlan> {
    if !is_enabled() {
        return None;
    }
    let guard = PLAN.lock().unwrap_or_else(|e| e.into_inner());
    guard.as_ref().filter(|p| p.site == site).cloned()
}

/// Hit an injection site with the default key 0.
///
/// Panics or stalls when an armed plan targets `site`; a no-op (one
/// relaxed atomic load) otherwise.
pub fn inject(site: &str) {
    inject_keyed(site, 0);
}

/// Hit an injection site with a caller-supplied key (e.g. a `boe-par`
/// worker index or a term hash). Panic fires on every hit; stall fires when the
/// plan's key filter matches (or is absent).
pub fn inject_keyed(site: &str, key: u64) {
    let Some(plan) = plan_for(site) else {
        return;
    };
    match plan.mode {
        FaultMode::Panic => panic!("chaos: injected panic at {site}"),
        FaultMode::Stall => {
            if plan.key.is_none_or(|k| k == key) {
                std::thread::sleep(std::time::Duration::from_millis(plan.stall_ms));
            }
        }
        FaultMode::Corrupt => {}
    }
}

/// A stable 64-bit key for a string (FNV-1a), for keying injection and
/// corruption by term surface rather than by call order.
pub fn key_for(s: &str) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100000001B3);
    }
    h
}

/// The deterministic corruption verdict for `(site, key)` under the
/// armed plan, if any. The decision depends only on the plan seed, the
/// site name and the key — not on call order or thread count — so a
/// corrupted run is bit-identical at any parallelism. Roughly half of
/// all keys are corrupted; the rest pass through untouched.
pub fn corruption(site: &str, key: u64) -> Option<Corruption> {
    let plan = plan_for(site)?;
    if plan.mode != FaultMode::Corrupt {
        return None;
    }
    let mut h = plan.seed;
    for b in site.bytes() {
        h = h.wrapping_mul(0x100000001B3).wrapping_add(u64::from(b));
    }
    let mut rng = boe_rng::StdRng::seed_from_u64(h ^ key);
    match rng.next_u64() % 4 {
        0 => Some(Corruption::MakeNan),
        1 => Some(Corruption::MakeEmpty),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// Plan state is process-global; serialize the tests that touch it.
    static TEST_LOCK: StdMutex<()> = StdMutex::new(());

    #[test]
    fn disabled_by_default_and_after_uninstall() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(None);
        assert!(!is_enabled());
        inject(sites::VALIDATE); // must be a no-op
        assert!(corruption(sites::TERM_INDUCE, 7).is_none());
    }

    #[test]
    fn panic_mode_panics_with_site_name() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Some(ChaosPlan::new(sites::STEP1_EXTRACT, FaultMode::Panic)));
        let caught = std::panic::catch_unwind(|| inject(sites::STEP1_EXTRACT));
        install(None);
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("pipeline.step1"), "{msg}");
    }

    #[test]
    fn other_sites_are_untouched() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        install(Some(ChaosPlan::new(sites::STEP1_EXTRACT, FaultMode::Panic)));
        inject(sites::STEP2_TRAIN); // different site: no panic
        install(None);
    }

    #[test]
    fn stall_respects_key_filter() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut plan = ChaosPlan::new(sites::PAR_WORKER, FaultMode::Stall);
        plan.stall_ms = 30;
        plan.key = Some(0);
        install(Some(plan));
        let t0 = std::time::Instant::now();
        inject_keyed(sites::PAR_WORKER, 1); // filtered out: fast
        assert!(t0.elapsed().as_millis() < 25);
        let t0 = std::time::Instant::now();
        inject_keyed(sites::PAR_WORKER, 0); // matches: sleeps
        assert!(t0.elapsed().as_millis() >= 25);
        install(None);
    }

    #[test]
    fn corruption_is_deterministic_and_keyed() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut plan = ChaosPlan::new(sites::TERM_INDUCE, FaultMode::Corrupt);
        plan.seed = 42;
        install(Some(plan));
        let verdicts: Vec<Option<Corruption>> =
            (0..64).map(|k| corruption(sites::TERM_INDUCE, k)).collect();
        // Same plan, same keys → same verdicts.
        for (k, v) in verdicts.iter().enumerate() {
            assert_eq!(*v, corruption(sites::TERM_INDUCE, k as u64));
        }
        // Some keys corrupted, some clean: the hit rate is ~50%.
        assert!(verdicts.iter().any(Option::is_some));
        assert!(verdicts.iter().any(Option::is_none));
        // Wrong site never corrupts; inject is a no-op in corrupt mode.
        assert!(corruption(sites::TERM_LINK, 0).is_none());
        inject(sites::TERM_INDUCE);
        install(None);
    }

    #[test]
    fn env_grammar_parses_and_rejects() {
        let p = parse_env("site=par.worker,mode=stall,stall_ms=10,seed=7,key=3").expect("valid");
        assert_eq!(p.site, "par.worker");
        assert_eq!(p.mode, FaultMode::Stall);
        assert_eq!(p.stall_ms, 10);
        assert_eq!(p.seed, 7);
        assert_eq!(p.key, Some(3));
        assert!(parse_env("mode=panic").is_err(), "missing site");
        assert!(parse_env("site=x").is_err(), "missing mode");
        assert!(parse_env("site=x,mode=explode").is_err(), "unknown mode");
        assert!(parse_env("gibberish").is_err());
    }
}
