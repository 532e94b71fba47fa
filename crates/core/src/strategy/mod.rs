//! The pluggable indirect-branch strategy layer.
//!
//! Each handling mechanism is a self-contained module implementing
//! [`IbStrategy`] (table allocation, stub support, per-site dispatch
//! emission, miss servicing, flush behaviour) or — for return-specific
//! mechanisms — [`RetStrategy`]. A [`DispatchPolicy`] resolves each branch
//! class to a [`StrategySpec`]; classes resolving to the same spec share
//! one [`Bind`] (tables, miss glue, counters), which is how the legacy
//! single-mechanism configurations stay bit-identical: they resolve to a
//! single bind whose allocation and emission order match the pre-strategy
//! code exactly.
//!
//! Misses route back to their bind through `SLOT_SITE`: single-bind
//! configurations use the legacy `SITE_SHARED` sentinel, multi-bind
//! configurations get one glue stub (and sentinel) per bind — see
//! [`crate::protocol`].

pub(crate) mod adaptive;
pub(crate) mod asib;
pub(crate) mod fastret;
pub(crate) mod ibtc;
pub(crate) mod predictive;
pub(crate) mod reentry;
pub(crate) mod retcache;
pub(crate) mod shadow;
pub(crate) mod sieve;

use std::sync::Arc;

use strata_machine::Memory;

use crate::config::{BranchClass, ClassPolicy, IbMechanism, RetMechanism, SdtConfig};
use crate::dispatch::CallPush;
use crate::emitter::{Cache, TableAlloc};
use crate::fragment::{Fragment, SieveBucket};
use crate::sdt::SdtState;
use crate::tables::TableRef;
use crate::SdtError;

/// A fully-resolved per-class strategy choice. Two classes with equal
/// specs share one [`Bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StrategySpec {
    Reentry,
    Ibtc {
        entries: u32,
        scope: crate::config::IbtcScope,
        placement: crate::config::IbtcPlacement,
        ways: u8,
    },
    Sieve {
        buckets: u32,
    },
    Adaptive {
        ibtc_entries: u32,
        sieve_buckets: u32,
        sieve_arity: u32,
    },
    Predictive {
        sieve_buckets: u32,
        probation: u32,
    },
}

impl StrategySpec {
    fn from_mech(mech: IbMechanism, ways: u8) -> StrategySpec {
        match mech {
            IbMechanism::Reentry => StrategySpec::Reentry,
            IbMechanism::Ibtc {
                entries,
                scope,
                placement,
            } => StrategySpec::Ibtc {
                entries,
                scope,
                placement,
                ways,
            },
            IbMechanism::Sieve { buckets } => StrategySpec::Sieve { buckets },
        }
    }

    /// Resolves the spec governing `class` under `cfg`. `Ret` resolves to
    /// the jump-class strategy: [`RetMechanism::AsIb`] routes returns
    /// through the generic indirect-branch path, which under a mixed
    /// policy means the jump binding.
    pub(crate) fn resolve(cfg: &SdtConfig, class: BranchClass) -> StrategySpec {
        let policy = match class {
            BranchClass::Jump | BranchClass::Ret => cfg.policy.jump,
            BranchClass::Call => cfg.policy.call,
        };
        match policy {
            ClassPolicy::Inherit => StrategySpec::from_mech(cfg.ib, cfg.ibtc_ways),
            ClassPolicy::Fixed { mech, ways } => StrategySpec::from_mech(mech, ways),
            ClassPolicy::Adaptive {
                ibtc_entries,
                sieve_buckets,
                sieve_arity,
            } => StrategySpec::Adaptive {
                ibtc_entries,
                sieve_buckets,
                sieve_arity,
            },
            ClassPolicy::Predictive {
                sieve_buckets,
                probation,
            } => StrategySpec::Predictive {
                sieve_buckets,
                probation,
            },
        }
    }
}

/// Per-binding mutable state: one binding per distinct [`StrategySpec`]
/// in the active policy, shared by every class that resolved to it.
#[derive(Debug)]
pub(crate) struct Bind {
    pub strategy: Arc<dyn IbStrategy>,
    /// The binding's fixed shared table (IBTC table, sieve bucket table,
    /// or the adaptive promotion sieve), if the strategy uses one.
    pub table: Option<TableRef>,
    /// Host-side sieve chain bookkeeping (sieve and adaptive bindings).
    pub sieve_buckets: Vec<SieveBucket>,
    /// Out-of-line probe routine address, if the strategy emits one.
    pub lookup_routine: Option<u32>,
    /// This binding's miss glue stub. `None` for single-bind
    /// configurations, which use the legacy `SITE_SHARED` glue.
    pub glue: Option<u32>,
    /// Misses serviced for this binding (shared-glue and site paths).
    pub misses: u64,
    /// Adaptive sites promoted inline → per-site IBTC (cumulative across
    /// cache flushes).
    pub promotions_to_ibtc: u64,
    /// Adaptive sites promoted IBTC → sieve (cumulative).
    pub promotions_to_sieve: u64,
}

impl Bind {
    fn new(strategy: Arc<dyn IbStrategy>) -> Bind {
        Bind {
            strategy,
            table: None,
            sieve_buckets: Vec::new(),
            lookup_routine: None,
            glue: None,
            misses: 0,
            promotions_to_ibtc: 0,
            promotions_to_sieve: 0,
        }
    }

    /// Adaptive-site promotions of either kind.
    pub(crate) fn promotions(&self) -> u64 {
        self.promotions_to_ibtc + self.promotions_to_sieve
    }
}

/// The common interface every indirect-branch mechanism implements.
///
/// Strategy objects are immutable parameter carriers (`Arc`-shared so the
/// runtime can clone them out of [`SdtState`] before re-borrowing it);
/// all mutable state lives in the [`Bind`] and [`SdtState`].
pub(crate) trait IbStrategy: std::fmt::Debug + Send + Sync {
    /// Registry key ("reentry", "ibtc", "sieve", "adaptive").
    fn id(&self) -> &'static str;

    /// Stable parameterized label for reports.
    fn describe(&self) -> String;

    /// Allocates the binding's fixed guest tables at construction time.
    fn alloc_fixed(&self, _bind: &mut Bind, _alloc: &mut TableAlloc) -> Result<(), SdtError> {
        Ok(())
    }

    /// Geometry `(entries, ways)` of the IBTC tables this strategy hangs
    /// off individual sites ([`Site::Ib`](crate::fragment::Site::Ib) with
    /// a table base). `None` for strategies whose sites carry no private
    /// table. Used by cache-metadata export to reconstruct per-site
    /// [`TableRef`]s for external auditing.
    fn site_table_geometry(&self) -> Option<(u32, u8)> {
        None
    }

    /// Emits per-binding stub support (out-of-line probe routines) right
    /// after the shared stubs. `miss_glue` is where a routine's miss path
    /// must jump.
    fn emit_stub_support(
        &self,
        _cache: &mut Cache,
        _mem: &mut Memory,
        _bind: &mut Bind,
        _miss_glue: u32,
    ) -> Result<(), SdtError> {
        Ok(())
    }

    /// (Re)initializes the binding's tables — called once after stub
    /// emission and again after every cache flush.
    fn reset(&self, _bind: &mut Bind, _mem: &mut Memory, _miss_glue: u32) -> Result<(), SdtError> {
        Ok(())
    }

    /// Emits the probe portion of one dispatch site (the caller has
    /// already emitted the spill prologue, call glue, and flags push).
    fn emit_probe(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        class: BranchClass,
    ) -> Result<(), SdtError>;

    /// Services a miss that arrived through the binding's shared glue
    /// (no site id — shared IBTC and sieve paths).
    fn on_shared_miss(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        target: u32,
        frag_entry: u32,
    ) -> Result<(), SdtError>;

    /// Services a miss at a site owned by this binding.
    fn on_site_miss(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        site: u32,
        target: u32,
        frag: Fragment,
    ) -> Result<(), SdtError>;
}

/// Fixed guest structures a return mechanism allocates at construction:
/// the return-cache table and the shadow-stack region (base address and
/// size mask), either of which may be absent.
pub(crate) type RetTables = (Option<TableRef>, Option<(u32, u32)>);

/// The common interface every return mechanism implements.
pub(crate) trait RetStrategy: std::fmt::Debug + Send + Sync {
    /// Registry key ("asib", "retcache", "fastret", "shadow").
    fn id(&self) -> &'static str;

    /// Stable parameterized label for reports.
    fn describe(&self) -> String;

    /// Allocates fixed guest structures: `(return cache, shadow region)`.
    fn alloc_fixed(&self, _alloc: &mut TableAlloc) -> Result<RetTables, SdtError> {
        Ok((None, None))
    }

    /// (Re)initializes the mechanism's structures — called once after stub
    /// emission and again after every cache flush.
    fn reset(&self, _st: &mut SdtState, _mem: &mut Memory) -> Result<(), SdtError> {
        Ok(())
    }

    /// Whether cache flushing must be disabled (fast returns leave
    /// translated return addresses live on the application stack).
    fn forbids_flush(&self) -> bool {
        false
    }

    /// The return-address push glue an indirect call must emit before
    /// dispatching, for a call returning to application address `ret_app`.
    fn call_push(&self, ret_app: u32) -> CallPush;

    /// Emits the dispatch sequence for a translated `ret`.
    fn emit_ret(&self, st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError>;

    /// Translates a direct call returning to `ret_app`.
    fn emit_direct_call(
        &self,
        st: &mut SdtState,
        mem: &mut Memory,
        target: u32,
        ret_app: u32,
    ) -> Result<(), SdtError>;
}

/// Instantiates the strategy object for a resolved spec.
pub(crate) fn instantiate(spec: StrategySpec) -> Arc<dyn IbStrategy> {
    match spec {
        StrategySpec::Reentry => Arc::new(reentry::Reentry),
        StrategySpec::Ibtc {
            entries,
            scope,
            placement,
            ways,
        } => Arc::new(ibtc::Ibtc {
            entries,
            scope,
            placement,
            ways,
        }),
        StrategySpec::Sieve { buckets } => Arc::new(sieve::Sieve { buckets }),
        StrategySpec::Adaptive {
            ibtc_entries,
            sieve_buckets,
            sieve_arity,
        } => Arc::new(adaptive::Adaptive {
            ibtc_entries,
            sieve: sieve::Sieve {
                buckets: sieve_buckets,
            },
            sieve_arity,
        }),
        StrategySpec::Predictive {
            sieve_buckets,
            probation,
        } => Arc::new(predictive::Predictive {
            sieve: sieve::Sieve {
                buckets: sieve_buckets,
            },
            probation,
        }),
    }
}

/// Instantiates the return strategy for a configuration.
pub(crate) fn instantiate_ret(ret: RetMechanism) -> Arc<dyn RetStrategy> {
    match ret {
        RetMechanism::AsIb => Arc::new(asib::AsIb),
        RetMechanism::ReturnCache { entries } => Arc::new(retcache::ReturnCache { entries }),
        RetMechanism::FastReturn => Arc::new(fastret::FastReturn),
        RetMechanism::ShadowStack { depth } => Arc::new(shadow::ShadowStack { depth }),
    }
}

/// Resolves the configuration's class policies into bindings: one
/// [`Bind`] per distinct spec, plus the `[jump, call]` class→bind map.
pub(crate) fn resolve_binds(cfg: &SdtConfig) -> (Vec<Bind>, [usize; 2]) {
    let jump = StrategySpec::resolve(cfg, BranchClass::Jump);
    let call = StrategySpec::resolve(cfg, BranchClass::Call);
    let mut binds = vec![Bind::new(instantiate(jump))];
    let call_idx = if call == jump {
        0
    } else {
        binds.push(Bind::new(instantiate(call)));
        1
    };
    (binds, [0, call_idx])
}

/// One entry of the mechanism registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MechanismInfo {
    /// Mechanism id — the key used by the policy grammar.
    pub id: &'static str,
    /// Which branch classes the mechanism can serve.
    pub classes: &'static str,
    /// One-line summary.
    pub summary: &'static str,
}

/// The strategy registry: every mechanism the dispatch layer knows,
/// keyed by mechanism id.
pub fn mechanism_registry() -> &'static [MechanismInfo] {
    &[
        MechanismInfo {
            id: "reentry",
            classes: "jump|call",
            summary: "full context switch into the translator on every dispatch",
        },
        MechanismInfo {
            id: "ibtc",
            classes: "jump|call",
            summary: "tagged software translation cache (shared/per-site, inline/outline, 1-2 way)",
        },
        MechanismInfo {
            id: "sieve",
            classes: "jump|call",
            summary: "hash into chains of compare-and-direct-jump stanzas",
        },
        MechanismInfo {
            id: "adaptive",
            classes: "jump|call",
            summary: "inline probe promoted to per-site IBTC then sieve as target arity grows",
        },
        MechanismInfo {
            id: "predictive",
            classes: "jump|call",
            summary: "observes exact target frequencies, then sieve with hottest-first chains",
        },
        MechanismInfo {
            id: "asib",
            classes: "ret",
            summary: "returns dispatch through the jump-class strategy",
        },
        MechanismInfo {
            id: "retcache",
            classes: "ret",
            summary: "tagless return cache verified in the target fragment prologue",
        },
        MechanismInfo {
            id: "fastret",
            classes: "ret",
            summary: "calls push translated return addresses; ret is native (transparency loss)",
        },
        MechanismInfo {
            id: "shadow",
            classes: "ret",
            summary: "private (app, translated) return-pair stack with exact verification",
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IbtcPlacement, IbtcScope};

    #[test]
    fn inherit_resolves_to_single_bind() {
        let cfg = SdtConfig::ibtc_inline(256);
        let (binds, class_bind) = resolve_binds(&cfg);
        assert_eq!(binds.len(), 1);
        assert_eq!(class_bind, [0, 0]);
        assert_eq!(binds[0].strategy.id(), "ibtc");
    }

    #[test]
    fn mixed_policy_resolves_to_two_binds() {
        let mut cfg = SdtConfig::ibtc_inline(256);
        cfg.policy.call = ClassPolicy::Fixed {
            mech: IbMechanism::Sieve { buckets: 64 },
            ways: 1,
        };
        let (binds, class_bind) = resolve_binds(&cfg);
        assert_eq!(binds.len(), 2);
        assert_eq!(class_bind, [0, 1]);
        assert_eq!(binds[0].strategy.id(), "ibtc");
        assert_eq!(binds[1].strategy.id(), "sieve");
    }

    #[test]
    fn equal_fixed_policies_share_a_bind() {
        let mut cfg = SdtConfig::reentry();
        let mech = IbMechanism::Ibtc {
            entries: 512,
            scope: IbtcScope::Shared,
            placement: IbtcPlacement::Inline,
        };
        cfg.policy.jump = ClassPolicy::Fixed { mech, ways: 1 };
        cfg.policy.call = ClassPolicy::Fixed { mech, ways: 1 };
        let (binds, class_bind) = resolve_binds(&cfg);
        assert_eq!(binds.len(), 1);
        assert_eq!(class_bind, [0, 0]);
    }

    #[test]
    fn registry_ids_are_unique_and_known() {
        let ids: Vec<&str> = mechanism_registry().iter().map(|m| m.id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
        for id in [
            "reentry",
            "ibtc",
            "sieve",
            "adaptive",
            "predictive",
            "retcache",
            "fastret",
            "shadow",
        ] {
            assert!(ids.contains(&id), "{id} missing from registry");
        }
    }
}
