//! The indirect-branch strategy layer: a closed set of mechanisms.
//!
//! A jump/call mechanism is a [`StrategySpec`] variant, a return
//! mechanism a [`RetMechanism`] variant. Each behaviour — table
//! allocation, stub support, reset, per-site dispatch emission, miss
//! servicing, return glue, flush policy, labels — is one exhaustive
//! `match` below that dispatches to plain functions in the mechanism's
//! module, so a new mechanism fails to compile until every behaviour
//! names it. A [`DispatchPolicy`](crate::config::DispatchPolicy)
//! resolves each branch class to a [`StrategySpec`]; classes resolving
//! to the same spec share one [`Bind`] (tables, miss glue, counters),
//! which is how the legacy single-mechanism configurations stay
//! bit-identical: they resolve to a single bind whose allocation and
//! emission order match the pre-strategy code exactly.
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

use strata_machine::Memory;

use crate::config::{
    BranchClass, ClassPolicy, IbMechanism, IbtcPlacement, IbtcScope, RetMechanism, SdtConfig,
};
use crate::dispatch::CallPush;
use crate::emitter::{Cache, TableAlloc};
use crate::fragment::SieveBucket;
use crate::sdt::SdtState;
use crate::tables::{TableRef, Witness};
use crate::SdtError;

/// A fully-resolved per-class strategy choice. Two classes with equal
/// specs share one [`Bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StrategySpec {
    Reentry,
    Ibtc {
        entries: u32,
        scope: IbtcScope,
        placement: IbtcPlacement,
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

    /// Registry key: the id [`mechanism_registry`] lists.
    pub(crate) fn id(self) -> &'static str {
        match self {
            Self::Reentry => "reentry",
            Self::Ibtc { .. } => "ibtc",
            Self::Sieve { .. } => "sieve",
            Self::Adaptive { .. } => "adaptive",
            Self::Predictive { .. } => "predictive",
        }
    }

    /// Stable parameterized label for reports.
    pub(crate) fn describe(self) -> String {
        match self {
            Self::Reentry => "reentry".into(),
            Self::Ibtc {
                entries,
                scope,
                placement,
                ways,
            } => ibtc::describe(entries, scope, placement, ways),
            Self::Sieve { buckets } => format!("sieve({buckets})"),
            Self::Adaptive {
                ibtc_entries,
                sieve_buckets,
                sieve_arity,
            } => format!("adaptive({ibtc_entries},{sieve_buckets},{sieve_arity})"),
            Self::Predictive {
                sieve_buckets,
                probation,
            } => format!("predictive({sieve_buckets},{probation})"),
        }
    }

    /// Geometry `(entries, ways)` of the IBTC tables this strategy hangs
    /// off individual sites ([`Site::Ib`](crate::fragment::Site::Ib) with
    /// a table base). `None` for strategies whose sites carry no private
    /// table. Used by cache-metadata export and trace replay to
    /// reconstruct per-site [`TableRef`]s.
    pub(crate) fn site_table_geometry(self) -> Option<(u32, u8)> {
        match self {
            Self::Ibtc { entries, ways, .. } => Some((entries, ways)),
            Self::Reentry
            | Self::Sieve { .. }
            | Self::Adaptive { .. }
            | Self::Predictive { .. } => None,
        }
    }

    /// Allocates the binding's fixed guest table at construction time:
    /// the shared IBTC, or the sieve bucket table (for the promoting
    /// strategies, the sieve their sites promote into). Per-site IBTC
    /// tables are allocated at translation time above the flush floor.
    pub(crate) fn alloc_fixed(self, alloc: &mut TableAlloc) -> Result<Option<TableRef>, SdtError> {
        Ok(match self {
            Self::Ibtc {
                entries,
                scope: IbtcScope::Shared,
                ways,
                ..
            } => Some(ibtc::alloc_shared(alloc, entries, ways)?),
            Self::Sieve { buckets }
            | Self::Adaptive {
                sieve_buckets: buckets,
                ..
            }
            | Self::Predictive {
                sieve_buckets: buckets,
                ..
            } => Some(sieve::alloc_table(alloc, buckets)?),
            Self::Reentry
            | Self::Ibtc {
                scope: IbtcScope::PerSite,
                ..
            } => None,
        })
    }

    /// What [`StrategySpec::alloc_fixed`] places, for reports: `ibtc` or
    /// `sieve` (the promoting strategies' sieve too).
    pub(crate) fn fixed_table_name(self) -> Option<&'static str> {
        match self {
            Self::Ibtc {
                scope: IbtcScope::Shared,
                ..
            } => Some("ibtc"),
            Self::Sieve { .. } | Self::Adaptive { .. } | Self::Predictive { .. } => Some("sieve"),
            Self::Reentry
            | Self::Ibtc {
                scope: IbtcScope::PerSite,
                ..
            } => None,
        }
    }

    /// Emits per-binding stub support right after the shared stubs: the
    /// out-of-line IBTC lookup routine, whose miss path jumps to
    /// `miss_glue`. Returns the routine's address.
    pub(crate) fn emit_stub_support(
        self,
        cache: &mut Cache,
        mem: &mut Memory,
        table: Option<TableRef>,
        miss_glue: u32,
    ) -> Result<Option<u32>, SdtError> {
        match self {
            Self::Ibtc {
                placement: IbtcPlacement::OutOfLine,
                ..
            } => {
                let table = table.expect("out-of-line IBTC requires the shared table");
                ibtc::emit_lookup_routine(cache, mem, table, miss_glue).map(Some)
            }
            Self::Reentry
            | Self::Ibtc {
                placement: IbtcPlacement::Inline,
                ..
            }
            | Self::Sieve { .. }
            | Self::Adaptive { .. }
            | Self::Predictive { .. } => Ok(None),
        }
    }

    /// (Re)initializes `bind`'s tables — called once after stub emission
    /// and again after every cache flush.
    pub(crate) fn reset(
        self,
        bind: &mut Bind,
        mem: &mut Memory,
        miss_glue: u32,
    ) -> Result<(), SdtError> {
        match self {
            Self::Reentry => Ok(()),
            Self::Ibtc { .. } => ibtc::reset(bind.table, mem),
            Self::Sieve { buckets }
            | Self::Adaptive {
                sieve_buckets: buckets,
                ..
            }
            | Self::Predictive {
                sieve_buckets: buckets,
                ..
            } => sieve::reset(bind, mem, miss_glue, buckets),
        }
    }

    /// Emits the probe portion of one dispatch site of binding `bind`
    /// (the caller has already emitted the dispatch frame).
    pub(crate) fn emit_probe(
        self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
    ) -> Result<(), SdtError> {
        match self {
            Self::Reentry => reentry::emit_probe(st, mem, bind),
            Self::Ibtc {
                entries,
                scope,
                placement,
                ways,
            } => ibtc::emit_probe(st, mem, bind, entries, scope, placement, ways),
            Self::Sieve { .. } => sieve::emit_probe(st, mem, bind),
            Self::Adaptive { .. } => adaptive::emit_probe(st, mem, bind),
            Self::Predictive { .. } => predictive::emit_probe(st, mem, bind),
        }
    }

    /// Services a miss that arrived through binding `bind`'s shared glue
    /// (no site id — shared IBTC and sieve paths, and sieve-stage
    /// promoted probes).
    pub(crate) fn on_shared_miss(
        self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        target: u32,
        frag_entry: u32,
    ) -> Result<(), SdtError> {
        match self {
            Self::Reentry => unreachable!("re-entry sites always carry a site id"),
            Self::Ibtc { ways, .. } => {
                let table = st.binds[bind].table.expect("shared IBTC allocated");
                ibtc::fill(table, ways, mem, target, frag_entry)
            }
            // Grow the stanza chain (for the promoting strategies, a
            // sieve-stage probe missed).
            Self::Sieve { .. } | Self::Adaptive { .. } | Self::Predictive { .. } => {
                st.sieve_install(mem, bind, target, frag_entry)
            }
        }
    }

    /// Services a miss at site `site`, owned by binding `bind`.
    pub(crate) fn on_site_miss(
        self,
        st: &mut SdtState,
        mem: &mut Memory,
        bind: usize,
        site: u32,
        target: u32,
        frag_entry: u32,
    ) -> Result<(), SdtError> {
        match self {
            // A bare re-entry site has nothing to fill: the next
            // execution traps again.
            Self::Reentry => Ok(()),
            Self::Ibtc { entries, ways, .. } => {
                ibtc::on_site_miss(st, mem, site, target, frag_entry, entries, ways)
            }
            Self::Sieve { .. } => unreachable!("sieve dispatches carry no site id"),
            Self::Adaptive {
                ibtc_entries,
                sieve_arity,
                ..
            } => {
                adaptive::on_site_miss(st, mem, site, target, frag_entry, ibtc_entries, sieve_arity)
            }
            Self::Predictive { probation, .. } => {
                predictive::on_site_miss(st, mem, bind, site, target, frag_entry, probation)
            }
        }
    }
}

/// Fixed guest structures a return mechanism allocates at construction:
/// the return-cache table and the shadow-stack region (base address and
/// size mask), either of which may be absent.
pub(crate) type RetTables = (Option<TableRef>, Option<(u32, u32)>);

impl RetMechanism {
    /// Registry key: the id [`mechanism_registry`] lists.
    #[cfg(test)]
    pub(crate) fn id(self) -> &'static str {
        match self {
            RetMechanism::AsIb => "asib",
            RetMechanism::ReturnCache { .. } => "retcache",
            RetMechanism::FastReturn => "fastret",
            RetMechanism::ShadowStack { .. } => "shadow",
        }
    }

    /// Stable parameterized label for reports.
    pub(crate) fn describe(self) -> String {
        match self {
            RetMechanism::AsIb => "asib".into(),
            RetMechanism::ReturnCache { entries } => format!("rc({entries})"),
            RetMechanism::FastReturn => "fastret".into(),
            RetMechanism::ShadowStack { depth } => format!("shadow({depth})"),
        }
    }

    /// Allocates fixed guest structures: `(return cache, shadow region)`.
    pub(crate) fn alloc_fixed(self, alloc: &mut TableAlloc) -> Result<RetTables, SdtError> {
        Ok(match self {
            RetMechanism::ReturnCache { entries } => {
                (Some(retcache::alloc_table(alloc, entries)?), None)
            }
            RetMechanism::ShadowStack { depth } => {
                (None, Some(shadow::alloc_region(alloc, depth)?))
            }
            RetMechanism::AsIb | RetMechanism::FastReturn => (None, None),
        })
    }

    /// (Re)initializes the mechanism's structures — called once after stub
    /// emission and again after every cache flush.
    pub(crate) fn reset(self, st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
        match self {
            RetMechanism::ReturnCache { .. } => retcache::reset(st, mem),
            RetMechanism::ShadowStack { .. } => shadow::reset(st, mem),
            RetMechanism::AsIb | RetMechanism::FastReturn => Ok(()),
        }
    }

    /// Whether cache flushing must be disabled: fast returns leave
    /// translated return addresses live on the application stack, and
    /// flushing would dangle them.
    pub(crate) fn forbids_flush(self) -> bool {
        match self {
            RetMechanism::FastReturn => true,
            RetMechanism::AsIb
            | RetMechanism::ReturnCache { .. }
            | RetMechanism::ShadowStack { .. } => false,
        }
    }

    /// The return-address push glue an indirect call must emit before
    /// dispatching, for a call returning to application address `ret_app`.
    pub(crate) fn call_push(self, ret_app: u32) -> CallPush {
        match self {
            RetMechanism::AsIb | RetMechanism::ReturnCache { .. } => CallPush::AppAddr(ret_app),
            RetMechanism::FastReturn => CallPush::TranslatedPlaceholder,
            RetMechanism::ShadowStack { .. } => CallPush::AppAddrWithShadow(ret_app),
        }
    }

    /// Emits the dispatch sequence for a translated `ret`.
    pub(crate) fn emit_ret(self, st: &mut SdtState, mem: &mut Memory) -> Result<(), SdtError> {
        match self {
            RetMechanism::AsIb => asib::emit_ret(st, mem),
            RetMechanism::ReturnCache { .. } => retcache::emit_ret(st, mem),
            RetMechanism::FastReturn => fastret::emit_ret(st, mem),
            RetMechanism::ShadowStack { .. } => shadow::emit_ret(st, mem),
        }
    }

    /// Translates a direct call returning to `ret_app`.
    pub(crate) fn emit_direct_call(
        self,
        st: &mut SdtState,
        mem: &mut Memory,
        target: u32,
        ret_app: u32,
    ) -> Result<(), SdtError> {
        match self {
            RetMechanism::AsIb | RetMechanism::ReturnCache { .. } => {
                st.emit_transparent_direct_call(mem, target, ret_app)
            }
            RetMechanism::FastReturn => fastret::emit_direct_call(st, mem, target, ret_app),
            RetMechanism::ShadowStack { .. } => shadow::emit_direct_call(st, mem, target, ret_app),
        }
    }
}

/// Per-binding mutable state: one binding per distinct [`StrategySpec`]
/// in the active policy, shared by every class that resolved to it.
#[derive(Debug)]
pub(crate) struct Bind {
    pub spec: StrategySpec,
    /// The binding's fixed shared table (IBTC table, sieve bucket table,
    /// or the adaptive promotion sieve), if the strategy uses one.
    pub table: Option<TableRef>,
    /// The highest index the host has hashed into `table`.
    pub hashed: Witness,
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
    fn new(spec: StrategySpec) -> Bind {
        Bind {
            spec,
            table: None,
            hashed: Witness::default(),
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

    /// Notes in the witness that the host hashed `target` into the
    /// binding's fixed table, if it has one.
    pub(crate) fn note_hashed(&mut self, target: u32) {
        if let Some(table) = self.table {
            self.hashed.note(table, target);
        }
    }
}

/// Resolves the configuration's class policies into bindings: one
/// [`Bind`] per distinct spec, plus the `[jump, call]` class→bind map.
pub(crate) fn resolve_binds(cfg: &SdtConfig) -> (Vec<Bind>, [usize; 2]) {
    let jump = StrategySpec::resolve(cfg, BranchClass::Jump);
    let call = StrategySpec::resolve(cfg, BranchClass::Call);
    let mut binds = vec![Bind::new(jump)];
    let call_idx = if call == jump {
        0
    } else {
        binds.push(Bind::new(call));
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

    #[test]
    fn inherit_resolves_to_single_bind() {
        let cfg = SdtConfig::ibtc_inline(256);
        let (binds, class_bind) = resolve_binds(&cfg);
        assert_eq!(binds.len(), 1);
        assert_eq!(class_bind, [0, 0]);
        assert_eq!(binds[0].spec.id(), "ibtc");
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
        assert_eq!(binds[0].spec.id(), "ibtc");
        assert_eq!(binds[1].spec.id(), "sieve");
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
    fn every_mechanism_variant_is_registered() {
        let registered = |id| mechanism_registry().iter().any(|m| m.id == id);
        // One sample per variant. Each walk is a match with no wildcard,
        // so a new variant breaks this build until it has a slot here,
        // and the slot check holds the samples to one per slot.
        let specs = [
            StrategySpec::Reentry,
            StrategySpec::Ibtc {
                entries: 64,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::Inline,
                ways: 1,
            },
            StrategySpec::Sieve { buckets: 64 },
            StrategySpec::Adaptive {
                ibtc_entries: 64,
                sieve_buckets: 64,
                sieve_arity: 4,
            },
            StrategySpec::Predictive {
                sieve_buckets: 64,
                probation: 16,
            },
        ];
        let slot = |spec| match spec {
            StrategySpec::Reentry => 0,
            StrategySpec::Ibtc { .. } => 1,
            StrategySpec::Sieve { .. } => 2,
            StrategySpec::Adaptive { .. } => 3,
            StrategySpec::Predictive { .. } => 4,
        };
        assert_eq!(specs.map(slot), [0, 1, 2, 3, 4]);
        for spec in specs {
            assert!(registered(spec.id()), "{} unregistered", spec.id());
        }
        let rets = [
            RetMechanism::AsIb,
            RetMechanism::ReturnCache { entries: 64 },
            RetMechanism::FastReturn,
            RetMechanism::ShadowStack { depth: 64 },
        ];
        let slot = |ret| match ret {
            RetMechanism::AsIb => 0,
            RetMechanism::ReturnCache { .. } => 1,
            RetMechanism::FastReturn => 2,
            RetMechanism::ShadowStack { .. } => 3,
        };
        assert_eq!(rets.map(slot), [0, 1, 2, 3]);
        for ret in rets {
            assert!(registered(ret.id()), "{} unregistered", ret.id());
        }
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
