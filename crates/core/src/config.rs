//! The SDT configuration — which mechanism serves each class of control
//! transfer, and the knobs around it — with its printer
//! ([`SdtConfig::describe`]) and its two spec grammars beside it:
//! `--config` ([`SdtConfig::parse`]) and `--ib-policy`
//! ([`SdtConfig::parse_policy`]). Each mechanism token and each return
//! token is parsed by one function, whichever grammar it appears in, and
//! every parse error is a [`SpecError`] spanning the offending token.

use strata_arch::SpecError;

use crate::strategy::StrategySpec;
use crate::SdtError;

/// Which indirect-branch handling mechanism translated code uses for
/// indirect jumps and indirect calls (and, under
/// [`RetMechanism::AsIb`], returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbMechanism {
    /// Full context switch into the translator on every indirect branch —
    /// the unoptimized baseline.
    Reentry,
    /// Indirect-branch translation cache: emitted code probes a tagged
    /// software cache mapping application targets to fragment addresses.
    Ibtc {
        /// Table entries (power of two, `2..=65536`).
        entries: u32,
        /// One shared table, or one per indirect-branch site.
        scope: IbtcScope,
        /// Lookup code inlined at each site, or a shared out-of-line
        /// routine reached by call/return.
        placement: IbtcPlacement,
    },
    /// Sieve dispatch: hash into a bucket table whose entries point to
    /// chains of compare-and-direct-jump stanzas in the code cache.
    Sieve {
        /// Bucket count (power of two, `2..=65536`).
        buckets: u32,
    },
}

/// IBTC table scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbtcScope {
    /// All indirect-branch sites share one table.
    Shared,
    /// Each indirect-branch site owns a private table (captures per-branch
    /// target locality at the cost of table space).
    PerSite,
}

/// Where IBTC lookup code lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IbtcPlacement {
    /// The probe sequence is emitted at every indirect-branch site.
    Inline,
    /// One shared probe routine; sites `call` it (cheaper I-cache
    /// footprint, extra transfer per lookup).
    OutOfLine,
}

/// How returns are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetMechanism {
    /// Returns go through the generic [`IbMechanism`] like any other
    /// indirect branch.
    AsIb,
    /// Return cache: a tagless table indexed by a hash of the return
    /// address; transfers land on a verification prologue in the target
    /// fragment.
    ReturnCache {
        /// Table entries (power of two, `2..=65536`).
        entries: u32,
    },
    /// Calls push the *translated* return address so `ret` needs no lookup
    /// at all. Fastest, but the application can observe fragment-cache
    /// addresses on its stack (transparency violation).
    FastReturn,
    /// Shadow return stack: calls additionally push an
    /// `(application return address, translated return address)` pair onto
    /// a private circular stack; returns pop it, verify the application
    /// address exactly, and jump. Transparent like the return cache but
    /// immune to hash conflicts; mismatches (underflow, wrap-around,
    /// unbalanced control flow) fall back to the translator.
    ShadowStack {
        /// Entries (power of two, `2..=8192`).
        depth: u32,
    },
}

/// The classes of control transfer a [`DispatchPolicy`] can bind to
/// strategies independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchClass {
    /// Indirect jumps (`jr`, `jmem`).
    Jump,
    /// Indirect calls (`callr`).
    Call,
    /// Returns (`ret`).
    Ret,
}

impl BranchClass {
    /// Stable lowercase label used in reports and the policy grammar.
    pub fn label(self) -> &'static str {
        match self {
            BranchClass::Jump => "jump",
            BranchClass::Call => "call",
            BranchClass::Ret => "ret",
        }
    }
}

/// Strategy selection for one branch class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassPolicy {
    /// Use the global [`SdtConfig::ib`] mechanism (the legacy default; the
    /// configuration describes and behaves exactly as before the policy
    /// layer existed).
    Inherit,
    /// A fixed mechanism for this class, with its own IBTC associativity.
    Fixed {
        /// The mechanism this class dispatches through.
        mech: IbMechanism,
        /// IBTC associativity for this class (1 or 2; ignored by
        /// non-IBTC mechanisms).
        ways: u8,
    },
    /// Start every site on a cheap single-target inline probe and promote
    /// it as observed target arity grows: a second distinct target
    /// promotes the site to a private IBTC; more than `sieve_arity`
    /// distinct targets promote it to a sieve shared by this class's
    /// promoted sites. Promotion counts surface in
    /// [`RunReport`](crate::RunReport).
    Adaptive {
        /// Entries of each promoted per-site IBTC (power of two,
        /// `2..=65536`).
        ibtc_entries: u32,
        /// Buckets of the shared promotion sieve (power of two,
        /// `2..=65536`).
        sieve_buckets: u32,
        /// Distinct-target count beyond which a site leaves its IBTC for
        /// the sieve (`1..=64`).
        sieve_arity: u32,
    },
    /// Trap every dispatch during a bounded observation window to tally
    /// exact per-target frequencies, then re-emit the site as a sieve
    /// probe whose stanza chains are installed hottest-target-first —
    /// the predictor-aware ordering a hardware BTB cannot provide (it
    /// caches the dispatch's final indirect jump, not the compare
    /// ladder in front of it).
    Predictive {
        /// Buckets of the shared sieve (power of two, `2..=65536`).
        sieve_buckets: u32,
        /// Dispatches observed per site before promotion (`1..=65536`).
        probation: u32,
    },
}

/// Maps each branch class to a strategy independently. Returns are
/// governed by [`SdtConfig::ret`] (already a per-class selector); this
/// adds the same freedom for indirect jumps and calls. Classes resolving
/// to the same strategy share tables and miss glue, so the all-[`Inherit`]
/// default is bit-identical to the pre-policy single-mechanism layout.
///
/// [`Inherit`]: ClassPolicy::Inherit
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Strategy for indirect jumps.
    pub jump: ClassPolicy,
    /// Strategy for indirect calls.
    pub call: ClassPolicy,
}

impl Default for DispatchPolicy {
    fn default() -> DispatchPolicy {
        DispatchPolicy {
            jump: ClassPolicy::Inherit,
            call: ClassPolicy::Inherit,
        }
    }
}

impl DispatchPolicy {
    /// Whether both classes inherit the global mechanism (the legacy
    /// configuration space).
    #[cfg(test)]
    fn is_inherit(&self) -> bool {
        self.jump == ClassPolicy::Inherit && self.call == ClassPolicy::Inherit
    }
}

/// Whether dispatch sequences preserve the application's flags register
/// around their `cmp` instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagsPolicy {
    /// Save and restore flags around every lookup (safe default; on
    /// x86-like profiles this is the expensive `pushf`/`popf` tax the
    /// paper analyzes).
    Always,
    /// Never save flags — models an SDT whose liveness analysis proved the
    /// flags dead across every indirect branch. Unsafe in general; the
    /// bundled workloads do not carry flags across indirect branches, so
    /// results remain correct and the configuration isolates the flags
    /// tax.
    None,
}

/// Complete SDT configuration.
///
/// Construct via one of the presets and adjust fields, or build the struct
/// literally; call [`SdtConfig::validate`] (done automatically by
/// [`Sdt::new`](crate::Sdt::new)).
///
/// ```
/// use strata_core::{SdtConfig, RetMechanism};
/// let mut cfg = SdtConfig::ibtc_inline(4096);
/// cfg.ret = RetMechanism::ReturnCache { entries: 512 };
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdtConfig {
    /// Mechanism for indirect jumps/calls.
    pub ib: IbMechanism,
    /// Mechanism for returns.
    pub ret: RetMechanism,
    /// Flags preservation policy around lookup code.
    pub flags: FlagsPolicy,
    /// Link direct branches fragment-to-fragment after first execution
    /// (`true` in real SDTs; `false` forces a translator crossing on every
    /// direct-branch exit, an ablation of Strata's fragment linking).
    pub link_fragments: bool,
    /// Fragment-cache capacity in bytes (`None` = the full cache region).
    /// When the cache fills, the SDT *flushes* it — discarding every
    /// fragment and lookup-structure entry, keeping only the shared stubs —
    /// and retranslates on demand, as Strata does. Flushing is incompatible
    /// with [`RetMechanism::FastReturn`] (live translated return addresses
    /// on the application stack would dangle), so fast-return
    /// configurations fail with `CacheFull` instead.
    pub cache_limit: Option<u32>,
    /// Inject a basic-block execution counter at the top of every
    /// translated fragment — the classic SDT-as-instrumentation use case.
    /// Counts are read back with [`Sdt::block_profile`](crate::Sdt::block_profile);
    /// the counting code is real emitted instructions tagged
    /// [`Origin::Instrumentation`](crate::Origin::Instrumentation), so its
    /// overhead is measured like any other.
    pub instrument_blocks: bool,
    /// Elide unconditional direct jumps during translation: instead of
    /// ending the fragment with a trampoline, keep translating at the jump
    /// target (tail duplication, bounded per fragment). Strata's fragment
    /// formation does this; it trades code-cache space for removing a
    /// taken jump per elision.
    pub elide_direct_jumps: bool,
    /// IBTC associativity: 1 (direct mapped, the default) or 2 (two-way
    /// sets probed sequentially, with LRU-by-shifting fills). Two-way
    /// tables require inline lookup placement.
    pub ibtc_ways: u8,
    /// Per-branch-class strategy overrides. The default (all
    /// [`ClassPolicy::Inherit`]) reproduces the legacy single-mechanism
    /// behaviour exactly.
    pub policy: DispatchPolicy,
}

impl SdtConfig {
    /// Baseline configuration: translator re-entry for everything.
    pub fn reentry() -> SdtConfig {
        SdtConfig {
            ib: IbMechanism::Reentry,
            ret: RetMechanism::AsIb,
            flags: FlagsPolicy::Always,
            link_fragments: true,
            cache_limit: None,
            instrument_blocks: false,
            elide_direct_jumps: false,
            ibtc_ways: 1,
            policy: DispatchPolicy::default(),
        }
    }

    /// Shared, inlined IBTC of the given size; returns handled as generic
    /// indirect branches.
    pub fn ibtc_inline(entries: u32) -> SdtConfig {
        SdtConfig {
            ib: IbMechanism::Ibtc {
                entries,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::Inline,
            },
            ..SdtConfig::reentry()
        }
    }

    /// Shared IBTC with the lookup in a shared out-of-line routine.
    pub fn ibtc_out_of_line(entries: u32) -> SdtConfig {
        SdtConfig {
            ib: IbMechanism::Ibtc {
                entries,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::OutOfLine,
            },
            ..SdtConfig::ibtc_inline(entries)
        }
    }

    /// Sieve dispatch with the given bucket count.
    pub fn sieve(buckets: u32) -> SdtConfig {
        SdtConfig {
            ib: IbMechanism::Sieve { buckets },
            ..SdtConfig::ibtc_inline(0x1000)
        }
    }

    /// The paper's best all-round configuration on BTB-equipped machines:
    /// inlined shared IBTC plus a return cache.
    pub fn tuned(ibtc_entries: u32, rc_entries: u32) -> SdtConfig {
        SdtConfig {
            ret: RetMechanism::ReturnCache {
                entries: rc_entries,
            },
            ..SdtConfig::ibtc_inline(ibtc_entries)
        }
    }

    /// The mechanism label of each branch class — jump, call and return,
    /// in that order — as reports print it: the one definition of a
    /// class's label, which [`Sdt::policy_summary`](crate::Sdt::policy_summary)
    /// and every [`RunReport`](crate::RunReport) use.
    pub fn class_mechanisms(&self) -> [(BranchClass, String); 3] {
        let ib = |class| StrategySpec::resolve(self, class).describe();
        [
            (BranchClass::Jump, ib(BranchClass::Jump)),
            (BranchClass::Call, ib(BranchClass::Call)),
            (BranchClass::Ret, self.ret.describe()),
        ]
    }

    /// This configuration with the size of every fixed table — a shared
    /// IBTC, a sieve's buckets (the promoting strategies' too) and a
    /// return cache — set to 0. Configurations that differ only in those
    /// sizes share it: a *size class*, whose runs may serve one another
    /// (see [`Sdt::serves`](crate::Sdt::serves)). Per-site IBTC sizes and
    /// shadow-stack depths are kept.
    pub fn size_class(&self) -> SdtConfig {
        let mut class = *self;
        for size in class.fixed_sizes_mut() {
            *size = 0;
        }
        class
    }

    /// The entries of every fixed table of [`SdtConfig::size_class`],
    /// summed. A configuration no larger than another in every table is
    /// no larger here either, so sorting a class by it, largest first,
    /// puts every member after each member that may serve it.
    pub fn fixed_table_entries(&self) -> u64 {
        let mut cfg = *self;
        let sizes = cfg.fixed_sizes_mut().into_iter();
        sizes.map(|size| *size as u64).sum()
    }

    /// The size field of every fixed table [`SdtConfig::size_class`]
    /// erases.
    fn fixed_sizes_mut(&mut self) -> Vec<&mut u32> {
        fn of(mech: &mut IbMechanism) -> Option<&mut u32> {
            match mech {
                IbMechanism::Ibtc {
                    entries,
                    scope: IbtcScope::Shared,
                    ..
                }
                | IbMechanism::Sieve { buckets: entries } => Some(entries),
                IbMechanism::Reentry
                | IbMechanism::Ibtc {
                    scope: IbtcScope::PerSite,
                    ..
                } => None,
            }
        }
        let mut sizes: Vec<&mut u32> = of(&mut self.ib).into_iter().collect();
        for policy in [&mut self.policy.jump, &mut self.policy.call] {
            sizes.extend(match policy {
                ClassPolicy::Inherit => None,
                ClassPolicy::Fixed { mech, .. } => of(mech),
                ClassPolicy::Adaptive { sieve_buckets, .. }
                | ClassPolicy::Predictive { sieve_buckets, .. } => Some(sieve_buckets),
            });
        }
        if let RetMechanism::ReturnCache { entries } = &mut self.ret {
            sizes.push(entries);
        }
        sizes
    }

    /// Checks size parameters.
    ///
    /// # Errors
    ///
    /// Returns [`SdtError::BadConfig`] if any table size is not a power of
    /// two in `2..=65536`.
    pub fn validate(&self) -> Result<(), SdtError> {
        let check = |what: &'static str, n: u32| -> Result<(), SdtError> {
            if (2..=65536).contains(&n) && n.is_power_of_two() {
                Ok(())
            } else {
                Err(SdtError::BadConfig {
                    what,
                    detail: format!("{n} must be a power of two in 2..=65536"),
                })
            }
        };
        if let IbMechanism::Ibtc { entries, .. } = self.ib {
            check("ibtc entries", entries)?;
        }
        if let IbMechanism::Sieve { buckets } = self.ib {
            check("sieve buckets", buckets)?;
        }
        if let RetMechanism::ReturnCache { entries } = self.ret {
            check("return cache entries", entries)?;
        }
        if let RetMechanism::ShadowStack { depth } = self.ret {
            if !(2..=8192).contains(&depth) || !depth.is_power_of_two() {
                return Err(SdtError::BadConfig {
                    what: "shadow stack depth",
                    detail: format!("{depth} must be a power of two in 2..=8192"),
                });
            }
        }
        Self::check_ways(self.ibtc_ways, self.ib)?;
        for policy in [self.policy.jump, self.policy.call] {
            match policy {
                ClassPolicy::Inherit => {}
                ClassPolicy::Fixed { mech, ways } => {
                    if let IbMechanism::Ibtc { entries, .. } = mech {
                        check("ibtc entries", entries)?;
                    }
                    if let IbMechanism::Sieve { buckets } = mech {
                        check("sieve buckets", buckets)?;
                    }
                    Self::check_ways(ways, mech)?;
                }
                ClassPolicy::Adaptive {
                    ibtc_entries,
                    sieve_buckets,
                    sieve_arity,
                } => {
                    check("adaptive ibtc entries", ibtc_entries)?;
                    check("adaptive sieve buckets", sieve_buckets)?;
                    if !(1..=64).contains(&sieve_arity) {
                        return Err(SdtError::BadConfig {
                            what: "adaptive sieve arity",
                            detail: format!("{sieve_arity} must be in 1..=64"),
                        });
                    }
                }
                ClassPolicy::Predictive {
                    sieve_buckets,
                    probation,
                } => {
                    check("predictive sieve buckets", sieve_buckets)?;
                    if !(1..=65536).contains(&probation) {
                        return Err(SdtError::BadConfig {
                            what: "predictive probation",
                            detail: format!("{probation} must be in 1..=65536"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Validates an IBTC associativity against the mechanism it applies to.
    fn check_ways(ways: u8, mech: IbMechanism) -> Result<(), SdtError> {
        match ways {
            1 => Ok(()),
            2 => {
                if let IbMechanism::Ibtc {
                    entries, placement, ..
                } = mech
                {
                    if placement != IbtcPlacement::Inline {
                        return Err(SdtError::BadConfig {
                            what: "ibtc ways",
                            detail: "two-way IBTC requires inline lookup code".into(),
                        });
                    }
                    if entries < 4 {
                        return Err(SdtError::BadConfig {
                            what: "ibtc ways",
                            detail: "two-way IBTC needs at least 4 entries".into(),
                        });
                    }
                }
                Ok(())
            }
            other => Err(SdtError::BadConfig {
                what: "ibtc ways",
                detail: format!("{other} must be 1 or 2"),
            }),
        }
    }

    /// Stable label for one mechanism, shared by [`SdtConfig::describe`]
    /// and the per-class policy grammar.
    pub(crate) fn mech_label(mech: IbMechanism) -> String {
        match mech {
            IbMechanism::Reentry => "reentry".to_string(),
            IbMechanism::Ibtc {
                entries,
                scope,
                placement,
            } => format!(
                "ibtc({entries},{},{})",
                match scope {
                    IbtcScope::Shared => "shared",
                    IbtcScope::PerSite => "per-site",
                },
                match placement {
                    IbtcPlacement::Inline => "inline",
                    IbtcPlacement::OutOfLine => "outline",
                }
            ),
            IbMechanism::Sieve { buckets } => format!("sieve({buckets})"),
        }
    }

    /// Stable label for one class policy (`None` for
    /// [`ClassPolicy::Inherit`], which adds nothing to the description).
    pub(crate) fn policy_label(policy: ClassPolicy) -> Option<String> {
        match policy {
            ClassPolicy::Inherit => None,
            ClassPolicy::Fixed { mech, ways } => {
                let ways = if ways == 2 { "x2" } else { "" };
                Some(format!("{}{ways}", Self::mech_label(mech)))
            }
            ClassPolicy::Adaptive {
                ibtc_entries,
                sieve_buckets,
                sieve_arity,
            } => Some(format!(
                "adaptive({ibtc_entries},{sieve_buckets},{sieve_arity})"
            )),
            ClassPolicy::Predictive {
                sieve_buckets,
                probation,
            } => Some(format!("predictive({sieve_buckets},{probation})")),
        }
    }

    /// A short, stable description such as `ibtc(4096,shared,inline)+rc(512)`,
    /// used as a row label by the experiment binaries. Non-default class
    /// policies append `+jump=…`/`+call=…`; the all-inherit default appends
    /// nothing, so legacy configurations keep their historical labels (and
    /// their memoization/baseline keys).
    pub fn describe(&self) -> String {
        let ib = Self::mech_label(self.ib);
        let ret = match self.ret {
            RetMechanism::AsIb => String::new(),
            RetMechanism::ReturnCache { entries } => format!("+rc({entries})"),
            RetMechanism::FastReturn => "+fastret".to_string(),
            RetMechanism::ShadowStack { depth } => format!("+shadow({depth})"),
        };
        let flags = match self.flags {
            FlagsPolicy::Always => "",
            FlagsPolicy::None => "+noflags",
        };
        let link = if self.link_fragments { "" } else { "+nolink" };
        let cache = match self.cache_limit {
            Some(bytes) => format!("+cache({bytes})"),
            None => String::new(),
        };
        let instr = if self.instrument_blocks {
            "+bbcount"
        } else {
            ""
        };
        let elide = if self.elide_direct_jumps {
            "+elide"
        } else {
            ""
        };
        let ways = if self.ibtc_ways == 2 { "+2way" } else { "" };
        let mut policy = String::new();
        for (label, class) in [("jump", self.policy.jump), ("call", self.policy.call)] {
            if let Some(spec) = Self::policy_label(class) {
                policy.push_str(&format!("+{label}={spec}"));
            }
        }
        format!("{ib}{ret}{flags}{link}{cache}{instr}{elide}{ways}{policy}")
    }

    /// Parses a `--config` spec: a head, then any of the modifiers
    /// `+noflags` and `+nolink`. The head is a mechanism token —
    /// `reentry`, `ibtc:<entries>`, `ibtc-outline:<entries>`,
    /// `ibtc-persite:<entries>`, `sieve:<buckets>`, the jump/call
    /// strategies of [`SdtConfig::parse_policy`] without their `x2`
    /// suffix (associativity is set per class) — or an inline IBTC plus
    /// the return mechanism of the same `ret=` token: `tuned:<ibtc>,<rc>`,
    /// `fastret:<ibtc>`, `shadow:<ibtc>,<depth>`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] spanning the offending token: an unknown
    /// head or modifier, a malformed size, an argument to `reentry`.
    /// (Range validation happens later in [`SdtConfig::validate`].)
    pub fn parse(spec: &str) -> Result<SdtConfig, SpecError> {
        if let Some(at) = spec.find(char::is_whitespace) {
            return Err(SpecError::new("whitespace in config", at, 1));
        }
        let mut parts = spec.split('+');
        let head = parts.next().unwrap_or_default();
        let token = Token::new(head, 0);
        let mut cfg = match token.kind {
            "tuned" | "fastret" | "shadow" => {
                let (args, at) = token.arg();
                let (ibtc, ret_args) = match args.split_once(',') {
                    Some((ibtc, ret)) => (ibtc, Some((ret, at + ibtc.len() + 1))),
                    None if token.kind == "fastret" => (args, None),
                    None => {
                        let ret = if token.kind == "tuned" { "rc" } else { "depth" };
                        let msg = format!("{} needs `<ibtc>,<{ret}>`", token.kind);
                        return Err(SpecError::new(msg, at, args.len()));
                    }
                };
                let mut cfg = SdtConfig::ibtc_inline(size(ibtc, at)?);
                let kind = if token.kind == "tuned" {
                    "rc"
                } else {
                    token.kind
                };
                cfg.ret = parse_ret(Token {
                    kind,
                    args: ret_args,
                    ..token
                })?;
                cfg
            }
            _ => match parse_mech(token)? {
                Some((ib, 1)) => SdtConfig {
                    ib,
                    ..SdtConfig::reentry()
                },
                Some(_) => {
                    let (args, at) = token.arg();
                    let msg = format!("bad size `{args}` (a 2-way IBTC is a per-class policy)");
                    return Err(SpecError::new(msg, at, args.len()));
                }
                None => return Err(token.unknown("config kind")),
            },
        };
        let mut at = head.len();
        for modifier in parts {
            match modifier {
                "noflags" => cfg.flags = FlagsPolicy::None,
                "nolink" => cfg.link_fragments = false,
                other => {
                    let msg = format!("unknown config modifier `+{other}`");
                    return Err(SpecError::new(msg, at, other.len() + 1));
                }
            }
            at += modifier.len() + 1;
        }
        Ok(cfg)
    }

    /// Parses an `--ib-policy` spec and applies it to this configuration.
    ///
    /// The spec is a comma-separated list of `class=strategy` assignments:
    ///
    /// ```text
    /// jump=sieve:4096,call=ibtc:512x2,ret=retcache:1024
    /// ```
    ///
    /// Classes: `jump`, `call` (indirect-branch strategies) and `ret`
    /// (return mechanisms). Jump/call strategies: `inherit`, `reentry`,
    /// `ibtc:<entries>[x2]`, `ibtc-outline:<entries>`,
    /// `ibtc-persite:<entries>[x2]`, `sieve:<buckets>`,
    /// `adaptive[:<ibtc>,<sieve>[,<arity>]]` (defaults `512,1024,8`), and
    /// `predictive[:<sieve>,<probation>]` (defaults `1024,64`). Ret
    /// mechanisms: `asib`, `retcache:<entries>` (alias `rc:<entries>`),
    /// `fastret`, `shadow:<depth>`. A segment without `=` continues the
    /// previous assignment, so parameter lists may hold commas.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] spanning the offending token: an unknown
    /// class or strategy, a malformed size or associativity, an argument
    /// to a strategy that takes none, a class assigned twice. (Range
    /// validation happens later in [`SdtConfig::validate`].)
    pub fn parse_policy(&mut self, spec: &str) -> Result<(), SpecError> {
        // Byte ranges of each `class=strategy` assignment in `spec`.
        let mut assignments: Vec<(usize, usize)> = Vec::new();
        let mut cursor = 0usize;
        for segment in spec.split(',') {
            let (start, end) = (cursor, cursor + segment.len());
            cursor = end + 1;
            if segment.contains('=') {
                assignments.push((start, end));
            } else if let Some(last) = assignments.last_mut() {
                last.1 = end;
            } else {
                let msg = "bad --ib-policy (expected `class=strategy,...`)";
                return Err(SpecError::new(msg, start, segment.len()));
            }
        }
        let mut seen: Vec<&str> = Vec::new();
        for (start, end) in assignments {
            let raw = &spec[start..end];
            let at = start + raw.len() - raw.trim_start().len();
            let (class, strategy) = raw.trim().split_once('=').expect("segment holds `=`");
            let class_error = |msg| SpecError::new(msg, at, class.len());
            if seen.contains(&class) {
                return Err(class_error(format!("class `{class}` assigned twice")));
            }
            seen.push(class);
            let token = Token::new(strategy, at + class.len() + 1);
            match class {
                "jump" => self.policy.jump = parse_class(token)?,
                "call" => self.policy.call = parse_class(token)?,
                "ret" => self.ret = parse_ret(token)?,
                other => {
                    let msg = format!("unknown policy class `{other}` (jump|call|ret)");
                    return Err(class_error(msg));
                }
            }
        }
        Ok(())
    }
}

/// One `kind[:args]` token of a spec, with the byte offsets its errors
/// point at.
#[derive(Clone, Copy)]
struct Token<'a> {
    kind: &'a str,
    /// Offset of `kind`.
    at: usize,
    /// What follows the first `:`, and its offset.
    args: Option<(&'a str, usize)>,
}

impl<'a> Token<'a> {
    fn new(token: &'a str, at: usize) -> Token<'a> {
        let (kind, args) = match token.split_once(':') {
            Some((kind, args)) => (kind, Some((args, at + kind.len() + 1))),
            None => (token, None),
        };
        Token { kind, at, args }
    }

    /// The argument, or an empty one at the end of the token, the spot a
    /// caret for a missing size points at.
    fn arg(self) -> (&'a str, usize) {
        self.args.unwrap_or(("", self.at + self.kind.len()))
    }

    /// The argument as one size.
    fn size(self) -> Result<u32, SpecError> {
        let (args, at) = self.arg();
        size(args, at)
    }

    /// `value`, unless the token has an argument: it takes none
    /// (`reentry:5`).
    fn no_arg<T>(self, value: T) -> Result<T, SpecError> {
        let Some((args, at)) = self.args else {
            return Ok(value);
        };
        let msg = format!("`{}` takes no argument", self.kind);
        Err(SpecError::new(msg, at, args.len()))
    }

    fn unknown(self, what: &str) -> SpecError {
        let msg = format!("unknown {what} `{}`", self.kind);
        SpecError::new(msg, self.at, self.kind.len())
    }
}

/// Parses one size at byte offset `at`.
fn size(s: &str, at: usize) -> Result<u32, SpecError> {
    let n = s.trim();
    n.parse()
        .map_err(|_| SpecError::new(format!("bad size `{n}`"), at, s.len()))
}

/// `<entries>` with an optional `x2` associativity suffix.
fn sized_ways(token: Token) -> Result<(u32, u8), SpecError> {
    let (args, at) = token.arg();
    match args.split_once('x') {
        Some((n, "2")) => Ok((size(n, at)?, 2)),
        Some((n, w)) => Err(SpecError::new(
            format!("bad associativity `x{w}` (only x2)"),
            at + n.len(),
            w.len() + 1,
        )),
        None => Ok((size(args, at)?, 1)),
    }
}

/// Parses a mechanism token — `reentry | ibtc:N[x2] | ibtc-outline:N |
/// ibtc-persite:N[x2] | sieve:N`, a `--config` head and a jump/call
/// strategy alike — into the mechanism and its IBTC ways; `None` when the
/// token names no mechanism.
fn parse_mech(token: Token) -> Result<Option<(IbMechanism, u8)>, SpecError> {
    let (scope, placement) = match token.kind {
        "reentry" => return token.no_arg(Some((IbMechanism::Reentry, 1))),
        "sieve" => {
            let buckets = token.size()?;
            return Ok(Some((IbMechanism::Sieve { buckets }, 1)));
        }
        "ibtc" => (IbtcScope::Shared, IbtcPlacement::Inline),
        "ibtc-outline" => (IbtcScope::Shared, IbtcPlacement::OutOfLine),
        "ibtc-persite" => (IbtcScope::PerSite, IbtcPlacement::Inline),
        _ => return Ok(None),
    };
    // Only an inline probe can be two-way.
    let (entries, ways) = match placement {
        IbtcPlacement::Inline => sized_ways(token)?,
        IbtcPlacement::OutOfLine => (token.size()?, 1),
    };
    let mech = IbMechanism::Ibtc {
        entries,
        scope,
        placement,
    };
    Ok(Some((mech, ways)))
}

/// Parses a jump/call strategy: `inherit`, an `adaptive` or `predictive`
/// policy, or a mechanism token.
fn parse_class(token: Token) -> Result<ClassPolicy, SpecError> {
    Ok(match token.kind {
        "inherit" => token.no_arg(ClassPolicy::Inherit)?,
        "adaptive" => {
            let usage = "<ibtc>,<sieve>[,<arity>]";
            let [ibtc_entries, sieve_buckets, sieve_arity] =
                parse_params(token, usage, [512, 1024, 8])?;
            ClassPolicy::Adaptive {
                ibtc_entries,
                sieve_buckets,
                sieve_arity,
            }
        }
        "predictive" => {
            let [sieve_buckets, probation] =
                parse_params(token, "<sieve>,<probation>", [1024, 64])?;
            ClassPolicy::Predictive {
                sieve_buckets,
                probation,
            }
        }
        _ => match parse_mech(token)? {
            Some((mech, ways)) => ClassPolicy::Fixed { mech, ways },
            None => return Err(token.unknown("class strategy")),
        },
    })
}

/// Parses a return-mechanism token — `asib | retcache:N | rc:N | fastret
/// | shadow:N` — for a `ret=` assignment and for the return half of the
/// `tuned`, `fastret` and `shadow` `--config` heads.
fn parse_ret(token: Token) -> Result<RetMechanism, SpecError> {
    Ok(match token.kind {
        "asib" => token.no_arg(RetMechanism::AsIb)?,
        "retcache" | "rc" => RetMechanism::ReturnCache {
            entries: token.size()?,
        },
        "fastret" => token.no_arg(RetMechanism::FastReturn)?,
        "shadow" => RetMechanism::ShadowStack {
            depth: token.size()?,
        },
        _ => return Err(token.unknown("ret strategy")),
    })
}

/// The parameter list of an `adaptive` or `predictive` strategy, whose
/// `usage` (`<ibtc>,<sieve>[,<arity>]`) brackets the optional ones:
/// absent or empty, it is `defaults`. Each error points at its own
/// parameter.
fn parse_params<const N: usize>(
    token: Token,
    usage: &str,
    defaults: [u32; N],
) -> Result<[u32; N], SpecError> {
    let Some((list, at)) = token.args.filter(|(list, _)| !list.is_empty()) else {
        return Ok(defaults);
    };
    let mut params = Vec::new();
    let mut p_at = at;
    for p in list.split(',') {
        params.push((p, p_at));
        p_at += p.len() + 1;
    }
    if let Some(&(_, extra)) = params.get(N) {
        let most = usage.replace(['[', ']'], "");
        let msg = format!("too many {} parameters (at most `{most}`)", token.kind);
        return Err(SpecError::new(msg, extra, at + list.len() - extra));
    }
    let required = usage
        .split('[')
        .next()
        .unwrap_or_default()
        .split(',')
        .count();
    let mut values = defaults;
    for (i, value) in values.iter_mut().enumerate() {
        match params.get(i) {
            Some(&(p, p_at)) => *value = size(p, p_at)?,
            None if i < required => {
                let msg = format!("{} needs `{usage}`", token.kind);
                return Err(SpecError::new(msg, at, list.len()));
            }
            None => {}
        }
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        for cfg in [
            SdtConfig::reentry(),
            SdtConfig::ibtc_inline(2),
            SdtConfig::ibtc_out_of_line(65536),
            SdtConfig::sieve(16),
            SdtConfig::tuned(4096, 512),
        ] {
            assert!(cfg.validate().is_ok(), "{cfg:?}");
        }
    }

    #[test]
    fn bad_sizes_rejected() {
        assert!(SdtConfig::ibtc_inline(0).validate().is_err());
        assert!(SdtConfig::ibtc_inline(1).validate().is_err());
        assert!(SdtConfig::ibtc_inline(100).validate().is_err());
        assert!(SdtConfig::ibtc_inline(1 << 17).validate().is_err());
        assert!(SdtConfig::sieve(3).validate().is_err());
        let mut cfg = SdtConfig::reentry();
        cfg.ret = RetMechanism::ReturnCache { entries: 7 };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(SdtConfig::reentry().describe(), "reentry");
        assert_eq!(
            SdtConfig::ibtc_inline(4096).describe(),
            "ibtc(4096,shared,inline)"
        );
        assert_eq!(
            SdtConfig::tuned(4096, 512).describe(),
            "ibtc(4096,shared,inline)+rc(512)"
        );
        let mut cfg = SdtConfig::sieve(256);
        cfg.flags = FlagsPolicy::None;
        cfg.link_fragments = false;
        assert_eq!(cfg.describe(), "sieve(256)+noflags+nolink");
    }

    #[test]
    fn inherit_policy_keeps_legacy_labels() {
        // The memoization/baseline keys embed describe(); the default
        // policy must not perturb them.
        let mut cfg = SdtConfig::tuned(4096, 512);
        assert!(cfg.policy.is_inherit());
        assert_eq!(cfg.describe(), "ibtc(4096,shared,inline)+rc(512)");
        cfg.policy.call = ClassPolicy::Fixed {
            mech: IbMechanism::Sieve { buckets: 1024 },
            ways: 1,
        };
        assert_eq!(
            cfg.describe(),
            "ibtc(4096,shared,inline)+rc(512)+call=sieve(1024)"
        );
    }

    #[test]
    fn policy_describe_covers_all_variants() {
        let mut cfg = SdtConfig::reentry();
        cfg.policy.jump = ClassPolicy::Adaptive {
            ibtc_entries: 512,
            sieve_buckets: 1024,
            sieve_arity: 8,
        };
        cfg.policy.call = ClassPolicy::Fixed {
            mech: IbMechanism::Ibtc {
                entries: 512,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::Inline,
            },
            ways: 2,
        };
        assert_eq!(
            cfg.describe(),
            "reentry+jump=adaptive(512,1024,8)+call=ibtc(512,shared,inline)x2"
        );
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn return_heads_are_an_inline_ibtc_plus_a_ret_token() {
        for (head, ret) in [
            ("fastret:64", "ret=fastret"),
            ("shadow:64,16", "ret=shadow:16"),
            ("tuned:64,512", "ret=rc:512"),
        ] {
            let mut cfg = SdtConfig::parse("ibtc:64").unwrap();
            cfg.parse_policy(ret).unwrap();
            assert_eq!(SdtConfig::parse(head), Ok(cfg), "{head}");
        }
    }

    #[test]
    fn degenerate_policy_params_rejected() {
        let mut cfg = SdtConfig::reentry();
        cfg.policy.jump = ClassPolicy::Fixed {
            mech: IbMechanism::Ibtc {
                entries: 100,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::Inline,
            },
            ways: 1,
        };
        assert!(
            cfg.validate().is_err(),
            "non-power-of-two per-class entries"
        );

        cfg.policy.jump = ClassPolicy::Fixed {
            mech: IbMechanism::Ibtc {
                entries: 2,
                scope: IbtcScope::Shared,
                placement: IbtcPlacement::Inline,
            },
            ways: 2,
        };
        assert!(
            cfg.validate().is_err(),
            "two-way table smaller than one set"
        );

        cfg.policy.jump = ClassPolicy::Adaptive {
            ibtc_entries: 512,
            sieve_buckets: 1024,
            sieve_arity: 0,
        };
        assert!(cfg.validate().is_err(), "zero promotion arity");

        cfg.policy.jump = ClassPolicy::Adaptive {
            ibtc_entries: 0,
            sieve_buckets: 1024,
            sieve_arity: 8,
        };
        assert!(cfg.validate().is_err(), "zero-entry adaptive ibtc");
    }
}
