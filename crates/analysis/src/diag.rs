//! Diagnostics: the lint catalog, severities, and the verification report.

use strata_stats::Json;

/// Version of the JSON report shape emitted by [`VerifyReport::to_json`]
/// (and the `strata verify --format json` envelope). Bump on any
/// field addition, removal, or rename so downstream tooling can detect
/// report-shape drift.
pub const SCHEMA_VERSION: u64 = 2;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Structural observation; never fails a verification run.
    Info,
    /// Suspicious but not provably wrong (imprecise provenance, joins that
    /// lost information).
    Warning,
    /// A violated invariant: the emitted code can corrupt application
    /// state or escape the translator's control.
    Error,
}

impl Severity {
    /// Lowercase label (`"error"`, `"warning"`, `"info"`).
    pub fn label(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// Every check the verifier performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lint {
    /// Overhead code executes a flags-writing instruction while the
    /// application's flags are live (under [`FlagsPolicy::Always`]
    /// (strata_core::FlagsPolicy::Always) they must first be saved).
    FlagsClobber,
    /// `popf` executed when the top of stack is not a flags word pushed by
    /// overhead code.
    BadPopf,
    /// Overhead code leaves the application stack unbalanced (a pushed
    /// word is never popped, or a pop has nothing overhead-pushed to take).
    StackImbalance,
    /// A scratch register (`r1`–`r3`) is written while it still holds the
    /// live application value (before the spill prologue saved it).
    ScratchClobber,
    /// A non-scratch register (`r0`, `r4`–`r15`) is written by overhead
    /// code other than the context-switch restore sequence.
    BulkClobber,
    /// Emitted code breaks the save-area/trap protocol: a store to an
    /// unexpected absolute slot, a bulk register saved to the wrong slot,
    /// a store outside the table region, or an unexpected trap/halt.
    ProtocolViolation,
    /// `jmem [SLOT_RESUME]` executed without the full context-switch
    /// restore contract established.
    BadResume,
    /// Control re-enters application code without the full application
    /// context restored (flags, scratch registers, balanced stack).
    BadAppEntry,
    /// An indirect exit from the cache does not target a registered
    /// dispatch path (fragment entry, miss tail, or translator trap).
    IndirectExitIntegrity,
    /// A lookup-table entry references something that is not a valid
    /// fragment entry or registered miss path.
    TableAudit,
    /// An undecodable instruction word inside the occupied cache.
    UndecodableWord,
    /// A control-flow join merged incompatible abstract states; downstream
    /// checks at this point may be imprecise.
    InconsistentState,
    /// A value of unknown provenance flows into a dispatch transfer
    /// (e.g. `SLOT_JUMP_TARGET` written from an untracked source).
    UnknownProvenance,
    /// Application-origin words in the cache that no path reaches.
    UnreachableAppCode,
    /// A fragment no table entry, link, or static edge references.
    OrphanFragment,
    /// A lowered tier op is not symbolically equivalent to the guest
    /// instruction it was translated from (wrong operand, immediate,
    /// target, or retire-event field).
    TierLowering,
    /// A translated superblock violates a structural obligation: slot
    /// anchoring, terminator placement, fused-pair/shadow agreement, or
    /// the fuel-boundary resume pc.
    TierStructure,
    /// A dispatch glue path dead-ends without reaching an accepted
    /// landing (fragment entry, application code, registered trap, or
    /// transfer slot).
    TransferContract,
}

impl Lint {
    /// The lint's fixed severity.
    pub fn severity(self) -> Severity {
        match self {
            Lint::FlagsClobber
            | Lint::BadPopf
            | Lint::StackImbalance
            | Lint::ScratchClobber
            | Lint::BulkClobber
            | Lint::ProtocolViolation
            | Lint::BadResume
            | Lint::BadAppEntry
            | Lint::IndirectExitIntegrity
            | Lint::TableAudit
            | Lint::UndecodableWord
            | Lint::TierLowering
            | Lint::TierStructure
            | Lint::TransferContract => Severity::Error,
            Lint::InconsistentState | Lint::UnknownProvenance | Lint::UnreachableAppCode => {
                Severity::Warning
            }
            Lint::OrphanFragment => Severity::Info,
        }
    }

    /// Kebab-case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Lint::FlagsClobber => "flags-clobber",
            Lint::BadPopf => "bad-popf",
            Lint::StackImbalance => "stack-imbalance",
            Lint::ScratchClobber => "scratch-clobber",
            Lint::BulkClobber => "bulk-clobber",
            Lint::ProtocolViolation => "protocol-violation",
            Lint::BadResume => "bad-resume",
            Lint::BadAppEntry => "bad-app-entry",
            Lint::IndirectExitIntegrity => "indirect-exit-integrity",
            Lint::TableAudit => "table-audit",
            Lint::UndecodableWord => "undecodable-word",
            Lint::InconsistentState => "inconsistent-state",
            Lint::UnknownProvenance => "unknown-provenance",
            Lint::UnreachableAppCode => "unreachable-app-code",
            Lint::OrphanFragment => "orphan-fragment",
            Lint::TierLowering => "tier-lowering",
            Lint::TierStructure => "tier-structure",
            Lint::TransferContract => "transfer-contract",
        }
    }
}

/// One finding, anchored to a cache address.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Which check fired.
    pub lint: Lint,
    /// Cache address the finding anchors to.
    pub addr: u32,
    /// Human-readable location (`miss_tail_reg_flags+0x8`).
    pub location: String,
    /// What went wrong.
    pub message: String,
    /// Disassembly excerpt around `addr` (the offending line marked `>`).
    pub excerpt: Vec<String>,
}

impl Diagnostic {
    /// The diagnostic's severity (fixed per lint).
    pub fn severity(&self) -> Severity {
        self.lint.severity()
    }
}

/// Aggregate coverage numbers for one verification run.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyStats {
    /// Instruction words in the occupied cache.
    pub words: usize,
    /// Words the reachability analysis visited.
    pub visited_words: usize,
    /// Overhead (non-application) words no path reaches — dead trampoline
    /// tails and superseded probes; normal, reported for visibility.
    pub dead_overhead_words: usize,
    /// Translated fragments.
    pub fragments: usize,
    /// Recovered basic blocks.
    pub blocks: usize,
    /// Recovered control-flow edges.
    pub edges: usize,
    /// Lookup-table entries audited.
    pub table_entries: usize,
}

/// The result of verifying one cache image.
#[derive(Debug, Clone)]
pub struct VerifyReport {
    /// Per-class dispatch summary of the verified configuration.
    pub config: String,
    /// Findings, sorted most severe first, then by address.
    pub diagnostics: Vec<Diagnostic>,
    /// Coverage numbers.
    pub stats: VerifyStats,
}

impl VerifyReport {
    /// True when nothing at warning severity or above fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics
            .iter()
            .all(|d| d.severity() < Severity::Warning)
    }

    /// Count of findings at exactly `sev`.
    fn count_at(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == sev)
            .count()
    }

    /// Sorts diagnostics most-severe-first and drops exact duplicates
    /// (same lint at the same address).
    pub(crate) fn finish(&mut self) {
        self.diagnostics
            .sort_by(|a, b| b.severity().cmp(&a.severity()).then(a.addr.cmp(&b.addr)));
        self.diagnostics
            .dedup_by_key(|d| (d.lint, d.addr, d.message.clone()));
    }

    /// Renders the report as human-readable text.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let st = &self.stats;
        s.push_str(&format!("verify: {}\n", self.config));
        s.push_str(&format!(
            "  {} words, {} fragments, {} blocks, {} edges, {} table entries; \
             {} dead overhead words\n",
            st.words, st.fragments, st.blocks, st.edges, st.table_entries, st.dead_overhead_words
        ));
        if self.diagnostics.is_empty() {
            s.push_str("  clean: no findings\n");
            return s;
        }
        for d in &self.diagnostics {
            s.push_str(&format!(
                "{}[{}] at {:#010x} ({}): {}\n",
                d.severity().label(),
                d.lint.name(),
                d.addr,
                d.location,
                d.message
            ));
            for line in &d.excerpt {
                s.push_str(&format!("    {line}\n"));
            }
        }
        s.push_str(&format!(
            "  {} errors, {} warnings, {} notes\n",
            self.count_at(Severity::Error),
            self.count_at(Severity::Warning),
            self.count_at(Severity::Info)
        ));
        s
    }

    /// Renders the report as a JSON object.
    pub fn to_json(&self) -> Json {
        let st = &self.stats;
        Json::obj([
            ("schema_version", Json::uint(SCHEMA_VERSION)),
            ("config", Json::str(&self.config)),
            ("clean", Json::Bool(self.is_clean())),
            (
                "stats",
                Json::obj([
                    ("words", Json::uint(st.words as u64)),
                    ("visited_words", Json::uint(st.visited_words as u64)),
                    (
                        "dead_overhead_words",
                        Json::uint(st.dead_overhead_words as u64),
                    ),
                    ("fragments", Json::uint(st.fragments as u64)),
                    ("blocks", Json::uint(st.blocks as u64)),
                    ("edges", Json::uint(st.edges as u64)),
                    ("table_entries", Json::uint(st.table_entries as u64)),
                ]),
            ),
            (
                "diagnostics",
                Json::arr(self.diagnostics.iter().map(|d| {
                    Json::obj([
                        ("lint", Json::str(d.lint.name())),
                        ("severity", Json::str(d.severity().label())),
                        ("addr", Json::uint(d.addr as u64)),
                        ("location", Json::str(&d.location)),
                        ("message", Json::str(&d.message)),
                    ])
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(lint: Lint, addr: u32) -> Diagnostic {
        Diagnostic {
            lint,
            addr,
            location: "x".into(),
            message: "m".into(),
            excerpt: Vec::new(),
        }
    }

    #[test]
    fn severity_ordering_and_cleanliness() {
        assert!(Severity::Error > Severity::Warning);
        assert!(Severity::Warning > Severity::Info);
        let mut r = VerifyReport {
            config: "c".into(),
            diagnostics: vec![diag(Lint::OrphanFragment, 4)],
            stats: VerifyStats::default(),
        };
        assert!(r.is_clean(), "info findings do not dirty a report");
        r.diagnostics.push(diag(Lint::UnknownProvenance, 8));
        assert!(!r.is_clean(), "warnings dirty a report");
    }

    #[test]
    fn finish_sorts_most_severe_first_and_dedups() {
        let mut r = VerifyReport {
            config: "c".into(),
            diagnostics: vec![
                diag(Lint::OrphanFragment, 4),
                diag(Lint::FlagsClobber, 12),
                diag(Lint::FlagsClobber, 12),
                diag(Lint::UnknownProvenance, 8),
            ],
            stats: VerifyStats::default(),
        };
        r.finish();
        let lints: Vec<Lint> = r.diagnostics.iter().map(|d| d.lint).collect();
        assert_eq!(
            lints,
            vec![
                Lint::FlagsClobber,
                Lint::UnknownProvenance,
                Lint::OrphanFragment
            ]
        );
    }

    #[test]
    fn json_reports_cleanliness() {
        let r = VerifyReport {
            config: "c".into(),
            diagnostics: Vec::new(),
            stats: VerifyStats::default(),
        };
        let rendered = r.to_json().render();
        assert!(rendered.contains("\"clean\":true"), "{rendered}");
    }
}
