//! The mechanism configurations core's translated-vs-native equivalence
//! suite (`equivalence.rs`) and its replay-exactness suite
//! (`replay_exact.rs`) both run: one list, so a configuration added for
//! one harness is checked by the other too. A harness that cannot take a
//! configuration skips it by name and says why.

use strata_core::{ClassPolicy, IbMechanism, IbtcPlacement, IbtcScope, RetMechanism, SdtConfig};

/// Every shared configuration, by name.
pub fn configs() -> Vec<(&'static str, SdtConfig)> {
    let mut cfgs = vec![
        ("reentry", SdtConfig::reentry()),
        // Tiny: forces conflict misses.
        ("ibtc_tiny", SdtConfig::ibtc_inline(4)),
        ("ibtc", SdtConfig::ibtc_inline(1024)),
        ("ibtc_outline", SdtConfig::ibtc_out_of_line(256)),
        ("sieve_tiny", SdtConfig::sieve(4)),
        ("sieve", SdtConfig::sieve(256)),
        ("tuned", SdtConfig::tuned(512, 128)),
    ];
    let persite = SdtConfig {
        ib: IbMechanism::Ibtc {
            entries: 16,
            scope: IbtcScope::PerSite,
            placement: IbtcPlacement::Inline,
        },
        ..SdtConfig::ibtc_inline(16)
    };
    cfgs.push(("ibtc_persite", persite));
    let mut fast = SdtConfig::ibtc_inline(256);
    fast.ret = RetMechanism::FastReturn;
    cfgs.push(("fastret", fast));
    // Shadow return stack (tiny, to exercise wrap/fallback paths).
    let mut shadow = SdtConfig::ibtc_inline(256);
    shadow.ret = RetMechanism::ShadowStack { depth: 8 };
    cfgs.push(("shadow", shadow));
    // Cross-mechanism combinations: every ret mechanism must compose with
    // every IB mechanism.
    let mut sieve_shadow = SdtConfig::sieve(64);
    sieve_shadow.ret = RetMechanism::ShadowStack { depth: 16 };
    cfgs.push(("sieve_shadow", sieve_shadow));
    let mut sieve_rc = SdtConfig::sieve(64);
    sieve_rc.ret = RetMechanism::ReturnCache { entries: 16 };
    cfgs.push(("sieve_rc", sieve_rc));
    let mut outline_rc = SdtConfig::ibtc_out_of_line(64);
    outline_rc.ret = RetMechanism::ReturnCache { entries: 16 };
    cfgs.push(("outline_rc", outline_rc));
    let mut reentry_fast = SdtConfig::reentry();
    reentry_fast.ret = RetMechanism::FastReturn;
    cfgs.push(("reentry_fastret", reentry_fast));
    let mut two_way = SdtConfig::ibtc_inline(64);
    two_way.ibtc_ways = 2;
    cfgs.push(("ibtc_2way", two_way));
    let mut elide_2way = two_way;
    elide_2way.elide_direct_jumps = true;
    cfgs.push(("elide_2way", elide_2way));
    // Unlinked fragments: every exit traversal must trap, every time.
    let mut nolink = SdtConfig::ibtc_inline(256);
    nolink.link_fragments = false;
    cfgs.push(("nolink", nolink));
    // Adaptive promotion chain: inline → per-site IBTC → sieve.
    let mut adaptive = SdtConfig::ibtc_inline(256);
    adaptive.policy.jump = ClassPolicy::Adaptive {
        ibtc_entries: 16,
        sieve_buckets: 64,
        sieve_arity: 2,
    };
    cfgs.push(("adaptive", adaptive));
    // Split policy: distinct jump/call bindings (per-binding miss glue).
    let mut split = SdtConfig::ibtc_inline(256);
    split.policy.call = ClassPolicy::Fixed {
        mech: IbMechanism::Sieve { buckets: 32 },
        ways: 1,
    };
    cfgs.push(("split_policy", split));
    // An 8 KiB fragment cache: exercises flushes.
    let mut tiny = SdtConfig::ibtc_inline(64);
    tiny.cache_limit = Some(8192);
    cfgs.push(("small_cache", tiny));
    cfgs
}
