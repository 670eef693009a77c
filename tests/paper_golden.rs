//! Paper-scale golden gate (ROADMAP 4d): one full 40 GB / 512 MiB run per
//! Table I guest at the paper testbed's seed, with the headline numbers
//! pinned bit for bit.
//!
//! The simulator is deterministic, so any change to these values is a
//! change to the model, not noise. A change that means to move them must
//! re-record them here and say why in CHANGES.md; one that only makes the
//! simulator faster must leave them untouched.

use migrate::sim::run_tpm;
use migrate::{MigrationConfig, MigrationReport};
use workloads::WorkloadKind;

/// Pinned headline numbers of one paper-scale run.
struct Golden {
    total_time_secs: f64,
    downtime_ms: f64,
    ledger_total: u64,
}

fn assert_pinned(r: &MigrationReport, want: &Golden) {
    assert!(r.consistent, "destination image must match the source");
    assert_eq!(
        r.total_time_secs.to_bits(),
        want.total_time_secs.to_bits(),
        "total time {} s, pinned {} s",
        r.total_time_secs,
        want.total_time_secs
    );
    assert_eq!(
        r.downtime_ms.to_bits(),
        want.downtime_ms.to_bits(),
        "downtime {} ms, pinned {} ms",
        r.downtime_ms,
        want.downtime_ms
    );
    assert_eq!(r.ledger.total(), want.ledger_total, "ledger bytes");
}

fn paper(kind: WorkloadKind) -> MigrationReport {
    run_tpm(MigrationConfig::paper_testbed(), kind).report
}

#[test]
fn table1_web_paper_scale_is_pinned() {
    assert_pinned(
        &paper(WorkloadKind::Web),
        &Golden {
            total_time_secs: 768.142535561,
            downtime_ms: 53.916649,
            ledger_total: 40_657_267_681,
        },
    );
}

#[test]
fn table1_video_paper_scale_is_pinned() {
    assert_pinned(
        &paper(WorkloadKind::Video),
        &Golden {
            total_time_secs: 767.668470277,
            downtime_ms: 41.646275,
            ledger_total: 40_623_546_609,
        },
    );
}

#[test]
fn table1_diabolical_paper_scale_is_pinned() {
    assert_pinned(
        &paper(WorkloadKind::Diabolical),
        &Golden {
            total_time_secs: 942.820546919,
            downtime_ms: 109.268227,
            ledger_total: 43_311_489_929,
        },
    );
}

/// The classic data plane (dedup, LZ and multi-source fetch off, as in
/// the paper) on the diabolical guest: the configuration the benchmark's
/// `sim-diabolical` workload runs, and the only Table I guest whose
/// post-copy pushes, drops and cancels in bulk.
#[test]
fn table1_diabolical_classic_plane_is_pinned() {
    let cfg = MigrationConfig {
        dedup: false,
        compress: false,
        multisource: false,
        ..MigrationConfig::paper_testbed()
    };
    let r = run_tpm(cfg, WorkloadKind::Diabolical).report;
    assert_pinned(
        &r,
        &Golden {
            total_time_secs: 930.738854809,
            downtime_ms: 108.149976,
            ledger_total: 42_886_382_594,
        },
    );
    assert_eq!(
        (r.postcopy.pushed, r.postcopy.pulled, r.postcopy.dropped),
        (155_466, 0, 29_257)
    );
}
