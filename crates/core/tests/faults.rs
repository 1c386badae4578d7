//! Smoke test for the seeded fault-injection campaign: a 25-cell matrix
//! on a tiny scene, run with the invariant auditor on every cell. The
//! campaign contract — no panics, control cells complete, degenerate
//! workloads rejected with typed errors, tiny budgets trip the watchdog —
//! must hold end to end.

use vtq::prelude::*;

#[test]
fn quick_campaign_is_clean_end_to_end() {
    // Shrink the quick campaign further so this stays fast in debug
    // builds; the kinds, seeds and contract are unchanged.
    let mut cfg = CampaignConfig::quick();
    cfg.config.resolution = 16;
    cfg.config.detail_divisor = 16;
    assert_eq!(cfg.cells, 25);

    let engine = SweepEngine::new(0);
    let report = run_campaign(&cfg, &engine);
    assert_eq!(report.cells.len(), 25);
    assert!(
        report.is_clean(),
        "campaign violations: {:?}\nsummary: {}",
        report.violations(),
        report.summary()
    );

    // Spot-check the contract per kind rather than trusting is_clean
    // alone: controls completed, degenerate cells were rejected as
    // `workload`, tiny budgets ended in `cycle-budget` after consuming
    // their retry budget.
    for cell in &report.cells {
        match cell.kind {
            FaultKind::Control => {
                assert!(
                    matches!(cell.status, CellStatus::Completed { rays_completed, .. } if rays_completed > 0),
                    "control cell {}: {:?}",
                    cell.index,
                    cell.status
                );
            }
            FaultKind::DegenerateWorkload => {
                assert!(
                    matches!(&cell.status, CellStatus::Failed { error_kind, .. } if error_kind == "workload"),
                    "degenerate cell {}: {:?}",
                    cell.index,
                    cell.status
                );
                assert_eq!(cell.retries, 0, "workload errors are not retryable");
            }
            FaultKind::TinyCycleBudget => {
                if let CellStatus::Failed { error_kind, .. } = &cell.status {
                    assert_eq!(error_kind, "cycle-budget");
                    assert_eq!(cell.retries, cfg.max_retries, "budget errors retry to exhaustion");
                }
            }
            _ => {}
        }
    }

    // The prepared scene was built exactly once, every stage of it: all
    // 25 cells share it.
    let once = StageCounts { scenes: 1, trees: 1, workloads: 1, layouts: 1, tapes: 1 };
    assert_eq!(engine.cache().misses(), once);

    // Determinism: the same campaign again yields identical outcomes.
    let again = run_campaign(&cfg, &engine);
    assert_eq!(report, again);
}
