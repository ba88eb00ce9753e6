//! Golden corpus integration tests: the committed corpus stays in
//! sync with the scenario list, runs are deterministic, and the
//! record / match / mismatch / missing flows all work against a
//! scratch directory (the committed `goldens/` files are never
//! touched here — CI's `golden-corpus` job runs the real gate).

use noc_bench::golden::{
    check_one, check_scenarios, goldens_dir, observed_values, render_golden, scenarios,
    ScenarioOutcome,
};

/// A scratch directory unique to this test process.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("noc-goldens-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn every_scenario_has_a_committed_golden_file() {
    let dir = goldens_dir();
    for s in scenarios() {
        let path = dir.join(format!("{}.txt", s.name));
        assert!(path.is_file(), "missing committed golden file {}", path.display());
    }
}

#[test]
fn golden_is_recorded_then_matches_then_diffs() {
    let dir = scratch_dir("flow");
    let scenario = &scenarios()[0];
    let res = noc_sim::run(scenario.config.clone());

    // A file that still says `pending` is a mismatch like any other.
    let pending = render_golden(scenario.name, &[("digest", "pending".to_string())]);
    std::fs::write(dir.join(format!("{}.txt", scenario.name)), pending).unwrap();
    let run = check_one(&dir, scenario.name, &res, false);
    match run.outcome {
        ScenarioOutcome::Mismatch(diffs) => {
            assert!(diffs.iter().any(|d| d.starts_with("digest: expected pending")), "{diffs:?}");
        }
        other => panic!("expected a mismatch, got {other:?}"),
    }

    // `update` records the live values; a check pass then matches exactly.
    let run = check_one(&dir, scenario.name, &res, true);
    assert_eq!(run.outcome, ScenarioOutcome::Recorded, "{:?}", run.outcome);
    let run = check_one(&dir, scenario.name, &res, false);
    assert_eq!(run.outcome, ScenarioOutcome::Match, "{:?}", run.outcome);

    // A doctored digest produces a per-key human-readable diff.
    let mut values = observed_values(&res);
    for v in &mut values {
        if v.0 == "digest" {
            v.1 = "0x0000000000000bad".to_string();
        }
    }
    std::fs::write(
        dir.join(format!("{}.txt", scenario.name)),
        render_golden(scenario.name, &values),
    )
    .unwrap();
    let run = check_one(&dir, scenario.name, &res, false);
    match run.outcome {
        ScenarioOutcome::Mismatch(diffs) => {
            assert!(
                diffs.iter().any(|d| d.starts_with("digest: expected 0x0000000000000bad")),
                "{diffs:?}"
            );
        }
        other => panic!("expected a mismatch, got {other:?}"),
    }

    // A missing file is an explicit failure, not a silent pass.
    let run = check_one(&dir, "no-such-scenario", &res, false);
    assert_eq!(run.outcome, ScenarioOutcome::Missing);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scenario_runs_are_deterministic() {
    let scenario = scenarios()
        .into_iter()
        .find(|s| s.name == "roco-uniform-xy")
        .expect("baseline scenario exists");
    let a = noc_sim::run(scenario.config.clone());
    let b = noc_sim::run(scenario.config.clone());
    assert_eq!(a.digest(), b.digest());
    assert!(a.audit.as_ref().is_some_and(|r| r.clean()), "golden run must audit clean");
}

#[test]
fn check_scenarios_summarises_against_scratch_goldens() {
    let dir = scratch_dir("summary");
    let subset: Vec<_> = scenarios().into_iter().take(2).collect();
    let summary = check_scenarios(&dir, &subset, true);
    assert!(!summary.failed(), "{}", summary.render());
    assert!(summary.runs.iter().all(|r| r.outcome == ScenarioOutcome::Recorded));
    let rendered = summary.render();
    assert!(rendered.contains("recorded"), "{rendered}");

    // And the recorded files now gate: an unchanged re-run matches.
    let summary = check_scenarios(&dir, &subset, false);
    assert!(!summary.failed(), "{}", summary.render());
    assert!(summary.runs.iter().all(|r| r.outcome == ScenarioOutcome::Match));
    let _ = std::fs::remove_dir_all(&dir);
}
