//! Every flag-taking bench binary rejects an unknown flag before doing any
//! work: it keeps its exit status for a bad argument, prints nothing on
//! stdout, and leaves the committed `BENCH_*.json` untouched.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("binary runs")
}

fn bench_json(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(format!("BENCH_{name}.json"))
}

fn assert_rejected(name: &str, out: &Output, code: i32, flag: &str) {
    assert_eq!(out.status.code(), Some(code), "{name}: {out:?}");
    assert!(out.stdout.is_empty(), "{name} did work: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("{name}: unknown flag `{flag}`")),
        "{stderr}"
    );
    assert!(stderr.contains(&format!("{name} flags:\n")), "{stderr}");
}

#[test]
fn campaign_hotpath_and_trajectory_reject_unknown_flags() {
    let bins = [
        ("fault_campaign", env!("CARGO_BIN_EXE_fault_campaign"), 2),
        ("hotpath", env!("CARGO_BIN_EXE_hotpath"), 2),
        ("trajectory", env!("CARGO_BIN_EXE_trajectory"), 1),
    ];
    for (name, bin, code) in bins {
        assert_rejected(name, &run(bin, &["--bogus"]), code, "--bogus");
    }
    // The retired multi-seed sweep's flags are unknown flags like any other.
    let campaign = env!("CARGO_BIN_EXE_fault_campaign");
    for args in [
        &["--seeds", "2"][..],
        &["--jobs", "2"],
        &["--checkpoint", "f"],
        &["--resume"],
        &["--panic-seed", "1"],
    ] {
        assert_rejected("fault_campaign", &run(campaign, args), 2, args[0]);
    }
    // A stray positional is as fatal as an unknown flag.
    let out = run(env!("CARGO_BIN_EXE_fault_campaign"), &["42"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// A typo such as `--quik` once ran the full scenario and rewrote the
/// committed JSON; now it stops before the first run.
#[test]
fn serve_and_fleet_reject_a_typo_without_rewriting_their_json() {
    let bins = [
        ("serve", env!("CARGO_BIN_EXE_serve")),
        ("fleet", env!("CARGO_BIN_EXE_fleet")),
    ];
    for (name, bin) in bins {
        let path = bench_json(name);
        let before = std::fs::read(&path).expect("committed bench JSON");
        let modified = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
        assert_rejected(name, &run(bin, &["--quik"]), 1, "--quik");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            before,
            "{name} rewrote its JSON"
        );
        let after = std::fs::metadata(&path).and_then(|m| m.modified()).ok();
        assert_eq!(after, modified, "{name} touched its JSON");
    }
}

#[test]
fn campaign_usage_documents_every_flag() {
    let out = run(env!("CARGO_BIN_EXE_fault_campaign"), &["--help"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let listed: Vec<&str> = stderr
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix("--"))
        .filter_map(|line| line.split_whitespace().next())
        .collect();
    assert_eq!(
        listed,
        [
            "seed",
            "trials",
            "config",
            "noise",
            "repro-dir",
            "replay",
            "shrink",
            "help"
        ],
        "{stderr}"
    );
}
