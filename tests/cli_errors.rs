//! Golden tests for CLI failure behavior: malformed invocations must
//! produce a one-line `cogent: ...` diagnostic on stderr and exit with
//! code 2 — never a panic, never a backtrace. A stdout whose reader has
//! gone away is not a failure at all.

use std::process::{Command, Stdio};

fn cogent(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cogent"))
        .args(args)
        .output()
        .expect("spawning the cogent binary")
}

#[test]
fn malformed_sizes_exits_2_with_one_line_diagnostic() {
    // "j=" splits into an empty extent; "j" alone is a malformed entry —
    // both must exit 2 with one diagnostic line.
    let out = cogent(&["generate", "ij-ik-kj", "--sizes", "i=4,j="]);
    assert_eq!(out.status.code(), Some(2), "expected exit code 2");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr, "cogent: bad extent \"\" for index j\n",
        "stderr must be exactly one diagnostic line"
    );
    assert!(out.stdout.is_empty(), "no source on stdout after a failure");

    let out = cogent(&["generate", "ij-ik-kj", "--sizes", "i=4,j"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr, "cogent: bad size entry \"j\" (want index=extent)\n");
}

#[test]
fn unparsable_extent_exits_2() {
    let out = cogent(&["generate", "ij-ik-kj", "--sizes", "i=4,j=banana,k=4"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(stderr, "cogent: bad extent \"banana\" for index j\n");
}

#[test]
fn unknown_device_exits_2_with_one_line_diagnostic() {
    let out = cogent(&["generate", "ij-ik-kj", "--size", "8", "--device", "h100"]);
    assert_eq!(out.status.code(), Some(2), "expected exit code 2");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr, "cogent: unknown device \"h100\" (want v100 or p100)\n",
        "stderr must be exactly one diagnostic line"
    );
}

#[test]
fn incomplete_sizes_exits_2() {
    let out = cogent(&["generate", "ij-ik-kj", "--sizes", "i=4,j=8"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr,
        "cogent: --sizes does not cover every contraction index\n"
    );
}

#[test]
fn unknown_group_exits_2_for_every_suite_command() {
    for command in [
        &["suite", "--group", "bogus"][..],
        &["batch", "--suite", "--group", "bogus"],
        &["stats", "--suite", "--group", "bogus"],
        &["audit", "--suite", "--group", "bogus"],
    ] {
        let out = cogent(command);
        assert_eq!(out.status.code(), Some(2), "{command:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            stderr, "cogent: unknown group \"bogus\" (want ml|aomo|ccsd|ccsdt)\n",
            "{command:?}"
        );
        assert!(out.stdout.is_empty(), "{command:?}");
    }
}

#[test]
fn closed_stdout_exits_0_silently() {
    for command in [
        &["suite"][..],
        &["search", "ij-ik-kj", "--size", "16"],
        &["generate", "ij-ik-kj", "--size", "16"],
    ] {
        let (reader, writer) = std::io::pipe().expect("creating a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
            .args(command)
            .stdout(writer)
            .stderr(Stdio::piped())
            .output()
            .expect("spawning the cogent binary");
        assert_eq!(out.status.code(), Some(0), "{command:?}");
        // Nothing beyond the command's usual stderr (empty for `suite` and
        // `search`; `generate` reports its kernel there before printing it).
        let usual = cogent(command);
        assert_eq!(
            String::from_utf8(out.stderr).unwrap(),
            String::from_utf8(usual.stderr).unwrap(),
            "{command:?}"
        );
    }
}

#[test]
fn malformed_cache_cap_env_exits_2_for_every_command() {
    for command in [&["suite"][..], &["generate", "ij-ik-kj", "--size", "8"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
            .args(command)
            .env("COGENT_CACHE_CAP", "10O")
            .output()
            .expect("spawning the cogent binary");
        assert_eq!(out.status.code(), Some(2), "{command:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(
            stderr,
            "cogent: COGENT_CACHE_CAP: invalid value \"10O\" (want a non-negative integer)\n",
            "{command:?}"
        );
    }
}

#[test]
fn malformed_threads_env_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
        .args(["suite"])
        .env("COGENT_THREADS", "lots")
        .output()
        .expect("spawning the cogent binary");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr,
        "cogent: COGENT_THREADS: invalid value \"lots\" (want a positive integer)\n"
    );

    // Zero threads is as wrong as garbage: it would deadlock the pool.
    let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
        .args(["suite"])
        .env("COGENT_THREADS", "0")
        .output()
        .expect("spawning the cogent binary");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn well_formed_env_still_succeeds() {
    let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
        .args(["suite"])
        .env("COGENT_CACHE_CAP", "16")
        .env("COGENT_THREADS", "2")
        .output()
        .expect("spawning the cogent binary");
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn serve_rejects_bad_flags_with_exit_2() {
    let out = cogent(&["serve", "--workers", "0"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert_eq!(
        stderr,
        "cogent: bad --workers value \"0\" (want a positive integer)\n"
    );
}

#[test]
fn serve_refuses_startup_on_malformed_env() {
    let out = Command::new(env!("CARGO_BIN_EXE_cogent"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .env("COGENT_CACHE_CAP", "banana")
        .output()
        .expect("spawning the cogent binary");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("COGENT_CACHE_CAP: invalid value \"banana\""),
        "{stderr}"
    );
}

#[test]
fn unknown_command_exits_1_and_prints_usage() {
    let out = cogent(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("error: unknown command \"frobnicate\""));
    assert!(
        stderr.contains("usage:"),
        "runtime failures still show usage"
    );
}

#[test]
fn successful_generate_reports_provenance() {
    let out = cogent(&["generate", "ij-ik-kj", "--size", "16"]);
    assert_eq!(out.status.code(), Some(0));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("provenance:    search candidate (model rank "),
        "generate must report where the kernel came from, got:\n{stderr}"
    );
}
