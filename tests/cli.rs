//! Hostile flags must make `tac25d` fail with an error message, never a
//! panic: every case exits non-zero, says `error:` on stderr and does not
//! mention `panicked`.

use std::process::Command;

fn assert_rejected(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_tac25d"))
        .args(args)
        .output()
        .expect("tac25d runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{args:?} succeeded:\n{stderr}");
    assert!(
        stderr.contains("error:"),
        "{args:?} printed no error:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
}

#[test]
fn optimize_rejects_bad_weights_and_start_counts() {
    let base = ["optimize", "--benchmark", "canneal", "--fast"];
    for extra in [
        &["--alpha", "-1"][..],
        &["--alpha", "0", "--beta", "0"],
        &["--alpha", "nan"],
        &["--starts", "0"],
        &["--starts", "2.5"],
        &["--seed", "-1"],
    ] {
        assert_rejected(&[&base[..], extra].concat());
    }
}

#[test]
fn evaluate_rejects_out_of_range_core_counts() {
    let base = [
        "evaluate",
        "--benchmark",
        "canneal",
        "--layout",
        "sym4:2",
        "--fast",
    ];
    for cores in ["300", "0", "2.5", "-1"] {
        assert_rejected(&[&base[..], &["--cores", cores]].concat());
    }
}
