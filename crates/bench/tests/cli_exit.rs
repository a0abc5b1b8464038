//! Every binary rejects a bad argument the same way: usage on stderr and
//! exit status 2, before doing any work.

use std::process::Command;

#[test]
fn a_bad_argument_exits_2_and_writes_nothing() {
    let cases: [(&str, &[&str]); 13] = [
        // Accepted as a u64, but the harness counts samples in a u32.
        (env!("CARGO_BIN_EXE_bench_alg1"), &["--samples", "5000000000"]),
        // A text flag never swallows the next flag as its value.
        (env!("CARGO_BIN_EXE_l15-trace"), &["capture", "--out", "--quick"]),
        (env!("CARGO_BIN_EXE_l15-trace"), &["gantt", "--preset", "--quick"]),
        (env!("CARGO_BIN_EXE_l15-online"), &["--out", "--quick"]),
        (env!("CARGO_BIN_EXE_l15-fuzz"), &["run", "--bug", "--quick"]),
        // A flag the chosen form does not use.
        (env!("CARGO_BIN_EXE_l15-fuzz"), &["corpus", "d", "--seed", "5"]),
        (env!("CARGO_BIN_EXE_l15-fuzz"), &["corpus", "d", "--quick"]),
        (env!("CARGO_BIN_EXE_l15-fuzz"), &["replay", "--cases", "3"]),
        (env!("CARGO_BIN_EXE_l15-trace"), &["capture", "--quick"]),
        (env!("CARGO_BIN_EXE_l15-trace"), &["validate", "f", "--quick"]),
        (env!("CARGO_BIN_EXE_l15-trace"), &["--preset", "proposed_8core"]),
        (env!("CARGO_BIN_EXE_l15-trace"), &["bench", "--preset", "proposed_8core"]),
        (env!("CARGO_BIN_EXE_corpus"), &["gen", "d", "--quick"]),
    ];
    let dir = std::env::temp_dir().join(format!("l15-cli-exit-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).current_dir(&dir).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: "), "{bin} {args:?}");
    }
    let written = std::fs::read_dir(&dir).expect("scratch dir").count();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(written, 0, "a rejected command may not write anything");
}
