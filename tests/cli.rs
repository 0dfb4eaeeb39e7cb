//! The `tms` binary's `--device` flag: a known name selects that part, a
//! typo is an error instead of a silent fallback to another part.

use std::process::Command;

fn tms(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_tms"))
        .args(args)
        .output()
        .expect("run the tms binary")
}

#[test]
fn device_flag_selects_the_named_part() {
    let out = tms(&[
        "pack", "--mode", "naive", "--seed", "1", "--device", "xc7z020",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("for xc7z020"), "{stdout}");
}

#[test]
fn unknown_device_is_an_error() {
    let out = tms(&[
        "pack", "--mode", "naive", "--seed", "1", "--device", "xc7z02o",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(stderr.contains("unknown device 'xc7z02o'"), "{stderr}");
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("packing"),
        "nothing ran for the misspelt part"
    );
}
