// Runs a test body in a process of its own. `include!`d by the tests
// that arm the fault plane (`pda_util::faultplane`): the plane is
// process state, and an armed `query.<i>` seam would fire in whatever
// sibling test of the same binary crosses it first.

/// Runs `leg`, the body of the test `name` (its path as the test binary
/// lists it), in a fresh copy of the current test binary that runs that
/// one test and nothing else, and fails if the copy does.
fn in_own_process(name: &str, leg: impl FnOnce()) {
    const LEG: &str = "PDA_OWN_PROCESS_TEST";
    if std::env::var(LEG).as_deref() == Ok(name) {
        leg();
        return;
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    let out = std::process::Command::new(exe)
        .args([name, "--exact", "--test-threads=1"])
        .env(LEG, name)
        .output()
        .expect("the test binary runs again");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "`{name}` failed in its own process:\n{stdout}\n{stderr}");
    assert!(stdout.contains(" 1 passed"), "`{name}` did not run in its own process:\n{stdout}");
}
