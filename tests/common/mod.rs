//! Shared by the integration tests that take a census of server threads;
//! each of them is a file (so a process) of its own, which is what makes
//! the census exact.

/// Names of this process's live server threads (`af-dispatcher`,
/// `af-reactor-N`).
pub fn server_threads() -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_owned())
        .filter(|comm| comm.starts_with("af-"))
        .collect();
    names.sort();
    names
}

/// Asserts no server thread is left, allowing the kernel a moment: `comm`
/// lingers for an instant after a join returns.
pub fn assert_no_server_threads() {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while !server_threads().is_empty() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert_eq!(server_threads(), Vec::<String>::new(), "leaked threads");
}
