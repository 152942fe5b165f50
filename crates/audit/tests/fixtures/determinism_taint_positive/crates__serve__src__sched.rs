pub fn admit(spec: &RunSpec) -> String {
    // analyze:allow(determinism)
    let t = std::time::Instant::now();
    // analyze:allow(everything): the tag grammar only knows determinism, lock-io, and panic
    let u = std::time::Instant::now();
    stamp(t, u, RunStore::key(spec))
}
