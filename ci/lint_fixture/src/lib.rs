//! Each item breaks one lint contract of the workspace once. CI fails
//! unless clippy's findings equal `../expected_findings.txt`.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub fn hashed_map() -> usize {
    std::collections::HashMap::<u32, u32>::new().len()
}

pub fn hashed_set() -> usize {
    std::collections::HashSet::<u32>::new().len()
}

pub fn system_time() -> bool {
    std::time::SystemTime::UNIX_EPOCH.elapsed().is_ok()
}

pub fn instant_now() -> std::time::Instant {
    std::time::Instant::now()
}

pub fn unwraps(x: Option<u32>) -> u32 {
    x.unwrap()
}

pub fn expects(x: Option<u32>) -> u32 {
    x.expect("present")
}

pub fn panics() {
    panic!("library code returns a typed error instead");
}

#[allow(dead_code)]
fn allowed_without_reason() {}

#[expect(clippy::unwrap_used, reason = "nothing here unwraps")]
pub fn unused_expectation() {}
