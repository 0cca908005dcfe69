pub fn eta(service_ns: u64, queued_blocks: u64) -> u64 {
    service_ns + queued_blocks
}

pub fn extend(mut deadline_ms: u64, stripe_count: u64) -> u64 {
    deadline_ms += stripe_count;
    deadline_ms
}

pub fn ready_at(now: u64, queued_blocks: u64) -> u64 {
    now + queued_blocks
}
