pub fn eta(service_ns: u64, seek_ns: u64) -> u64 {
    service_ns + seek_ns
}

pub fn transfer_ns(queued_blocks: u64, ns_per_block: u64) -> u64 {
    queued_blocks * ns_per_block
}
