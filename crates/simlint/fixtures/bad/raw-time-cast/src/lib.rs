pub fn utilization(busy_ns: u64, elapsed_ns: u64) -> f64 {
    busy_ns as f64 / elapsed_ns as f64
}

pub fn deadline_slot(deadline: u64) -> u32 {
    deadline as u32
}
