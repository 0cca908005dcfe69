pub fn utilization(busy_ns: u64, elapsed_ns: u64) -> f64 {
    busy_fraction(busy_ns, elapsed_ns)
}

pub fn mean(total: u64, count: u64) -> f64 {
    total as f64 / count as f64
}
