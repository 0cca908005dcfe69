// Fault-state construction mints every per-disk stream once.
pub fn build_streams(plan: &FaultPlan, disks: u64) -> Vec<FaultRng> {
    (0..disks).map(|d| plan.latent_stream(d)).collect()
}
