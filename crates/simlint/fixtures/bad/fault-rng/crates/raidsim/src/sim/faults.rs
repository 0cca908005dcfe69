pub fn scrub(plan: &FaultPlan, gdisk: u64) -> FaultRng {
    plan.latent_stream(gdisk)
}

pub fn reseed(seed: u64) -> u64 {
    splitmix64(seed ^ 7)
}
