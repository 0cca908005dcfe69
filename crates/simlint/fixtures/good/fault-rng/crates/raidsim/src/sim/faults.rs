// Scrub draws from the stream it was handed.
pub fn scrub(rng: &mut FaultRng, p: f64) -> bool {
    rng.chance(p)
}
