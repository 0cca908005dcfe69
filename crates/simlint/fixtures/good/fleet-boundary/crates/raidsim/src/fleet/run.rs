// The runner hands whole virtual arrays to the sweep's pool as jobs and
// merges the owned outcomes it gets back; it holds no shared state itself.
pub struct VaOutcome {
    pub completed: u64,
}

pub fn merge(outcomes: Vec<VaOutcome>) -> u64 {
    outcomes.iter().map(|o| o.completed).sum()
}
