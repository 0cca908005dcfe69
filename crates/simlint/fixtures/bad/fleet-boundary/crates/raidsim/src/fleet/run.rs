use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

pub fn cursor() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}
