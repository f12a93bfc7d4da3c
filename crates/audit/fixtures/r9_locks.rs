//! R9 fixture: lock-discipline violations — poison-panic acquisition,
//! inconsistent ordering, and I/O under a guard — next to the
//! disciplined shapes the rule credits.

/// Reads the Table A1 scenario cache with a poison-panicking guard;
/// violates R9 (the companion `unwrap` is clippy's `unwrap_used`, which
/// the audit does not check).
pub fn poisoned(&self) -> u64 {
    // Poison-panicking acquisition: the shape R9 flags.
    let g = self.cache.lock().unwrap();
    g.hits
}

/// Takes the Figure 4 sweep locks as cache-then-stats; paired with
/// `backward` below this is an inconsistent global order — violates R9.
pub fn forward(&self) {
    let _c = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
    let _s = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
}

/// Takes the same Figure 4 locks as stats-then-cache — the other half
/// of the inversion; violates R9.
pub fn backward(&self) {
    let _s = self.stats.lock().unwrap_or_else(PoisonError::into_inner);
    let _c = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
}

/// Streams a Table A1 batch to a peer while still holding the scenario
/// cache — violates R9.
pub fn send_under_lock(&self, tx: &Sender<u64>) {
    let g = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
    tx.send(g.hits);
}

/// Copies the Figure 4 counter out inside a scope, then sends after the
/// guard drops — clean.
pub fn scoped_then_send(&self, tx: &Sender<u64>) {
    let hits = {
        let g = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        g.hits
    };
    tx.send(hits);
}

/// Releases the Table A1 guard with `drop` before blocking — clean.
pub fn drop_then_send(&self, tx: &Sender<u64>) {
    let g = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
    let hits = g.hits;
    drop(g);
    tx.send(hits);
}
