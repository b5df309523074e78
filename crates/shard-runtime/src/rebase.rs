//! The rebase rule: which barriers capture full partitions.
//!
//! A partition's recovery chain is its newest full capture (the **anchor**)
//! plus the deltas sealed since. Keeping the chain costs bytes every seal;
//! rebasing costs one anchor. This is rent-or-buy, decided without a knob:
//! [`RebaseMeter`] counts each partition's chain bytes since its anchor, and
//! once any partition's chain has cost as much as its anchor, the next
//! barrier is full — for **every** partition, so an epoch stays uniformly
//! full or uniformly delta, as it was under a fixed rebase interval.
//!
//! What counts as the chain's cost depends on where the chain lives:
//!
//! * in memory, the encoded bytes of each sealed delta;
//! * on a durable runtime, each seal's upload of the merged delta: the seal
//!   job re-uploads the whole merge at every seal, so the disk pays for the
//!   chain once per seal, not once per delta.
//!
//! The coordinator feeds the meter as bytes arrive and seals are persisted,
//! which is after the barrier that cut them: a decision sees the chain as of
//! the arrivals so far.

/// Per-partition chain cost since the latest full barrier.
pub(crate) struct RebaseMeter {
    /// Epoch of the newest full barrier (the baseline is epoch 0). Charges
    /// for epochs at or below it belong to a superseded chain.
    anchor_epoch: u64,
    /// Encoded size of each partition's anchor; `None` until its bytes
    /// arrive (no rebase is due against an anchor of unknown size).
    anchor_bytes: Vec<Option<u64>>,
    /// Bytes each partition's chain has cost since its anchor.
    chain_bytes: Vec<u64>,
}

impl RebaseMeter {
    /// A meter whose anchors are a run's epoch-0 baseline, of the given
    /// encoded sizes (one per partition). Every run re-baselines, so a cold
    /// restart's run starts here too.
    pub(crate) fn new(baseline_bytes: impl IntoIterator<Item = u64>) -> Self {
        let anchor_bytes: Vec<Option<u64>> = baseline_bytes.into_iter().map(Some).collect();
        RebaseMeter {
            anchor_epoch: 0,
            chain_bytes: vec![0; anchor_bytes.len()],
            anchor_bytes,
        }
    }

    /// Decide the barrier cutting `epoch`: full iff some partition's chain
    /// has cost at least its anchor. A full barrier restarts every meter.
    pub(crate) fn barrier(&mut self, epoch: u64) -> bool {
        let full = self
            .anchor_bytes
            .iter()
            .zip(&self.chain_bytes)
            .any(|(anchor, &chain)| anchor.is_some_and(|anchor| chain >= anchor));
        if full {
            self.anchor_epoch = epoch;
            self.anchor_bytes.fill(None);
            self.chain_bytes.fill(0);
        }
        full
    }

    /// A full capture of `partition` at `epoch` arrived, `bytes` long.
    pub(crate) fn anchor(&mut self, epoch: u64, partition: usize, bytes: u64) {
        if epoch == self.anchor_epoch {
            self.anchor_bytes[partition] = Some(bytes);
        }
    }

    /// Charge `bytes` of chain cost, incurred at `epoch`, to `partition`.
    pub(crate) fn charge(&mut self, epoch: u64, partition: usize, bytes: u64) {
        if epoch > self.anchor_epoch {
            self.chain_bytes[partition] += bytes;
        }
    }

    /// Recovery rolled back to a chain this meter did not measure (it may
    /// predate the meter's anchor, and the failed timeline's arrivals were
    /// charged): make the next barrier full, which restarts the meter.
    pub(crate) fn force(&mut self) {
        self.anchor_bytes.fill(Some(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three partitions anchored at 100, 200 and 300 bytes.
    fn meter() -> RebaseMeter {
        RebaseMeter::new([100, 200, 300])
    }

    #[test]
    fn full_lands_exactly_when_a_chain_reaches_its_anchor() {
        let mut m = meter();
        // Partition 1 pays 60 bytes per epoch: 60, 120, 180 stay below its
        // 200-byte anchor, the others pay less than theirs.
        for epoch in 1..=3 {
            assert!(!m.barrier(epoch), "epoch {epoch}: chain below every anchor");
            m.charge(epoch, 0, 30);
            m.charge(epoch, 1, 60);
            m.charge(epoch, 2, 10);
        }
        assert!(!m.barrier(4), "180 < 200: still renting");
        m.charge(4, 1, 20); // 200 == the anchor
        assert!(m.barrier(5), "partition 1's chain reached its anchor");
    }

    #[test]
    fn one_partition_crossing_rebases_every_partition() {
        let mut m = meter();
        m.charge(1, 0, 100); // partition 0 crosses; 1 and 2 paid nothing
        assert!(m.barrier(2));
        // The decision is one flag for the epoch: every partition's meter
        // restarted together, with anchors unknown until the bytes arrive.
        assert!(m.chain_bytes.iter().all(|&c| c == 0));
        assert!(m.anchor_bytes.iter().all(Option::is_none));
    }

    #[test]
    fn meter_restarts_after_a_full() {
        let mut m = meter();
        m.charge(1, 2, 300);
        assert!(m.barrier(2));
        // Late arrivals of the superseded chain are not charged to the new one.
        m.charge(1, 0, 1_000);
        m.charge(2, 0, 1_000);
        assert!(!m.barrier(3), "no anchor sized yet: nothing is due");
        for p in 0..3 {
            m.anchor(2, p, 50);
        }
        assert!(!m.barrier(4), "superseded charges were dropped");
        m.charge(3, 0, 49);
        assert!(!m.barrier(5));
        m.charge(4, 0, 1);
        assert!(m.barrier(6), "the new chain reached the new 50-byte anchor");
        // An anchor from an older full barrier does not size the new one.
        m.anchor(2, 0, 1);
        m.charge(7, 0, 10);
        assert!(!m.barrier(8));
    }

    #[test]
    fn meter_restarts_after_recovery() {
        let mut m = meter();
        m.charge(1, 0, 10);
        m.force();
        assert!(m.barrier(2), "recovery forces the next barrier full");
        for p in 0..3 {
            m.anchor(2, p, 100);
        }
        m.charge(3, 0, 99);
        assert!(!m.barrier(4), "the meter counts from the forced full");
        m.charge(4, 0, 1);
        assert!(m.barrier(5));
    }

    #[test]
    fn cold_restart_meters_from_its_baseline() {
        // A restarted run re-baselines at epoch 0: its meter starts empty
        // against the new baseline, whatever the previous run had charged.
        let mut m = RebaseMeter::new([40, 40]);
        assert!(!m.barrier(1));
        m.charge(1, 1, 39);
        assert!(!m.barrier(2));
        m.charge(2, 1, 1);
        assert!(m.barrier(3));
    }
}
