//! Content-addressed interning of fitted PCA bases.
//!
//! At fleet scale many streams carry the same workload shape — identical
//! synthetic seeds, cloned VMs, mirrored services — and training them produces
//! byte-identical PCA bases. Each basis is small (`(n + 1) · d + n` doubles),
//! but one copy per stream is pure waste when thousands of streams share a
//! signal. [`PcaInterner`] deduplicates them: `intern` returns an existing
//! [`Arc<Pca>`] whenever a *bitwise-identical* basis is already live, so every
//! distinct basis is resident exactly once no matter how many streams use it.
//!
//! The interner holds only [`Weak`] references. It never keeps a basis alive:
//! when the last stream using a basis drops it, the entry dies with it. A
//! dead entry still pins its table slot, its bucket and (through the `Weak`)
//! the basis's small `Arc` header, so dead entries are pruned: in place when
//! an `intern` hashes to their bucket, and by a full sweep whenever the
//! table has grown to twice its size after the previous sweep. The sweep is
//! amortised O(1) per `intern`, and the table stays within a small multiple
//! of the live bases however many distinct bases come and go.
//!
//! Equality is **bitwise** over every field (`f64::to_bits`), not `==`. Two
//! bases that differ only in the sign of an eigenvector, or by one ULP from a
//! different summation order, are *different* bases — sharing them would
//! change forecasts, and forecasts must be bit-stable under interning.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, Weak};

use crate::Pca;

/// A process-wide (or fleet-wide) deduplication table for fitted PCA bases.
///
/// Cheap to share: clone the surrounding `Arc<PcaInterner>`. All methods take
/// `&self`; an internal mutex guards the table.
#[derive(Debug, Default)]
pub struct PcaInterner {
    table: Mutex<Table>,
}

#[derive(Debug, Default)]
struct Table {
    /// Content hash → candidate bases with that hash. Collisions are resolved
    /// by full bitwise comparison; dead weaks are pruned in place.
    buckets: HashMap<u64, Vec<Weak<Pca>>>,
    /// Table size (hash keys) at which the next full sweep runs.
    sweep_at: usize,
}

impl Table {
    /// Smallest sweep threshold, so tiny tables are not swept every call.
    const MIN_SWEEP: usize = 64;

    /// Drops every dead entry and every emptied bucket, then schedules the
    /// next sweep at twice the surviving size.
    fn sweep(&mut self) {
        self.buckets.retain(|_, bucket| {
            bucket.retain(|w| w.strong_count() > 0);
            !bucket.is_empty()
        });
        self.buckets.shrink_to(2 * self.buckets.len());
        self.sweep_at = (2 * self.buckets.len()).max(Self::MIN_SWEEP);
    }
}

impl PcaInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a shared handle to a basis bitwise-identical to `pca`,
    /// registering `pca` itself if none is live yet.
    ///
    /// The returned forecasts are bit-identical to using `pca` directly:
    /// substitution only happens on full bitwise equality of mean,
    /// components, eigenvalues and total variance.
    pub fn intern(&self, pca: Arc<Pca>) -> Arc<Pca> {
        let hash = content_hash(&pca);
        let mut table = self.table.lock().expect("interner poisoned");
        if table.buckets.len() >= table.sweep_at {
            table.sweep();
        }
        let bucket = table.buckets.entry(hash).or_default();
        bucket.retain(|w| w.strong_count() > 0);
        for weak in bucket.iter() {
            if let Some(existing) = weak.upgrade() {
                if Arc::ptr_eq(&existing, &pca) || bitwise_eq(&existing, &pca) {
                    return existing;
                }
            }
        }
        bucket.push(Arc::downgrade(&pca));
        pca
    }

    /// Number of live interned bases (dead entries are excluded). Takes the
    /// lock; intended for accounting and tests, not the hot path.
    pub fn live(&self) -> usize {
        let table = self.table.lock().expect("interner poisoned");
        table.buckets.values().flatten().filter(|w| w.strong_count() > 0).count()
    }

    /// Number of table entries, dead or alive — what the table costs in
    /// memory.
    #[cfg(test)]
    fn entries(&self) -> usize {
        let table = self.table.lock().expect("interner poisoned");
        table.buckets.values().map(Vec::len).sum()
    }
}

fn content_hash(p: &Pca) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    p.mean().len().hash(&mut h);
    for &v in p.mean() {
        v.to_bits().hash(&mut h);
    }
    p.components().rows().hash(&mut h);
    p.components().cols().hash(&mut h);
    for &v in p.components().as_slice() {
        v.to_bits().hash(&mut h);
    }
    for &v in p.eigenvalues() {
        v.to_bits().hash(&mut h);
    }
    p.total_variance().to_bits().hash(&mut h);
    h.finish()
}

fn bitwise_eq(a: &Pca, b: &Pca) -> bool {
    a.components().rows() == b.components().rows()
        && a.components().cols() == b.components().cols()
        && a.total_variance().to_bits() == b.total_variance().to_bits()
        && slices_bit_eq(a.mean(), b.mean())
        && slices_bit_eq(a.eigenvalues(), b.eigenvalues())
        && slices_bit_eq(a.components().as_slice(), b.components().as_slice())
}

fn slices_bit_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::Matrix;

    fn sample_pca(scale: f64) -> Arc<Pca> {
        let rows: Vec<Vec<f64>> =
            (0..20).map(|i| vec![scale * i as f64, scale * (20 - i) as f64]).collect();
        Arc::new(Pca::fit(&Matrix::from_rows(&rows).unwrap(), 2).unwrap())
    }

    #[test]
    fn identical_bases_share_one_allocation() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        let b = interner.intern(sample_pca(1.0));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(interner.live(), 1);
    }

    #[test]
    fn different_bases_stay_distinct() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        let b = interner.intern(sample_pca(2.0));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(interner.live(), 2);
    }

    #[test]
    fn dropped_bases_are_pruned() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        drop(a);
        assert_eq!(interner.live(), 0);
        // Re-interning after the original died registers the new handle.
        let b = interner.intern(sample_pca(1.0));
        assert_eq!(interner.live(), 1);
        drop(b);
    }

    #[test]
    fn dead_entries_do_not_accumulate() {
        // Every refit with a new basis interns it and drops the previous
        // one; only the held bases may keep entries alive.
        let interner = PcaInterner::new();
        let basis = |i: usize| {
            let components = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
            Arc::new(Pca::from_parts(vec![i as f64, 0.0], components, vec![1.0], 1.0).unwrap())
        };
        let held: Vec<Arc<Pca>> = (0..100).map(|i| interner.intern(basis(i))).collect();
        let mut worst = 0;
        for i in 100..100_100 {
            drop(interner.intern(basis(i)));
            worst = worst.max(interner.entries());
        }
        assert_eq!(interner.live(), held.len());
        assert!(worst <= 4 * held.len() + 2 * Table::MIN_SWEEP, "table grew to {worst} entries");
    }

    #[test]
    fn re_interning_a_shared_handle_is_identity() {
        let interner = PcaInterner::new();
        let a = interner.intern(sample_pca(1.0));
        let again = interner.intern(Arc::clone(&a));
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(interner.live(), 1);
    }
}
