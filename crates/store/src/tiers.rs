//! Per-stream tiered RRD archive — the paper's `vmkusage` cascade.
//!
//! Consolidation semantics deliberately match `vmsim::TieredDatabase`
//! (bucket completes when `(minute + 1) % interval == 0`, rows are bucket
//! averages, reads come from the finest tier that still retains the range)
//! so the two implementations can be cross-checked against the same golden
//! fixtures. Unlike vmsim's fleet-keyed database, this archive holds ONE
//! stream and serializes into the archive sidecar.

use std::collections::VecDeque;

use crate::codec::{self, Reader};
use crate::{Result, StoreError};

/// One archive tier: consolidation interval and retention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Consolidation interval in minutes (tier 0 must be 1 = raw).
    pub interval_minutes: u64,
    /// Consolidated rows retained.
    pub rows: usize,
}

impl TierSpec {
    /// Retention of this tier in minutes.
    pub fn retention_minutes(&self) -> u64 {
        self.interval_minutes * self.rows as u64
    }
}

/// The `vmkusage` layout: 1-minute × 2 h, 5-minute × 24 h, 30-minute × 7 d.
pub fn vmkusage_tiers() -> Vec<TierSpec> {
    vec![
        TierSpec { interval_minutes: 1, rows: 120 },
        TierSpec { interval_minutes: 5, rows: 288 },
        TierSpec { interval_minutes: 30, rows: 7 * 48 },
    ]
}

#[derive(Debug, Clone, Default)]
struct Tier {
    /// Consolidated index of the first retained row.
    first_row: u64,
    rows: VecDeque<f64>,
    acc_sum: f64,
    acc_count: u64,
}

/// Tiered round-robin storage for one stream.
#[derive(Debug, Clone)]
pub struct TieredArchive {
    specs: Vec<TierSpec>,
    tiers: Vec<Tier>,
}

impl TieredArchive {
    /// An empty archive with the given tier layout.
    ///
    /// # Errors
    ///
    /// [`StoreError::InvalidConfig`] unless specs are non-empty, start at 1
    /// minute, strictly increase, each a multiple of the previous, with
    /// positive rows.
    pub fn new(specs: Vec<TierSpec>) -> Result<TieredArchive> {
        validate_specs(&specs)?;
        let tiers = specs.iter().map(|_| Tier::default()).collect();
        Ok(TieredArchive { specs, tiers })
    }

    /// The configured tier layout.
    pub fn specs(&self) -> &[TierSpec] {
        &self.specs
    }

    /// Records the sample for `minute` into every tier's accumulator,
    /// emitting a consolidated row wherever the bucket completes. Minutes
    /// are expected in increasing order per stream.
    pub fn record(&mut self, minute: u64, value: f64) {
        for (spec, tier) in self.specs.iter().zip(&mut self.tiers) {
            tier.acc_sum += value;
            tier.acc_count += 1;
            if (minute + 1).is_multiple_of(spec.interval_minutes) {
                let avg = tier.acc_sum / tier.acc_count as f64;
                tier.acc_sum = 0.0;
                tier.acc_count = 0;
                tier.rows.push_back(avg);
                if tier.rows.len() > spec.rows {
                    tier.rows.pop_front();
                    tier.first_row += 1;
                }
            }
        }
    }

    /// Consolidated rows for `[start_minute, end_minute)` at
    /// `interval_minutes`, from the finest tier whose interval divides the
    /// request and which still retains the whole range. `None` when no tier
    /// can serve it (evicted, misaligned, or empty).
    pub fn query(
        &self,
        start_minute: u64,
        end_minute: u64,
        interval_minutes: u64,
    ) -> Option<Vec<f64>> {
        if interval_minutes == 0
            || start_minute >= end_minute
            || !(end_minute - start_minute).is_multiple_of(interval_minutes)
            || !start_minute.is_multiple_of(interval_minutes)
        {
            return None;
        }
        for (spec, tier) in self.specs.iter().zip(&self.tiers) {
            if !interval_minutes.is_multiple_of(spec.interval_minutes) {
                continue;
            }
            let first_needed = start_minute / spec.interval_minutes;
            let last_needed = end_minute / spec.interval_minutes; // exclusive
            let retained_end = tier.first_row + tier.rows.len() as u64;
            if first_needed < tier.first_row || last_needed > retained_end {
                continue;
            }
            let group = (interval_minutes / spec.interval_minutes) as usize;
            let offset = (first_needed - tier.first_row) as usize;
            let n = (last_needed - first_needed) as usize;
            let out = tier
                .rows
                .iter()
                .skip(offset)
                .take(n)
                .collect::<Vec<_>>()
                .chunks(group)
                .map(|c| c.iter().copied().sum::<f64>() / c.len() as f64)
                .collect();
            return Some(out);
        }
        None
    }

    /// Retained consolidated row range `[first, last]` of tier `tier`, or
    /// `None` if absent or empty.
    pub fn tier_range(&self, tier: usize) -> Option<(u64, u64)> {
        let t = self.tiers.get(tier)?;
        if t.rows.is_empty() {
            return None;
        }
        Some((t.first_row, t.first_row + t.rows.len() as u64 - 1))
    }

    /// Serializes the archive (specs + ring contents + accumulators) — a
    /// pure function of the samples recorded, so byte-deterministic.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.specs.len() as u32).to_le_bytes());
        for (spec, tier) in self.specs.iter().zip(&self.tiers) {
            out.extend_from_slice(&spec.interval_minutes.to_le_bytes());
            out.extend_from_slice(&(spec.rows as u64).to_le_bytes());
            out.extend_from_slice(&tier.first_row.to_le_bytes());
            out.extend_from_slice(&tier.acc_sum.to_bits().to_le_bytes());
            out.extend_from_slice(&tier.acc_count.to_le_bytes());
            out.extend_from_slice(&(tier.rows.len() as u32).to_le_bytes());
            for row in &tier.rows {
                out.extend_from_slice(&row.to_bits().to_le_bytes());
            }
        }
    }

    /// Decodes an archive from `r`, leaving it just past the encoding.
    /// Forged counts are refused before anything is allocated for them.
    pub fn decode(r: &mut Reader<'_>) -> std::result::Result<TieredArchive, codec::Error> {
        // Each tier costs at least 40 bytes of fixed fields, a row 8.
        let tier_count = r.len(40)?;
        let mut specs = Vec::with_capacity(tier_count);
        let mut tiers = Vec::with_capacity(tier_count);
        for _ in 0..tier_count {
            let interval_minutes = r.u64()?;
            let spec_rows = r.u64()? as usize;
            let first_row = r.u64()?;
            let acc_sum = r.f64()?;
            let acc_count = r.u64()?;
            let row_count = r.len(8)?;
            if row_count > spec_rows {
                return Err(codec::Error::Invalid);
            }
            let mut rows = VecDeque::with_capacity(row_count);
            for _ in 0..row_count {
                rows.push_back(r.f64()?);
            }
            specs.push(TierSpec { interval_minutes, rows: spec_rows });
            tiers.push(Tier { first_row, rows, acc_sum, acc_count });
        }
        validate_specs(&specs).map_err(|_| codec::Error::Invalid)?;
        Ok(TieredArchive { specs, tiers })
    }
}

fn validate_specs(specs: &[TierSpec]) -> Result<()> {
    if specs.is_empty() {
        return Err(StoreError::InvalidConfig("at least one tier required".into()));
    }
    if specs[0].interval_minutes != 1 {
        return Err(StoreError::InvalidConfig("tier 0 must be 1-minute raw".into()));
    }
    for (i, s) in specs.iter().enumerate() {
        if s.interval_minutes == 0 || s.rows == 0 {
            return Err(StoreError::InvalidConfig(format!(
                "tier {i}: interval and rows must be positive"
            )));
        }
        if i > 0 {
            let prev = specs[i - 1].interval_minutes;
            if s.interval_minutes <= prev || !s.interval_minutes.is_multiple_of(prev) {
                return Err(StoreError::InvalidConfig(format!(
                    "tier {i}: interval {} must be a strict multiple of {}",
                    s.interval_minutes, prev
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(archive: &mut TieredArchive, minutes: u64) {
        for minute in 0..minutes {
            archive.record(minute, minute as f64);
        }
    }

    #[test]
    fn layout_validation() {
        assert!(TieredArchive::new(vec![]).is_err());
        assert!(TieredArchive::new(vec![TierSpec { interval_minutes: 5, rows: 10 }]).is_err());
        assert!(TieredArchive::new(vec![
            TierSpec { interval_minutes: 1, rows: 10 },
            TierSpec { interval_minutes: 7, rows: 10 },
            TierSpec { interval_minutes: 10, rows: 10 },
        ])
        .is_err());
        assert!(TieredArchive::new(vec![
            TierSpec { interval_minutes: 1, rows: 10 },
            TierSpec { interval_minutes: 5, rows: 0 },
        ])
        .is_err());
        TieredArchive::new(vmkusage_tiers()).unwrap();
    }

    #[test]
    fn consolidation_matches_vmkusage_semantics() {
        let mut a = TieredArchive::new(vmkusage_tiers()).unwrap();
        ramp(&mut a, 60);
        assert_eq!(a.query(10, 20, 1).unwrap(), (10..20).map(|m| m as f64).collect::<Vec<_>>());
        let five = a.query(0, 60, 5).unwrap();
        assert_eq!(five.len(), 12);
        assert_eq!(five[0], 2.0);
        assert_eq!(five[11], 57.0);
        assert_eq!(a.query(0, 60, 30).unwrap(), vec![14.5, 44.5]);
        // Partial buckets are invisible until complete.
        let mut b = TieredArchive::new(vmkusage_tiers()).unwrap();
        ramp(&mut b, 7);
        assert_eq!(b.query(0, 5, 5).unwrap(), vec![2.0]);
        assert!(b.query(0, 10, 5).is_none());
    }

    #[test]
    fn evicted_fine_rows_served_coarser() {
        let mut a = TieredArchive::new(vmkusage_tiers()).unwrap();
        ramp(&mut a, 600);
        assert!(a.query(0, 60, 1).is_none());
        let old = a.query(0, 60, 5).unwrap();
        assert_eq!(old[0], 2.0);
        assert_eq!(a.query(590, 600, 1).unwrap()[0], 590.0);
        assert_eq!(a.tier_range(0), Some((480, 599)));
        assert_eq!(a.tier_range(1), Some((0, 119)));
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let mut a = TieredArchive::new(vmkusage_tiers()).unwrap();
        ramp(&mut a, 333); // leaves partial accumulators in tiers 1 and 2
        let mut bytes = Vec::new();
        a.encode_into(&mut bytes);
        let mut r = Reader::new(&bytes);
        let mut back = TieredArchive::decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut bytes2 = Vec::new();
        back.encode_into(&mut bytes2);
        assert_eq!(bytes, bytes2);
        // The decoded archive keeps consolidating identically.
        a.record(333, 1.5);
        back.record(333, 1.5);
        assert_eq!(a.query(0, 330, 5), back.query(0, 330, 5));
        assert_eq!(a.query(300, 330, 30), back.query(300, 330, 30));
    }

    #[test]
    fn decode_rejects_malformed_input_without_panic() {
        let mut a = TieredArchive::new(vmkusage_tiers()).unwrap();
        ramp(&mut a, 10);
        let mut bytes = Vec::new();
        a.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(TieredArchive::decode(&mut Reader::new(&bytes[..cut])).is_err());
        }
        let mut forged = bytes.clone();
        forged[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            TieredArchive::decode(&mut Reader::new(&forged)).unwrap_err(),
            codec::Error::Count
        );
    }
}
