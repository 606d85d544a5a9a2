//! Working-set memory model with thrashing (§3.2.2).
//!
//! The paper's second empirical observation: "memory thrashing happens when
//! the total working set size of the guest and host processes (including
//! kernel memory usage) exceeds the physical memory size of the machine.
//! Changing CPU priority does little to prevent thrashing." — so memory
//! contention is modelled independently of CPU priority, and the two are
//! never combined (the additional effect of the second resource is
//! negligible once the first is already contended).

/// Physical-memory model of one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryModel {
    /// Physical memory in MB.
    pub physical_mb: f64,
    /// Kernel / OS resident memory in MB.
    pub kernel_mb: f64,
    /// Throughput multiplier once the machine thrashes (heavily < 1).
    pub thrash_throughput: f64,
}

impl MemoryModel {
    /// A model sized like the paper's Unix test machine (384 MB physical).
    #[must_use]
    pub fn paper_unix() -> MemoryModel {
        MemoryModel {
            physical_mb: 384.0,
            kernel_mb: 48.0,
            thrash_throughput: 0.08,
        }
    }

    /// Free memory available to applications given the hosts' working sets.
    #[must_use]
    pub fn free_mb(&self, host_ws_mb: f64) -> f64 {
        (self.physical_mb - self.kernel_mb - host_ws_mb).max(0.0)
    }

    /// Whether a guest with the given working set fits without thrashing.
    #[must_use]
    pub fn guest_fits(&self, host_ws_mb: f64, guest_ws_mb: f64) -> bool {
        guest_ws_mb <= self.free_mb(host_ws_mb)
    }

    /// Throughput multiplier for the whole machine given the total working
    /// set: 1.0 while everything fits, dropping towards
    /// [`MemoryModel::thrash_throughput`] as the overcommit ratio grows.
    #[must_use]
    pub fn throughput_factor(&self, total_ws_mb: f64) -> f64 {
        let available = self.physical_mb - self.kernel_mb;
        if total_ws_mb <= available || available <= 0.0 {
            return 1.0;
        }
        // Linear collapse over the first 25 % of overcommit, then floor.
        let over = total_ws_mb / available - 1.0;
        let t = (over / 0.25).min(1.0);
        1.0 + t * (self.thrash_throughput - 1.0)
    }

    /// The §3.2.2 observation in executable form: does renicing the guest
    /// (i.e. any CPU-priority change) resolve the contention? Only when the
    /// memory fits — priority is irrelevant under thrashing.
    #[must_use]
    pub fn priority_can_help(&self, host_ws_mb: f64, guest_ws_mb: f64) -> bool {
        self.guest_fits(host_ws_mb, guest_ws_mb)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guest_fits_when_memory_free() {
        let m = MemoryModel::paper_unix();
        assert!(m.guest_fits(100.0, 100.0)); // 48 + 200 < 384
        assert!(!m.guest_fits(250.0, 100.0)); // 48 + 350 > 336 free
    }

    #[test]
    fn free_never_negative() {
        let m = MemoryModel::paper_unix();
        assert_eq!(m.free_mb(1000.0), 0.0);
    }

    #[test]
    fn throughput_is_full_until_overcommit() {
        let m = MemoryModel::paper_unix();
        assert_eq!(m.throughput_factor(300.0), 1.0);
        assert_eq!(m.throughput_factor(336.0), 1.0);
    }

    #[test]
    fn throughput_collapses_under_thrashing() {
        let m = MemoryModel::paper_unix();
        let f = m.throughput_factor(336.0 * 1.3);
        assert!((f - m.thrash_throughput).abs() < 1e-9, "factor {f}");
        // Intermediate overcommit: partial collapse, monotone.
        let f1 = m.throughput_factor(336.0 * 1.05);
        let f2 = m.throughput_factor(336.0 * 1.15);
        assert!(f1 > f2, "{f1} vs {f2}");
        assert!(f1 < 1.0);
    }

    #[test]
    fn priority_cannot_fix_thrashing() {
        let m = MemoryModel::paper_unix();
        assert!(m.priority_can_help(100.0, 100.0));
        assert!(!m.priority_can_help(300.0, 100.0));
    }
}
