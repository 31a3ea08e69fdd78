//! Abstract operation accounting.
//!
//! The ATM task algorithms are implemented once, as straight-line Rust, and
//! annotated with calls into a [`CostSink`]. Each architecture model supplies
//! its own sink: the GPU simulator maps operations onto per-warp issue
//! cycles, the associative processor prices them with its constant-time
//! associative operation table, and the modeled Xeon multiplies them by
//! per-core throughput. A [`NullSink`] compiles the accounting away for
//! plain host execution.

/// Classes of abstract machine operations the algorithms report.
///
/// The granularity follows what per-architecture cost tables can actually
/// distinguish: integer ALU, FP add/mul (single issue on all modeled
/// machines), the expensive FP divide/sqrt path, special-function unit work
/// (trigonometry, used by collision resolution's path rotation), and control
/// flow.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(usize)]
pub enum OpClass {
    /// Integer add/sub/compare/logic.
    IntAlu = 0,
    /// Floating-point add/sub/compare.
    FpAdd = 1,
    /// Floating-point multiply (and fused multiply-add, counted once).
    FpMul = 2,
    /// Floating-point divide.
    FpDiv = 3,
    /// Floating-point square root.
    FpSqrt = 4,
    /// Special-function unit: sin/cos/exp approximations.
    Sfu = 5,
    /// A conditional branch.
    Branch = 6,
    /// A barrier / synchronization point.
    Sync = 7,
}

/// Number of [`OpClass`] variants (array-table sizing).
pub const OP_CLASS_COUNT: usize = 8;

/// All operation classes in discriminant order.
pub const ALL_OP_CLASSES: [OpClass; OP_CLASS_COUNT] = [
    OpClass::IntAlu,
    OpClass::FpAdd,
    OpClass::FpMul,
    OpClass::FpDiv,
    OpClass::FpSqrt,
    OpClass::Sfu,
    OpClass::Branch,
    OpClass::Sync,
];

/// Receiver for the abstract operation stream of one logical thread of an
/// algorithm.
///
/// Implementations must be cheap: these methods are called inside the inner
/// loops of every task on every backend.
pub trait CostSink {
    /// Record `count` operations of class `class`.
    fn op(&mut self, class: OpClass, count: u64);

    /// Record a read of `bytes` bytes from the architecture's main memory.
    fn load(&mut self, bytes: u64);

    /// Record a read of `bytes` bytes that is *uniform across the SIMD
    /// group* — every lane of a warp (or every PE step of a lockstep scan)
    /// reads the same address this step, as the ATM scan loops do when they
    /// walk the shared aircraft array. Architectures with a cache or
    /// broadcast path serve such reads once per group; architectures
    /// without one (compute capability 1.x) pay per lane. The default
    /// forwards to [`CostSink::load`].
    fn load_shared(&mut self, bytes: u64) {
        self.load(bytes);
    }

    /// Record a write of `bytes` bytes to the architecture's main memory.
    fn store(&mut self, bytes: u64);

    /// Record a data-dependent branch. `diverged` is a hint that lanes of a
    /// SIMD/SIMT group are expected to disagree on this branch (the GPU
    /// model prices divergent branches higher).
    fn branch(&mut self, diverged: bool) {
        let _ = diverged;
        self.op(OpClass::Branch, 1);
    }

    /// Record `count` branches that all share one divergence hint, in a
    /// single call. Fast paths that *skip* work (e.g. the grid conflict
    /// scan) use this to book the operation mix of the skipped iterations
    /// in aggregate; every sink must tally exactly as if [`CostSink::branch`]
    /// had been called `count` times, so modeled time is unchanged.
    fn branches(&mut self, count: u64, diverged: bool) {
        for _ in 0..count {
            self.branch(diverged);
        }
    }

    /// Record `count` group-uniform reads of `bytes_each` bytes each, in a
    /// single call. Must tally exactly as `count` calls to
    /// [`CostSink::load_shared`] would.
    fn loads_shared(&mut self, count: u64, bytes_each: u64) {
        for _ in 0..count {
            self.load_shared(bytes_each);
        }
    }

    /// Convenience: one FP add/sub/compare.
    #[inline]
    fn fadd(&mut self, count: u64) {
        self.op(OpClass::FpAdd, count);
    }

    /// Convenience: one FP multiply / FMA.
    #[inline]
    fn fmul(&mut self, count: u64) {
        self.op(OpClass::FpMul, count);
    }

    /// Convenience: FP divisions.
    #[inline]
    fn fdiv(&mut self, count: u64) {
        self.op(OpClass::FpDiv, count);
    }

    /// Convenience: FP square roots.
    #[inline]
    fn fsqrt(&mut self, count: u64) {
        self.op(OpClass::FpSqrt, count);
    }

    /// Convenience: integer/logic operations.
    #[inline]
    fn ialu(&mut self, count: u64) {
        self.op(OpClass::IntAlu, count);
    }

    /// Convenience: special-function-unit operations (sin/cos).
    #[inline]
    fn sfu(&mut self, count: u64) {
        self.op(OpClass::Sfu, count);
    }
}

/// A sink that discards everything; used for plain host execution where the
/// wall clock itself is the measurement.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl CostSink for NullSink {
    #[inline]
    fn op(&mut self, _class: OpClass, _count: u64) {}
    #[inline]
    fn load(&mut self, _bytes: u64) {}
    #[inline]
    fn store(&mut self, _bytes: u64) {}
    #[inline]
    fn branches(&mut self, _count: u64, _diverged: bool) {}
    #[inline]
    fn loads_shared(&mut self, _count: u64, _bytes_each: u64) {}
}

/// A plain counting sink: tallies per-class operation counts and memory
/// traffic. This is both a useful standalone profiler (the analytic Xeon
/// model consumes it) and the reference against which architecture sinks
/// are tested.
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct OpCounter {
    /// Operation tallies indexed by `OpClass as usize`.
    pub ops: [u64; OP_CLASS_COUNT],
    /// Total bytes read from main memory.
    pub bytes_loaded: u64,
    /// Total bytes written to main memory.
    pub bytes_stored: u64,
    /// Number of loads (individual requests), regardless of width.
    pub load_count: u64,
    /// Number of stores.
    pub store_count: u64,
    /// Branches flagged as divergent by the algorithm.
    pub divergent_branches: u64,
}

impl OpCounter {
    /// A fresh, zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Tally for one class.
    #[inline]
    pub fn count(&self, class: OpClass) -> u64 {
        self.ops[class as usize]
    }

    /// Sum of all compute-class operations (excludes Sync).
    pub fn total_compute_ops(&self) -> u64 {
        ALL_OP_CLASSES
            .iter()
            .filter(|c| !matches!(c, OpClass::Sync))
            .map(|&c| self.count(c))
            .sum()
    }

    /// Total memory traffic in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }

    /// Merge another counter into this one (used to fold per-thread
    /// counters into per-machine totals).
    pub fn merge(&mut self, other: &OpCounter) {
        for i in 0..OP_CLASS_COUNT {
            self.ops[i] += other.ops[i];
        }
        self.bytes_loaded += other.bytes_loaded;
        self.bytes_stored += other.bytes_stored;
        self.load_count += other.load_count;
        self.store_count += other.store_count;
        self.divergent_branches += other.divergent_branches;
    }

    /// Reset all tallies to zero, retaining the allocation-free layout.
    pub fn reset(&mut self) {
        *self = OpCounter::default();
    }
}

impl CostSink for OpCounter {
    #[inline]
    fn op(&mut self, class: OpClass, count: u64) {
        self.ops[class as usize] += count;
    }

    #[inline]
    fn load(&mut self, bytes: u64) {
        self.bytes_loaded += bytes;
        self.load_count += 1;
    }

    #[inline]
    fn store(&mut self, bytes: u64) {
        self.bytes_stored += bytes;
        self.store_count += 1;
    }

    #[inline]
    fn branch(&mut self, diverged: bool) {
        self.ops[OpClass::Branch as usize] += 1;
        if diverged {
            self.divergent_branches += 1;
        }
    }

    #[inline]
    fn branches(&mut self, count: u64, diverged: bool) {
        self.ops[OpClass::Branch as usize] += count;
        if diverged {
            self.divergent_branches += count;
        }
    }

    #[inline]
    fn loads_shared(&mut self, count: u64, bytes_each: u64) {
        self.bytes_loaded += count * bytes_each;
        self.load_count += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counter_tallies_by_class() {
        let mut c = OpCounter::new();
        c.fadd(3);
        c.fmul(2);
        c.fdiv(1);
        c.ialu(10);
        c.op(OpClass::FpSqrt, 4);
        assert_eq!(c.count(OpClass::FpAdd), 3);
        assert_eq!(c.count(OpClass::FpMul), 2);
        assert_eq!(c.count(OpClass::FpDiv), 1);
        assert_eq!(c.count(OpClass::IntAlu), 10);
        assert_eq!(c.count(OpClass::FpSqrt), 4);
        assert_eq!(c.total_compute_ops(), 20);
    }

    #[test]
    fn op_counter_tracks_memory_traffic() {
        let mut c = OpCounter::new();
        c.load(16);
        c.load(4);
        c.store(8);
        assert_eq!(c.bytes_loaded, 20);
        assert_eq!(c.bytes_stored, 8);
        assert_eq!(c.load_count, 2);
        assert_eq!(c.store_count, 1);
        assert_eq!(c.total_bytes(), 28);
    }

    #[test]
    fn branches_and_divergence() {
        let mut c = OpCounter::new();
        c.branch(false);
        c.branch(true);
        c.branch(true);
        assert_eq!(c.count(OpClass::Branch), 3);
        assert_eq!(c.divergent_branches, 2);
    }

    #[test]
    fn merge_folds_all_fields() {
        let mut a = OpCounter::new();
        a.fadd(1);
        a.load(8);
        a.branch(true);
        let mut b = OpCounter::new();
        b.fadd(2);
        b.store(4);
        b.branch(false);
        a.merge(&b);
        assert_eq!(a.count(OpClass::FpAdd), 3);
        assert_eq!(a.bytes_loaded, 8);
        assert_eq!(a.bytes_stored, 4);
        assert_eq!(a.count(OpClass::Branch), 2);
        assert_eq!(a.divergent_branches, 1);
    }

    #[test]
    fn null_sink_is_a_no_op() {
        let mut s = NullSink;
        s.op(OpClass::FpDiv, 1_000_000);
        s.load(u64::MAX);
        s.store(u64::MAX);
        s.branch(true);
        // Nothing to assert beyond "it did not panic/overflow".
    }

    #[test]
    fn aggregate_bookings_match_per_call_bookings() {
        let mut per_call = OpCounter::new();
        for _ in 0..7 {
            per_call.branch(false);
        }
        for _ in 0..3 {
            per_call.branch(true);
        }
        for _ in 0..5 {
            per_call.load_shared(24);
        }
        let mut agg = OpCounter::new();
        agg.branches(7, false);
        agg.branches(3, true);
        agg.loads_shared(5, 24);
        assert_eq!(per_call, agg);
    }

    #[test]
    fn discriminants_cover_table_indices() {
        for (i, c) in ALL_OP_CLASSES.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }
}
