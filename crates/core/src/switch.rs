//! Lock-free, time-synchronized table switches (Sec. 6).
//!
//! The dispatcher's hot path must not take locks, yet all cores must agree
//! on which table is current — a core picking up a new table while another
//! still runs the old one would produce an inconsistent schedule (e.g., a
//! migrating vCPU double-scheduled). Tableau solves this without barriers by
//! exploiting time: each core re-reads its `next_table` pointer only when
//! its table wraps around, and the planner *times* the setting of the
//! pointers to the middle of a table round — safely away from any wrap. All
//! cores therefore observe the pointer by the next wrap and switch at the
//! same table boundary. Two rounds after the upload, every core has
//! switched, and the old table is garbage-collected.
//!
//! This module models that protocol exactly (arm time = middle of the next
//! round; adoption at the following wrap; GC two rounds after upload); the
//! simulator drives it per-core and the unit tests cover the race the
//! protocol is designed to avoid.

use std::sync::Arc;

use rtsched::time::Nanos;

use crate::table::Table;

/// Why a table install was rejected before commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstallError {
    /// The new table's hyperperiod differs from the installed one's.
    LengthMismatch {
        /// Length of the tables already installed.
        expected: Nanos,
        /// Length of the rejected table.
        got: Nanos,
    },
    /// The new table's core count differs from the installed one's.
    CoreCountMismatch {
        /// Core count of the tables already installed.
        expected: usize,
        /// Core count of the rejected table.
        got: usize,
    },
    /// Another install is already staged and neither committed nor aborted.
    AlreadyStaged,
    /// Commit was requested but nothing is staged (commit without begin, or
    /// a double commit after the stage was already consumed).
    NothingStaged,
}

impl std::fmt::Display for InstallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstallError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "table length changed across install ({expected} -> {got})"
                )
            }
            InstallError::CoreCountMismatch { expected, got } => {
                write!(f, "core count changed across install ({expected} -> {got})")
            }
            InstallError::AlreadyStaged => write!(f, "an install is already staged"),
            InstallError::NothingStaged => write!(f, "no install is staged to commit"),
        }
    }
}

impl std::error::Error for InstallError {}

/// Handle to a staged (validated but uncommitted) table install.
///
/// Produced by [`TableManager::begin_install`]; consumed by
/// [`TableManager::commit_install`] or [`TableManager::abort_install`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedInstall {
    /// Absolute time the `next_table` pointers would be set.
    pub arm: Nanos,
    /// Absolute time all cores would have switched.
    pub switch_at: Nanos,
}

/// Per-core view of the table switch protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CoreView {
    /// Epoch index (install ordinal, never reused) of the table this core
    /// runs.
    epoch: usize,
    /// Table-round boundary up to which this core has confirmed its view.
    confirmed_at: Nanos,
}

/// Manages the current and pending scheduling tables for all cores.
///
/// All tables share the same length (one hyperperiod) by construction; the
/// manager asserts this on install.
///
/// An *epoch* is one committed install, numbered from zero in commit order.
/// Epochs are what the protocol tracks — which install each core runs, when
/// each becomes adoptable — and never the identity of the table behind
/// them: a control plane may install one shared `Arc<Table>` many times
/// (A → B → A), and each install is its own epoch.
#[derive(Debug, Clone)]
pub struct TableManager {
    /// The tables of the epochs not yet collected, oldest first: `epochs[i]`
    /// is epoch `collected + i`.
    epochs: Vec<Arc<Table>>,
    /// Absolute times at which each held epoch becomes adoptable (cores
    /// adopt at their first wrap at/after this time); zero for epoch 0.
    activations: Vec<Nanos>,
    /// Epochs garbage-collected so far (every core runs a later one).
    collected: usize,
    /// Per-core adoption state.
    cores: Vec<CoreView>,
    /// A validated install awaiting commit (two-phase protocol). Invisible
    /// to [`TableManager::table_for`] until committed.
    staged: Option<(Arc<Table>, Nanos)>,
    len: Nanos,
}

impl TableManager {
    /// Creates a manager with an initial table active from time zero.
    pub fn new(initial: impl Into<Arc<Table>>) -> TableManager {
        let initial = initial.into();
        let len = initial.len();
        let n_cores = initial.n_cores();
        TableManager {
            epochs: vec![initial],
            activations: vec![Nanos::ZERO],
            collected: 0,
            cores: vec![
                CoreView {
                    epoch: 0,
                    confirmed_at: Nanos::ZERO,
                };
                n_cores
            ],
            staged: None,
            len,
        }
    }

    /// The table length (identical for all epochs).
    pub fn table_len(&self) -> Nanos {
        self.len
    }

    /// Installs a new table pushed by the planner at time `now`.
    ///
    /// Per the protocol, the `next_table` pointers are timed to be set in
    /// the middle of the *next* round of the current table; every core then
    /// adopts at its first wrap after that point — i.e., at the end of the
    /// next round. Returns the absolute time at which all cores will have
    /// switched.
    ///
    /// # Errors
    ///
    /// The same typed errors as [`TableManager::begin_install`]: a length
    /// or core-count mismatch, or an install arriving while another is
    /// staged. Control planes that push tables from recovery paths (a
    /// guardian, a fleet placement loop) must get an error value back, not
    /// a panic — a malformed push degrades to a rejected install and the
    /// old table keeps running.
    pub fn install(
        &mut self,
        table: impl Into<Arc<Table>>,
        now: Nanos,
    ) -> Result<Nanos, InstallError> {
        let staged = self.begin_install(table, now)?;
        self.commit_install(staged)
    }

    /// Phase one of a two-phase install: validates the table and stages it
    /// without making it visible to any core. An interrupted planner push
    /// (crash, fault injection) between begin and commit is undone with
    /// [`TableManager::abort_install`], leaving the manager exactly as it
    /// was — no core can ever adopt a half-pushed table.
    ///
    /// Accepts anything convertible into an `Arc<Table>`; passing an
    /// already-shared `Arc` makes staging allocation-free — the planner's
    /// built slice index is shared, never rebuilt or deep-copied.
    pub fn begin_install(
        &mut self,
        table: impl Into<Arc<Table>>,
        now: Nanos,
    ) -> Result<StagedInstall, InstallError> {
        let table = table.into();
        if table.len() != self.len {
            return Err(InstallError::LengthMismatch {
                expected: self.len,
                got: table.len(),
            });
        }
        if table.n_cores() != self.cores.len() {
            return Err(InstallError::CoreCountMismatch {
                expected: self.cores.len(),
                got: table.n_cores(),
            });
        }
        if self.staged.is_some() {
            return Err(InstallError::AlreadyStaged);
        }
        let round = now / self.len;
        // Pointer set mid-way through round `round + 1`; cores notice at
        // their wrap ending that round.
        let arm = self.len * (round + 1) + self.len / 2;
        let switch_at = self.len * (round + 2);
        debug_assert!(arm < switch_at && arm > now);
        self.staged = Some((table, arm));
        Ok(StagedInstall { arm, switch_at })
    }

    /// Phase two: atomically publishes the staged table. Cores adopt at
    /// their first wrap at/after the arm time, exactly as with
    /// [`TableManager::install`]. Returns the switch-complete time.
    ///
    /// # Errors
    ///
    /// [`InstallError::NothingStaged`] when no install is staged (commit
    /// without begin, double commit, or commit after an abort). The manager
    /// is untouched — consistent with the graceful-degradation contract, a
    /// mis-sequenced planner push never takes down the dispatcher.
    pub fn commit_install(&mut self, staged: StagedInstall) -> Result<Nanos, InstallError> {
        let (table, arm) = self.staged.take().ok_or(InstallError::NothingStaged)?;
        debug_assert_eq!(arm, staged.arm);
        self.epochs.push(table);
        self.activations.push(arm);
        Ok(staged.switch_at)
    }

    /// Rolls back a staged install. The manager is left bit-identical to
    /// its pre-[`TableManager::begin_install`] state; a no-op if nothing is
    /// staged.
    pub fn abort_install(&mut self) {
        self.staged = None;
    }

    /// Whether an install is currently staged (diagnostics/tests).
    pub fn has_staged(&self) -> bool {
        self.staged.is_some()
    }

    /// The table `core` must use for a scheduling decision at `now`.
    ///
    /// A convenience wrapper over [`TableManager::confirm`] +
    /// [`TableManager::epoch_table`] that hands out a shared handle.
    pub fn table_for(&mut self, core: usize, now: Nanos) -> Arc<Table> {
        let epoch = self.confirm(core, now);
        self.epochs[epoch - self.collected].clone()
    }

    /// Advances `core`'s table view to `now` and returns the epoch index of
    /// the table it runs (pass to [`TableManager::epoch_table`]).
    ///
    /// Models the per-core wrap check: the core's view advances only at
    /// table-round boundaries, adopting the newest epoch whose pointer was
    /// armed before the boundary. The steady state (no boundary crossed
    /// since the last confirmation) is a pair of compares — no division, no
    /// reference-count traffic.
    pub fn confirm(&mut self, core: usize, now: Nanos) -> usize {
        let view = &self.cores[core];
        // `confirmed_at` is always a round boundary: while `now` stays
        // within [confirmed_at, confirmed_at + len) no new wrap happened.
        if now >= view.confirmed_at && now - view.confirmed_at < self.len {
            return view.epoch;
        }
        self.confirm_round(core, self.len * (now / self.len))
    }

    /// [`TableManager::confirm`] for a time in the round starting at
    /// `boundary` (a multiple of the table length) that the caller already
    /// knows — the dense-phase commit does — so no division is needed.
    pub fn confirm_round(&mut self, core: usize, boundary: Nanos) -> usize {
        debug_assert_eq!(boundary % self.len, Nanos::ZERO, "not a round boundary");
        let view = &mut self.cores[core];
        if boundary > view.confirmed_at {
            // The core crossed at least one wrap since it last looked: it
            // re-read next_table at each wrap; the epoch it now runs is the
            // newest one armed strictly before the *latest* boundary.
            let newest = self.activations.iter().rposition(|&a| a < boundary);
            view.epoch = view.epoch.max(newest.map_or(0, |i| self.collected + i));
            view.confirmed_at = boundary;
        }
        view.epoch
    }

    /// The epoch `core` would confirm at `now`, without advancing its
    /// view — the read-only twin of [`TableManager::confirm`].
    ///
    /// Dense-phase batching probes this (per core, before building a
    /// window) so a declined batch leaves the manager byte-identical to
    /// an untouched one; the matching mutation happens in the commit.
    pub fn peek_epoch(&self, core: usize, now: Nanos) -> usize {
        let view = &self.cores[core];
        if now >= view.confirmed_at && now - view.confirmed_at < self.len {
            return view.epoch;
        }
        let boundary = self.len * (now / self.len);
        if boundary > view.confirmed_at {
            let newest = self.activations.iter().rposition(|&a| a < boundary);
            return view.epoch.max(newest.map_or(0, |i| self.collected + i));
        }
        view.epoch
    }

    /// The table-round boundary at which `core`, seen from `now`, next
    /// adopts a newer epoch: [`TableManager::peek_epoch`] is constant over
    /// `[now, boundary)` and changes exactly at `boundary`. [`Nanos::MAX`]
    /// when every committed epoch is already adopted at `now` (staged
    /// installs are invisible until committed).
    ///
    /// A core re-reads its pointer only at wraps, so the boundary is the
    /// first wrap strictly after the earliest pending arm time —
    /// `len * (arm / len + 1)`, the `switch_at` of its install — and never
    /// the wrap `now` already sits behind. Dense-phase batching caps each
    /// window one nanosecond before it, so no window spans a table switch.
    pub fn next_adoption(&self, core: usize, now: Nanos) -> Nanos {
        let epoch = self.peek_epoch(core, now);
        match self.activations[epoch + 1 - self.collected..].iter().min() {
            Some(&arm) => (self.len * (arm / self.len + 1)).max(self.len * (now / self.len + 1)),
            None => Nanos::MAX,
        }
    }

    /// The table at epoch index `epoch` (as returned by
    /// [`TableManager::confirm`]), borrowed — the dispatcher's hot path
    /// never touches the reference count.
    pub fn epoch_table(&self, epoch: usize) -> &Table {
        &self.epochs[epoch - self.collected]
    }

    /// Garbage-collects the epochs every core has moved past — no core can
    /// run them again, views only advance — and returns how many were
    /// freed. Their table references are dropped; the epoch indices of the
    /// survivors do not change. Counted per epoch, not per table: an epoch
    /// is freed even when a later one installed the very same `Arc<Table>`.
    pub fn collect_garbage(&mut self) -> usize {
        let min_epoch = self.cores.iter().map(|c| c.epoch).min().unwrap_or(0);
        let freed = min_epoch.saturating_sub(self.collected);
        self.epochs.drain(..freed);
        self.activations.drain(..freed);
        self.collected += freed;
        freed
    }

    /// The most recently committed table — the one every core is on, or
    /// converging to (the continuous audit re-checks this copy).
    pub fn newest_table(&self) -> &Table {
        self.epochs.last().expect("manager always has an epoch")
    }

    /// Fault-injection hook: overwrites the newest committed table in
    /// place, bypassing the two-phase install protocol — the model of a
    /// stray write corrupting the installed table underneath the control
    /// plane. Nothing in the product path calls this; chaos harnesses use
    /// it to prove the continuous audit detects and repairs. The
    /// replacement must keep the epoch's shape (length and core count).
    pub fn corrupt_newest_table(&mut self, table: Table) -> Result<(), String> {
        let cur = self.newest_table();
        if table.len() != cur.len() || table.n_cores() != cur.n_cores() {
            return Err(format!(
                "corruption changed the table shape: {}x{:?} -> {}x{:?}",
                cur.n_cores(),
                cur.len(),
                table.n_cores(),
                table.len()
            ));
        }
        *self.epochs.last_mut().expect("manager always has an epoch") = Arc::new(table);
        Ok(())
    }

    /// The epoch index `core` currently runs (diagnostics/tests).
    pub fn core_epoch(&self, core: usize) -> usize {
        self.cores[core].epoch
    }

    /// The tables of the committed epochs not yet collected, oldest first —
    /// every table some core runs or may still adopt, and so every
    /// reference this manager keeps alive (a staged install is not
    /// committed and not listed). One entry per epoch: the same shared
    /// image installed twice appears twice (diagnostics/tests).
    pub fn held_tables(&self) -> &[Arc<Table>] {
        &self.epochs
    }

    /// Number of live epochs: committed installs not yet collected. Equal
    /// to the number of distinct tables when every install brings its own
    /// table; installs that share an image count once each
    /// (diagnostics/tests).
    pub fn live_tables(&self) -> usize {
        self.epochs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Allocation;
    use crate::vcpu::VcpuId;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }

    fn table(len_ms: u64, vcpu: u32) -> Table {
        Table::new(
            ms(len_ms),
            vec![
                vec![Allocation {
                    start: Nanos::ZERO,
                    end: ms(1),
                    vcpu: VcpuId(vcpu),
                }],
                vec![],
            ],
        )
        .unwrap()
    }

    #[test]
    fn switch_lands_at_end_of_next_round() {
        let mut m = TableManager::new(table(10, 0));
        // Install at t = 3 ms (round 0): arm at 15 ms, switch at 20 ms.
        let at = m.install(table(10, 1), ms(3)).expect("installs");
        assert_eq!(at, ms(20));
    }

    #[test]
    fn cores_use_old_table_until_switch_time() {
        let mut m = TableManager::new(table(10, 0));
        m.install(table(10, 1), ms(3)).expect("installs");
        // Mid-round 1 (pointer armed at 15 ms but adoption only at wrap).
        let t = m.table_for(0, ms(17));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(0)));
        // After the wrap at 20 ms both cores see the new table.
        let t = m.table_for(0, ms(21));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(1)));
        let t = m.table_for(1, ms(20));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(1)));
    }

    #[test]
    fn all_cores_switch_at_the_same_boundary() {
        let mut m = TableManager::new(table(10, 0));
        let at = m.install(table(10, 1), ms(9)).expect("installs"); // just before a wrap
        assert_eq!(at, ms(20)); // arm at 15 ms, adopt at wrap 20 ms
                                // At 19.9 ms neither core has switched (pointer armed mid-round 1).
        assert_eq!(
            m.table_for(0, Nanos(19_900_000))
                .lookup(0, Nanos::ZERO)
                .vcpu(),
            Some(VcpuId(0))
        );
        assert_eq!(
            m.table_for(1, ms(20)).lookup(0, Nanos::ZERO).vcpu(),
            Some(VcpuId(1))
        );
    }

    #[test]
    fn install_near_wrap_never_splits_cores() {
        // The race the protocol avoids: an install "during" a wrap must not
        // let one core switch a round earlier than another. Whatever cores
        // query at any time >= switch point sees one consistent table.
        let mut m = TableManager::new(table(10, 0));
        let switch = m.install(table(10, 1), Nanos(9_999_999)).expect("installs");
        for query in [switch, switch + Nanos(1), switch + ms(5)] {
            let a = m.table_for(0, query);
            let b = m.table_for(1, query);
            assert!(Arc::ptr_eq(&a, &b));
        }
    }

    #[test]
    fn garbage_collection_after_all_cores_switch() {
        let mut m = TableManager::new(table(10, 0));
        m.install(table(10, 1), ms(3)).expect("installs");
        assert_eq!(m.live_tables(), 2);
        // Nothing collectible while a core still runs the old epoch.
        assert_eq!(m.collect_garbage(), 0);
        let _ = m.table_for(0, ms(25));
        assert_eq!(m.collect_garbage(), 0); // core 1 still on epoch 0
        let _ = m.table_for(1, ms(25));
        assert_eq!(m.collect_garbage(), 1);
        assert_eq!(m.live_tables(), 1);
    }

    #[test]
    fn reinstalling_a_shared_image_is_an_epoch_of_its_own() {
        // A -> B -> A with A one shared `Arc`: three epochs over two
        // images. Every answer below is per epoch; none may depend on the
        // first and third installs being the same pointer.
        let (a, b) = (Arc::new(table(10, 0)), Arc::new(table(10, 1)));
        let mut m = TableManager::new(a.clone());
        assert_eq!(m.install(b.clone(), ms(3)), Ok(ms(20)));
        assert_eq!(m.install(a.clone(), ms(23)), Ok(ms(40)));
        let held = |m: &TableManager| -> Vec<*const Table> {
            m.held_tables().iter().map(Arc::as_ptr).collect()
        };
        let (pa, pb) = (Arc::as_ptr(&a), Arc::as_ptr(&b));
        assert_eq!(m.live_tables(), 3);
        assert_eq!(held(&m), [pa, pb, pa]);
        for core in 0..2 {
            assert_eq!(m.peek_epoch(core, ms(20) - Nanos(1)), 0);
            assert_eq!(m.peek_epoch(core, ms(20)), 1);
            assert_eq!(m.peek_epoch(core, ms(40)), 2);
            assert_eq!(m.next_adoption(core, ms(25)), ms(40));
        }

        // Core 0 runs the re-installed A; core 1 never looked. Epoch 0 is
        // not collectible just because its table is installed again.
        assert_eq!(m.confirm(0, ms(41)), 2);
        assert_eq!(m.collect_garbage(), 0);
        assert_eq!(m.live_tables(), 3);
        // Core 1 reaches B: epoch 0 goes, its image stays as epoch 2.
        assert_eq!(m.confirm(1, ms(25)), 1);
        assert_eq!(m.collect_garbage(), 1);
        assert_eq!((m.live_tables(), held(&m)), (2, vec![pb, pa]));
        assert_eq!(Arc::strong_count(&a), 2);
        assert!(std::ptr::eq(m.epoch_table(1), &*b));
        assert!(std::ptr::eq(m.epoch_table(2), &*a));
        assert_eq!(m.collect_garbage(), 0, "nothing is freed twice");
        // Both on epoch 2: B is released, and the views, the pending
        // boundary and later installs read as if nothing was collected.
        assert_eq!(m.confirm(1, ms(41)), 2);
        assert_eq!(m.collect_garbage(), 1);
        assert_eq!((m.live_tables(), held(&m)), (1, vec![pa]));
        assert_eq!(Arc::strong_count(&b), 1);
        assert_eq!((m.core_epoch(0), m.core_epoch(1)), (2, 2));
        assert_eq!(m.peek_epoch(0, ms(100)), 2);
        assert_eq!(m.next_adoption(1, ms(100)), Nanos::MAX);
        assert!(Arc::ptr_eq(&m.table_for(0, ms(100)), &a));
        assert_eq!(m.install(b.clone(), ms(101)), Ok(ms(120)));
        assert_eq!(m.peek_epoch(0, ms(120) - Nanos(1)), 2);
        assert_eq!(m.confirm(0, ms(120)), 3);
        assert!(std::ptr::eq(m.epoch_table(3), &*b));
        assert!(std::ptr::eq(m.newest_table(), &*b));
    }

    #[test]
    fn back_to_back_installs_resolve_to_newest() {
        let mut m = TableManager::new(table(10, 0));
        m.install(table(10, 1), ms(1)).expect("installs");
        m.install(table(10, 2), ms(2)).expect("installs");
        // Both armed mid-round 1; the wrap at 20 ms adopts the newest.
        let t = m.table_for(0, ms(20));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(2)));
    }

    #[test]
    fn length_change_rejected_with_typed_error() {
        // Regression: a hyperperiod drift used to panic the one-phase
        // install; it must surface as the same typed error the two-phase
        // path reports, with the running table untouched.
        let mut m = TableManager::new(table(10, 0));
        assert_eq!(
            m.install(table(20, 1), ms(1)),
            Err(InstallError::LengthMismatch {
                expected: ms(10),
                got: ms(20),
            })
        );
        assert_eq!(m.live_tables(), 1);
        let t = m.table_for(0, ms(40));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(0)));
    }

    #[test]
    fn core_count_change_rejected_with_typed_error() {
        let mut m = TableManager::new(table(10, 0));
        let narrow = Table::new(
            ms(10),
            vec![vec![Allocation {
                start: Nanos::ZERO,
                end: ms(1),
                vcpu: VcpuId(1),
            }]],
        )
        .unwrap();
        assert_eq!(
            m.install(narrow, ms(1)),
            Err(InstallError::CoreCountMismatch {
                expected: 2,
                got: 1,
            })
        );
        assert_eq!(m.live_tables(), 1);
    }

    #[test]
    fn staged_install_is_invisible_until_commit() {
        let mut m = TableManager::new(table(10, 0));
        let staged = m.begin_install(table(10, 1), ms(3)).unwrap();
        assert!(m.has_staged());
        // Way past the would-be switch time, cores still run the old table.
        let t = m.table_for(0, ms(40));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(0)));
        assert_eq!(m.live_tables(), 1);
        // Commit publishes with the originally computed timing.
        assert_eq!(m.commit_install(staged), Ok(ms(20)));
        let t = m.table_for(1, ms(20));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(1)));
    }

    #[test]
    fn aborted_install_leaves_no_trace() {
        let mut m = TableManager::new(table(10, 0));
        let before = (m.live_tables(), m.core_epoch(0), m.core_epoch(1));
        let _staged = m.begin_install(table(10, 1), ms(3)).unwrap();
        m.abort_install();
        assert!(!m.has_staged());
        assert_eq!((m.live_tables(), m.core_epoch(0), m.core_epoch(1)), before);
        let t = m.table_for(0, ms(50));
        assert_eq!(t.lookup(0, Nanos::ZERO).vcpu(), Some(VcpuId(0)));
        // The manager accepts a fresh install afterwards.
        let at = m.install(table(10, 2), ms(50)).expect("installs");
        assert_eq!(at, ms(70));
    }

    #[test]
    fn begin_install_validates_shape() {
        let mut m = TableManager::new(table(10, 0));
        assert_eq!(
            m.begin_install(table(20, 1), ms(1)).unwrap_err(),
            InstallError::LengthMismatch {
                expected: ms(10),
                got: ms(20)
            }
        );
        assert!(!m.has_staged());
        let _ = m.begin_install(table(10, 1), ms(1)).unwrap();
        assert_eq!(
            m.begin_install(table(10, 2), ms(1)).unwrap_err(),
            InstallError::AlreadyStaged
        );
    }

    #[test]
    fn one_phase_install_rejects_pending_stage_with_typed_error() {
        // Regression: an install racing a staged two-phase push used to
        // panic; it must report `AlreadyStaged` and leave the stage intact.
        let mut m = TableManager::new(table(10, 0));
        let staged = m.begin_install(table(10, 1), ms(1)).unwrap();
        assert_eq!(
            m.install(table(10, 2), ms(2)),
            Err(InstallError::AlreadyStaged)
        );
        assert!(m.has_staged());
        assert_eq!(m.commit_install(staged), Ok(ms(20)));
    }

    #[test]
    fn commit_without_begin_is_a_typed_error_not_a_panic() {
        let mut m = TableManager::new(table(10, 0));
        // A StagedInstall that was never (or no longer is) staged: commit
        // must fail gracefully, leaving the manager untouched.
        let phantom = StagedInstall {
            arm: ms(15),
            switch_at: ms(20),
        };
        assert_eq!(m.commit_install(phantom), Err(InstallError::NothingStaged));
        assert_eq!(m.live_tables(), 1);

        // Double commit: the first consumes the stage, the second errors.
        let staged = m.begin_install(table(10, 1), ms(3)).unwrap();
        assert_eq!(m.commit_install(staged), Ok(ms(20)));
        assert_eq!(m.commit_install(staged), Err(InstallError::NothingStaged));

        // Commit after abort likewise.
        let staged = m.begin_install(table(10, 2), ms(25)).unwrap();
        m.abort_install();
        assert_eq!(m.commit_install(staged), Err(InstallError::NothingStaged));
        // The manager still works afterwards.
        let at = m.install(table(10, 3), ms(30)).expect("installs");
        assert_eq!(at, ms(50));
    }

    #[test]
    fn next_adoption_is_the_switch_time_of_the_earliest_pending_install() {
        let mut m = TableManager::new(table(10, 0));
        // Settled: no boundary, from any time.
        assert_eq!(m.next_adoption(0, ms(0)), Nanos::MAX);
        assert_eq!(m.next_adoption(1, ms(57)), Nanos::MAX);

        // Staged installs are invisible until committed.
        let staged = m.begin_install(table(10, 1), ms(3)).unwrap();
        assert_eq!(m.next_adoption(0, ms(3)), Nanos::MAX);
        let switch_at = m.commit_install(staged).unwrap();
        assert_eq!(switch_at, ms(20));
        for core in 0..2 {
            assert_eq!(m.next_adoption(core, ms(3)), switch_at);
            assert_eq!(m.next_adoption(core, ms(19)), switch_at);
        }

        // A second install one round later: the earlier boundary wins, and
        // from it on the later one is next.
        let later = m.install(table(10, 2), ms(12)).expect("installs");
        assert_eq!(later, ms(30));
        assert_eq!(m.next_adoption(0, ms(12)), switch_at);
        assert_eq!(m.next_adoption(0, switch_at), later);
        assert_eq!(m.next_adoption(0, later), Nanos::MAX);

        // The view changes exactly at each reported boundary and not one
        // nanosecond before, whether or not the core confirmed in between.
        assert_eq!(m.peek_epoch(0, switch_at - Nanos(1)), 0);
        assert_eq!(m.peek_epoch(0, switch_at), 1);
        assert_eq!(m.confirm(0, switch_at - Nanos(1)), 0);
        assert_eq!(m.peek_epoch(0, later - Nanos(1)), 1);
        assert_eq!(m.peek_epoch(0, later), 2);
        assert_eq!(m.confirm(0, later - Nanos(1)), 1);
        assert_eq!(m.next_adoption(0, later - Nanos(1)), later);
        assert_eq!(m.confirm(0, later), 2);
        assert_eq!(m.next_adoption(0, later), Nanos::MAX);
        // Core 1 never looked: same answers from its stale view.
        assert_eq!(m.next_adoption(1, later - Nanos(1)), later);
        assert_eq!(m.next_adoption(1, later), Nanos::MAX);
    }

    #[test]
    fn next_adoption_of_a_late_install_is_the_next_wrap() {
        // An install stamped in the past (arm time already behind the
        // core's confirmed boundary) is picked up at the core's next wrap,
        // not at its nominal switch time.
        let mut m = TableManager::new(table(10, 0));
        assert_eq!(m.confirm(0, ms(47)), 0);
        m.install(table(10, 1), ms(3)).expect("installs");
        assert_eq!(m.next_adoption(0, ms(47)), ms(50));
        assert_eq!(m.peek_epoch(0, ms(50) - Nanos(1)), 0);
        assert_eq!(m.peek_epoch(0, ms(50)), 1);
    }

    #[test]
    fn epochs_are_monotonic_per_core() {
        let mut m = TableManager::new(table(10, 0));
        m.install(table(10, 1), ms(1)).expect("installs");
        let _ = m.table_for(0, ms(25));
        assert_eq!(m.core_epoch(0), 1);
        // A late query for an *earlier* time must not roll the core back.
        let _ = m.table_for(0, ms(24));
        assert_eq!(m.core_epoch(0), 1);
    }
}
