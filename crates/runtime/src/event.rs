//! Execution events and the supervisor interface that the record/replay
//! layer (and the profiler) plug into.

use chimera_minic::ir::{AccessId, FuncId, LockGranularity, WeakLockId};

/// Dense thread identifier, assigned in spawn order (main is thread 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// What kind of program synchronization an ordering event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SyncKind {
    /// Mutex acquisition.
    Mutex,
    /// Barrier epoch release.
    Barrier,
    /// Condition-variable wakeup delivery.
    Cond,
    /// Thread join completion.
    Join,
    /// Thread creation.
    Spawn,
}

/// An observable event emitted by the machine, in commit order.
#[allow(missing_docs)] // fields are documented by the variant docs
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A function activation began.
    FuncEnter {
        thread: ThreadId,
        func: FuncId,
        time: u64,
    },
    /// A function activation ended.
    FuncExit {
        thread: ThreadId,
        func: FuncId,
        time: u64,
    },
    /// A program synchronization operation committed. `addr` identifies the
    /// sync object (its cell address); `seq` is the per-object sequence
    /// number — together they encode the happens-before order the recorder
    /// logs.
    Sync {
        thread: ThreadId,
        kind: SyncKind,
        addr: i64,
        seq: u64,
        time: u64,
    },
    /// A weak-lock was acquired (`seq` orders acquisitions per lock).
    WeakAcquire {
        thread: ThreadId,
        lock: WeakLockId,
        granularity: LockGranularity,
        range: Option<(i64, i64)>,
        seq: u64,
        time: u64,
    },
    /// A weak-lock was released normally.
    WeakRelease {
        thread: ThreadId,
        lock: WeakLockId,
        time: u64,
    },
    /// The kernel forcibly preempted `holder` (at retired-instruction count
    /// `icount`) and made it release `lock` so a timed-out waiter can make
    /// progress (paper §2.3). The holder must reacquire before resuming.
    WeakForcedRelease {
        lock: WeakLockId,
        holder: ThreadId,
        icount: u64,
        /// True if the holder was parked in a blocking wait (condvar,
        /// mutex, barrier, join) when preempted. Replay needs this to
        /// disambiguate the preemption point: the same instruction count
        /// occurs both before and inside a blocking wait.
        parked: bool,
        time: u64,
    },
    /// Nondeterministic input was consumed (one `sys_read`/`sys_input`).
    Input {
        thread: ThreadId,
        chan: i64,
        data: Vec<i64>,
        time: u64,
    },
    /// Program output (print / sys_write payload).
    Output { thread: ThreadId, data: Vec<i64> },
    /// A thread was created.
    Spawned {
        parent: ThreadId,
        child: ThreadId,
        func: FuncId,
        time: u64,
    },
    /// A thread ran to completion.
    Exited { thread: ThreadId, time: u64 },
    /// A memory read committed. Only constructed when a supervisor's mask
    /// asks for it (the dynamic race detector does); never part of the
    /// collected trace, so the flat hot path and replay logs are
    /// unaffected when no detector is attached.
    Load {
        thread: ThreadId,
        /// Cell address that was read.
        addr: i64,
        /// Static provenance of the access site.
        access: AccessId,
        time: u64,
    },
    /// A memory write committed (same contract as [`Event::Load`]).
    Store {
        thread: ThreadId,
        /// Cell address that was written.
        addr: i64,
        /// Static provenance of the access site.
        access: AccessId,
        time: u64,
    },
    /// A synchronization object was *released*: mutex unlock, the mutex
    /// release inside `cond_wait`, the signaler's side of a condvar
    /// wakeup, or a barrier arrival. The dual of [`Event::Sync`] (which
    /// marks acquisitions): together they carry the happens-before edges a
    /// vector-clock detector needs. Not recorded for replay — releases are
    /// deterministic given the acquisition order.
    SyncRelease {
        thread: ThreadId,
        kind: SyncKind,
        /// The sync object's cell address.
        addr: i64,
        time: u64,
    },
    /// A thread resumed past a barrier it had been blocked on (consuming a
    /// `barrier_pass`). The matching epoch release is the single
    /// `Sync { kind: Barrier }` the last arriver emitted; this event marks
    /// the acquire side for every waiter without polluting the recorded
    /// sync order.
    BarrierResume {
        thread: ThreadId,
        /// The barrier's cell address.
        addr: i64,
        time: u64,
    },
}

/// The kind of an [`Event`] — one bit position in an [`EventMask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variants mirror the Event variants
pub enum EventKind {
    FuncEnter,
    FuncExit,
    Sync,
    WeakAcquire,
    WeakRelease,
    WeakForcedRelease,
    Input,
    Output,
    Spawned,
    Exited,
    Load,
    Store,
    SyncRelease,
    BarrierResume,
}

impl Event {
    /// This event's kind.
    pub fn kind(&self) -> EventKind {
        match self {
            Event::FuncEnter { .. } => EventKind::FuncEnter,
            Event::FuncExit { .. } => EventKind::FuncExit,
            Event::Sync { .. } => EventKind::Sync,
            Event::WeakAcquire { .. } => EventKind::WeakAcquire,
            Event::WeakRelease { .. } => EventKind::WeakRelease,
            Event::WeakForcedRelease { .. } => EventKind::WeakForcedRelease,
            Event::Input { .. } => EventKind::Input,
            Event::Output { .. } => EventKind::Output,
            Event::Spawned { .. } => EventKind::Spawned,
            Event::Exited { .. } => EventKind::Exited,
            Event::Load { .. } => EventKind::Load,
            Event::Store { .. } => EventKind::Store,
            Event::SyncRelease { .. } => EventKind::SyncRelease,
            Event::BarrierResume { .. } => EventKind::BarrierResume,
        }
    }
}

/// A set of [`EventKind`]s a supervisor wants delivered.
///
/// The machine queries [`Supervisor::event_mask`] once per execution and
/// skips *constructing* events nobody consumes (unless `collect_trace`
/// keeps the full trace), so a supervisor that only reads sync events
/// never pays for `Vec`-carrying input/output payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EventMask(u16);

impl EventMask {
    /// The empty mask: deliver nothing.
    pub const NONE: EventMask = EventMask(0);
    /// Every event kind (the default supervisor contract).
    pub const ALL: EventMask = EventMask(u16::MAX);

    /// A mask of exactly these kinds.
    pub fn of(kinds: &[EventKind]) -> EventMask {
        let mut m = EventMask::NONE;
        for k in kinds {
            m.0 |= 1 << *k as u16;
        }
        m
    }

    /// Is `kind` in the mask?
    #[inline]
    pub fn contains(self, kind: EventKind) -> bool {
        self.0 & (1 << kind as u16) != 0
    }

    /// Union of two masks.
    pub fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }
}

/// A point whose global order the replayer must be able to enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OrderPoint {
    /// Acquisition of the program mutex at this address.
    Mutex(i64),
    /// Receipt of a condition-variable wakeup on this address.
    Cond(i64),
    /// Acquisition of this weak-lock.
    Weak(WeakLockId),
    /// Creation of a thread (global spawn order; determines thread ids).
    Spawn,
    /// An output system call (`sys_write`/`print`): the kernel arbitrates
    /// the order of output syscalls, so the recorder logs and the replayer
    /// enforces it.
    Output,
    /// An input system call (`sys_read`/`sys_input`). Ordinary replay
    /// feeds inputs by per-thread sequence number and never gates here;
    /// forensic (bisecting) replay additionally pins each input's global
    /// journal position so checkpoint digests stay comparable.
    Input,
}

/// The supervisor: observes events, gates ordering points, supplies input,
/// and injects forced weak-lock releases.
///
/// The default implementations make a no-op supervisor suitable for plain
/// execution. `chimera-replay` implements recording and replaying
/// supervisors; `chimera-profile` implements an observing one.
pub trait Supervisor {
    /// Which event kinds this supervisor's [`Supervisor::on_event`] actually
    /// consumes. The machine queries this once per execution and never
    /// constructs or delivers events outside the mask (the trace collected
    /// under `collect_trace` is unaffected). The default is
    /// [`EventMask::ALL`], so existing supervisors keep seeing everything.
    fn event_mask(&self) -> EventMask {
        EventMask::ALL
    }

    /// True if this supervisor may ever answer
    /// [`Supervisor::forced_release_at`] with `Some` (the replayer does).
    /// When `false`, the machine never polls for injected releases.
    fn injects_forced_releases(&self) -> bool {
        false
    }

    /// Called after every committed event in the mask, in commit order.
    fn on_event(&mut self, _ev: &Event) {}

    /// May `thread` commit the next operation at `point` now? Returning
    /// `false` stalls the thread; the machine polls again after other
    /// ordering events commit. A replayer returns `true` only when the
    /// recorded log says it is this thread's turn.
    fn may_proceed(&mut self, _point: OrderPoint, _thread: ThreadId) -> bool {
        true
    }

    /// Supply the data for a nondeterministic input request, or `None` to
    /// let the machine's simulated input source generate it. A replayer
    /// returns the recorded payload.
    fn input_override(
        &mut self,
        _thread: ThreadId,
        _chan: i64,
        _len: usize,
    ) -> Option<Vec<i64>> {
        None
    }

    /// If the recorded execution forcibly released a weak-lock held by
    /// `thread` at retired-instruction count `icount` (and with the same
    /// parked/running state), return it so the machine replays the
    /// preemption at exactly that point.
    ///
    /// The contract is an icount bound, not a per-step poll: the machine
    /// asks at the points where the answer can change — when `thread`
    /// reaches the count [`Supervisor::next_forced_release`] reported,
    /// after any of its steps that leaves it there, after any injected
    /// release, and after any wake, spawn or exit. Between those points
    /// it may run any thread's steps without asking.
    fn forced_release_at(
        &mut self,
        _thread: ThreadId,
        _icount: u64,
        _parked: bool,
    ) -> Option<WeakLockId> {
        None
    }

    /// The retired-instruction count at which `thread`'s next recorded
    /// forced release is due, if any: the only count at which
    /// [`Supervisor::forced_release_at`] may answer `Some` for `thread`.
    /// The machine bounds the thread's uninterrupted runs by it; it is
    /// re-read whenever an injected release may have been consumed.
    fn next_forced_release(&self, _thread: ThreadId) -> Option<u64> {
        None
    }

    /// Emit a schedule-digest checkpoint every N replay-ordered events
    /// (0 disables checkpointing, the default). When nonzero, the machine
    /// folds every ordered event — sync commits, outputs, inputs,
    /// weak-lock acquisitions, forced releases — into a running FNV digest
    /// of schedule-determined state and calls
    /// [`Supervisor::on_checkpoint`] at each interval boundary.
    ///
    /// The digest deliberately covers only state that is a function of the
    /// replayed orders (event kind, object, thread, payload words, and at
    /// each boundary the committing thread's live registers): a
    /// full-memory hash taken mid-run would also see *other* threads'
    /// in-flight stores, which legitimately differ between a recording and
    /// a conforming replay under different jitter. Retired-instruction
    /// counts are excluded for the same reason — barrier arrival order is
    /// unordered by design and skews them.
    fn checkpoint_interval(&self) -> u64 {
        0
    }

    /// Called at each checkpoint boundary with the number of ordered
    /// events committed so far and the running schedule digest.
    fn on_checkpoint(&mut self, _events: u64, _state_hash: u64) {}

    /// When `true`, a cond signal/broadcast whose waiters are all gated
    /// off by [`Supervisor::may_proceed`] *blocks the signaler* instead of
    /// dropping the wakeup. Plain execution and per-object replay never
    /// need this (their gates always admit some waiter that is present);
    /// a globally-ordered forensic replay does, because the recorded
    /// recipient may not have reached its global turn yet and the wakeup
    /// must not be lost in the meantime.
    fn defers_cond_signals(&self) -> bool {
        false
    }
}

/// The trivial supervisor: no recording, no enforcement.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSupervisor;

impl Supervisor for NullSupervisor {
    /// Plain execution observes nothing, so the machine skips event
    /// construction entirely (unless a trace is being collected).
    fn event_mask(&self) -> EventMask {
        EventMask::NONE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_supervisor_permits_everything() {
        let mut s = NullSupervisor;
        assert!(s.may_proceed(OrderPoint::Spawn, ThreadId(0)));
        assert!(s.input_override(ThreadId(0), 0, 4).is_none());
        assert!(s.forced_release_at(ThreadId(0), 10, false).is_none());
        assert!(s.next_forced_release(ThreadId(0)).is_none());
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId(3).to_string(), "T3");
    }

    #[test]
    fn event_mask_membership() {
        let m = EventMask::of(&[EventKind::Sync, EventKind::Output]);
        assert!(m.contains(EventKind::Sync));
        assert!(m.contains(EventKind::Output));
        assert!(!m.contains(EventKind::Input));
        assert!(EventMask::ALL.contains(EventKind::Exited));
        assert!(!EventMask::NONE.contains(EventKind::Exited));
        let u = m.union(EventMask::of(&[EventKind::Input]));
        assert!(u.contains(EventKind::Input) && u.contains(EventKind::Sync));
    }

    #[test]
    fn event_kind_round_trip() {
        let ev = Event::Exited {
            thread: ThreadId(0),
            time: 1,
        };
        assert_eq!(ev.kind(), EventKind::Exited);
        let ev = Event::Output {
            thread: ThreadId(1),
            data: vec![3],
        };
        assert_eq!(ev.kind(), EventKind::Output);
    }

    #[test]
    fn access_event_kinds_round_trip() {
        let ev = Event::Load {
            thread: ThreadId(1),
            addr: 7,
            access: AccessId(3),
            time: 9,
        };
        assert_eq!(ev.kind(), EventKind::Load);
        let ev = Event::SyncRelease {
            thread: ThreadId(0),
            kind: SyncKind::Mutex,
            addr: 4,
            time: 2,
        };
        assert_eq!(ev.kind(), EventKind::SyncRelease);
        // ALL includes the detector-feed kinds; existing explicit masks
        // (recorder, profiler) do not, so they never see them.
        assert!(EventMask::ALL.contains(EventKind::Store));
        assert!(EventMask::ALL.contains(EventKind::BarrierResume));
        let rec = EventMask::of(&[EventKind::Sync, EventKind::Input]);
        assert!(!rec.contains(EventKind::Load));
    }

    #[test]
    fn null_supervisor_masks_everything_out() {
        let s = NullSupervisor;
        assert_eq!(s.event_mask(), EventMask::NONE);
        assert!(!s.injects_forced_releases());
    }
}
