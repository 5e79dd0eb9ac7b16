(** Discrete-event process scheduler.

    Lifts the simulator from multiprogramming level 1 to true multi-user
    concurrency: cooperative simulated processes (OCaml effect-handler
    fibers) run over a pending-event priority queue keyed [(time, seqno)].
    A process runs until it blocks — {!delay}, {!sleep_until}, {!yield},
    or {!wait} on a condition — at which point the scheduler pops the
    next event, advances the shared {!Clock} to its time, and resumes
    that process.

    {b Determinism.} Events at equal simulated times run in the order
    they were scheduled (the strictly increasing [seqno] breaks ties),
    and condition queues are FIFO, so a seeded run is bit-for-bit
    reproducible.

    {b Clock discipline.} The running process advances the shared clock
    directly via [Clock.advance] (CPU and inline device charges
    serialize, as on a single-CPU machine); only blocking operations go
    through the event queue. A scheduler attaches to a clock at
    {!create} time and is discoverable from it via {!of_clock}, which is
    how subsystems deep in the stack (disk, log manager, lock manager)
    opt into blocking behavior without widening their constructors.

    {b Two execution modes.} Inside a process, blocking points park.
    With no scheduler attached, or outside any process (set-up,
    recovery, the single-user runs), nothing waits: costs just advance
    the clock. The modes disagree on disk-bound configurations
    (DESIGN.md §11), so both stay. Subsystems tell them apart only
    through {!current}, {!wait_while} and {!wake}. *)

type t

type cond
(** A condition variable: a FIFO queue of parked processes. *)

exception Stalled of int
(** Raised by {!run} when foreground processes remain but no pending
    event can wake any of them (every process is parked on a condition
    nobody will signal). Carries the number of stuck processes. *)

val create : Clock.t -> t
(** Attach a fresh scheduler to [clock]: installs the clock's sleeper
    hook (so [Clock.sleep_until] from inside a process parks it) and
    registers the pair for {!of_clock} discovery. At most one scheduler
    per clock; a second [create] replaces the first. *)

val detach : t -> unit
(** Undo {!create}: clear the sleeper hook and the registry entry. *)

val of_clock : Clock.t -> t option
(** The scheduler attached to this clock, if any. *)

val in_process : t -> bool
(** True while executing inside a spawned process — i.e. blocking
    operations are legal right now. *)

val current : Clock.t -> t option
(** The scheduler attached to [clock], but only when called from inside
    one of its processes; [None] means nothing may block here and the
    caller takes its non-waiting path. *)

val wait_while : Clock.t -> cond -> (unit -> bool) -> unit
(** [wait_while clock c busy]: from inside a process, park on [c] until
    [busy ()] is false, re-checking after every wake-up. Outside any
    process it returns at once, busy or not: nothing waits there. *)

val wake : Clock.t -> cond -> unit
(** {!broadcast} [c] if a scheduler is attached to [clock], whether or
    not the caller is inside a process; a no-op otherwise. *)

val self : t -> int
(** Identity of the running process: a positive id unique per spawned
    process, stable across suspensions. Only meaningful while
    [in_process] is true. *)

val spawn : ?daemon:bool -> t -> (unit -> unit) -> unit
(** Create a process; it starts when {!run} reaches its start event
    (scheduled at the current time). [daemon] processes (background
    syncer, cleaner, disk server) do not keep {!run} alive: the loop
    exits when all non-daemon processes have finished. *)

val run : t -> unit
(** Drive the event loop until every foreground process has finished.
    Exceptions escaping a process (e.g. an injected crash) propagate out
    of [run] immediately, abandoning all other processes.
    @raise Stalled if foreground processes remain but the event queue
    cannot wake any of them. *)

val delay : t -> float -> unit
(** Park the calling process for a simulated duration. Other processes
    run in the meantime — this is how one process's disk wait overlaps
    another's CPU burst.
    @raise Invalid_argument if the duration is negative or not finite. *)

val sleep_until : t -> float -> unit
(** Park the calling process until an absolute deadline. Always yields,
    even when the deadline has already passed (the process resumes at
    the current time, after already-scheduled same-time events). *)

val yield : t -> unit
(** Reschedule the calling process at the current time, behind any
    already-pending same-time events. *)

val condition : unit -> cond

val wait : t -> cond -> unit
(** Park the calling process on [cond] until {!signal} or {!broadcast}.
    No spurious wakeups, but callers re-checking their predicate in a
    loop stay correct if another waiter runs first. *)

val signal : t -> cond -> unit
(** Wake the longest-parked waiter, scheduling it at the current time.
    No-op if nobody waits. Never blocks the caller. *)

val broadcast : t -> cond -> unit
(** Wake every waiter, in FIFO order, at the current time. *)

val fork_join : Clock.t -> (unit -> unit) list -> unit
(** [fork_join clock thunks] runs each thunk as a process of its own and
    returns when all have finished, so their disk waits overlap: each
    spindle serves its share while the others work. The thunks start in
    list order, one at a time: each start yields, so what the new thunk
    made ready runs first (the disk server of the read it queued picks
    that read before the next thunk queues another). Inside a process
    it spawns the thunks as siblings and parks until the last ends. With
    no scheduler on [clock] it attaches one for the call, runs it to
    completion and detaches it. With a scheduler attached but no process
    running, it runs the thunks in turn, one after another, since the
    caller does not own that scheduler's loop. An exception escaping a
    thunk propagates as from {!run}. *)
