(** Hierarchical (multi-granularity) lock manager with lock chains per
    transaction and waits-for deadlock detection.

    The lock-name space is a tree of file -> page -> record nodes
    (Gray's granular locking): a transaction that locks a record takes
    intention modes on the record's page and file first, so a
    conflicting whole-page or whole-file request is detected at the
    coarser node without enumerating records. The classic five modes and
    their compatibility matrix:

    {v
              IS    IX    S     SIX   X
        IS    yes   yes   yes   yes   no
        IX    yes   yes   no    no    no
        S     yes   no    yes   no    no
        SIX   yes   no    no    no    no
        X     no    no    no    no    no
    v}

    [acquire] takes the intention locks on ancestors automatically
    (IS below Shared/IS requests, IX below Exclusive/IX/SIX ones), and
    re-requests by a holder fold with the held mode through the mode
    lattice ([sup]), so a Shared holder asking Exclusive upgrades and an
    IX holder asking Shared correctly lands on SIX.

    When a transaction accumulates too many record locks on one page
    (the [?escalation] threshold of [create]), the manager trades them
    for a single page lock covering the same records — Shared if every
    record lock was Shared, else Exclusive. Escalation never blocks: if
    the page grant would conflict it is skipped and retried on the next
    record acquire.

    [acquire] never blocks: a conflicting request returns [`Would_block]
    and registers the waits-for edges. A request that would close a
    cycle in the waits-for graph — which may now pass through intention
    holders — returns [`Deadlock] instead. [acquire_blocking] is the one
    place a request waits: it parks the calling {!Sched} process until
    a release, abort or grant clears its wait edges, then retries. A
    request that must wait outside any scheduler process is an error
    ({!Blocked_outside_process}): the single-user runs never conflict.

    A separate latch table provides short-term physical page latches
    (Shared/Exclusive only, no deadlock detection): access methods hold
    latches only across a page edit while record locks persist to
    commit. Latch waiters park the same way ([latch_blocking]). Latch
    acquisition is strictly top-down and latch holders never block on
    locks, so latch waits always make progress. *)

type mode = IS | IX | Shared | SIX | Exclusive

type obj =
  | File of int  (** whole file *)
  | Page of int * int  (** (file, page) *)
  | Rec of int * int * int  (** (file, page, record-on-page) *)

type outcome =
  [ `Granted  (** lock acquired (or already held at this or a stronger mode) *)
  | `Would_block of int list  (** conflicting holders; wait edges recorded *)
  | `Deadlock  (** waiting would close a cycle; caller should abort *)
  ]

exception Blocked_outside_process of int * int list
(** [(requester, blockers)]: a blocking request had to wait, but the
    caller is not running inside a scheduler process, so nothing could
    ever wake it. *)

type t

val create :
  ?escalation:int -> ?metrics:string -> Clock.t -> Stats.t -> Config.cpu -> t
(** [escalation] is the per-(transaction, page) record-lock count at
    which the manager escalates to a page lock; defaults to [max_int]
    (never). [metrics] (default ["lock"]) prefixes the counters and
    times the blocking calls record: [<metrics>.lock_blocks],
    [<metrics>.lock_wait], [<metrics>.latch_blocks] and
    [<metrics>.latch_wait]. *)

val compatible : mode -> mode -> bool
(** The multi-granularity compatibility matrix. *)

val sup : mode -> mode -> mode
(** Least upper bound in the mode lattice
    (IS < IX < X, IS < S < SIX < X, IX < SIX; sup S IX = SIX). *)

val acquire : t -> txn:int -> obj -> mode -> outcome
(** Request a lock, taking intention locks on all ancestors first.
    Upgrades fold through [sup] and are granted in place when no other
    holder conflicts with the folded mode. Repeated requests at an equal
    or weaker mode are no-ops. *)

val acquire_blocking :
  ?on_wait:(unit -> unit) ->
  t ->
  txn:int ->
  obj ->
  mode ->
  [ `Granted | `Waited | `Deadlock ]
(** [acquire], parking the calling process while the request conflicts:
    [`Waited] means granted after at least one park. Each park charges a
    context switch, counts [<metrics>.lock_blocks] and records the time
    parked in [<metrics>.lock_wait]. [on_wait] runs once, before the
    first park. [`Deadlock] (at the first try or a retry) leaves the
    transaction's locks held; the caller aborts it.
    @raise Blocked_outside_process if the request must wait outside any
    scheduler process. *)

val release : t -> txn:int -> obj -> unit
(** Early release of a single lock (used by non-two-phase callers).
    Ancestor intention locks are left in place; [release_all] drops
    them. No-op if not held. *)

val release_all : t -> txn:int -> unit
(** Commit/abort path: walk the transaction's lock chain, release
    everything, and clear its wait edges. *)

val cancel_wait : t -> txn:int -> unit
(** Forget the transaction's wait edges (lock and latch) without
    releasing anything. *)

val holds : t -> txn:int -> obj -> mode option
val chain : t -> txn:int -> (obj * mode) list
(** The transaction's lock chain (most recently acquired first),
    including automatically acquired intention locks. *)

val locked_objects : t -> int
(** Number of nodes in the lock table with at least one holder —
    intention-locked ancestors count. *)

val waiting : t -> txn:int -> bool

val blockers : t -> txn:int -> int list
(** The live blocker list of the transaction's pending request ([[]] if
    it is not waiting). Release, abort and grant re-derive every
    affected waiter's blockers from the lock table, so these edges never
    go stale — a request whose conflicts have all released is dropped
    from the graph entirely. *)

(** {2 Latches} *)

val latch :
  t -> owner:int -> obj -> mode -> [ `Granted | `Would_block of int list ]
(** Acquire a short-term physical latch ([Shared] or [Exclusive] only;
    other modes raise [Invalid_argument]). No deadlock detection: a
    conflicting request registers a latch wait and returns the
    blockers. *)

val latch_blocking : t -> owner:int -> obj -> mode -> unit
(** [latch], parking the calling process until granted; parks count
    [<metrics>.latch_blocks] and [<metrics>.latch_wait].
    @raise Blocked_outside_process if the latch must wait outside any
    scheduler process. *)

val unlatch : t -> owner:int -> obj -> unit
val release_latches : t -> owner:int -> unit
(** Drop every latch the owner holds and its pending latch wait. *)

val latched : t -> owner:int -> (obj * mode) list
