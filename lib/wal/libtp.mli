(** LIBTP — the user-level transaction system of Section 3.

    Combines the log manager, user-level buffer pool, lock manager and
    transaction management into the conventional architecture of
    Figure 2: two-phase page-level locking, before/after-image logging
    with redo/undo recovery, STEAL/NO-FORCE buffering, and (optional)
    group commit. Everything lives in user space and synchronizes with
    user-level mutexes — two system calls each on hardware without
    test-and-set, which is the paper's explanation for the user/kernel
    performance difference.

    The environment runs on any {!Vfs.t}, which is how the same code is
    measured on both the log-structured and the read-optimized file
    systems. *)

type t

type txn

exception Deadlock_abort of int
(** The request would deadlock; the transaction has been aborted (locks
    released, updates undone) before the exception is raised. A request
    that merely conflicts parks the calling scheduler process until the
    lock is free ({!Lockmgr.acquire_blocking}); outside any process it
    raises {!Lockmgr.Blocked_outside_process}. *)

val open_env :
  Clock.t ->
  Stats.t ->
  Config.t ->
  Vfs.t ->
  ?log_vfss:Vfs.t array ->
  ?pool_pages:int ->
  ?checkpoint_every:int ->
  log_path:string ->
  unit ->
  t
(** Open a transaction environment. If the logs already contain records
    (an unclean shutdown), crash recovery runs first: merge the streams
    in dependency order, prefetch the pages the updates name
    ([Vfs.t]'s [prefetch], in the order redo first reads them), replay
    each page once, checkpoint. Replay is per page: under one pool latch
    ({!Bufpool.apply}) a page gets its durable updates in merged order,
    then its loser transactions' before-images newest first. Records of
    different pages commute, so the bytes and the per-stream watermarks
    are those of redoing the whole log in merged order and then undoing
    the losers.
    [log_vfss] (default, or when empty: the data [Vfs.t] alone) are the
    file systems holding [log_path]: stream [i] lives on
    [log_vfss.(i mod len)]. Pass the file system of a dedicated log
    spindle to separate WAL forces from data traffic, or several to
    spread [Config.fs.log_streams] > 1 streams across spindles.
    [checkpoint_every] (default 500) is the number of committed
    transactions between sharp checkpoints. *)

val begin_txn : t -> txn
val txn_id : txn -> int

val grain : t -> [ `Page | `Record ]
(** The configured locking granularity ([Config.fs.lock_grain]). *)

val read_page : t -> txn -> file:int -> page:int -> bytes
(** Shared-lock the page and return the pooled copy (read-only). *)

val write_page : t -> txn -> file:int -> page:int -> bytes -> unit
(** Exclusive-lock the page, log the changed byte range (before and
    after images), and apply it to the pool. A no-op if [bytes] equals
    the current contents. *)

(** {2 Record-grain protocol}

    At record grain the access methods lock individual records to
    commit and hold short-term page latches only across physical edits.
    The discipline: a process never parks on a {e lock} while holding
    latches — [lock_restartable] drops them first and tells the caller
    to re-run the operation — so latch holders always make progress and
    latch waits need no deadlock detection. *)

val lock_restartable :
  t -> txn -> Lockmgr.obj -> Lockmgr.mode -> [ `Granted | `Restart ]
(** Acquire a lock from inside an access-method operation. [`Restart]
    means the process had to release its latches and park: the lock is
    now held, but the operation must re-run because its page buffers may
    be stale. Raises [Deadlock_abort] after aborting the transaction if
    waiting would deadlock. *)

val latch : t -> txn -> Lockmgr.obj -> Lockmgr.mode -> unit
(** Acquire a physical latch, blocking (parked under the scheduler)
    until granted. *)

val end_op : t -> txn -> unit
(** Release every latch the transaction holds (end of one access-method
    operation). *)

val read_page_raw : t -> txn -> file:int -> page:int -> bytes
(** Pool read without a page lock (record grain: isolation comes from
    record locks, structural stability from the file latch). The read
    still feeds the transaction's cross-stream dependency vector: a
    committed reader must not survive a crash that loses the writer it
    observed. *)

val write_page_raw : t -> txn -> file:int -> page:int -> bytes -> unit
(** Logged, undoable write without a page lock (record grain). *)

val write_page_sys : t -> txn -> file:int -> page:int -> bytes -> unit
(** Redo-only system write logged as transaction 0: recovery replays it
    but never undoes it, even if [txn] aborts. *)

val diff_range : bytes -> bytes -> (int * int) option
(** [(off, len)] of the smallest byte range where two equal-length pages
    differ, [None] if they are equal: the range a page write logs as its
    before- and after-image. *)

val commit : t -> txn -> unit
(** Force the log through this transaction's commit record (honouring
    group commit) and release its locks. With multiple streams the
    cross-stream dependency watermarks are forced durable first, then
    the commit record — carrying them as a vector LSN — is appended and
    forced on the transaction's own stream. *)

val abort : t -> txn -> unit
(** Undo the transaction's updates from its in-memory undo chain,
    log the abort, and release its locks. *)

val checkpoint : t -> unit
(** Sharp checkpoint: flush all dirty pages, truncate every log stream,
    and seed each with a fresh checkpoint record. Skipped if
    transactions are active. *)

val pool : t -> Bufpool.t

val log : t -> Logmgr.t
(** Stream 0 — the whole log when [Config.fs.log_streams] is 1. *)

val logs : t -> Logset.t
val locks : t -> Lockmgr.t
val page_size : t -> int

val recovered_losers : t -> int
(** Number of loser transactions undone by recovery at [open_env]. *)
