(** The embedded (kernel) transaction manager — the paper's contribution
    (Section 4).

    Transaction support lives inside the log-structured file system:

    - transaction protection is a {e file attribute} (set with
      {!protect}); the read/write interface is unchanged, and the three
      new "system calls" are {!txn_begin}, {!txn_commit} and {!txn_abort};
    - concurrency control is a lock table in the file-system state, keyed
      by (file, block) and chained per transaction (Section 4.1);
    - buffer-cache integration (Section 4.2): page reads take a shared
      lock, writes an exclusive one; a transaction's dirty buffers go on
      the inode's transaction list and are pinned in memory until the
      transaction resolves;
    - {e no log is kept}: the no-overwrite policy of LFS preserves
      before-images on disk, and commit forces the transaction's dirty
      pages to the log as a segment write, which makes the after-images
      durable (Section 4.3). Abort simply invalidates the dirty buffers,
      so the next read returns to the on-disk (pre-transaction) state;
    - group commit (Section 4.4) can delay the commit-time flush to batch
      several transactions' pages into one larger segment write.

    The kernel synchronizes with in-kernel mutexes inside an
    already-entered system call — one trap per operation, versus the two
    semaphore system calls per mutex the user-level system pays on
    hardware without test-and-set. That asymmetry is the measured
    user/kernel gap of Figure 4. *)

type t

type txn

exception Deadlock_abort of int
(** The request would deadlock; the transaction has been aborted (its
    buffers invalidated, its locks released) before the exception is
    raised. A request that merely conflicts parks the calling scheduler
    process until the lock is free ({!Lockmgr.acquire_blocking});
    outside any process it raises {!Lockmgr.Blocked_outside_process}. *)

exception Too_large
(** The transaction dirtied more pages than the buffer cache can pin
    (implementation restriction 1 of Section 4.5). *)

val create : Lfs.t -> t
(** Attach a transaction manager to a mounted LFS. *)

val protect : t -> string -> unit
(** Mark a file transaction-protected ("like protections or access
    control lists ... turned on or off through a provided utility"). *)

val unprotect : t -> string -> unit

val txn_begin : t -> txn
val txn_id : txn -> int

val read_page : t -> txn -> inum:int -> page:int -> bytes
(** Read a page of a transaction-protected file under a shared lock. On
    an unprotected file no lock is taken (transaction calls "have no
    effect on unprotected files"). The returned bytes are the kernel
    buffer: callers must not mutate them. *)

val write_page : t -> txn -> inum:int -> page:int -> bytes -> unit
(** Write a full page under an exclusive lock. The buffer joins the
    transaction's dirty list and stays in memory until commit or abort. *)

val txn_commit : t -> txn -> unit
(** Move the transaction's buffers to the dirty list and force them to
    the log (one segment write), then release the lock chain. With a
    non-zero group-commit timeout the flush may be deferred: the
    committing process sleeps until [group_commit_size] commits have
    accumulated or the timeout expires, and the next event past the
    deadline (a new {!txn_begin}, or {!flush_commits}) performs the
    shared flush. *)

val flush_commits : t -> unit
(** Force any commits deferred by group commit to disk now. Call this
    before unmounting or crashing deliberately: deferred commits are
    exactly as durable as their flush, and the file system's own [sync]
    does not know about them. *)

val txn_abort : t -> txn -> unit
(** Invalidate the transaction's dirty buffers — the on-disk
    before-images become current again — and release the lock chain. *)

val pager : t -> txn -> inum:int -> Pager.t
(** Page-access interface for the record library, bound to [txn]. *)

val locks : t -> Lockmgr.t
