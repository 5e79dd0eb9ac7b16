(** The page-access interface the record library is written against.

    The paper's central comparison runs the {e same} access methods on
    three substrates; a [Pager.t] is that seam. {!plain} goes straight to
    the file system (no transactions); {!wal} routes every page through
    LIBTP's locks, log and buffer pool (the user-level system of
    Section 3); the kernel pager for the embedded system lives in
    [lib/core] next to the transaction manager it belongs to.

    Contract: [get] returns a read-only view of the page, usually the
    cached frame itself (the buffer-pool frame under {!wal} and the
    kernel pager, the file-system cache frame under {!plain}), not a
    copy. Inside {!with_op}, which is a buffer scope (blockpool.mli),
    the view holds its page's bytes until the operation ends: a frame
    the cache drops meanwhile keeps its buffer out of reuse until then,
    so across a park or a later [get] its bytes can change only where
    another process writes that page while it is cached. Outside an
    operation a view lasts until the next call that can evict (a [get],
    a [put], a park). [Btree.insert_rec]'s split decodes an ancestor's
    view after the child's [get]s, which is safe for this reason.
    Never modify it: build the changed page in a buffer of your own and
    hand it to [put] whole (the WAL pager diffs it to log only the
    changed range, Section 3's byte-range logging).

    [put] copies the page before it returns and keeps no reference to
    the caller's buffer, so the access methods build every page they
    write in a buffer borrowed from {!lend} and allocate none of their
    own.

    When [record_grain] is set the pager exposes the hierarchical
    locking hooks of the record-grain protocol: the access methods lock
    individual records to commit ([lock_rec]), hold short-term physical
    latches only across page edits ([latch_file]/[latch_page], released
    by [end_op]), and wrap each logical operation in {!with_op}, which
    retries the body whenever a blocking lock acquisition forced the
    latches to be dropped ({!Op_restart}). *)

exception Op_restart
(** Raised (by the lock hooks) when a lock acquisition had to park the
    process after releasing its latches: any page buffers read so far
    may be stale, so the whole operation must re-run. {!with_op}
    catches it. *)

type t = {
  page_size : int;
  get : int -> bytes;
  put : int -> bytes -> unit;
  record_grain : bool;
  put_sys : int -> bytes -> unit;
      (** Redo-only "system" write, logged outside the transaction: the
          update survives even if the enclosing transaction aborts (used
          for the recno record-count, which is protected by a latch, not
          a lock). Falls back to [put] when the substrate has no such
          distinction. *)
  lock_rec : page:int -> recno:int -> write:bool -> unit;
      (** Record lock, held to commit. May raise {!Op_restart}. *)
  lock_meta : write:bool -> unit;
      (** [write:true]: exclusive meta-page lock to commit (taken by
          structure-modifying operations). [write:false]: the meta
          "pulse" — acquire and immediately drop a shared meta lock, so
          the operation waits out any uncommitted structure modifier
          before trusting the meta it reads. May raise {!Op_restart}. *)
  lock_page : int -> unit;
      (** Exclusive page lock to commit (structure-modification path).
          May raise {!Op_restart}. *)
  lock_file : write:bool -> unit;
      (** Whole-file lock to commit — the scan lock of hierarchical
          locking (a shared file lock conflicts with every writer's IX).
          May raise {!Op_restart}. *)
  latch_file : write:bool -> unit;
      (** File latch: shared for ordinary operations, exclusive to drain
          them before rewriting the structure. Blocks; never restarts. *)
  latch_page : page:int -> write:bool -> unit;
      (** Page latch around a read-modify-write of one page. *)
  end_op : unit -> unit;  (** Release every latch the operation holds. *)
}

val nohooks : page_size:int -> (int -> bytes) -> (int -> bytes -> unit) -> t
(** Build a pager from bare [get]/[put] with every record-grain hook a
    no-op and [record_grain] false (substrate constructors start here
    and override what they support). *)

val lend : t -> (bytes -> 'a) -> 'a
(** [lend t build] runs [build] on a buffer of [t.page_size] bytes from
    the block pool's lent list ({!Blockpool.lend}), one per page size,
    and takes the buffer back when [build] returns or raises. The buffer holds
    whatever its last borrower left, so [build] writes every byte of the
    page it hands to [put] or [put_sys]; it may also decline to write.
    The buffer is [build]'s alone until then, across a park too (a
    [put] that waits for a page lock before it copies), so every other
    build meanwhile borrows another one: the pool grows to the number of
    builds in flight at once and no further. [build] keeps no reference
    to the buffer. *)

val write : t -> int -> (bytes -> unit) -> unit
(** [write t page build]: {!lend} a buffer, let [build] fill the whole
    page, then [put] it. *)

val pooled : page_size:int -> int
(** Buffers {!lend} has allocated for pages of [page_size] bytes, for
    tests. *)

val with_op : t -> (unit -> 'a) -> 'a
(** Run one logical access-method operation inside a buffer scope
    ({!Blockpool.scope}, at both grains), releasing latches on every
    exit and re-running the body on {!Op_restart} when [record_grain]
    is set. *)

val plain : Vfs.t -> Vfs.fd -> t
(** Direct, non-transactional paging (used to bulk-load databases and by
    non-transactional applications). [get] of a page wholly inside the
    file is [Vfs.read_block]'s view of the cached frame; the partial
    last page and pages past the end of file are read into a fresh,
    zero-padded buffer. *)

val wal : Libtp.t -> Libtp.txn -> Vfs.fd -> t
(** User-level transactional paging bound to one transaction. At page
    grain, [get] takes a shared page lock and [put] an exclusive one and
    logs before/after images. At record grain the page locks disappear:
    [get]/[put] move bytes under the latches the access method holds,
    and isolation comes from [lock_rec]/[lock_meta]/[lock_page]. *)
