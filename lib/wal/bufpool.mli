(** User-level buffer pool (the LRU cache of database pages that LIBTP
    keeps in shared memory, Section 3).

    STEAL / NO-FORCE: dirty pages may be evicted before commit (after
    forcing the log up to the page's last update — the WAL rule) and are
    not forced at commit. Note that pages read here travel through the
    kernel's buffer cache too; that double caching is inherent to the
    user-level architecture the paper compares against. *)

type t

val create : Clock.t -> Stats.t -> Config.t -> Vfs.t -> Logset.t -> pages:int -> t

val page_size : t -> int

val get : t -> file:int -> page:int -> bytes
(** The cached page contents (loaded from the file system on a miss,
    zero-filled past end of file). The returned bytes are the pool's
    buffer: callers must treat them as read-only and go through
    {!apply} for changes. Charges a pool latch (user mutex). *)

type update = { off : int; data : bytes; stream : int; lsn : Logrec.lsn }
(** One image for a page: [data] overwrites the bytes at [off], and log
    stream [stream] describes the change at [lsn]. *)

val apply : t -> file:int -> page:int -> update list -> unit
(** Apply the page's images in list order under one pool latch (loading
    the page on a miss under the same latch), marking it dirty. Each
    image raises the page's watermark in its stream, and the last one
    becomes the page's last writer ({!chain}). The WAL rule in
    {!flush_all} / eviction write-back forces every stream with an
    update to the page before the page reaches disk. A running
    transaction applies one image per call; recovery applies all of a
    page's images in one. *)

val chain : t -> file:int -> page:int -> int * Logrec.lsn
(** The page's last writer as [(stream, lsn)] — the cross-stream chain
    pointer for the page's next update record — or [(-1, null_lsn)] if
    the page has no logged update since the last checkpoint. *)

val merge_deps : t -> file:int -> page:int -> Logrec.lsn array -> unit
(** Max-merge the page's per-stream watermark vector into [deps] (the
    reading/writing transaction's dependency vector) — skipping entries
    not yet flushed in their stream: those belong to concurrent holders
    of {e other} records on the page (record-grain locking), whose bytes
    this transaction neither read nor replaced. A real dependency's
    writer committed — and so flushed — before its lock could pass on. *)

val reset_lsns : t -> unit
(** Forget all page watermarks — required after the logs are truncated
    at a checkpoint, so stale LSNs don't point past the new log end. *)

val flush_all : t -> unit
(** Write every dirty page back (checkpoint); forces the log first. *)
