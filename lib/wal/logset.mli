(** A set of parallel WAL streams.

    With [Config.fs.log_streams] = N > 1, transactions are hash-assigned
    to one of N independent {!Logmgr}s — each with its own append buffer,
    force mutex and group-commit rendezvous, each placeable on its own
    spindle — so committers no longer serialize on a single append tail
    (Taurus-style parallel logging). Cross-stream ordering is captured at
    run time as vector-LSN dependencies on the records and reconstructed
    at recovery by {!merged_records}. With N = 1 this degenerates to the
    classic single log (same path, same stats keys). *)

type t

val create :
  Clock.t -> Stats.t -> Config.t -> homes:Vfs.t array -> path:string -> t
(** [create clock stats cfg ~homes ~path] opens [cfg.fs.log_streams]
    streams. Stream [i] lives on [homes.(i mod Array.length homes)] —
    pass one vfs per log spindle to spread the streams — at [path]
    (single stream) or ["path.i"].
    @raise Invalid_argument if [log_streams] is not in [1, 254] or
    [homes] is empty. *)

val n : t -> int
val get : t -> int -> Logmgr.t

val stream_of_txn : t -> int -> int
(** Stream assignment for a transaction id (modulo hash; ids are dense,
    so this round-robins across arrival order). *)

val force_deps : t -> own:int -> Logrec.lsn array -> unit
(** [force_deps t ~own deps] makes every cross-stream dependency
    watermark durable: for each stream [s <> own] with [deps.(s) >= 0],
    force stream [s] through [deps.(s)]. Called {e before} the commit
    record is appended to the transaction's own stream, so that the
    commit can never become durable (even via another committer's group
    force) ahead of the updates it depends on. *)

val force_all : t -> unit
(** Force every stream to its buffered end. *)

val truncate_all : t -> unit

val flushed_total : t -> int
(** Sum of durable bytes across streams — nonzero iff there is anything
    to recover. *)

val merged_records : t -> (int * Logrec.lsn * Logrec.t) list
(** The durable records of all streams, merged into one replay order
    consistent with the dependency partial order (cross-stream update
    chains and commit/abort dep vectors). A dependency pointing at or
    past a stream's durable end was lost in the crash; its value is not
    needed (after-images are absolute, and an overlapping successor
    subsumes the lost intermediate) but its order is, so it is treated
    as a dependency on that stream's entire durable portion —
    everything transitively ordered before the lost record lives in
    that prefix, and waiting for it keeps replay consistent with real
    time. Records stranded when no head is eligible (only possible for
    stream contents no real crash can produce) are dropped and counted
    under ["log.merge_dropped"]. Each element is
    [(stream, lsn, record)]. *)
