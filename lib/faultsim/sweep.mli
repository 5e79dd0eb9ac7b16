(** Exhaustive crash-point sweeps over transactional workloads.

    A sweep first runs a seeded workload fault-free to count its block
    writes, then repeats it once per chosen crash point: the injector
    cuts the power after exactly that many writes, {!Txstack} crashes
    and recovers the stack, and the oracle checks the durability
    invariant. Everything is deterministic, so a reported failure
    replays from its parameters and crash point alone. *)

type workload = Pages | Tpcb

val workloads : (string * workload) list
(** [pages] and [tpcb], as the faultsim command names them. *)

val workload_name : workload -> string

(** Everything a run depends on besides its crash point. Build it with
    {!params}, which rejects the combinations no workload runs. *)
type params = private {
  backend : Txstack.backend;
  workload : workload;
  seed : int;
  txns : int;
  mpl : int option;  (** [None]: inline, no scheduler *)
  ndisks : int;
  log_disk : bool;
  log_streams : int;
  lock_grain : [ `Page | `Record ];
  nblocks : int;  (** disk size in blocks *)
}

val params :
  ?mpl:int ->
  ?ndisks:int ->
  ?log_disk:bool ->
  ?log_streams:int ->
  ?lock_grain:[ `Page | `Record ] ->
  ?nblocks:int ->
  workload ->
  Txstack.backend ->
  seed:int ->
  txns:int ->
  params
(** A run of [txns] transactions of the workload on the backend, from
    [seed]. Transient read errors are always injected.

    - {b Pages}: random page-sized transactional writes mixed with
      live-verified reads and occasional aborts; the oracle judges every
      page. Group commit is off, so an acknowledged commit has been
      flushed.
    - {b Tpcb}: TPC-B on a small database; after recovery the
      balance-consistency identity must hold and the history count must
      lie in [[acked, acked + 1]]. With [mpl] the transactions run in
      that many worker processes on the discrete-event scheduler with
      group commit enabled (size [mpl], 20 ms timeout), so crash points
      land mid-rendezvous. An acknowledged commit is one whose
      [txn_commit] returned (a parked committer wakes only after its
      batch's force), so the history count must lie in
      [[acked, acked + mpl]].

    [ndisks]/[log_disk] (defaults 1/false) select the multi-disk
    placement of {!Diskset}: for the user backends each dedicated log
    spindle carries a small FFS holding a WAL stream, crashed,
    remounted and fsck'd along with the data file system. [log_streams]
    (default 1) runs that many parallel WAL streams, with [log_disk] one
    spindle each. [lock_grain] (default [`Page]) selects the locking
    granularity; at [`Record] aborted history appends leave zeroed
    holes, which the oracle's hole-tolerant count skips. [nblocks]
    (default 4096) sizes the disk: shrinking it puts the run under live
    cleaning pressure, so crash points land inside segment cleaning and
    hot/cold relocation.
    @raise Invalid_argument if the page workload gets [mpl], or
    [lock_grain] is [`Record] without [mpl] above 1; the message names
    the faultsim flags. *)

type outcome = {
  params : params;
  crash_point : int option;  (** [None]: the fault-free base run *)
  writes : int;  (** block writes observed while armed *)
  crashed : bool;
  violations : string list;  (** empty = the invariant held *)
}

val describe : outcome -> string
(** One human-readable report. A violation's report ends with the
    faultsim command line that replays it: [--backend], [--workload],
    [--txns] and [--seed], every other flag whose value differs from
    the command's default, and [--crash-point] unless this is the base
    run. *)

val run_one : ?crash_point:int -> params -> outcome
(** Run once, crash after [crash_point] block writes (never, if
    omitted), recover, and check the oracle. *)

type sweep_result = {
  total_writes : int;  (** crash points available in the run *)
  points_run : int;
  failures : outcome list;
}

val sweep : ?progress:(outcome -> unit) -> params -> points:int -> sweep_result
(** Run the fault-free base run, then {!run_one} at each crash point:
    [points <= 0] (or >= the write count) runs every crash point;
    otherwise [points] evenly spaced ones. [progress] sees each crash
    point's outcome. *)
