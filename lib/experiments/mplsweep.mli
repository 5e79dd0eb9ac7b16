(** Multiprogramming-level sweep (MPL x group-commit configuration).

    The paper measured everything at MPL 1 and conceded that "group
    commit provides no benefit" there (Section 4.4). On the
    discrete-event scheduler this experiment sweeps MPL over
    [{1,2,4,8,16}] crossed with group-commit [(size, timeout)]
    configurations crossed with the locking granularity
    ([`Page] vs [`Record], see {!Lockmgr}) and reports, per point:
    throughput, the mean commit batch size actually achieved,
    flush/force counts, lock blocks, deadlocks, rendezvous wait time and
    the p99 lock wait. A run of the no-scheduler MPL-1 driver
    ({!Tpcb.run}) per group configuration is included as a reference:
    on this disk-bound configuration it does not match the scheduler's
    MPL 1 (DESIGN.md §11). *)

type point = {
  mpl : int;
  group_size : int;
  group_timeout_s : float;
  lock_grain : [ `Page | `Record ];
  run : Expcommon.tpcb_run;
  mean_batch : float;  (** mean committers per flush (1.0 if no sample) *)
  group_flushes : int;
  group_commit_wait_s : float;
  lock_wait_p99_s : float;  (** p99 time a transaction spent parked on a lock *)
}

type t = {
  points : point list;
  legacy_mpl1 : (int * float * float) list;
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;
  setup : Txstack.backend;
}

val default_mpls : int list

val spread_scale : int -> Tpcb.scale
(** The sweep's TPC-B scale at [tps] TPS: the official 100 000 accounts
    per TPS, with tellers and branches spread to 200 per TPS each so
    that page-grain locking does not serialize every transaction on
    their pages. The disk sweep runs on the same scale. *)

val default_groups : (int * float) list
val default_grains : [ `Page | `Record ] list

val grain_key : [ `Page | `Record ] -> string

val run :
  ?config:Config.t ->
  ?tps_scale:int ->
  ?txns:int ->
  ?seed:int ->
  ?mpls:int list ->
  ?groups:(int * float) list ->
  ?grains:[ `Page | `Record ] list ->
  ?setup:Txstack.backend ->
  unit ->
  t
(** Default [setup] is {!Txstack.Lfs_user}: record granularity changes
    end-to-end behaviour only in the user-level system (the embedded
    kernel manager keeps page-exclusive writes). *)

val to_json : t -> Json.t
(** The [data] block of [BENCH_mplsweep.json]. *)

val check : Json.t -> string list
(** The rules a [BENCH_mplsweep.json] data block must satisfy: every
    point carries the sweep fields; some point batches commits (mean
    batch > 1) when MPL > 1 and group size > 1 were swept; TPS at MPL 8
    beats MPL 1 at the same group size (> 1) and lock grain; and
    record-grain TPS beats page grain at MPL 16 and the same group size. *)

val print : t -> unit
