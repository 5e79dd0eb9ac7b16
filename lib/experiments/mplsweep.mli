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

val default_mpls : int list

val default_groups : (int * float) list
val default_grains : [ `Page | `Record ] list

val grain_key : [ `Page | `Record ] -> string

val with_grain : Config.t -> [ `Page | `Record ] -> Config.t
(** The configuration with its lock grain replaced. *)

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
  Json.t
(** The [data] block of [BENCH_mplsweep.json] ({!Expcommon.sweep_data}),
    on [config] (default {!Expcommon.tps_config} [tps_scale]) and
    {!Expcommon.spread_scale}. Each point carries its [mpl],
    [group_size], [group_timeout_s] and [lock_grain], the
    {!Expcommon.run_fields}, then [mean_commit_batch] (1.0 if no
    sample), [group_flushes], [group_commit_wait_s] and
    [lock_wait_p99_s]; [legacy_mpl1] lists the reference runs. Default
    [setup] is {!Txstack.Lfs_user}: record granularity changes
    end-to-end behaviour only in the user-level system (the embedded
    kernel manager keeps page-exclusive writes). *)

val check : Json.t -> string list
(** The rules a [BENCH_mplsweep.json] data block must satisfy: every
    point carries the sweep fields; some point batches commits (mean
    batch > 1) when MPL > 1 and group size > 1 were swept; TPS at MPL 8
    beats MPL 1 at the same group size (> 1) and lock grain; and
    record-grain TPS beats page grain at MPL 16 and the same group size. *)

val print : Json.t -> unit
(** The report of a {!run} data block. *)
