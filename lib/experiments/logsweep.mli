(** Parallel-WAL sweep: log-stream count under TPC-B.

    One WAL stream funnels every commit through one group-commit
    rendezvous and one log arm; {!Config.fs}[.log_streams] splits the
    log into n hash-assigned streams, each with its own buffer, force
    mutex and (with a log spindle) its own disk, with commit records
    carrying vector LSNs so recovery can merge the streams in dependency
    order. The sweep runs TPC-B at fixed placement (2 striped data
    spindles + one log spindle per stream, record-grain locks) over
    stream counts {1, 2, 4} and MPLs {8, 16}, reporting throughput,
    commit batching, cross-stream dependency forces and per-stream
    force-latency p99 — so the artifact shows both the parallel-commit
    win and its dependency-force cost. *)

val default_streams : int list
(** [[1; 2; 4]] *)

val default_mpls : int list
(** [[8; 16]] *)

val run :
  ?tps_scale:int ->
  ?txns:int ->
  ?seed:int ->
  ?streams:int list ->
  ?mpls:int list ->
  ?setup:Txstack.backend ->
  unit ->
  Json.t
(** The [data] block of [BENCH_logsweep.json] ({!Expcommon.sweep_data}),
    on {!Expcommon.tps_config} [tps_scale] (before the per-point edits)
    and {!Expcommon.compact_scale}. Each point carries
    its [streams] and [mpl], the {!Expcommon.run_fields}, then
    [mean_commit_batch] (of [log.commit_batch], all streams), [forces]
    (all streams), [dep_checks] (cross-stream dependencies inspected at
    commit), [dep_forces] (those that forced another stream) and
    [force_p99]: per stream, its force-latency p99 seconds, as
    [{stream; p99_s}] with stream ["log"] for a single stream, else
    ["s0"], ["s1"], .... Default [setup] is {!Txstack.Lfs_user}.
    @raise Invalid_argument for {!Txstack.Lfs_kernel}, which has no
    write-ahead log for the streams to split. *)

val check : Json.t -> string list
(** The rules a [BENCH_logsweep.json] data block must satisfy: every
    point carries the stream-sweep fields and a non-empty [force_p99]
    list whose entries name a stream and its [p99_s]; and TPS at 4
    streams beats 1 stream at MPL 16. *)

val print : Json.t -> unit
(** The report of a {!run} data block. *)
