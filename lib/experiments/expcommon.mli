(** Shared machinery for the paper-reproduction experiments: running the
    TPC-B transaction phase on any of the three stacks of {!Txstack},
    small statistics helpers, and the [BENCH_*.json] artifacts. *)

val wal : Txstack.wal
(** LIBTP's pool, checkpoint interval and log file in every experiment. *)

type tpcb_run = {
  setup : Txstack.backend;
  seed : int;
  result : Tpcb.result;
  lock_blocks : int;  (** times a process parked on a lock (0 inline) *)
  deadlocks : int;  (** transactions aborted by deadlock detection *)
  restarts : int;  (** deadlock victims retried *)
  cleaner_stall_s : float;  (** total time the system stalled cleaning *)
  cleaner_max_stall_s : float;
  stats : Stats.t;  (** the machine's stats — counters, histograms, trace *)
}

val tps_config : ?config:Config.t -> int -> Config.t
(** [tps_config ?config tps]: [config] if given, else the paper's
    machine rated at [tps] TPS — every parameter scaled by [tps / 10],
    which keeps its cache/database/disk ratios. *)

val spread_scale : int -> Tpcb.scale
(** The MPL and disk sweeps' TPC-B scale at [tps] TPS: the official
    100 000 accounts per TPS, with tellers and branches spread to 200
    per TPS each. TPC-B's official ratios leave the whole teller and
    branch relations on one B-tree page, and page-grain 2PL holds those
    locks through the commit flush, so every transaction would serialize
    on them and no MPL could batch a commit. Spreading them is the
    concurrency analogue of the spec's "scale the database with the
    load" provision. *)

val compact_scale : int -> Tpcb.scale
(** The cleaner and log sweeps' TPC-B scale at [tps] TPS: 2 000
    accounts, 200 tellers and 200 branches per TPS — a compact hot set
    that stays buffer-pool resident, so the workload is bound by the
    log, not by data seeks. *)

val run_tpcb :
  ?trace:int ->
  ?prepare:(Txstack.machine -> Vfs.t -> Lfs.t option -> unit) ->
  ?mpl:int ->
  config:Config.t ->
  scale:Tpcb.scale ->
  txns:int ->
  seed:int ->
  Txstack.backend ->
  tpcb_run
(** Boot a fresh machine and its stack with the database built
    ({!Txstack.boot_tpcb}), run [txns] transactions, and report
    throughput plus cleaner interference. Without [?mpl] the
    transactions run inline ({!Tpcb.run}); with [~mpl:n] (even [n = 1])
    the machine boots with a {!Sched} attached to its clock, the LFS
    syncer/cleaner run as background processes, and [n] worker processes
    drive the workload ({!Tpcb.run_sched}). [?trace] attaches an
    event-trace ring of that capacity to the machine's stats before the
    run; retrieve it via [Stats.trace run.stats]. [?prepare] runs after
    the database is built but before the measured window — experiments
    use it to shape the disk (e.g. prefill to a target utilization for
    cleaner studies); it gets the LFS handle when the setup has one. *)

val mean : float list -> float
val stdev : float list -> float

val pp_header : string -> unit
(** Print a section banner for the experiment reports. *)

val pp_sweep_header : string -> Json.t -> unit
(** [pp_sweep_header title data]: the banner of a sweep report, naming
    the [setup], the account count and the [txns] of the {!sweep_data}
    block. *)

(** {2 Machine-readable benchmark artifacts}

    Every experiment driver can serialize its results as a [BENCH_*.json]
    document: [{meta: {name; schema; generator; config_fingerprint;
    config}, data: ...}]. The fingerprint lets tooling group artifacts
    produced under identical configurations. *)

val write_bench : name:string -> config:Config.t -> Json.t -> string
(** Wrap [data] in the standard [{meta; data}] envelope, write it as
    [BENCH_<name>.json] (pretty-printed) into [$BENCH_DIR] (or the
    current directory) and return the path. *)

val scale_json : Tpcb.scale -> Json.t
(** The TPC-B relation sizes: [{accounts; tellers; branches}]. *)

val p99 : Stats.t -> string -> float
(** The 99th percentile of histogram [key]; [0.0] if it is absent or
    empty. *)

val run_fields : tpcb_run -> (string * Json.t) list
(** The fields every sweep point and Figure 4 run carries for its TPC-B
    run, in this order: [tps], [elapsed_s], [txns], [max_latency_s],
    [lock_blocks], [deadlocks], [restarts], [cleaner_stall_s] and
    [stats], the machine's full stats (counters + histograms, including
    the [tpcb.txn] latency histogram). A sweep builds each point once,
    as [Json.Obj (labels @ run_fields run @ extras)], and its [print] and
    [check] both read that object. *)

val tpcb_run_json : tpcb_run -> Json.t
(** One run of Figure 4: [setup] and [seed], the {!run_fields}, and
    [cleaner_max_stall_s]. *)

val sweep_data :
  name:string ->
  ?setup:Txstack.backend ->
  scale:Tpcb.scale ->
  txns:int ->
  ?extra:(string * Json.t) list ->
  Json.t list ->
  Json.t
(** A sweep's [data] block: [figure] (= [name]), [setup] when given,
    [scale], [txns], [points], then [extra]. *)

val report :
  json:bool ->
  name:string ->
  config:Config.t ->
  print:('a -> unit) ->
  to_json:('a -> Json.t) ->
  'a ->
  unit
(** [report ~json ~name ~config ~print ~to_json x]: [print x], then with
    [json] write [to_json x] as [BENCH_<name>.json] ({!write_bench}) and
    print ["wrote <path>"]. *)

(** {2 Artifact rules}

    Helpers for the [check] function every experiment exports over the
    [data] block of its [BENCH_*.json] artifact. A check returns one
    message per violated rule, [[]] when the artifact holds. *)

val points : ?key:string -> Json.t -> Json.t list
(** The list under [key] (default ["points"]) of a data block; [[]] if it
    is absent or not a list. *)

val num : string -> Json.t -> float
(** Numeric field [key] of an object; [0.0] if absent or not a number. *)

val str : string -> Json.t -> string
(** String field [key] of an object; ["?"] if absent or not a string. *)

val missing_fields : string -> string list -> Json.t -> string list
(** [missing_fields what fields p]: ["<what> missing field <f>"] for every
    [f] of [fields] absent from [p]. *)

val matches : (string * Json.t) list -> Json.t -> bool
(** [matches fields p]: [p] carries every [(key, value)] of [fields].
    Numbers compare by value, whether [Int] or [Float]. *)

val find_point : (string * Json.t) list -> Json.t list -> Json.t option
(** The first point that {!matches} [fields]. *)

val check_sweep :
  name:string ->
  fields:string list ->
  (Json.t list -> string list) ->
  Json.t ->
  string list
(** [check_sweep ~name ~fields rules data]: a sweep's [data.points] must
    be non-empty (["<name>: data.points missing or empty"]), every point
    must carry [fields] (["<name> point missing field <f>"]), and then
    [rules points] must hold. *)
