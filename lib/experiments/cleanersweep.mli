(** Adaptive-cleaner sweep: utilization x MPL x victim policy x hot/cold
    segregation under TPC-B.

    Cleaning cost is the LFS overhead that grows with disk utilization
    (Section 5.1's stalls are its foreground face). Each cell prefills
    the disk with static fill files to the target utilization, runs
    TPC-B on the kernel-embedded setup, and reports throughput, cleaner
    stall p99, and the per-victim write cost (blocks moved per block
    reclaimed). Cost-benefit victim selection with cold-survivor
    segregation should lose less throughput between the emptiest and the
    fullest cell than greedy without segregation — that is the claim
    [BENCH_cleanersweep.json] is checked against. *)

type arm = { policy : [ `Greedy | `Cost_benefit ]; segregate : bool }

type point = {
  util_pct : int;
  mpl : int;
  arm : arm;
  run : Expcommon.tpcb_run;
  stall_p99_s : float;
  write_cost : float;
      (** blocks moved per block reclaimed, whole run; 0 if nothing was
          reclaimed *)
  blocks_moved : int;
  blocks_reclaimed : int;
  segments_cleaned : int;  (** counter ["cleaner.segments"] *)
  cleans_observed : int;
      (** sample count of the ["cleaner.clean"] histogram — must equal
          [segments_cleaned] (dead-segment reclaims observe a zero) *)
  idle_cleans : int;  (** background cleans taken while the disk was idle *)
  backoffs : int;  (** daemon wakeups skipped because the queue was deep *)
  cold_segments : int;  (** relocation segments opened by segregation *)
}

type t = {
  points : point list;
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;  (** the base configuration before per-arm edits *)
}

val spread_scale : int -> Tpcb.scale
(** The sweep's TPC-B scale at [tps] TPS: 2 000 accounts, 200 tellers
    and 200 branches per TPS — a compact hot set over a log-bound
    workload. *)

val prefill : util_pct:int -> Txstack.machine -> Vfs.t -> Lfs.t option -> unit
(** A [~prepare] hook for {!Expcommon.run_tpcb}: fill the LFS with static
    files until [util_pct] % of its segments are in use (never so far
    that the cleaner's low-water mark is reached), then sync. No-op
    without an LFS. *)

val default_utils : int list
(** [[50; 70; 80; 90]] *)

val default_mpls : int list
(** [[1; 8]] *)

val default_arms : arm list
(** Both policies, each with and without segregation. *)

val arm_key : arm -> string
(** [greedy], [greedy+seg], [cost-benefit] or [cost-benefit+seg]. *)

val run :
  ?tps_scale:int ->
  ?txns:int ->
  ?seed:int ->
  ?utils:int list ->
  ?mpls:int list ->
  ?arms:arm list ->
  unit ->
  t

val to_json : t -> Json.t
(** The [data] block of [BENCH_cleanersweep.json]; every point carries
    the machine's full stats. *)

val check : Json.t -> string list
(** The rules a [BENCH_cleanersweep.json] data block must satisfy: every
    point carries the sweep fields and [segments_cleaned =
    cleans_observed]; and where MPL-8 points of both arms exist at the
    lowest and highest swept utilization, cost-benefit+seg retains a
    larger share of its lowest-utilization TPS than greedy does. *)

val print : t -> unit
