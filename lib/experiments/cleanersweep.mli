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
  Json.t
(** The [data] block of [BENCH_cleanersweep.json]
    ({!Expcommon.sweep_data}), on {!Expcommon.tps_config} [tps_scale]
    (before the per-arm edits) and {!Expcommon.compact_scale}. Each
    point carries its [util_pct], [mpl], [policy], [segregate] and [arm]
    ({!arm_key}), the {!Expcommon.run_fields}, then [stall_p99_s];
    [write_cost], blocks moved per block reclaimed over the whole run (0
    if nothing was reclaimed); [blocks_moved] and [blocks_reclaimed];
    [segments_cleaned] (counter [cleaner.segments]); [cleans_observed],
    the sample count of the [cleaner.clean] histogram, which must equal
    [segments_cleaned] (dead-segment reclaims observe a zero);
    [idle_cleans], background cleans taken while the disk was idle;
    [backoffs], daemon wakeups skipped because the queue was deep; and
    [cold_segments], relocation segments opened by segregation. *)

val check : Json.t -> string list
(** The rules a [BENCH_cleanersweep.json] data block must satisfy: every
    point carries the sweep fields and [segments_cleaned =
    cleans_observed]; and where MPL-8 points of both arms exist at the
    lowest and highest swept utilization, cost-benefit+seg retains a
    larger share of its lowest-utilization TPS than greedy does. *)

val print : Json.t -> unit
(** The report of a {!run} data block. *)
