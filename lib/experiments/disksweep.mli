(** Disk-placement sweep: what the paper's single-spindle testbed could
    not measure.

    Section 4 attributes much of LIBTP-on-LFS's shortfall to the log and
    the database sharing one disk arm: every commit force drags the head
    away from the data. {!Diskset} lets the sweep separate them — a
    dedicated log spindle — and stripe LFS segments round-robin across
    several data spindles. Each configuration runs TPC-B at MPL 1 and 8
    (group commit sized to the MPL) and reports throughput plus per-disk
    utilization, so the artifact shows both the speedup and how evenly
    the stripe spreads the load. *)

val default_mpls : int list

val run :
  ?tps_scale:int ->
  ?txns:int ->
  ?seed:int ->
  ?mpls:int list ->
  ?setup:Txstack.backend ->
  unit ->
  Json.t
(** The [data] block of [BENCH_disksweep.json] ({!Expcommon.sweep_data}),
    on {!Expcommon.tps_config} [tps_scale] (the single shared disk the
    placements edit) and {!Expcommon.spread_scale}. Each
    point carries its [label] (e.g. ["1-shared"], ["1+log"], ["4+log"]),
    [ndisks], [log_disk] and [mpl], the {!Expcommon.run_fields}, then
    [disks]: one busy/seek summary per spindle, data then log, under its
    stat prefix ([disk], [disk0].., or [disklog]). *)

val check : Json.t -> string list
(** The rules a [BENCH_disksweep.json] data block must satisfy: every
    point carries the placement fields; TPS of 1+log and of 4+log beat
    the shared single disk at MPL 8; and the data spindles of a 4-wide
    stripe have busy times within 2x of each other. *)

val print : Json.t -> unit
(** The report of a {!run} data block. *)
