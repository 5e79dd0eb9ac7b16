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

type disk_stat = {
  prefix : string;  (** stat prefix: [disk], [disk0].., or [disklog] *)
  busy_s : float;
  seek_s : float;
  seeks : int;
  requests : int;
  blocks_read : int;
  blocks_written : int;
}

type point = {
  label : string;  (** e.g. ["1-shared"], ["1+log"], ["4+log"] *)
  ndisks : int;
  log_disk : bool;
  mpl : int;
  run : Expcommon.tpcb_run;
  disks : disk_stat list;  (** one entry per spindle, data then log *)
}

type t = {
  points : point list;
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;  (** the base (single shared disk) configuration *)
  setup : Txstack.backend;
}

val default_mpls : int list

val run :
  ?tps_scale:int ->
  ?txns:int ->
  ?seed:int ->
  ?mpls:int list ->
  ?setup:Txstack.backend ->
  unit ->
  t

val to_json : t -> Json.t
(** The [data] block of [BENCH_disksweep.json]; every point carries its
    per-disk busy/seek summary and the machine's full stats (including
    the per-spindle seek histograms). *)

val check : Json.t -> string list
(** The rules a [BENCH_disksweep.json] data block must satisfy: every
    point carries the placement fields; TPS of 1+log and of 4+log beat
    the shared single disk at MPL 8; and the data spindles of a 4-wide
    stripe have busy times within 2x of each other. *)

val print : t -> unit
