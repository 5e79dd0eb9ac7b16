(** Figure 4 — Transaction Performance Summary.

    TPC-B throughput of the three configurations: user-level transactions
    on the read-optimized file system, user-level on LFS, and the
    embedded (kernel) manager in LFS. The paper reports 12.3 TPS,
    13.6 TPS (LFS ~10 % faster), and a kernel implementation at or
    slightly above the user-level one. *)

type bar = {
  setup : Txstack.backend;
  tps_mean : float;
  tps_sd : float;
  per_seed : float list;
  cleaner_stall_mean_s : float;
  paper_tps : float option;  (** the value read off Figure 4, if given *)
  runs : Expcommon.tpcb_run list;  (** the underlying per-seed runs *)
}

type t = {
  bars : bar list;
  scale : Tpcb.scale;
  txns : int;
  config : Config.t;
}

val run :
  ?config:Config.t ->
  ?tps_scale:int ->
  ?txns:int ->
  ?seeds:int list ->
  unit ->
  t
(** Defaults: TPC-B scaling for 4 TPS with all machine parameters scaled
    by the same factor (preserving the paper's cache ≪ database ≪ disk
    ratios), 20 000 measured transactions, three seeds. *)

val to_json : t -> Json.t
(** Machine-readable form: bars with per-seed runs, each carrying the
    machine's full stats (counters and latency histograms). *)

val check : Json.t -> string list
(** The paper's shape, checked on a [BENCH_fig4.json] data block: every
    bar's TPS positive, LFS/user TPS above read-optimized, and kernel TPS
    above 0.85 x LFS/user. *)

val print : t -> unit
