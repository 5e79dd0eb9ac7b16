(** Figure 6 — Sequential Performance after Random I/O (the SCAN test).

    Both file systems execute a TPC-B run and then read the account
    relation in key order through a B-tree cursor. The read-optimized
    system kept the file's original layout (updates were in place) while
    LFS scattered the updated blocks across segments; the paper measures
    the read-optimized scan ~50 % faster (≈2000 s vs ≈3000 s at full
    scale). *)

type side = {
  fs_name : string;
  tps : float;  (** throughput of the preceding transaction run *)
  scan_s : float;
  contiguity : float option;
      (** fraction of adjacent leaf blocks adjacent on disk (FFS only) *)
  stats : Stats.t;  (** the machine's stats for run + scan *)
}

type t = {
  readopt : side;
  lfs : side;
  txns : int;  (** transactions executed before the scan *)
  config : Config.t;
}

val run :
  ?config:Config.t -> ?tps_scale:int -> ?txns:int -> ?seed:int -> unit -> t
(** Defaults: TPC-B scale 4, 20 000 transactions before the scan. *)

val to_json : t -> Json.t
val print : t -> unit

val check : Json.t -> string list
(** The paper's shape, checked on a [BENCH_fig6.json] data block: the
    LFS scan is slower than the read-optimized one, and the
    read-optimized layout's contiguity is above 0.95. *)
