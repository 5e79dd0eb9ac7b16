(** Figure 5 — Impact of Kernel Transaction Implementation on
    Non-transaction Performance.

    The Andrew-like benchmark, the Bigfile benchmark, and the user-level
    transaction system itself are run on a kernel without the embedded
    transaction manager and on one with it. None of them use the new
    system calls, so the only cost is the per-buffer "is this file
    protected?" check — the paper measures differences within 1–2 %. *)

type row = {
  benchmark : string;
  normal_s : float;  (** elapsed on the unmodified kernel *)
  txn_kernel_s : float;  (** elapsed with embedded transactions compiled in *)
  delta_pct : float;
  normal_stats : Stats.t;
  txn_kernel_stats : Stats.t;
}

type t = { rows : row list; config : Config.t }

val run : ?config:Config.t -> ?tps_scale:int -> unit -> t
val to_json : t -> Json.t
val print : t -> unit

val check : Json.t -> string list
(** The paper's shape, checked on a [BENCH_fig5.json] data block: every
    benchmark's [|delta_pct|] is below 2. *)
