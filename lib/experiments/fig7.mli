(** Figure 7 — Total elapsed time for transaction processing plus a
    sequential scan, as a function of how many transactions run before
    the scan.

    As in the paper, the scan time is pessimistically fixed at its
    measured post-run value for each system, and the per-transaction
    rate comes from the Figure 4 measurement:
    [elapsed(n) = n / TPS + scan]. The crossover is the number of
    transactions per scan beyond which LFS wins overall; the paper finds
    ≈134 300 transactions (≈2 h 40 m at 13.6 TPS). *)

type t = {
  readopt_tps : float;
  lfs_tps : float;
  readopt_scan_s : float;
  lfs_scan_s : float;
  crossover_txns : float option;
      (** [None] if the lines never cross (LFS not slower to scan or not
          faster to process) *)
  series : (int * float * float) list;
      (** (n, read-optimized total, LFS total) samples for the plot *)
}

val of_measurements : fig4:Fig4.t -> fig6:Fig6.t -> t
(** Derive the figure from the Figure 4 and Figure 6 measurements. *)

val artifact_json : fig4:Fig4.t -> fig6:Fig6.t -> t -> Json.t
(** The [BENCH_fig7.json] data block: the figure under [fig7], beside
    the Figure 4 and 6 measurements it was derived from under
    [sources.fig4] and [sources.fig6]. *)

val print : t -> unit

val check : Json.t -> string list
(** The paper's shape, checked on an {!artifact_json} data block: a
    crossover exists. *)
