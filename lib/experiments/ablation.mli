(** Ablations for the design points the paper discusses:

    - {b test-and-set} (Section 5.1 / [1]): with a hardware test-and-set
      instruction, user-level mutexes stop costing two system calls and
      the user/kernel gap of Figure 4 closes;
    - {b cleaner placement} (Section 5.4): the user-space cleaner cleans
      incrementally instead of locking files for a long batch, shrinking
      the worst-case transaction stall;
    - {b cleaning policy}: greedy vs cost-benefit victim selection under
      the TPC-B hot-update workload;
    - {b group commit} (Section 4.4): commit-flush batching vs timeout at
      multiprogramming level 1;
    - {b multiprogramming}: the embedded manager at levels 1, 2 and 4 on
      the scheduler. *)

type row = { label : string; tps : float; max_latency_s : float; note : string }

type t = { title : string; rows : row list }

val test_and_set : ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> t

type coalesce_result = {
  scan_before_s : float;  (** LFS key-order scan right after the run *)
  scan_after_s : float;  (** the same scan after coalescing *)
  coalesce_cost_s : float;  (** simulated time the idle-cleaner spent *)
  contiguity_before : float;
  contiguity_after : float;
}

val coalescing :
  ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> coalesce_result
(** Section 5.4's proposed fix for Figure 6: after the random-update run,
    an idle-time coalescing cleaner rewrites the account file in logical
    order, and the key-order scan drops back toward its pre-fragmentation
    time. *)

val print_coalescing : coalesce_result -> unit

val multiprogramming :
  ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> t
(** TPC-B throughput, worst latency, lock blocks and deadlocks of the
    embedded manager at multiprogramming levels 1, 2 and 4, each on the
    discrete-event scheduler ({!Expcommon.run_tpcb_mpl}). The paper
    expected "only marginally" more throughput from a higher level; here
    throughput rises well above that (5.82 / 7.70 / 10.09 TPS at
    [~tps_scale:1 ~txns:500]) while lock blocks and the worst latency
    grow. *)

val cleaner_placement : ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> t
val cleaning_policy : ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> t
val group_commit : ?config:Config.t -> ?tps_scale:int -> ?txns:int -> unit -> t

val print : t -> unit
