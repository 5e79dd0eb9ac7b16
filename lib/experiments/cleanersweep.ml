(* Adaptive-cleaner sweep: how do victim policy and hot/cold segregation
   hold up as the disk fills?  Cleaning cost is the one LFS overhead that
   grows with utilization — every reclaimed segment costs copying its
   live blocks first, and at 90 % full a greedy victim barely pays for
   itself.  Cost-benefit victim selection (age-weighted) plus routing
   relocated survivors to a separate cold log head is supposed to flatten
   that curve: cold data gets segregated once and stops being recopied,
   so the hot segments the cleaner actually needs stay empty.  The sweep
   prefills the disk with static (cold) fill files to a target
   utilization, then runs TPC-B (whose branch/teller pages are hot and
   whose history tail is append-only) and reports throughput, cleaner
   stall p99 and the per-victim write cost for every
   utilization x MPL x policy x segregation cell. *)

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
  config : Config.t;
}

let default_utils = [ 50; 70; 80; 90 ]
let default_mpls = [ 1; 8 ]

let default_arms =
  [
    { policy = `Greedy; segregate = false };
    { policy = `Greedy; segregate = true };
    { policy = `Cost_benefit; segregate = false };
    { policy = `Cost_benefit; segregate = true };
  ]

let policy_key = function `Greedy -> "greedy" | `Cost_benefit -> "cost-benefit"

let arm_key a =
  Printf.sprintf "%s%s" (policy_key a.policy)
    (if a.segregate then "+seg" else "")

(* The cleaner study wants a log-bound workload with a compact hot set,
   not a data-seek-bound one; the log sweep runs on the same scale. *)
let spread_scale tps =
  { Tpcb.accounts = 2_000 * tps; tellers = 200 * tps; branches = 200 * tps }

(* Fill the disk with static files until only [target_free] segments
   remain.  The fill is written once and never touched again — it is the
   cold mass whose treatment separates the policies.  The floor keeps the
   prefill out of the cleaner's low-water territory, so the measured run
   starts clean-free at every utilization. *)
let prefill ~util_pct _m (vfs : Vfs.t) lfs =
  match lfs with
  | None -> ()
  | Some fs ->
    let cfg = (Lfs.config fs).Config.fs in
    let nseg = Lfs.nsegments fs in
    let target_free =
      max (nseg * (100 - util_pct) / 100) (cfg.Config.cleaner_low_segments + 4)
    in
    let bs = vfs.Vfs.block_size in
    let fill_blocks = max 1 (cfg.Config.segment_blocks - 1) in
    vfs.Vfs.mkdir "/fill";
    let block = Bytes.make bs 'c' in
    let i = ref 0 in
    while Lfs.free_segments fs > target_free do
      let fd = vfs.Vfs.create (Printf.sprintf "/fill/f%d" !i) in
      for b = 0 to fill_blocks - 1 do
        vfs.Vfs.write fd ~off:(b * bs) block
      done;
      vfs.Vfs.fsync fd;
      incr i
    done;
    vfs.Vfs.sync ()

let p99 stats key =
  match Stats.histo stats key with
  | Some h -> Histo.percentile h 0.99
  | None -> 0.0

let histo_count stats key =
  match Stats.histo stats key with Some h -> Histo.count h | None -> 0

let run ?(tps_scale = 2) ?(txns = 1_000) ?(seed = 1) ?(utils = default_utils)
    ?(mpls = default_mpls) ?(arms = default_arms) () =
  let base =
    Config.scaled ~factor:(float_of_int tps_scale /. 10.0) Config.default
  in
  let scale = spread_scale tps_scale in
  let points =
    List.concat_map
      (fun arm ->
        List.concat_map
          (fun util_pct ->
            List.map
              (fun mpl ->
                let fs =
                  {
                    base.Config.fs with
                    Config.cleaner_policy = arm.policy;
                    cleaner_segregate = arm.segregate;
                    lock_grain = `Record;
                    group_commit_size = 8;
                    group_commit_timeout_s = 0.02;
                  }
                in
                let cfg = { base with Config.fs } in
                let prepare = prefill ~util_pct in
                (* MPL 1 runs inline, as the paper measured. *)
                let run =
                  Expcommon.run_tpcb ~prepare
                    ?mpl:(if mpl > 1 then Some mpl else None)
                    ~config:cfg ~scale ~txns ~seed Txstack.Lfs_kernel
                in
                let stats = run.Expcommon.stats in
                let moved = Stats.count stats "cleaner.blocks_moved" in
                let reclaimed = Stats.count stats "cleaner.blocks_reclaimed" in
                {
                  util_pct;
                  mpl;
                  arm;
                  run;
                  stall_p99_s = p99 stats "cleaner.stall";
                  write_cost =
                    (if reclaimed = 0 then 0.0
                     else float_of_int moved /. float_of_int reclaimed);
                  blocks_moved = moved;
                  blocks_reclaimed = reclaimed;
                  segments_cleaned = Stats.count stats "cleaner.segments";
                  cleans_observed = histo_count stats "cleaner.clean";
                  idle_cleans = Stats.count stats "cleaner.idle_cleans";
                  backoffs = Stats.count stats "cleaner.backoffs";
                  cold_segments = Stats.count stats "cleaner.cold_segments";
                })
              mpls)
          utils)
      arms
  in
  { points; scale; txns; config = base }

let point_json p =
  Json.Obj
    [
      ("util_pct", Json.Int p.util_pct);
      ("mpl", Json.Int p.mpl);
      ("policy", Json.Str (policy_key p.arm.policy));
      ("segregate", Json.Bool p.arm.segregate);
      ("arm", Json.Str (arm_key p.arm));
      ("tps", Json.Float p.run.Expcommon.result.Tpcb.tps);
      ("elapsed_s", Json.Float p.run.Expcommon.result.Tpcb.elapsed_s);
      ("txns", Json.Int p.run.Expcommon.result.Tpcb.txns);
      ("max_latency_s", Json.Float p.run.Expcommon.result.Tpcb.max_latency_s);
      ("cleaner_stall_s", Json.Float p.run.Expcommon.cleaner_stall_s);
      ("stall_p99_s", Json.Float p.stall_p99_s);
      ("write_cost", Json.Float p.write_cost);
      ("blocks_moved", Json.Int p.blocks_moved);
      ("blocks_reclaimed", Json.Int p.blocks_reclaimed);
      ("segments_cleaned", Json.Int p.segments_cleaned);
      ("cleans_observed", Json.Int p.cleans_observed);
      ("idle_cleans", Json.Int p.idle_cleans);
      ("backoffs", Json.Int p.backoffs);
      ("cold_segments", Json.Int p.cold_segments);
      ("stats", Stats.to_json p.run.Expcommon.stats);
    ]

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "cleanersweep");
      ("scale", Expcommon.scale_json t.scale);
      ("txns", Json.Int t.txns);
      ("points", Json.List (List.map point_json t.points));
    ]

let print t =
  Expcommon.pp_header
    "Cleaner sweep: utilization x MPL x victim policy x segregation";
  Printf.printf "%-18s %5s %4s %8s %10s %10s %8s %8s %8s\n" "arm" "util" "mpl"
    "tps" "stall_p99" "write_cost" "cleaned" "idle" "backoff";
  List.iter
    (fun p ->
      Printf.printf "%-18s %4d%% %4d %8.2f %9.3fs %10.2f %8d %8d %8d\n"
        (arm_key p.arm) p.util_pct p.mpl p.run.Expcommon.result.Tpcb.tps
        p.stall_p99_s p.write_cost p.segments_cleaned p.idle_cleans p.backoffs)
    t.points;
  (* The curve the sweep exists to draw: throughput retained from the
     emptiest to the fullest disk, per arm, at the highest MPL. *)
  let mpl_hi = List.fold_left max 1 (List.map (fun p -> p.mpl) t.points) in
  let utils = List.sort_uniq compare (List.map (fun p -> p.util_pct) t.points) in
  match (utils, List.rev utils) with
  | lo :: _, hi :: _ when lo <> hi ->
    List.iter
      (fun arm ->
        let at u =
          List.find_opt
            (fun p -> p.arm = arm && p.util_pct = u && p.mpl = mpl_hi)
            t.points
        in
        match (at lo, at hi) with
        | Some plo, Some phi ->
          let tlo = plo.run.Expcommon.result.Tpcb.tps
          and thi = phi.run.Expcommon.result.Tpcb.tps in
          if tlo > 0.0 then
            Printf.printf
              "%-18s keeps %5.1f%% of its %d%%-full TPS at %d%% full (MPL %d)\n"
              (arm_key arm) (100.0 *. thi /. tlo) lo hi mpl_hi
        | _ -> ())
      (List.sort_uniq compare (List.map (fun p -> p.arm) t.points))
  | _ -> ()

(* Cleaner accounting must be consistent — every cleaned segment,
   dead-segment reclaims included, observed exactly once by the clean
   histogram — and the headline claim must hold: at the contended end of
   the sweep (MPL 8), cost-benefit with segregation keeps more of its
   emptiest-disk throughput at the fullest disk than greedy without. *)
let check =
  Expcommon.check_sweep ~name:"cleanersweep"
    ~fields:
      [
        "util_pct";
        "mpl";
        "policy";
        "segregate";
        "tps";
        "stall_p99_s";
        "write_cost";
        "segments_cleaned";
        "cleans_observed";
      ]
    (fun points ->
      let num = Expcommon.num in
      let accounting p =
        let cleaned = num "segments_cleaned" p in
        let observed = num "cleans_observed" p in
        if cleaned <> observed then
          [
            Printf.sprintf
              "cleanersweep: segments_cleaned (%g) != cleans_observed (%g) at \
               util %g%% mpl %g (%s)"
              cleaned observed (num "util_pct" p) (num "mpl" p)
              (match Json.member "arm" p with
              | Some (Json.Str a) -> a
              | _ -> "?");
          ]
        else []
      in
      let utils = List.sort_uniq compare (List.map (num "util_pct") points) in
      let retention =
        match (utils, List.rev utils) with
        | lo :: _, hi :: _ when lo <> hi -> (
          let kept policy segregate =
            let at util =
              Expcommon.find_point
                [
                  ("policy", Json.Str policy);
                  ("segregate", Json.Bool segregate);
                  ("util_pct", Json.Float util);
                  ("mpl", Json.Int 8);
                ]
                points
            in
            match (at lo, at hi) with
            | Some plo, Some phi when num "tps" plo > 0.0 ->
              Some (num "tps" phi /. num "tps" plo)
            | _ -> None
          in
          match (kept "cost-benefit" true, kept "greedy" false) with
          | Some cb, Some greedy when cb <= greedy ->
            [
              Printf.sprintf
                "cleanersweep: cost-benefit+seg keeps %.1f%% of its %d%%-full \
                 TPS at %d%% full (MPL 8) — not above greedy's %.1f%%"
                (100.0 *. cb) (int_of_float lo) (int_of_float hi)
                (100.0 *. greedy);
            ]
          | _ -> [])
        | _ -> []
      in
      List.concat_map accounting points @ retention)
