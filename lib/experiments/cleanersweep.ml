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

let default_utils = [ 50; 70; 80; 90 ]
let default_mpls = [ 1; 8 ]

(* In the order the report lists each arm's retention. *)
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

let histo_count stats key =
  match Stats.histo stats key with Some h -> Histo.count h | None -> 0

let run ?(tps_scale = 2) ?(txns = 1_000) ?(seed = 1)
    ?(utils = default_utils) ?(mpls = default_mpls) ?(arms = default_arms) () =
  let base = Expcommon.tps_config tps_scale in
  (* The cleaner study wants a log-bound workload with a compact hot
     set, not a data-seek-bound one; the log sweep runs on the same
     scale. *)
  let scale = Expcommon.compact_scale tps_scale in
  let point arm util_pct mpl =
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
    let count k = Json.Int (Stats.count stats k) in
    let moved = Stats.count stats "cleaner.blocks_moved" in
    let reclaimed = Stats.count stats "cleaner.blocks_reclaimed" in
    Json.Obj
      ([
         ("util_pct", Json.Int util_pct);
         ("mpl", Json.Int mpl);
         ("policy", Json.Str (policy_key arm.policy));
         ("segregate", Json.Bool arm.segregate);
         ("arm", Json.Str (arm_key arm));
       ]
      @ Expcommon.run_fields run
      @ [
          ("stall_p99_s", Json.Float (Expcommon.p99 stats "cleaner.stall"));
          ( "write_cost",
            Json.Float
              (if reclaimed = 0 then 0.0
               else float_of_int moved /. float_of_int reclaimed) );
          ("blocks_moved", Json.Int moved);
          ("blocks_reclaimed", Json.Int reclaimed);
          ("segments_cleaned", count "cleaner.segments");
          ("cleans_observed", Json.Int (histo_count stats "cleaner.clean"));
          ("idle_cleans", count "cleaner.idle_cleans");
          ("backoffs", count "cleaner.backoffs");
          ("cold_segments", count "cleaner.cold_segments");
        ])
  in
  Expcommon.sweep_data ~name:"cleanersweep" ~scale ~txns
    (List.concat_map
       (fun arm ->
         List.concat_map (fun util -> List.map (point arm util) mpls) utils)
       arms)

let print data =
  let num = Expcommon.num and str = Expcommon.str in
  let points = Expcommon.points data in
  Expcommon.pp_header
    "Cleaner sweep: utilization x MPL x victim policy x segregation";
  Printf.printf "%-18s %5s %4s %8s %10s %10s %8s %8s %8s\n" "arm" "util" "mpl"
    "tps" "stall_p99" "write_cost" "cleaned" "idle" "backoff";
  List.iter
    (fun p ->
      Printf.printf "%-18s %4.0f%% %4.0f %8.2f %9.3fs %10.2f %8.0f %8.0f %8.0f\n"
        (str "arm" p) (num "util_pct" p) (num "mpl" p) (num "tps" p)
        (num "stall_p99_s" p) (num "write_cost" p) (num "segments_cleaned" p)
        (num "idle_cleans" p) (num "backoffs" p))
    points;
  (* The curve the sweep exists to draw: throughput retained from the
     emptiest to the fullest disk, per arm, at the highest MPL. *)
  let mpl_hi = List.fold_left Float.max 1.0 (List.map (num "mpl") points) in
  let utils = List.sort_uniq compare (List.map (num "util_pct") points) in
  match (utils, List.rev utils) with
  | lo :: _, hi :: _ when lo <> hi ->
    List.iter
      (fun arm ->
        let at u =
          Expcommon.find_point
            [
              ("arm", Json.Str (arm_key arm));
              ("util_pct", Json.Float u);
              ("mpl", Json.Float mpl_hi);
            ]
            points
        in
        match (at lo, at hi) with
        | Some plo, Some phi ->
          let tlo = num "tps" plo and thi = num "tps" phi in
          if tlo > 0.0 then
            Printf.printf
              "%-18s keeps %5.1f%% of its %.0f%%-full TPS at %.0f%% full (MPL \
               %.0f)\n"
              (arm_key arm) (100.0 *. thi /. tlo) lo hi mpl_hi
        | _ -> ())
      default_arms
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
              (Expcommon.str "arm" p);
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
